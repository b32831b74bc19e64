"""Acceptance suite: one test and one printed verdict line per criterion.

Heavy scenario runs are shared through session fixtures; every run uses
fixed derived seeds, so each criterion's number is reproducible. Run
with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp, lognorm, spearmanr

from lobsim import stats
from lobsim.agents import TraderKind, TraderSpec
from lobsim.experiments import (
    Scenario,
    bigtrader_scenario,
    lifetime_sweep,
    run_scenario,
)
from lobsim.impact import curve_distance, impact_distribution, quantile_volumes
from lobsim.orderbook import Depth, Order, OrderBook, Side
from lobsim.simulator import SimConfig, calibrate_c, derive_seed, run

from .helpers import build_random_book, make_stream
from .reference_matcher import ReferenceMatcher

TPM_TARGET = 5.4
HORIZON = 100_000


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {verdict} - {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def seed_range(base: int, n: int) -> tuple[int, ...]:
    return tuple(derive_seed(base, i) for i in range(n))


def rt_specs(mu_lt: float) -> tuple[TraderSpec, ...]:
    return (TraderSpec(mu_lifetime=mu_lt),)


def probe_config(specs: tuple[TraderSpec, ...]) -> SimConfig:
    warmup = min(int(10 * max(s.mu_lifetime for s in specs)), 12_000)
    return SimConfig(trader_specs=specs, c=6.0, horizon_T=42_000,
                     warmup=warmup, seed=777)


@pytest.fixture(scope="session")
def calibrate():
    """Session-cached per-population trade-frequency calibration."""
    cache: dict = {}

    def _calibrate(specs: tuple[TraderSpec, ...]) -> float:
        if specs not in cache:
            cache[specs] = calibrate_c(TPM_TARGET, probe_config(specs))
        return cache[specs]

    return _calibrate


@pytest.fixture(scope="session")
def scenario_120(calibrate):
    cfg = SimConfig(trader_specs=rt_specs(120.0), c=calibrate(rt_specs(120.0)),
                    horizon_T=HORIZON, seed=0)
    scen = Scenario(
        name="rt120", config=cfg, seeds=seed_range(1001, 96),
        outputs=frozenset({"kurtosis_point", "return_pdf", "volatility_pdf"}),
    )
    return run_scenario(scen)


@pytest.fixture(scope="session")
def scenario_3600(calibrate):
    cfg = SimConfig(trader_specs=rt_specs(3600.0), c=calibrate(rt_specs(3600.0)),
                    horizon_T=HORIZON, seed=0)
    scen = Scenario(name="rt3600", config=cfg, seeds=seed_range(2002, 50))
    return run_scenario(scen)


def _snapshot_scenario(name, mu_lt, c, seed_base, n_seeds):
    cfg = SimConfig(trader_specs=rt_specs(mu_lt), c=c, horizon_T=HORIZON,
                    snapshot_interval=60, seed=0)
    scen = Scenario(name=name, config=cfg, seeds=seed_range(seed_base, n_seeds),
                    outputs=frozenset({"kurtosis_point", "snapshots"}))
    return run_scenario(scen)


@pytest.fixture(scope="session")
def impact_120(calibrate):
    return _snapshot_scenario("imp120", 120.0, calibrate(rt_specs(120.0)),
                              3003, 40)


@pytest.fixture(scope="session")
def impact_1200(calibrate):
    return _snapshot_scenario("imp1200", 1200.0, calibrate(rt_specs(1200.0)),
                              4004, 64)


def pooled_snapshots(result) -> Depth:
    return Depth.concat((run_art.depth for run_art in result.runs),
                        result.scenario.config.tick_size)


@pytest.fixture(scope="session")
def bigtrader_k5(calibrate):
    """The kappa=5 BigTrader scenario defining the traded-volume quantiles."""
    specs = (TraderSpec(mu_lifetime=1200.0),
             TraderSpec(kind=TraderKind.BIG, count=30, kappa=5.0,
                        mu_lifetime=1200.0))
    cfg = SimConfig(trader_specs=specs, c=calibrate(specs), horizon_T=HORIZON,
                    snapshot_interval=60, seed=0)
    scen = Scenario(
        name="bigtape", config=cfg, seeds=seed_range(5005, 16),
        outputs=frozenset({"impact_curves", "kurtosis_point"}),
        impact_quantiles=(0.1, 0.5, 0.9, 0.99),
    )
    return run_scenario(scen)


@pytest.fixture(scope="session")
def bigtrader_k8(calibrate):
    """300 RandomTraders plus 30 BigTraders trading kappa > 5 larger volumes."""
    kappa = 8.0
    specs = (TraderSpec(mu_lifetime=1200.0),
             TraderSpec(kind=TraderKind.BIG, count=30, kappa=kappa,
                        mu_lifetime=1200.0))
    base_cfg = SimConfig(trader_specs=rt_specs(1200.0), c=calibrate(specs),
                         horizon_T=HORIZON, seed=0)
    base = Scenario(name="big1200", config=base_cfg, seeds=seed_range(6006, 96))
    return run_scenario(bigtrader_scenario(base, kappa=kappa, n_big=30))


# ----------------------------------------------------------------------
# criterion 1: matching-engine oracle
# ----------------------------------------------------------------------


def _oracle_stream(stream_seed: int) -> tuple[bool, int]:
    stream = make_stream(np.random.default_rng(stream_seed), 10_000,
                         lifetime_mean=40.0)
    book = OrderBook()
    ref = ReferenceMatcher()
    tape = []
    ref_tape = []
    step_now = 1
    last_step = stream[-1][0]
    for step, oid, side, tick, shares, expires in stream:
        while step_now < step:
            book.expire(step_now)
            ref.expire(step_now)
            step_now += 1
        fills = book.submit(Order(oid, side, tick, shares, step, expires))[0]
        # the reference's tuple: the fill plus the submitted order
        tape += [(step, fill_tick, n, oid, resting_id, side.value)
                 for fill_tick, n, resting_id in fills]
        ref_tape += ref.submit(oid, side.value, tick, shares, step, expires)[0]
    for step in range(step_now, last_step + 1):
        expired = sorted(book.expire(step))
        if expired != ref.expire(step):
            return False, len(tape)
    return tape == ref_tape and book.open_order_ids() == ref.open_ids(), len(tape)


def test_criterion_1_matching_oracle():
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_oracle_stream, range(71000, 71100)))
    elapsed = time.perf_counter() - t0
    identical = all(ok for ok, _ in results)
    n_trades = sum(n for _, n in results)
    ok = identical and elapsed < 10.0
    report(1, "matching-engine oracle", ok,
           f"100 streams x 10^4 orders, {n_trades} fills, "
           f"tapes identical={identical}, {elapsed:.1f}s (< 10 s)")


# ----------------------------------------------------------------------
# criterion 2: trade-frequency calibration
# ----------------------------------------------------------------------


def test_criterion_2_calibration():
    t0 = time.perf_counter()
    c = calibrate_c(TPM_TARGET, probe_config(rt_specs(120.0)))
    cfg = SimConfig(trader_specs=rt_specs(120.0), c=c, horizon_T=HORIZON, seed=0)
    fresh = [run(replace(cfg, seed=s)).trades_per_minute
             for s in seed_range(7007, 5)]
    tpm = float(np.mean(fresh))
    elapsed = time.perf_counter() - t0
    ok = abs(tpm - TPM_TARGET) <= 0.10 * TPM_TARGET and elapsed < 120.0
    report(2, "trade-frequency calibration", ok,
           f"c={c:.3f}, fresh-seed tpm={tpm:.3f} "
           f"(target {TPM_TARGET} +- 10%), {elapsed:.0f}s (< 120 s)")


# ----------------------------------------------------------------------
# criterion 3: fat-tail regime
# ----------------------------------------------------------------------


def test_criterion_3_fat_tail_regime(scenario_120, scenario_3600):
    g2_short = scenario_120.gamma2
    g2_long = scenario_3600.gamma2
    ok = g2_short > 3.0 and abs(g2_long) < 1.0
    report(3, "fat-tail regime", ok,
           f"gamma2(mu_lt=120, {len(scenario_120.runs)} seeds)={g2_short:.2f} (> 3); "
           f"gamma2(mu_lt=3600, {len(scenario_3600.runs)} seeds)={g2_long:.2f} (|.| < 1)")


# ----------------------------------------------------------------------
# criterion 4: kurtosis decline over the lifetime sweep
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def sweep_result():
    base_cfg = SimConfig(trader_specs=rt_specs(120.0), c=6.0, horizon_T=HORIZON,
                         seed=0)
    base = Scenario(name="sweep", config=base_cfg, seeds=seed_range(4242, 40))
    return lifetime_sweep(
        base, [120.0, 360.0, 600.0, 900.0, 1500.0, 3600.0],
        target_tpm=TPM_TARGET,
    )


def test_criterion_4_kurtosis_decline(sweep_result):
    vols = [row.avg_volume_per_day for row in sweep_result.rows]
    gammas = [row.excess_kurtosis for row in sweep_result.rows]
    rho = float(spearmanr(vols, gammas).statistic)
    monotone_vol = all(a < b for a, b in zip(vols, vols[1:]))
    ok = rho < -0.8 and monotone_vol
    rows = "; ".join(
        f"lt={row.mu_lt:g}: vol={row.avg_volume_per_day:.0f}, "
        f"g2={row.excess_kurtosis:.2f}"
        for row in sweep_result.rows
    )
    report(4, "kurtosis decline", ok,
           f"Spearman(vol, gamma2)={rho:.3f} (< -0.8), "
           f"volume monotone={monotone_vol}; {rows}")


# ----------------------------------------------------------------------
# criterion 5: virtual market impact
# ----------------------------------------------------------------------


def test_criterion_5_virtual_impact(impact_120, impact_1200, bigtrader_k5):
    """Gaps, not order size, make the sparse book's large price shifts.

    Asked in the "volume or liquidity" form (Weber & Rosenow, Quant.
    Finance 6:7, 2006): at the 99th percentile, the 0.9-quantile traded
    volume shifts the price further in the sparse book (lifetime 120)
    than the 0.99-quantile volume does in the dense book (lifetime
    1200). In the dense book the two volumes still give distinct impact
    distributions (KS). Censored walks are excluded, which drops the
    sparse book's thinnest snapshots and so works against the claim.

    The lifetime-120 sup-distance between the two volumes' curves is
    printed, not asserted: a walk never decreases with volume, and both
    volumes fit inside most sparse books, whose levels hold about one
    order each, so the two curves cannot coincide there.
    """
    tape_shares = np.concatenate([r.tape_shares for r in bigtrader_k5.runs])
    v09, v99 = quantile_volumes(tape_shares, (0.9, 0.99))
    snaps_120 = pooled_snapshots(impact_120)
    snaps_1200 = pooled_snapshots(impact_1200)
    c120_a = impact_distribution(snaps_120, Side.BUY, v09)
    c120_b = impact_distribution(snaps_120, Side.BUY, v99)
    dist_120 = curve_distance(c120_a, c120_b)
    c1200_a = impact_distribution(snaps_1200, Side.BUY, v09)
    c1200_b = impact_distribution(snaps_1200, Side.BUY, v99)
    p_1200 = float(ks_2samp(c1200_a.samples, c1200_b.samples).pvalue)
    tail_120 = float(np.quantile(c120_a.samples, 0.99))
    tail_1200 = float(np.quantile(c1200_b.samples, 0.99))
    ok = tail_120 > tail_1200 and p_1200 < 0.01
    report(5, "virtual market impact", ok,
           f"0.9/0.99-quantile volumes v=({v09}, {v99}); "
           f"99th-pct shift: v={v09} at mu_lt=120 {tail_120:.2f} "
           f"> v={v99} at mu_lt=1200 {tail_1200:.2f}; "
           f"KS p(mu_lt=1200)={p_1200:.2e} (< 0.01); "
           f"sup-distance(mu_lt=120)={dist_120:.3f} (not asserted); "
           f"censored@120={c120_a.censored_count}/{c120_b.censored_count} "
           f"of {c120_a.n_snapshots}")


def test_fig5_gap_phenomenon_depth_spanning_volumes(impact_120, impact_1200):
    """Companion to criterion 5 at volumes deeper than both books.

    Both volumes exceed the ask depth of nearly every snapshot: at
    lifetime 120, all but one snapshot hold fewer than 300 ask shares
    and all hold fewer than 900; at lifetime 1200 every snapshot holds
    fewer than 900. With censored="saturate" such walks stop at the
    deepest ask level, so at lifetime 120 both volumes give the same
    shift on nearly every snapshot and the coincidence holds by
    construction. It says nothing about gaps. The dense book separates
    the two volumes because about half of its snapshots hold 300 shares
    or more.
    """
    va, vb = 300, 900
    snaps_120 = pooled_snapshots(impact_120)
    snaps_1200 = pooled_snapshots(impact_1200)
    c120_a = impact_distribution(snaps_120, Side.BUY, va, censored="saturate")
    c120_b = impact_distribution(snaps_120, Side.BUY, vb, censored="saturate")
    dist_120 = curve_distance(c120_a, c120_b)
    c1200_a = impact_distribution(snaps_1200, Side.BUY, va, censored="saturate")
    c1200_b = impact_distribution(snaps_1200, Side.BUY, vb, censored="saturate")
    dist_1200 = curve_distance(c1200_a, c1200_b)
    p_1200 = float(ks_2samp(c1200_a.samples, c1200_b.samples).pvalue)
    print(f"\nFig-5 phenomenon: v=({va}, {vb}) saturate; "
          f"supdist(120)={dist_120:.4f}, supdist(1200)={dist_1200:.3f}, "
          f"KS p(1200)={p_1200:.2e}; "
          f"censored@120={c120_a.censored_count}/{c120_b.censored_count} "
          f"of {c120_a.n_snapshots}, "
          f"censored@1200={c1200_a.censored_count}/{c1200_b.censored_count} "
          f"of {c1200_a.n_snapshots}", flush=True)
    assert dist_120 < 0.05
    assert p_1200 < 0.01
    assert dist_1200 > dist_120


# ----------------------------------------------------------------------
# criterion 6: BigTrader effect
# ----------------------------------------------------------------------


def test_criterion_6_bigtrader_effect(impact_1200, bigtrader_k8):
    g2_pure = impact_1200.gamma2
    g2_big = bigtrader_k8.gamma2
    diff = g2_big - g2_pure
    ok = diff > 1.0
    report(6, "BigTrader effect", ok,
           f"mu_lt=1200, 30 BigTraders kappa=8 (paper: kappa > 5): "
           f"gamma2 big={g2_big:.2f} vs pure={g2_pure:.2f}, "
           f"diff={diff:.2f} (> 1)")


def test_bigtrader_kappa5_fat_tails(bigtrader_k5, impact_1200):
    """Companion: already at kappa=5 the mixed population is leptokurtic."""
    g2 = bigtrader_k5.gamma2
    print(f"\nBigTrader kappa=5 companion: gamma2={g2:.2f} "
          f"(pure at same lifetime: {impact_1200.gamma2:.2f})", flush=True)
    assert g2 > 1.0


def test_trader_count_independence(calibrate):
    """Probe: RandomTrader results do not depend on the population size."""
    gammas = {}
    for n_traders in (150, 600):
        specs = (TraderSpec(count=n_traders, mu_lifetime=120.0),)
        cfg = SimConfig(trader_specs=specs, c=calibrate(specs),
                        horizon_T=HORIZON, seed=0)
        scen = Scenario(name=f"n{n_traders}", config=cfg,
                        seeds=seed_range(8808, 24))
        gammas[n_traders] = run_scenario(scen).gamma2
    print(f"\ntrader-count probe: gamma2(N=150)={gammas[150]:.2f}, "
          f"gamma2(N=600)={gammas[600]:.2f}", flush=True)
    assert all(g > 2.0 for g in gammas.values())
    assert abs(gammas[150] - gammas[600]) < 1.0


# ----------------------------------------------------------------------
# criterion 7: volatility distribution
# ----------------------------------------------------------------------


def test_criterion_7_volatility_lognormal(scenario_120):
    vols = scenario_120.volatilities
    vols = vols[vols > 0]
    loc, scale = stats.lognormal_reference(vols)
    d = stats.ks_statistic(vols, lognorm(s=scale, scale=np.exp(loc)).cdf)
    ok = d < 0.1
    report(7, "volatility distribution", ok,
           f"mu_lt=120, window 1000 steps, {vols.size} sigma samples: "
           f"KS distance to fitted log-normal={d:.3f} (< 0.1)")


# ----------------------------------------------------------------------
# criterion 8: statistical kernel correctness
# ----------------------------------------------------------------------


def _ask_supply(snap, limit: int) -> int:
    """Ask shares resting at or below ``limit``."""
    return int(snap.ask_shares[snap.ask_ticks <= limit].sum())


def test_criterion_8_statistical_kernels():
    t0 = time.perf_counter()
    rng = np.random.default_rng(818181)

    g2_normal = stats.excess_kurtosis(rng.standard_normal(1_000_000))
    g2_laplace = stats.excess_kurtosis(rng.laplace(0.0, 1.0, 1_000_000))

    g = stats.normalize(stats.ReturnSeries(rng.exponential(1.0, 200_000), 60))
    norm_ok = abs(g.values.mean()) < 1e-9 and abs(g.values.std() - 1.0) < 1e-9

    depth_ok = True
    for i in range(10_000):
        book = build_random_book(np.random.default_rng(900_000 + i),
                                 n_orders=15, sigma_ticks=12.0)
        snap = book.snapshot(0)
        total = int(snap.ask_shares.sum())
        cum = np.cumsum(snap.ask_shares)
        if not (np.diff(cum) >= 0).all():  # supply monotone in depth
            depth_ok = False
            break
        best = int(snap.ask_ticks[0])
        for v in (1, max(1, total // 2), total):
            shifts = impact_distribution(snap, Side.BUY, v).samples
            level = best + int(round(float(shifts[0]) / book.tick_size))
            if _ask_supply(snap, level) < v:  # inverse consistency, upper
                depth_ok = False
            prev = [t for t in snap.ask_ticks.tolist() if t < level]
            if prev and _ask_supply(snap, prev[-1]) >= v:  # and lower
                depth_ok = False
        if not depth_ok:
            break

    elapsed = time.perf_counter() - t0
    ok = (
        abs(g2_normal) <= 0.05
        and abs(g2_laplace - 3.0) <= 0.1
        and norm_ok
        and depth_ok
        and elapsed < 60.0
    )
    report(8, "statistical kernels", ok,
           f"gamma2(normal 1e6)={g2_normal:+.3f} (0 +- 0.05), "
           f"gamma2(laplace 1e6)={g2_laplace:.3f} (3 +- 0.1), "
           f"normalize to 1e-9={norm_ok}, "
           f"supply/demand monotone+inverse on 10^4 books={depth_ok}, "
           f"{elapsed:.0f}s (< 60 s)")


# ----------------------------------------------------------------------
# criterion 9: determinism
# ----------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    cfg = SimConfig(trader_specs=rt_specs(120.0), c=5.0, horizon_T=20_000,
                    warmup=1_500, snapshot_interval=60, seed=0)
    scen = Scenario(
        name="det", config=cfg, seeds=seed_range(909, 6),
        outputs=frozenset({"return_pdf", "kurtosis_point", "volatility_pdf",
                           "impact_curves", "snapshots"}),
        impact_volumes=(10, 60),
        impact_censored="saturate",
    )
    run_scenario(scen, out_dir=tmp_path / "a", workers=2)
    run_scenario(scen, out_dir=tmp_path / "b", workers=1)
    pooled_a = sorted((tmp_path / "a" / "det" / "pooled").glob("*.csv"))
    pooled_b = sorted((tmp_path / "b" / "det" / "pooled").glob("*.csv"))
    names_ok = [p.name for p in pooled_a] == [p.name for p in pooled_b]
    bytes_ok = all(a.read_bytes() == b.read_bytes()
                   for a, b in zip(pooled_a, pooled_b))
    ok = names_ok and bytes_ok and len(pooled_a) >= 6
    report(9, "determinism", ok,
           f"{len(pooled_a)} pooled CSVs byte-identical across rerun "
           f"(and across 2 vs 1 workers): {bytes_ok}")
