"""Scenario orchestration, pooling determinism, config files, CLI."""

import multiprocessing
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from lobsim.agents import TraderSpec
from lobsim.cli import main
from lobsim.experiments import (
    Scenario,
    lifetime_sweep,
    run_scenario,
    scenario_from_config,
    with_lifetime,
    write_config,
)
from lobsim.impact import impact_distribution
from lobsim.orderbook import Depth, Side
from lobsim import experiments, simulator
from lobsim.simulator import SimConfig, derive_seed, run

from .helpers import snapshot_csv_rows


def tiny_scenario(name="tiny", seeds=(5, 2), **cfg_overrides) -> Scenario:
    cfg = dict(
        trader_specs=(TraderSpec(count=50, mu_lifetime=120.0),),
        c=5.0,
        horizon_T=15_000,
        warmup=1_200,
        seed=0,
    )
    cfg.update(cfg_overrides)
    return Scenario(name=name, config=SimConfig(**cfg), seeds=seeds)


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ----------------------------------------------------------------------
# run_scenario
# ----------------------------------------------------------------------


def test_pooled_counts_sum_per_seed():
    res = run_scenario(tiny_scenario(), workers=1)
    assert len(res.runs) == 2
    assert res.pooled_returns.size == sum(r.n_returns for r in res.runs)
    assert [r.seed for r in res.runs] == [2, 5]  # sorted by seed


def test_rerun_emits_identical_csv_bytes(tmp_path):
    scen = tiny_scenario()
    run_scenario(scen, out_dir=tmp_path / "a", workers=1)
    run_scenario(scen, out_dir=tmp_path / "b", workers=1)
    a = read_tree(tmp_path / "a")
    b = read_tree(tmp_path / "b")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


def test_seed_permutation_invariant(tmp_path):
    scen_a = tiny_scenario(seeds=(5, 2, 9))
    scen_b = tiny_scenario(seeds=(9, 5, 2))
    res_a = run_scenario(scen_a, out_dir=tmp_path / "a", workers=1)
    res_b = run_scenario(scen_b, out_dir=tmp_path / "b", workers=1)
    assert res_a.gamma2 == res_b.gamma2
    np.testing.assert_array_equal(res_a.pooled_returns, res_b.pooled_returns)
    a = read_tree(tmp_path / "a")
    b = read_tree(tmp_path / "b")
    del a["tiny/scenario.cfg"], b["tiny/scenario.cfg"]  # records seed order
    assert a == b


def test_worker_pool_matches_inline():
    scen = tiny_scenario(seeds=(3, 8))
    inline = run_scenario(scen, workers=1)
    pooled = run_scenario(scen, workers=2)
    assert inline.gamma2 == pooled.gamma2
    np.testing.assert_array_equal(inline.pooled_returns, pooled.pooled_returns)


def test_resolve_workers():
    assert experiments._resolve_workers(3, 8) == 3
    assert experiments._resolve_workers(16, 4) == 4
    for bad in (0, -2):
        with pytest.raises(ValueError, match="^workers must"):
            experiments._resolve_workers(bad, 8)
    with pytest.raises(ValueError, match=r"^workers = 1\.5 is not a valid int$"):
        experiments._resolve_workers(1.5, 8)
    with pytest.raises(ValueError, match="^workers must"):
        run_scenario(tiny_scenario(), workers=0)


def test_failure_reports_seed(monkeypatch):
    real_run = experiments.run

    def failing_run(config):
        if config.seed == 2:
            raise ValueError("injected failure")
        return real_run(config)

    # workers are forked after this, so they inherit the patched module
    monkeypatch.setattr(experiments, "run", failing_run)
    for workers in (1, 2):
        with pytest.raises(RuntimeError,
                           match="^seed 2 failed: injected failure$"):
            run_scenario(tiny_scenario(seeds=(5, 2, 7)), workers=workers)


def test_scenario_needs_four_returns_per_run():
    # 1250 - 1200 = 50 post-warmup steps: not one 60-step return
    for horizon, n_returns in ((1_250, 0), (1_439, 3)):
        with pytest.raises(ValueError, match=rf"^horizon_T - warmup = "
                                             rf"{horizon} - 1200 steps give "
                                             rf"{n_returns} returns"):
            tiny_scenario(horizon_T=horizon)
    assert tiny_scenario(horizon_T=1_440).config.horizon_T == 1_440


def test_scenario_rejects_negative_seeds():
    with pytest.raises(ValueError, match=r"^scenario seeds must be >= 0, "
                                         r"got \(4, -3\)$"):
        tiny_scenario(seeds=(4, -3))


def test_scenario_validation(tmp_path):
    with pytest.raises(ValueError):
        tiny_scenario(seeds=())
    with pytest.raises(ValueError):
        tiny_scenario(seeds=(1, 1))
    with pytest.raises(ValueError):
        replace(tiny_scenario(), outputs=frozenset({"nope"}))
    # a str is one name, not a collection of one-character names, and a
    # number given for a collection field is not a bad number
    for field, value in (("outputs", "return_pdf"), ("seeds", 5),
                         ("impact_quantiles", 0.5), ("impact_volumes", 10)):
        with pytest.raises(ValueError, match=f"^{field} = {re.escape(repr(value))}"
                                             " is not a collection$"):
            replace(tiny_scenario(), **{field: value})
    # impact curves with no volume to walk would run every seed for nothing
    impact = replace(tiny_scenario(), outputs=frozenset({"impact_curves"}))
    with pytest.raises(ValueError, match="^impact_curves needs impact_volumes "
                                         "or impact_quantiles; both are empty$"):
        replace(impact, impact_quantiles=())
    replace(impact, impact_quantiles=(), impact_volumes=(10,))
    replace(tiny_scenario(), impact_quantiles=())  # not read without impact_curves
    with pytest.raises(ValueError, match="impact_volumes"):
        replace(tiny_scenario(), impact_volumes=(0, -3))
    for quantiles in ((1.5,), (0.0, 0.5), (float("nan"),)):
        with pytest.raises(ValueError, match="impact_quantiles"):
            replace(tiny_scenario(), impact_quantiles=quantiles)
    for field, value in (("seeds", (1, 2.5)), ("vol_window", 500.0),
                         ("impact_volumes", (10, 2.5))):
        with pytest.raises(ValueError, match=f"{field} = .* not a valid int"):
            replace(tiny_scenario(), **{field: value})
    with pytest.raises(ValueError, match="impact_side = 'up' is not a valid Side"):
        replace(tiny_scenario(), impact_side="up")
    with pytest.raises(ValueError,
                       match="impact_censored must be 'exclude' or 'saturate'"):
        replace(tiny_scenario(), impact_censored="drop")
    # a name is a directory under out_dir and a line of scenario.cfg
    for name in ("", "../escape", "/tmp/x", "a/b", ".", "..", "x#1", " x",
                 "x ", "a\nb", "a\rb", "a\u2028b"):
        with pytest.raises(ValueError, match=f"^name = {re.escape(repr(name))} "
                                             "is not a valid scenario name"):
            tiny_scenario(name=name)
    path = tmp_path / "zero_volume.cfg"
    path.write_text("name = z\ntrader.a.count = 5\nimpact_volumes = 0\n")
    with pytest.raises(ValueError, match="impact_volumes"):
        scenario_from_config(path)


@pytest.mark.parametrize("vol_window, covers", [(5000, 83), (119, 1)])
def test_vol_window_must_fit_one_run(vol_window, covers):
    # 2800 post-warmup steps: 46 one-minute returns per run
    scen = tiny_scenario(horizon_T=4000, warmup=1200)
    volatility = frozenset({"volatility_pdf"})
    with pytest.raises(ValueError, match=f"vol_window = {vol_window} covers "
                                         f"{covers} return samples.* 2 to 46"):
        replace(scen, outputs=volatility, vol_window=vol_window)
    replace(scen, vol_window=vol_window)  # not read without volatility_pdf
    for fits in (120, 46 * 60 + 59):
        replace(scen, outputs=volatility, vol_window=fits)


def test_impact_outputs_with_explicit_volumes(tmp_path):
    scen = replace(
        tiny_scenario(),
        outputs=frozenset({"impact_curves", "snapshots"}),
        impact_volumes=(5, 40),
        impact_censored="saturate",
    )
    res = run_scenario(scen, out_dir=tmp_path, workers=1)
    assert set(res.impact_curves) == {5, 40}
    assert res.impact_curves[5].samples.size > 0
    files = read_tree(tmp_path)
    assert "tiny/pooled/impact_v5.csv" in files
    assert "tiny/pooled/impact_v5_censored.csv" in files
    assert "tiny/runs/2/snapshots.csv" in files


def test_pinned_volume_deeper_than_one_seeds_book():
    """A seed whose book never holds v adds censored snapshots, no abort."""
    cfg = SimConfig(
        trader_specs=(TraderSpec(count=300, mu_lifetime=120.0),), c=5.045,
        horizon_T=5_000, warmup=1_200, snapshot_interval=60, seed=0,
    )
    scen = Scenario(name="shallow", config=cfg, seeds=(1, 2),
                    outputs=frozenset({"impact_curves"}),
                    impact_volumes=(10, 160))
    inline = run_scenario(scen, workers=1)
    pooled = run_scenario(scen, workers=2)
    deep, shallow = inline.runs
    # seed 2's ask side never holds 160 shares, seed 1's sometimes does
    assert shallow.impact_curves[160].samples.size == 0
    assert shallow.impact_curves[160].censored_count == shallow.n_snapshots
    assert deep.impact_curves[160].samples.size > 0
    curve = inline.impact_curves[160]
    assert curve.samples.size > 0
    assert curve.censored_count == (
        shallow.n_snapshots + deep.impact_curves[160].censored_count
    )
    assert curve.n_snapshots == shallow.n_snapshots + deep.n_snapshots
    for v in (10, 160):
        np.testing.assert_array_equal(inline.impact_curves[v].samples,
                                      pooled.impact_curves[v].samples)
        assert (inline.impact_curves[v].censored_count
                == pooled.impact_curves[v].censored_count)
    # censored in every snapshot of every seed: still an error
    with pytest.raises(ValueError, match="every snapshot"):
        run_scenario(replace(scen, impact_volumes=(10**6,)), workers=1)


def test_pinned_walks_reach_the_experiments_hook(monkeypatch):
    """Pinned volumes are walked through ``experiments.impact_distribution``,
    the name the benchmark tracer wraps, like quantile volumes are."""
    walked = {"rows": 0, "calls": 0, "censored": 0}
    inner = experiments.impact_distribution

    def counting(depth, *args, **kwargs):
        curve = inner(depth, *args, **kwargs)
        walked["calls"] += 1
        walked["rows"] += len(depth)
        walked["censored"] += curve.censored_count
        return curve

    monkeypatch.setattr(experiments, "impact_distribution", counting)
    scen = replace(tiny_scenario(), outputs=frozenset({"impact_curves"}),
                   impact_volumes=(10, 160))
    res = run_scenario(scen, workers=1)
    n_snapshots = sum(r.n_snapshots for r in res.runs)
    assert n_snapshots > 0
    assert walked["calls"] == 2 * len(res.runs)
    assert walked["rows"] == 2 * n_snapshots
    assert walked["censored"] == sum(
        c.censored_count for c in res.impact_curves.values())


@pytest.mark.parametrize("censored", ["exclude", "saturate"])
def test_quantile_curves_are_one_walk_over_joined_depth(censored):
    """Walking each seed's depth and pooling equals walking them joined."""
    scen = replace(tiny_scenario(), outputs=frozenset({"impact_curves"}),
                   impact_quantiles=(0.5, 0.9, 0.99), impact_censored=censored)
    res = run_scenario(scen, workers=1)
    # the runs no longer carry their depth: record it again
    joined = Depth.concat(
        [run(replace(scen.effective_config(), seed=r.seed)).depth
         for r in res.runs], scen.config.tick_size)
    assert len(res.runs) == 2 and len(joined) > 0
    for v in res.quantile_volumes_used:
        one_walk = impact_distribution(joined, scen.impact_side, v,
                                       censored=censored)
        curve = res.impact_curves[v]
        assert np.array_equal(curve.samples, one_walk.samples)
        assert curve.censored_count == one_walk.censored_count
        assert curve.n_snapshots == one_walk.n_snapshots == len(joined)


def _quantile_scenario():
    return replace(tiny_scenario(), outputs=frozenset({"impact_curves"}),
                   impact_quantiles=(0.5, 0.9))


def _pinned_scenario():
    return replace(_quantile_scenario(), impact_volumes=(10, 160))


def test_quantile_path_removes_its_depth_directory(tmp_path, monkeypatch):
    """Pinned and quantile volumes both park their depth, and remove it."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    for scen in (_pinned_scenario(), _quantile_scenario()):
        inline = run_scenario(scen, workers=1)
        pooled = run_scenario(scen, workers=2)
        assert list(tmp_path.iterdir()) == []
        assert inline.quantile_volumes_used == pooled.quantile_volumes_used
        assert bool(inline.quantile_volumes_used) != bool(scen.impact_volumes)
        assert inline.impact_curves.keys() == pooled.impact_curves.keys()
        for v, curve in inline.impact_curves.items():
            np.testing.assert_array_equal(curve.counts,
                                          pooled.impact_curves[v].counts)
        assert all(r.depth is None and r.share_counts.sum() > 0
                   for r in pooled.runs)


@pytest.mark.parametrize("phase", ["run", "walk"])
def test_failed_seed_is_named_and_depth_directory_removed(tmp_path, monkeypatch,
                                                          phase):
    """A seed that fails while it runs (phase 1) or while its parked depth
    is walked (phase 2) names itself at any worker count, for pinned and
    quantile volumes alike, and the parked depth goes."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    scen = _quantile_scenario()
    # phase 1 takes the seeds as given (5, 2), phase 2 in seed order
    # (2, 5): either way the bad seed is not the first job
    bad = 2 if phase == "run" else 5

    def failing(fn, fails):
        def wrapped(first, *args, **kwargs):
            if fails(first):
                raise ValueError("injected failure")
            return fn(first, *args, **kwargs)
        return wrapped

    if phase == "run":
        monkeypatch.setattr(experiments, "run", failing(
            experiments.run, lambda cfg: cfg.seed == bad))
    else:
        asks = run(replace(scen.effective_config(), seed=bad)).depth.ask_ticks
        monkeypatch.setattr(experiments, "impact_distribution", failing(
            experiments.impact_distribution,
            lambda depth: np.array_equal(depth.ask_ticks, asks)))
    for scenario in (_pinned_scenario(), scen):
        for workers in (1, 2):
            with pytest.raises(RuntimeError,
                               match=f"^seed {bad} failed: injected failure$"):
                run_scenario(scenario, workers=workers)
            assert list(tmp_path.iterdir()) == []


def test_string_impact_side_walks_the_same_side():
    scen = replace(tiny_scenario(seeds=(5,)), outputs=frozenset({"impact_curves"}),
                   impact_volumes=(5, 40))
    for side in Side:
        by_enum = run_scenario(replace(scen, impact_side=side), workers=1)
        by_value = run_scenario(replace(scen, impact_side=side.value), workers=1)
        for v in (5, 40):
            a, b = by_enum.impact_curves[v], by_value.impact_curves[v]
            np.testing.assert_array_equal(a.samples, b.samples)
            assert a.censored_count == b.censored_count
            assert b.side is side
        assert by_value.scenario.impact_side is side


def test_trade_tape_csv_is_the_tape(tmp_path):
    scen = tiny_scenario(seeds=(5,))
    run_scenario(scen, out_dir=tmp_path, workers=1)
    tape = run(replace(scen.effective_config(), seed=5)).trade_tape
    lines = (tmp_path / "tiny/runs/5/trade_tape.csv").read_text().splitlines()
    assert lines[0] == "step,price,shares,aggressor_side"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == tape.size > 0
    assert [int(r[0]) for r in rows] == tape["step"].tolist()
    assert [float(r[1]) for r in rows] == (
        tape["tick"] * scen.config.tick_size).tolist()
    assert [int(r[2]) for r in rows] == tape["shares"].tolist()
    assert [r[3] for r in rows] == [
        "buy" if buy else "sell" for buy in tape["buy"].tolist()]
    assert {r[3] for r in rows} == {"buy", "sell"}


def _csv_text(header, rows) -> str:
    """CSV text as the row-wise writer made it: str of each cell."""
    return "".join(",".join(map(str, row)) + "\n"
                   for row in [header, *rows])


@pytest.mark.parametrize("n_rows", [0, 1, experiments.CSV_CHUNK,
                                    2 * experiments.CSV_CHUNK + 3])
def test_chunked_csv_is_the_joined_text(tmp_path, n_rows):
    i = np.arange(n_rows)
    # signed zeros, two NaN payloads and infinities among distinct floats
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    specials = np.array([-0.0, 0.0, np.nan, other_nan[0], np.inf, -np.inf])
    columns = (
        i,
        np.where(i % 2 == 0, specials[i // 2 % 6], i / 7),
        np.where(i % 3 == 0, "buy", "sell"),
        # seeds on both sides of 2**63
        np.array([5, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)[i % 4],
    )
    header = ("step", "price", "side", "seed")
    path = tmp_path / "nested" / "rows.csv"
    experiments._write_csv(path, header, columns)
    rows = list(zip(*(c.tolist() for c in columns)))
    assert path.read_text() == _csv_text(header, rows)
    if n_rows > 12:
        assert {"-0.0", "0.0", "nan", "inf", "-inf"} <= {
            line.split(",")[1] for line in path.read_text().splitlines()}


def test_summary_csv_prints_seeds_past_2_63(tmp_path):
    big = 2**63 + 5
    run_scenario(tiny_scenario(seeds=(big, 3)), out_dir=tmp_path, workers=1)
    lines = (tmp_path / "tiny/pooled/summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["3", str(big)]


def test_run_csvs_are_the_rowwise_text(tmp_path):
    scen = replace(tiny_scenario(seeds=(5,)), outputs=experiments.KNOWN_OUTPUTS,
                   impact_volumes=(10,))
    art, = run_scenario(scen, out_dir=tmp_path, workers=1).runs
    out = run(replace(scen.effective_config(), seed=5))
    tape, tick = out.trade_tape, scen.config.tick_size
    expected = {
        "trade_tape.csv": _csv_text(
            ("step", "price", "shares", "aggressor_side"),
            zip(tape["step"].tolist(), (tape["tick"] * tick).tolist(),
                tape["shares"].tolist(),
                ["buy" if b else "sell" for b in tape["buy"].tolist()])),
        "price_series.csv": _csv_text(
            ("step", "price", "resting_volume"),
            zip(range(1, scen.config.horizon_T + 1), out.price_series.tolist(),
                out.resting_volume_series.tolist())),
        "volatility_series.csv": _csv_text(
            ("window_index", "sigma"), enumerate(art.volatilities.tolist())),
        "snapshots.csv": _csv_text(
            ("step", "side", "tick", "price", "shares"),
            snapshot_csv_rows(out.depth)),
    }
    assert len(out.depth) and art.volatilities.size
    seed_dir = tmp_path / "tiny/runs/5"
    assert {name: (seed_dir / name).read_text() for name in expected} == expected


def test_impact_outputs_quantile_path():
    scen = replace(
        tiny_scenario(),
        outputs=frozenset({"impact_curves"}),
        impact_quantiles=(0.5, 0.9),
    )
    res = run_scenario(scen, workers=1)
    assert res.quantile_volumes_used
    assert set(res.impact_curves) == set(res.quantile_volumes_used)


def test_volatility_output():
    scen = replace(tiny_scenario(), outputs=frozenset({"volatility_pdf"}))
    res = run_scenario(scen, workers=1)
    assert res.volatilities is not None and res.volatilities.size > 0


# ----------------------------------------------------------------------
# derived scenarios
# ----------------------------------------------------------------------


def test_with_lifetime_recomputes_warmup():
    scen = tiny_scenario(warmup=None, horizon_T=40_000)
    swept = with_lifetime(scen, 240.0)
    assert swept.config.warmup == 2_400
    assert all(s.mu_lifetime == 240.0 for s in swept.config.trader_specs)


def test_lifetime_sweep_rows(tmp_path):
    base = tiny_scenario(horizon_T=12_000, warmup=None)
    result = lifetime_sweep(base, [120.0, 600.0], out_dir=tmp_path, workers=1)
    assert [r.mu_lt for r in result.rows] == [120.0, 600.0]
    # longer lifetimes accumulate resting volume
    assert result.rows[1].avg_volume_per_day > result.rows[0].avg_volume_per_day
    assert (tmp_path / "tiny_sweep.csv").exists()


def test_calibrated_sweep_same_on_pool_and_inline(tmp_path):
    base = tiny_scenario(horizon_T=12_000, warmup=None)
    kwargs = dict(target_tpm=4.0, probe_horizon=6_000)
    inline = lifetime_sweep(base, [120.0, 600.0], out_dir=tmp_path / "w1",
                            workers=1, **kwargs)
    pooled = lifetime_sweep(base, [120.0, 600.0], out_dir=tmp_path / "w2",
                            workers=2, **kwargs)
    assert pooled.rows == inline.rows
    a = read_tree(tmp_path / "w1")
    b = read_tree(tmp_path / "w2")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


def test_probe_failure_in_worker_names_seed_and_c(monkeypatch):
    base = tiny_scenario()
    bad_seed = derive_seed(base.config.seed, 1)
    real_run = simulator.run

    def failing_run(config):
        if config.seed == bad_seed:
            raise ValueError("probe exploded")
        return real_run(config)

    # workers are forked after this, so they inherit the patched module
    monkeypatch.setattr(simulator, "run", failing_run)
    for workers in (1, 2):
        with pytest.raises(RuntimeError,
                           match=rf"^probe seed {bad_seed} at c=5\.0 failed: "
                                 "probe exploded$"):
            lifetime_sweep(base, [120.0], workers=workers, target_tpm=4.0,
                           probe_horizon=6_000)
        assert multiprocessing.active_children() == []


def test_lifetime_sweep_single_row(tmp_path):
    result = lifetime_sweep(tiny_scenario(), [120.0], workers=1)
    assert len(result.rows) == 1
    with pytest.raises(ValueError):
        lifetime_sweep(tiny_scenario(), [])
    # every lifetime is checked before the first one runs: a name clash
    # would overwrite outputs, a warmup of 10 x 1500 reaches the horizon
    for lifetimes, message in (
        ([120.0, 120.7], "lifetimes 120.0 and 120.7 share the scenario name "
                         "tiny_lt120"),
        ([120.0, 120.0], "lifetimes 120.0 and 120.0 share the scenario name "
                         "tiny_lt120"),
        ([120.0, 600.0, 1500.0],
         "lifetime 1500.0: horizon_T must exceed warmup"),
    ):
        for workers in (1, 2):
            with pytest.raises(ValueError) as info:
                lifetime_sweep(tiny_scenario(), lifetimes, out_dir=tmp_path,
                               workers=workers)
            assert str(info.value) == message
            assert list(tmp_path.iterdir()) == []
            assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CONFIG_TEXT = """
# demo scenario
name = demo
master_seed = 7
n_seeds = 3
c = 5.0
horizon = 15000
warmup = 1200
trader.random.count = 50
trader.random.mu_lifetime = 120
trader.big.count = 10
trader.big.kappa = 5.0
trader.big.mu_lifetime = 120
"""


def test_config_parsing(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(CONFIG_TEXT)
    scen = scenario_from_config(path)
    assert scen.name == "demo"
    assert scen.seeds == tuple(derive_seed(7, i) for i in range(3))
    assert len(scen.config.trader_specs) == 2
    big = scen.config.trader_specs[0]  # groups sorted by name: big < random
    assert big == TraderSpec(count=10, kappa=5.0, mu_lifetime=120.0)
    assert scen.config.c == 5.0


def test_config_round_trip(tmp_path):
    # every key away from its default, a second group with its own kappa
    # and sigma, and no outputs at all
    big = TraderSpec(count=7, kappa=2.5, mu_lifetime=300.0, sigma_price=0.75)
    scen = replace(
        tiny_scenario(c=5.5, mu_vol=12.5, tick_size=0.05, start_price=50.0,
                      snapshot_interval=30, seed=9, steps_per_minute=30),
        outputs=frozenset({"return_pdf", "impact_curves"}),
        vol_window=500,
        impact_volumes=(700, 1100),
        impact_quantiles=(0.25, 0.75),
        impact_side=Side.SELL,
        impact_censored="saturate",
    )
    scen = replace(scen, config=replace(
        scen.config, trader_specs=scen.config.trader_specs + (big,)))
    # the same scenario built from numpy scalars is stored as plain numbers
    as_numpy = replace(
        scen, seeds=tuple(np.array(scen.seeds)), vol_window=np.int64(500),
        impact_volumes=tuple(np.array([700, 1100])),
        impact_quantiles=tuple(np.array([0.25, 0.75])),
        config=replace(scen.config, c=np.float64(5.5), horizon_T=np.int64(15_000),
                       trader_specs=(scen.config.trader_specs[0],
                                     replace(big, count=np.int64(7),
                                             kappa=np.float64(2.5)))))
    assert as_numpy == scen
    for case in (scen, replace(scen, outputs=frozenset()),
                 replace(scen, impact_quantiles=()), as_numpy):
        path = tmp_path / "rt.cfg"
        write_config(case, path)
        assert scenario_from_config(path) == case


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_shipped_config_round_trips(tmp_path, path):
    scen = scenario_from_config(path)
    write_config(scen, tmp_path / "copy.cfg")
    assert scenario_from_config(tmp_path / "copy.cfg") == scen


def test_config_text_is_pinned(tmp_path):
    scen = Scenario(
        name="pin",
        config=SimConfig(
            trader_specs=(TraderSpec(count=40, mu_lifetime=120.0),
                          TraderSpec(count=4, kappa=5.0, mu_lifetime=120.0)),
            c=5.045, horizon_T=20_000, snapshot_interval=60, seed=3),
        seeds=(11, 4),
        outputs=frozenset({"snapshots", "impact_curves", "return_pdf"}),
        impact_volumes=(160, 10),
        impact_side=Side.SELL,
    )
    path = tmp_path / "pin.cfg"
    write_config(scen, path)
    assert path.read_text() == """\
name = pin
seeds = 11, 4
c = 5.045
mu_vol = 10.0
tick_size = 0.1
start_price = 100.0
horizon = 20000
warmup = 1200
snapshot_interval = 60
base_seed = 3
steps_per_minute = 60
outputs = impact_curves, return_pdf, snapshots
vol_window = 1000
impact_quantiles = 0.1, 0.5, 0.9, 0.99
impact_side = sell
impact_censored = exclude
impact_volumes = 160, 10
trader.g00.count = 40
trader.g00.kappa = 1.0
trader.g00.mu_lifetime = 120.0
trader.g00.sigma_price = 0.5
trader.g01.count = 4
trader.g01.kappa = 5.0
trader.g01.mu_lifetime = 120.0
trader.g01.sigma_price = 0.5
"""


def test_config_defaults_are_the_dataclass_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("name = m\ntrader.x.count = 40\n")
    scen = scenario_from_config(path)
    defaults = SimConfig()
    for f in fields(SimConfig):
        if f.name != "trader_specs":
            assert getattr(scen.config, f.name) == getattr(defaults, f.name), f.name
    assert scen.config.trader_specs == (TraderSpec(count=40),)
    bare = Scenario(name="m", config=scen.config, seeds=(1,))
    for f in fields(Scenario):
        if f.name not in ("name", "config", "seeds"):
            assert getattr(scen, f.name) == getattr(bare, f.name), f.name
    assert scen.seeds == (derive_seed(0, 0),)


def test_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("name = x\ntrader.a.count = 5\nbogus_key = 1\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        scenario_from_config(path)
    path.write_text("trader.a.count = 5\n")
    with pytest.raises(ValueError, match="name"):
        scenario_from_config(path)
    path.write_text("name = x\n")
    with pytest.raises(ValueError, match="trader"):
        scenario_from_config(path)
    path.write_text("name = x\nname = y\ntrader.a.count = 5\n")
    with pytest.raises(ValueError, match="duplicate"):
        scenario_from_config(path)
    # malformed values fail naming their key
    for text, match in (
        ("name = x\ntrader.a.mu_lifetime = 120\n", "trader.a.count"),
        ("name = x\ntrader.a.count = 5\nhorizon = 1.5e5\n",
         r"horizon = '1\.5e5' is not a valid int"),
        ("name = x\ntrader.a.count = 5\nc = fast\n",
         "c = 'fast' is not a valid float"),
        ("name = x\ntrader.a.count = many\n", "trader.a.count = 'many'"),
        # a group is its parameters: there is no kind to set
        ("name = x\ntrader.a.count = 5\ntrader.a.kind = big\n",
         r"unknown trader keys for 'a': \['kind'\]"),
        ("name = x\ntrader.a.count = 5\ntrader.a.b.kappa = 2\n",
         "bad trader key 'trader.a.b.kappa'"),
        ("name = x\ntrader.a.count = 5\nhorizon 5000\n",
         "bad.cfg:3: expected 'key = value'"),
        ("name = x\ntrader.a.count = 5\nseeds = 1, two\n", "seeds = 'two'"),
        # an empty item is a typo, not a value to drop
        ("name = x\ntrader.a.count = 5\nseeds = 1,,2\n",
         "^seeds = '1,,2' has an empty item$"),
        ("name = x\ntrader.a.count = 5\nimpact_quantiles = 0.5,\n",
         "^impact_quantiles = '0.5,' has an empty item$"),
        ("name = x\ntrader.a.count = 5\noutputs = impact_curves\n"
         "impact_quantiles =\n", "impact_volumes or impact_quantiles"),
        ("name = x\ntrader.a.count = 5\nseeds = -3\n",
         r"^scenario seeds must be >= 0, got \(-3,\)$"),
        # an empty value is an empty list, not a fallback to one seed
        ("name = x\ntrader.a.count = 5\nseeds =\n",
         "^scenario needs at least one seed$"),
        # seeds lists the seeds that master_seed and n_seeds would derive
        ("name = x\ntrader.a.count = 5\nseeds = 1, 2\nmaster_seed = 7\n",
         "^seeds cannot be given with master_seed$"),
        ("name = x\ntrader.a.count = 5\nn_seeds = 2\nseeds = 1\n"
         "master_seed = 7\n",
         "^seeds cannot be given with master_seed or n_seeds$"),
        ("name = x\ntrader.a.count = 5\nimpact_side = up\n",
         "impact_side = 'up'"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            scenario_from_config(path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(CONFIG_TEXT)
    return path


def test_cli_run(demo_config, tmp_path, capsys):
    code = main(["run", str(demo_config), "--out", str(tmp_path / "out"),
                 "--workers", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario demo" in out
    assert (tmp_path / "out" / "demo" / "pooled" / "kurtosis.csv").exists()


def test_cli_without_out_ships_no_snapshots(tmp_path, capsys, monkeypatch):
    path = tmp_path / "snaps.cfg"
    path.write_text(CONFIG_TEXT + "outputs = return_pdf, kurtosis_point, "
                                  "snapshots\nsnapshot_interval = 500\n")
    runs = []
    run_seed = experiments._run_seed

    def recording_run_seed(payload):
        art = run_seed(payload)
        runs.append(art)
        return art

    monkeypatch.setattr(experiments, "_run_seed", recording_run_seed)
    assert main(["run", str(path), "--workers", "1"]) == 0
    stdout = capsys.readouterr().out
    assert main(["sweep", str(path), "--lifetimes", "120", "--workers", "1"]) == 0
    capsys.readouterr()
    assert len(runs) == 6
    assert all(r.depth is None for r in runs)
    assert all(r.n_snapshots == 0 for r in runs)  # none were even recorded
    # the statistics are the same as with snapshots written under --out
    assert main(["run", str(path), "--out", str(tmp_path / "out"),
                 "--workers", "1"]) == 0
    with_out = capsys.readouterr().out.splitlines()
    assert with_out[-1].startswith("  outputs under")
    assert stdout.splitlines() == with_out[:-1]
    assert (tmp_path / "out" / "demo" / "runs" / str(runs[-1].seed)
            / "snapshots.csv").is_file()


def test_cli_list_flags_name_themselves(demo_config, capsys):
    for argv, match in (
        (["impact", "--volumes", "10,abc"], "--volumes = 'abc' is not a valid int"),
        (["impact", "--quantiles", "0.5,q"],
         "--quantiles = 'q' is not a valid float"),
        (["impact", "--quantiles", ","], "--quantiles = ',' has an empty item"),
        (["impact", "--quantiles", " "],
         "error: impact_curves needs impact_volumes or impact_quantiles"),
        (["sweep", "--lifetimes", "120,x"],
         "--lifetimes = 'x' is not a valid float"),
        (["sweep", "--lifetimes", "120,120.5"],
         "error: lifetimes 120.0 and 120.5 share the scenario name demo_lt120"),
        (["calibrate", "--target-tpm", "inf"],
         "error: target_tpm must be positive and finite, got inf"),
        (["sweep", "--lifetimes", "120", "--target-tpm", "nan"],
         "error: target_tpm must be positive and finite, got nan"),
        (["calibrate", "--target-tpm", "5.4", "--probe-horizon", "0"],
         "error: probe_horizon must be >= 1, got 0"),
    ):
        command, *flags = argv
        assert main([command, str(demo_config), *flags, "--workers", "1"]) == 1
        assert match in capsys.readouterr().err


def test_cli_run_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("name = x\n")
    assert main(["run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_calibrate_bad_probe_seeds(demo_config, capsys):
    for n in ("0", "-1"):
        assert main(["calibrate", str(demo_config), "--target-tpm", "5.4",
                     "--probe-seeds", n]) == 1
        assert "n_seeds" in capsys.readouterr().err


def test_cli_sweep(demo_config, capsys):
    code = main(["sweep", str(demo_config), "--lifetimes", "120",
                 "--workers", "1"])
    assert code == 0
    assert "mu_lt,avg_volume_per_day" in capsys.readouterr().out


def test_cli_calibrate(demo_config, capsys):
    code = main(["calibrate", str(demo_config), "--target-tpm", "4.0",
                 "--probe-horizon", "8000", "--probe-seeds", "2"])
    assert code == 0
    assert "calibrated c" in capsys.readouterr().out


def test_cli_calibrate_workers(demo_config, capsys, monkeypatch):
    """One worker probes in process and finds the same c as two; a
    count below 1 is refused."""
    argv = ["calibrate", str(demo_config), "--target-tpm", "4.0",
            "--probe-horizon", "8000", "--probe-seeds", "2", "--workers"]
    pools = []
    process_pool = experiments.ProcessPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return process_pool(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", recording_pool)
    assert main([*argv, "1"]) == 0
    inline = capsys.readouterr().out
    assert pools == [] and inline.startswith("calibrated c = ")
    assert main([*argv, "2"]) == 0
    assert pools == [2] and capsys.readouterr().out == inline
    assert main([*argv, "0"]) == 1
    assert "workers must be >= 1, got 0" in capsys.readouterr().err


def test_cli_impact(demo_config, tmp_path, capsys):
    code = main(["impact", str(demo_config), "--volumes", "5,40",
                 "--censored", "saturate", "--workers", "1",
                 "--out", str(tmp_path / "imp")])
    assert code == 0
    out = capsys.readouterr().out
    assert "v=5:" in out and "v=40:" in out
    assert (tmp_path / "imp" / "demo" / "pooled" / "impact_v40.csv").exists()
