"""Event loop, determinism, minute sampling and calibration."""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobsim.agents import TraderSpec, activations
from lobsim.experiments import post_warmup_prices
from lobsim.orderbook import Depth, OrderBook
from lobsim.simulator import (
    SimConfig,
    SimOutput,
    TAPE_DTYPE,
    calibrate_c,
    calibration_probe,
    derive_seed,
    run,
)

from .helpers import depth_rows, discrete_ks, trader_gaps
from .reference_run import reference_run


def small_config(**overrides) -> SimConfig:
    base = dict(
        trader_specs=(TraderSpec(count=50, mu_lifetime=120.0),),
        c=5.0,
        horizon_T=20_000,
        warmup=1_500,
        seed=99,
    )
    base.update(overrides)
    return SimConfig(**base)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def test_zero_traders_constant_price():
    cfg = SimConfig(trader_specs=(), c=1.0, horizon_T=500, warmup=0, seed=1)
    out = run(cfg)
    assert out.trade_tape.dtype == TAPE_DTYPE and out.trade_tape.size == 0
    assert (out.price_series == cfg.start_price).all()
    assert (out.resting_volume_series == 0).all()
    assert out.trades_per_minute == 0.0


def test_same_seed_bit_identical():
    a = run(small_config())
    b = run(small_config())
    assert np.array_equal(a.trade_tape, b.trade_tape)
    assert (a.price_series == b.price_series).all()
    assert (a.resting_volume_series == b.resting_volume_series).all()
    assert a.trades_per_minute == b.trades_per_minute
    assert a.n_submitted == b.n_submitted
    assert a.n_expired == b.n_expired


def test_window_edges_keep_the_schedule(monkeypatch):
    """Windows of a few steps: each trader still acts at most once a step,
    within the horizon, with ceil-exponential waits also across window
    edges, and reruns stay byte-identical."""
    import lobsim.agents as agents

    def fingerprint(out):
        return (out.trade_tape.tobytes(), out.price_series.tobytes(),
                out.resting_volume_series.tobytes(), out.n_submitted,
                out.n_expired, out.n_resting_end)

    cfg = small_config()
    a = run(cfg)
    monkeypatch.setattr(agents, "WINDOW", 7)
    small = run(cfg)
    assert fingerprint(run(cfg)) == fingerprint(small)
    # a window length is part of the stream: a shorter one lays the draws
    # out over other activations
    assert fingerprint(small) != fingerprint(a)

    sched = SimConfig(trader_specs=(TraderSpec(count=20),), c=1.0,
                      horizon_T=200_003, warmup=0, seed=3)
    windows = list(activations(sched, np.random.default_rng(sched.seed)))
    assert len(windows) == -(-sched.horizon_T // 7)
    steps, traders = (np.concatenate(cols) for cols in list(zip(*windows))[:2])
    assert steps.min() >= 1 and steps.max() <= sched.horizon_T
    assert np.unique(steps * 20 + traders).size == steps.size
    gaps, ends = trader_gaps(steps, traders)
    # a gap from a window's last step (or from step 0) crosses an edge
    # whatever its length, so these are not a length-biased pick
    at_edge = (ends - gaps) % 7 == 0
    assert at_edge.sum() > 25_000
    mu = sched.c * sched.n_traders
    for sample, bound in ((gaps, 0.01), (gaps[at_edge], 0.015)):
        assert discrete_ks(sample, lambda k: 1.0 - np.exp(-k / mu)) < bound


def test_engine_calls_match_the_output(monkeypatch):
    """The calls a tracer wraps add up to the run's output: one ``act``
    per order at the order's step, never decreasing, the fills of
    ``submit`` make the tape, ``expire`` removes ``n_expired`` orders
    and each ``snapshot`` is one row of ``depth``. Expiry is lazy: at
    most one ``expire`` per activation step, per snapshot and at the
    end, and none through a step that a submission has passed."""
    import lobsim.simulator as simulator

    calls = {name: [] for name in ("act", "submit", "expire", "snapshot")}
    sequence = []  # (name, step) of every submit and expire, in call order

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name].append((args, result))
            if name == "submit":
                sequence.append((name, args[5]))
            elif name == "expire":
                sequence.append((name, args[1]))
            return result
        return wrapper

    monkeypatch.setattr(simulator, "act", recording("act", simulator.act))
    for name in ("submit", "expire", "snapshot"):
        monkeypatch.setattr(OrderBook, name,
                            recording(name, getattr(OrderBook, name)))
    out = run(small_config(horizon_T=8_000, snapshot_interval=50))

    act_steps = [args[3] for args, _ in calls["act"]]
    orders = [args for args, _ in calls["submit"]]  # (book, id, side, limit, ...)
    assert len(act_steps) == len(orders) == out.n_submitted > 1000
    assert act_steps == [order[5] for order in orders]
    assert all(a <= b for a, b in zip(act_steps, act_steps[1:]))
    assert [order[3] for order in orders] == [
        limit for _, limit in calls["act"]]
    assert sum(len(fills) for _, (fills, _) in calls["submit"]) == len(
        out.trade_tape)
    assert sum(len(ids) for _, ids in calls["expire"]) == out.n_expired
    assert len(calls["snapshot"]) == len(out.depth) > 100
    n_expire = len(calls["expire"])
    assert 100 < n_expire <= len(set(act_steps)) + len(out.depth) + 1
    submitted_through = 0
    for name, step in sequence:
        if name == "submit":
            submitted_through = step
        else:
            assert step >= submitted_through


def assert_series_match_tape_and_depth(cfg):
    """The series of a run of ``cfg`` equal, step by step, the tape's last
    fill carried forward and the share totals of a snapshot taken at
    every step by a rerun; returns the run."""
    out = run(cfg)
    dense = run(replace(cfg, snapshot_interval=1))
    assert np.array_equal(dense.trade_tape, out.trade_tape)
    steps = np.arange(1, cfg.horizon_T + 1)
    tape = out.trade_tape
    last = np.searchsorted(tape["step"], steps, side="right") - 1
    carried = np.where(last >= 0, tape["tick"][last] * cfg.tick_size,
                       cfg.start_price)
    assert np.array_equal(out.price_series, carried)

    depth = dense.depth
    assert np.array_equal(depth.steps, steps)
    rows = np.arange(len(depth))
    totals = sum(np.bincount(np.repeat(rows, counts), shares,
                             minlength=rows.size)
                 for counts, shares in ((depth.bid_counts, depth.bid_shares),
                                        (depth.ask_counts, depth.ask_shares)))
    assert np.array_equal(out.resting_volume_series, totals)
    assert np.array_equal(dense.resting_volume_series, totals)
    return out


# a sparse book whose steps are mostly idle
SPARSE_BOOK = SimConfig(trader_specs=(TraderSpec(count=3, mu_lifetime=60.0),),
                        c=40.0, horizon_T=4000, warmup=0, seed=5)
# BigTraders sweeping a book of short-lived orders
CROSSING_BOOK = SimConfig(trader_specs=(TraderSpec(count=40, mu_lifetime=60.0),
                                        TraderSpec(count=10, kappa=5.0,
                                                   mu_lifetime=60.0)),
                          c=0.5, horizon_T=6000, warmup=0, seed=22)


def test_series_match_tape_and_depth_at_every_step():
    """A sparse book whose steps are mostly idle: the series still match
    the tape and the depth at every step."""
    out = assert_series_match_tape_and_depth(SPARSE_BOOK)
    # idle gaps before the first order, between events and after the last
    assert out.resting_volume_series[0] == 0
    assert out.n_submitted + out.n_expired < SPARSE_BOOK.horizon_T // 10
    assert out.resting_volume_series[-2] == out.resting_volume_series[-1]


def test_series_on_a_crossing_book(monkeypatch):
    """BigTraders sweep a book of short-lived orders, and the series match
    the tape and the depth at every step. The fixture has orders that
    were partly filled while resting and then expired, and resting
    orders that expire at the horizon and one step after it."""
    import lobsim.simulator as simulator

    cfg = CROSSING_BOOK
    rested = {}  # id -> (its expiry, its shares when it came to rest)
    left = {}  # id -> its shares still unfilled, once it rested
    expired = set()

    class WatchedBook(OrderBook):
        def submit(self, order_id, side, limit, shares, step, expires):
            fills, rested_id = super().submit(order_id, side, limit, shares,
                                              step, expires)
            for _, n, resting_id in fills:
                left[resting_id] -= n
                shares -= n
            if rested_id is not None:
                rested[rested_id] = (expires, shares)
                left[rested_id] = shares
            return fills, rested_id

        def expire(self, step):
            ids = super().expire(step)
            expired.update(ids)
            return ids

    monkeypatch.setattr(simulator, "OrderBook", WatchedBook)
    out = run(cfg)
    monkeypatch.undo()
    assert len(expired) == out.n_expired
    # orders partly filled while resting, then expired
    partly = [i for i in expired if 0 < left[i] < rested[i][1]]
    assert len(partly) > 100
    ends = {expires for i, (expires, _) in rested.items()
            if i in expired or left[i] > 0}
    assert {cfg.horizon_T, cfg.horizon_T + 1} <= ends
    assert_series_match_tape_and_depth(cfg)


def assert_matches_reference(cfg):
    """Every field of ``run(cfg)`` equals the per-step reference run's,
    arrays in dtype and value."""
    def same(a, b):
        if isinstance(a, np.ndarray):
            return a.dtype == b.dtype and np.array_equal(a, b)
        return a == b

    out, ref = run(cfg), reference_run(cfg)
    for f in fields(SimOutput):
        a, b = getattr(out, f.name), getattr(ref, f.name)
        if isinstance(a, Depth):
            for g in fields(Depth):
                assert same(getattr(a, g.name), getattr(b, g.name)), (
                    f"depth.{g.name}")
        else:
            assert same(a, b), f.name


@pytest.mark.parametrize("interval", [0, 1, 60])
@pytest.mark.parametrize("cfg", [SPARSE_BOOK, CROSSING_BOOK],
                         ids=["sparse", "crossing"])
def test_run_matches_the_reference_run(cfg, interval):
    assert_matches_reference(replace(cfg, snapshot_interval=interval))


@pytest.mark.filterwarnings("ignore:mu_lifetime=")  # lifetimes down to 5
@settings(max_examples=60, deadline=None)
@given(groups=st.lists(st.tuples(st.integers(1, 12), st.floats(1.0, 8.0),
                                 st.floats(5.0, 300.0)),
                       min_size=1, max_size=3),
       c=st.floats(0.25, 4.0), horizon=st.integers(300, 1200),
       warmup=st.integers(0, 200),
       interval=st.sampled_from((0, 1, 7, 60)),
       window=st.sampled_from((3, 50, 400)), seed=st.integers(0, 2**32))
def test_run_matches_the_reference_run_property(groups, c, horizon, warmup,
                                                interval, window, seed):
    """Small books of 1-3 groups, kappa 1-8 and lifetimes 5-300, over
    windows of a few steps: every output field matches the reference."""
    import lobsim.agents as agents

    specs = tuple(TraderSpec(count=n, kappa=kappa, mu_lifetime=lifetime)
                  for n, kappa, lifetime in groups)
    cfg = SimConfig(trader_specs=specs, c=c, horizon_T=horizon, warmup=warmup,
                    snapshot_interval=interval, seed=seed)
    with mock.patch.object(agents, "WINDOW", window):
        assert_matches_reference(cfg)


def test_different_seeds_differ():
    a = run(small_config(seed=1))
    b = run(small_config(seed=2))
    assert not np.array_equal(a.trade_tape, b.trade_tape)


def test_output_shapes_and_carry_forward():
    cfg = small_config()
    out = run(cfg)
    assert out.price_series.shape == (cfg.horizon_T,)
    assert out.resting_volume_series.shape == (cfg.horizon_T,)
    assert np.isfinite(out.price_series).all()
    # carried-forward prices only change on steps with trades
    trade_steps = set(out.trade_tape["step"].tolist())
    changes = np.nonzero(np.diff(out.price_series))[0] + 2  # steps, 1-based
    assert set(changes.tolist()) <= trade_steps


def test_trade_steps_within_horizon():
    out = run(small_config())
    tape = out.trade_tape
    assert ((tape["step"] >= 1) & (tape["step"] <= 20_000)).all()
    assert (tape["shares"] >= 1).all()


def test_order_accounting_partition():
    out = run(small_config())
    fully_filled = out.n_submitted - out.n_expired - out.n_resting_end
    assert fully_filled >= 0
    assert out.n_submitted > 0
    assert out.n_expired > 0


def test_stationarity_guard():
    out = run(small_config(horizon_T=30_000))
    prices = out.price_series[out.config.warmup:]
    assert abs(prices.mean() - out.config.start_price) < 5 * prices.std()


def test_snapshot_cadence():
    cfg = small_config(snapshot_interval=500)
    out = run(cfg)
    snapshots = depth_rows(out.depth)
    steps = [int(s.steps[0]) for s in snapshots]
    assert steps == [s for s in range(500, 20_001, 500) if s > cfg.warmup]
    assert all(
        s.bid_ticks[0] < s.ask_ticks[0]
        for s in snapshots
        if s.bid_ticks.size and s.ask_ticks.size
    )


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(c=0.0)
    with pytest.raises(ValueError):
        small_config(horizon_T=100, warmup=100)
    with pytest.raises(ValueError):
        small_config(steps_per_minute=0)
    for field, value, match in [
        ("mu_vol", 0.0, "mu_vol must be positive"),
        ("tick_size", -0.1, "tick_size and start_price must be positive"),
        ("start_price", 0.0, "tick_size and start_price must be positive"),
        ("snapshot_interval", -60, "snapshot_interval must be >= 0"),
        ("warmup", -1, "warmup must be >= 0"),
    ]:
        with pytest.raises(ValueError, match=match):
            small_config(**{field: value})
    for field, value in [("c", math.nan), ("c", math.inf), ("mu_vol", math.nan),
                         ("tick_size", math.inf), ("start_price", math.nan)]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_config(**{field: value})
    # int fields take integers only, numpy's included; floats become floats
    for field, value in [("horizon_T", 5000.0), ("warmup", 1500.5),
                         ("seed", "99"), ("steps_per_minute", 60.0)]:
        with pytest.raises(ValueError, match=f"{field} = .* not a valid int"):
            small_config(**{field: value})
    with pytest.raises(ValueError, match="c = 'fast' is not a valid float"):
        small_config(c="fast")
    # the groups are a sequence of TraderSpec, not one spec or plain dicts
    for specs in (TraderSpec(), ({"count": 3},), "abc"):
        with pytest.raises(ValueError, match="^trader_specs = .* is not a "
                                             "tuple of TraderSpec$"):
            small_config(trader_specs=specs)
    cfg = small_config(horizon_T=np.int64(20_000), c=np.float64(5.0), mu_vol=10)
    assert type(cfg.horizon_T) is int and cfg.horizon_T == 20_000
    assert type(cfg.c) is float and type(cfg.mu_vol) is float
    cfg = small_config(warmup=None)
    assert cfg.warmup == 1200  # 10x the 120-step lifetime


def test_config_rejects_negative_seed():
    # the run would fail later, inside numpy, without naming the field
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        small_config(seed=-1)
    assert small_config(seed=0).seed == 0


# ----------------------------------------------------------------------
# minute series
# ----------------------------------------------------------------------


def _manual_output(prices, warmup=0, spm=60) -> SimOutput:
    cfg = SimConfig(
        trader_specs=(), c=1.0, horizon_T=len(prices), warmup=warmup,
        seed=0, steps_per_minute=spm,
    )
    return SimOutput(
        config=cfg,
        trade_tape=np.empty(0, dtype=TAPE_DTYPE),
        price_series=np.asarray(prices, dtype=float),
        resting_volume_series=np.zeros(len(prices), dtype=np.int64),
        depth=Depth.concat([], cfg.tick_size),
    )


def _minute_series(out):
    return post_warmup_prices(out)[::out.config.steps_per_minute]


def test_minute_series_counts():
    out = _manual_output([100.0 + i for i in range(1, 601)])
    samples = _minute_series(out)
    assert samples.shape == (11,)  # steps 0, 60, ..., 600
    assert samples[0] == 100.0  # start price at step 0
    assert samples[1] == 160.0  # price at end of step 60


def test_minute_series_constant():
    out = _manual_output([100.0] * 240)
    assert (_minute_series(out) == 100.0).all()


def test_minute_series_quiet_minute_carries_forward():
    # a trade-free minute repeats the prior minute's sample
    prices = [101.0] * 60 + [101.0] * 60 + [102.0] * 60
    out = _manual_output(prices)
    samples = _minute_series(out)
    assert samples.tolist() == [100.0, 101.0, 101.0, 102.0]


def test_minute_series_excludes_warmup():
    out = _manual_output([100.0 + i for i in range(1, 601)], warmup=120)
    samples = _minute_series(out)
    assert samples.shape == (9,)  # steps 120, 180, ..., 600
    assert samples[0] == 220.0


# ----------------------------------------------------------------------
# trades per minute and calibration
# ----------------------------------------------------------------------


def test_tpm_measures_post_warmup_tape():
    out = run(small_config())
    cfg = out.config
    post = sum(1 for step in out.trade_tape["step"] if step > cfg.warmup)
    minutes = (cfg.horizon_T - cfg.warmup) / cfg.steps_per_minute
    assert out.trades_per_minute == pytest.approx(post / minutes)
    assert type(out.trades_per_minute) is float  # its repr is in digests


def _mean_tpm(cfg: SimConfig, c: float, n_seeds: int = 3) -> float:
    from dataclasses import replace

    return float(np.mean([
        run(replace(cfg, c=c, seed=derive_seed(cfg.seed, i))).trades_per_minute
        for i in range(n_seeds)
    ]))


def test_tpm_decreases_when_c_doubles():
    probe = small_config(horizon_T=15_000)
    assert _mean_tpm(probe, 3.0) > _mean_tpm(probe, 6.0)


def test_calibrate_fixed_point_self_consistency():
    probe = small_config(horizon_T=15_000, seed=31)
    c_known = 5.0
    target = _mean_tpm(probe, c_known, n_seeds=8)
    c_found = calibrate_c(target, probe, n_seeds=5)
    assert c_found == pytest.approx(c_known, rel=0.05)


def test_calibrate_hits_target_within_tolerance():
    probe = small_config(horizon_T=15_000, seed=77)
    target = 4.0
    c = calibrate_c(target, probe, n_seeds=3)
    measured = _mean_tpm(probe, c, n_seeds=6)
    assert measured == pytest.approx(target, rel=0.1)
    # probe seeds on a pool: the same seeds, summed in the same order
    with ProcessPoolExecutor(max_workers=2) as pool:
        assert calibrate_c(target, probe, n_seeds=3, pool=pool) == c


def test_calibrate_recovers_from_tradeless_probes(monkeypatch):
    import lobsim.simulator as simulator

    measured = []
    probe_tpm = simulator._probe_tpm

    def recording(probe_config, c, n_seeds, pool):
        tpm = probe_tpm(probe_config, c, n_seeds, pool)
        measured.append((c, tpm))
        return tpm

    monkeypatch.setattr(simulator, "_probe_tpm", recording)
    probe = small_config(c=1e4, horizon_T=15_000, seed=31)
    target = 4.0
    c = calibrate_c(target, probe, n_seeds=3)
    # waits of ~c*N = 5e5 steps: the first probes see no trades and
    # quarter c until trades appear
    assert [tpm for _, tpm in measured[:2]] == [0.0, 0.0]
    assert measured[1][0] == measured[0][0] / 4
    # the returned c is the last one measured, and it met the tolerance
    last_c, last_tpm = measured[-1]
    assert c == last_c
    assert last_tpm == pytest.approx(target, rel=0.05)


def test_calibrate_interpolates_when_it_straddles_the_target(monkeypatch):
    import lobsim.simulator as simulator

    measured = []
    probe_tpm = simulator._probe_tpm

    def recording(probe_config, c, n_seeds, pool):
        tpm = probe_tpm(probe_config, c, n_seeds, pool)
        measured.append((c, tpm))
        return tpm

    def newton_measurements(probe):
        # the rule without interpolation: c <- c * tpm / target
        c, n = probe.c, 0
        while True:
            tpm = probe_tpm(probe, c, 3, None)
            n += 1
            if abs(tpm - target) <= 0.05 * target:
                return n
            c = c * tpm / target if tpm > 0 else c / 4.0

    monkeypatch.setattr(simulator, "_probe_tpm", recording)
    target = 4.0
    interpolated = newton = 0
    for seed in (31, 77, 99):
        measured.clear()
        # c ten times its fixed point: Newton steps alone overshoot and
        # alternate around the target
        probe = small_config(c=50.0, horizon_T=15_000, seed=seed)
        calibrate_c(target, probe, n_seeds=3)
        interpolated += len(measured)
        newton += newton_measurements(probe)
        for (c1, tpm1), (c2, tpm2), (c3, _) in zip(measured, measured[1:],
                                                   measured[2:]):
            if (tpm1 - target) * (tpm2 - target) < 0:  # straddled
                assert min(c1, c2) < c3 < max(c1, c2)
        assert measured[-1][1] == pytest.approx(target, rel=0.05)
    assert interpolated < newton


def test_calibrate_rejects_bad_target():
    # |tpm - inf| <= tol * inf holds for any tpm: inf would pass as met
    for target in (0.0, -5.4, math.inf, math.nan):
        with pytest.raises(ValueError, match="target_tpm"):
            calibrate_c(target, small_config())
    for n_seeds in (0, -1, 1.5):
        with pytest.raises(ValueError, match="n_seeds"):
            calibrate_c(5.4, small_config(), n_seeds=n_seeds)
    # named as the probe horizon, not as the horizon_T or warmup it sets
    for horizon in (0, -5):
        with pytest.raises(ValueError,
                           match=f"^probe_horizon must be >= 1, got {horizon}$"):
            calibration_probe(SimConfig(), horizon)
    with pytest.raises(ValueError, match="^probe_horizon = 2.5 is not a valid int$"):
        calibration_probe(SimConfig(), 2.5)
    probe = calibration_probe(SimConfig(), np.int64(3))
    assert (probe.horizon_T, probe.warmup) == (3, 1)


def test_calibrate_iteration_cap(monkeypatch):
    # c ten times its fixed point (about 5): one measurement near 0.5
    # trades/minute cannot land within 5% of 5.4 on any stream
    import lobsim.simulator as simulator

    monkeypatch.setattr(simulator, "CALIBRATION_MAX_PROBES", 1)
    probe = small_config(c=50.0, horizon_T=5_000, warmup=500)
    with pytest.raises(RuntimeError, match="converge in 1 probe evaluations"):
        calibrate_c(5.4, probe, n_seeds=1)


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------


def test_derive_seed_distinct_and_stable():
    seeds = [derive_seed(12345, i) for i in range(10_000)]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(12345, 0) == derive_seed(12345, 0)
    assert derive_seed(12345, 0) != derive_seed(12346, 0)
