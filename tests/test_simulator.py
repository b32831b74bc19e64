"""Event loop, determinism, minute sampling and calibration."""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lobsim.agents import TraderSpec
from lobsim.experiments import post_warmup_prices
from lobsim.simulator import (
    SimConfig,
    SimOutput,
    calibrate_c,
    derive_seed,
    run,
)


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
    assert out.trade_tape == []
    assert (out.price_series == cfg.start_price).all()
    assert (out.resting_volume_series == 0).all()
    assert out.trades_per_minute == 0.0


def test_same_seed_bit_identical():
    a = run(small_config())
    b = run(small_config())
    assert a.trade_tape == b.trade_tape
    assert (a.price_series == b.price_series).all()
    assert (a.resting_volume_series == b.resting_volume_series).all()
    assert a.trades_per_minute == b.trades_per_minute
    assert a.n_submitted == b.n_submitted
    assert a.n_expired == b.n_expired


def test_different_seeds_differ():
    a = run(small_config(seed=1))
    b = run(small_config(seed=2))
    assert a.trade_tape != b.trade_tape


def test_output_shapes_and_carry_forward():
    cfg = small_config()
    out = run(cfg)
    assert out.price_series.shape == (cfg.horizon_T,)
    assert out.resting_volume_series.shape == (cfg.horizon_T,)
    assert np.isfinite(out.price_series).all()
    # carried-forward prices only change on steps with trades
    trade_steps = {t.step for t in out.trade_tape}
    changes = np.nonzero(np.diff(out.price_series))[0] + 2  # steps, 1-based
    assert set(changes.tolist()) <= trade_steps


def test_trade_steps_within_horizon():
    out = run(small_config())
    assert all(1 <= t.step <= 20_000 for t in out.trade_tape)
    assert all(t.shares >= 1 for t in out.trade_tape)


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
    steps = [s.step for s in out.snapshots]
    assert steps == [s for s in range(500, 20_001, 500) if s > cfg.warmup]
    assert all(
        s.best_bid < s.best_ask
        for s in out.snapshots
        if s.best_bid is not None and s.best_ask is not None
    )


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(c=0.0)
    with pytest.raises(ValueError):
        small_config(horizon_T=100, warmup=100)
    with pytest.raises(ValueError):
        small_config(steps_per_minute=0)
    for field, value in [("c", math.nan), ("c", math.inf), ("mu_vol", math.nan),
                         ("tick_size", math.inf), ("start_price", math.nan)]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_config(**{field: value})
    cfg = small_config(warmup=None)
    assert cfg.warmup == 1200  # 10x the 120-step lifetime


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
        trade_tape=[],
        price_series=np.asarray(prices, dtype=float),
        resting_volume_series=np.zeros(len(prices), dtype=np.int64),
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
    post = sum(1 for t in out.trade_tape if t.step > cfg.warmup)
    minutes = (cfg.horizon_T - cfg.warmup) / cfg.steps_per_minute
    assert out.trades_per_minute == pytest.approx(post / minutes)


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


def test_calibrate_rejects_bad_target():
    with pytest.raises(ValueError):
        calibrate_c(0.0, small_config())
    for n_seeds in (0, -1):
        with pytest.raises(ValueError, match="n_seeds"):
            calibrate_c(5.4, small_config(), n_seeds=n_seeds)


def test_calibrate_iteration_cap():
    probe = small_config(horizon_T=5_000, warmup=500)
    with pytest.raises(RuntimeError):
        calibrate_c(5.4, probe, n_seeds=1, max_iter=2)


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------


def test_derive_seed_distinct_and_stable():
    seeds = [derive_seed(12345, i) for i in range(10_000)]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(12345, 0) == derive_seed(12345, 0)
    assert derive_seed(12345, 0) != derive_seed(12346, 0)
