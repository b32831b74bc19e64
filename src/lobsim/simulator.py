"""Discrete-time market simulation loop.

Each step: traders scheduled for the step are shuffled (preventing
serial correlations from a fixed activation order), each submits one
limit order, then expired orders are removed and the step's last trade
price, resting volume and (optionally) a depth snapshot are recorded.
A run is fully determined by its config, including the seed.

Also provides trade-frequency calibration: bisection over the waiting
time scale c until short probe runs hit a target trades-per-minute.
A measurement's probe seeds run on a process pool when one is given.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import TraderSpec, TraderState, act, draw_waiting_time
from .orderbook import Order, OrderBook, Trade

__all__ = [
    "SimConfig",
    "SimOutput",
    "run",
    "calibrate_c",
    "fan_out",
    "derive_seed",
]

PROBE_SEEDS = 5  # probe runs per calibration measurement

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, index: int) -> int:
    """Per-run seed: splitmix64 finalizer of master + (index+1)*golden.

    The finalizer is a 64-bit bijection, so distinct indices under one
    master seed always yield distinct seeds.
    """
    z = (master_seed + (index + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SimConfig:
    """Full parameterization of one simulation run."""

    trader_specs: tuple[TraderSpec, ...] = (TraderSpec(),)
    c: float = 7.0
    mu_vol: float = 10.0
    tick_size: float = 0.1
    start_price: float = 100.0
    horizon_T: int = 100_000
    warmup: int | None = None  # None -> 10 x largest group lifetime
    snapshot_interval: int = 0  # 0 = no snapshots
    seed: int = 0
    steps_per_minute: int = 60

    def __post_init__(self):
        if not self.trader_specs:
            object.__setattr__(self, "trader_specs", ())
        else:
            object.__setattr__(self, "trader_specs", tuple(self.trader_specs))
        for name in ("c", "mu_vol", "tick_size", "start_price"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.mu_vol <= 0:
            raise ValueError("mu_vol must be positive")
        if self.tick_size <= 0 or self.start_price <= 0:
            raise ValueError("tick_size and start_price must be positive")
        if self.steps_per_minute < 1:
            raise ValueError("steps_per_minute must be >= 1")
        if self.snapshot_interval < 0:
            raise ValueError("snapshot_interval must be >= 0")
        if self.warmup is None:
            lifetimes = [s.mu_lifetime for s in self.trader_specs]
            object.__setattr__(
                self, "warmup", int(10 * max(lifetimes)) if lifetimes else 0
            )
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.horizon_T <= self.warmup:
            raise ValueError("horizon_T must exceed warmup")

    @property
    def n_traders(self) -> int:
        return sum(spec.count for spec in self.trader_specs)


@dataclass
class SimOutput:
    """Everything a run records.

    ``price_series[k]`` is the last trade price at the end of step k+1
    (carried forward through tradeless steps, start_price before the
    first trade), so the series has exactly horizon_T entries and no
    gaps. ``resting_volume_series`` counts total shares resting in the
    book after each step's expiry.
    """

    config: SimConfig
    trade_tape: list[Trade]
    price_series: np.ndarray
    resting_volume_series: np.ndarray
    snapshots: list = field(default_factory=list)
    trades_per_minute: float = 0.0
    n_submitted: int = 0
    n_expired: int = 0
    n_resting_end: int = 0


def run(config: SimConfig) -> SimOutput:
    """Run one simulation; deterministic given the config."""
    rng = np.random.default_rng(config.seed)
    book = OrderBook(config.tick_size)
    tick_size = config.tick_size
    n_traders = config.n_traders
    c = config.c
    mu_vol = config.mu_vol
    horizon = config.horizon_T
    warmup = config.warmup
    snap_every = config.snapshot_interval

    traders: list[TraderState] = []
    for spec in config.trader_specs:
        for _ in range(spec.count):
            traders.append(TraderState(trader_id=len(traders), spec=spec))

    # Initial activations: one waiting-time draw per trader, in id order.
    schedule: dict[int, list[int]] = {}
    for trader in traders:
        first = draw_waiting_time(rng, c, n_traders)
        trader.next_active_step = first
        schedule.setdefault(first, []).append(trader.trader_id)

    tape: list[Trade] = []
    price_series = np.empty(horizon, dtype=np.float64)
    volume_series = np.empty(horizon, dtype=np.int64)
    snapshots: list = []
    last_price = config.start_price
    next_order_id = 0
    n_submitted = 0
    n_expired = 0

    for step in range(1, horizon + 1):
        active = schedule.pop(step, None)
        if active:
            rng.shuffle(active)
            for trader_id in active:
                trader = traders[trader_id]
                intent = act(trader, book, rng, step, c, n_traders, mu_vol,
                             last_price)
                next_order_id += 1
                order = Order(
                    id=next_order_id,
                    trader_id=trader_id,
                    side=intent.side,
                    limit=intent.limit,
                    shares=intent.shares,
                    placed_step=step,
                    expires_step=step + intent.lifetime_steps,
                )
                trades, _ = book.submit(order, step)
                n_submitted += 1
                if trades:
                    tape.extend(trades)
                    last_price = trades[-1].tick * tick_size
                schedule.setdefault(trader.next_active_step, []).append(trader_id)
        n_expired += len(book.expire(step))
        price_series[step - 1] = last_price
        volume_series[step - 1] = book.resting_shares()
        if snap_every and step > warmup and step % snap_every == 0:
            snapshots.append(book.snapshot(step))

    post_trades = sum(1 for t in tape if t.step > warmup)
    minutes = (horizon - warmup) / config.steps_per_minute
    return SimOutput(
        config=config,
        trade_tape=tape,
        price_series=price_series,
        resting_volume_series=volume_series,
        snapshots=snapshots,
        trades_per_minute=post_trades / minutes,
        n_submitted=n_submitted,
        n_expired=n_expired,
        n_resting_end=book.resting_orders(),
    )


def fan_out(fn, jobs, pool: Executor | None, describe) -> list:
    """``fn(job)`` for every job, results in job order.

    With a pool the jobs run in its workers, and a job that raises there
    surfaces as ``RuntimeError("<describe(job)> failed: ...")`` after the
    jobs not yet started are cancelled. Without one they run in this
    process and errors pass through unchanged.
    """
    if pool is None:
        return [fn(job) for job in jobs]
    futures = [pool.submit(fn, job) for job in jobs]
    results = []
    for future, job in zip(futures, jobs):
        try:
            results.append(future.result())
        except Exception as exc:
            for pending in futures:
                pending.cancel()
            raise RuntimeError(f"{describe(job)} failed: {exc}") from exc
    return results


def _probe_run(config: SimConfig) -> float:
    # module level, so pool workers can unpickle it; ``run`` is looked
    # up at call time, so wrappers installed on this module are seen
    return run(config).trades_per_minute


def _probe_tpm(probe_config: SimConfig, c: float, n_seeds: int,
               pool: Executor | None) -> float:
    configs = [replace(probe_config, c=c, seed=derive_seed(probe_config.seed, i))
               for i in range(n_seeds)]
    tpm = 0.0
    for seed_tpm in fan_out(_probe_run, configs, pool,
                            lambda cfg: f"probe seed {cfg.seed} at c={cfg.c!r}"):
        tpm += seed_tpm  # seed order, so every pool gives the same float
    return tpm / n_seeds


def calibrate_c(
    target_tpm: float,
    probe_config: SimConfig,
    n_seeds: int = PROBE_SEEDS,
    rel_tol: float = 0.05,
    max_iter: int = 60,
    pool: Executor | None = None,
) -> float:
    """Find the waiting-time scale c hitting a target trade frequency.

    Measured trades-per-minute decreases in c (longer waits, fewer
    activations), so bisection applies: widen an initial bracket until
    it straddles the target, then bisect geometrically until the probe
    measurement (averaged over n_seeds derived seeds) lands within
    rel_tol of the target and the bracket pins c itself. Each
    measurement's seeds run on ``pool`` when given (see ``fan_out``);
    the result is the same float with or without one.

    Raises RuntimeError when max_iter probe evaluations are exhausted.
    """
    if target_tpm <= 0:
        raise ValueError("target_tpm must be positive")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    evals = 0

    def measure(c: float) -> float:
        nonlocal evals
        evals += 1
        if evals > max_iter:
            raise RuntimeError(
                f"calibration failed to converge in {max_iter} probe evaluations"
            )
        return _probe_tpm(probe_config, c, n_seeds, pool)

    lo = hi = probe_config.c
    f_lo = f_hi = measure(lo)
    while f_lo < target_tpm:  # need more activity: shrink c
        hi, f_hi = lo, f_lo
        lo /= 4.0
        f_lo = measure(lo)
    while f_hi > target_tpm:  # need less activity: grow c
        lo, f_lo = hi, f_hi
        hi *= 4.0
        f_hi = measure(hi)

    best_c, best_err = lo, abs(f_lo - target_tpm)
    if abs(f_hi - target_tpm) < best_err:
        best_c, best_err = hi, abs(f_hi - target_tpm)
    while True:
        mid = float(np.sqrt(lo * hi))
        f_mid = measure(mid)
        if abs(f_mid - target_tpm) < best_err:
            best_c, best_err = mid, abs(f_mid - target_tpm)
        if best_err <= rel_tol * target_tpm and (hi - lo) <= 0.05 * mid:
            return best_c
        if f_mid > target_tpm:
            lo = mid
        else:
            hi = mid
