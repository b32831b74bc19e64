"""Discrete-time market simulation loop.

Each step: traders scheduled for the step are shuffled (preventing
serial correlations from a fixed activation order), each submits one
limit order, then expired orders are removed and the step's last trade
price, resting volume and (optionally) a depth snapshot are recorded.
Only steps with an activation, a due expiry (``OrderBook.next_expiry``)
or a snapshot do this work; the others repeat the record before them.
A run is fully determined by its config, including the seed.

Also provides trade-frequency calibration: rescale the waiting-time
scale c by measured/target trades-per-minute of short probe runs until
they hit the target, each measurement's seeds on a process pool if given.
"""

from __future__ import annotations

import math
import operator
from array import array
from concurrent.futures import Executor
from dataclasses import dataclass, replace

import numpy as np

from .agents import TraderSpec, act, cast_fields, draw_block
from .orderbook import Depth, Order, OrderBook, Side

__all__ = [
    "SimConfig",
    "SimOutput",
    "TAPE_DTYPE",
    "run",
    "calibrate_c",
    "calibration_probe",
    "fan_out",
    "derive_seed",
]

PROBE_SEEDS = 5  # probe runs per calibration measurement
PROBE_HORIZON = 30_000  # steps per probe run

# a trade tape row: one fill's step, tick and shares, and whether its aggressor bought
TAPE_DTYPE = np.dtype([("step", np.int64), ("tick", np.int64),
                       ("shares", np.int64), ("buy", np.bool_)])

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
        object.__setattr__(self, "trader_specs", tuple(self.trader_specs or ()))
        if self.warmup is None:
            lifetimes = [s.mu_lifetime for s in self.trader_specs]
            object.__setattr__(
                self, "warmup", int(10 * max(lifetimes)) if lifetimes else 0
            )
        cast_fields(self, {
            **dict.fromkeys(("c", "mu_vol", "tick_size", "start_price"), float),
            **dict.fromkeys(("horizon_T", "warmup", "snapshot_interval", "seed",
                             "steps_per_minute"), operator.index)})
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
    book after each step's expiry. ``trade_tape`` is a structured array
    of ``TAPE_DTYPE``, one row per fill in fill order. ``depth`` holds
    one row per snapshot (none when ``snapshot_interval`` is 0).
    """

    config: SimConfig
    trade_tape: np.ndarray
    price_series: np.ndarray
    resting_volume_series: np.ndarray
    depth: Depth
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
    mean_wait = config.c * n_traders
    mu_vol = config.mu_vol
    horizon = config.horizon_T
    warmup = config.warmup
    snap_every = config.snapshot_interval

    # A trader is its id: specs[id] is its group; schedule[step] lists the
    # ids activating at step, seeded by one block of standard exponential
    # waits, one per trader in id order. Activations then read their draws
    # row by row from blocks refilled as they run out (agents.draw_block).
    specs = [spec for spec in config.trader_specs for _ in range(spec.count)]
    schedule: dict[int, list[int]] = {}
    for trader_id, e in enumerate(rng.standard_exponential(n_traders).tolist()):
        schedule.setdefault(max(1, math.ceil(mean_wait * e)), []).append(trader_id)
    rows = iter(())

    # Each step that does work marks (step, last price, resting shares);
    # the steps between two marks repeat the first (np.repeat over gaps).
    tape = array("q")  # TAPE_DTYPE rows, one field after another
    mark_steps = array("q", [1])  # before the first mark: the empty book
    mark_prices = array("d", [config.start_price])
    mark_volumes = array("q", [0])
    snapshots: list[Depth] = []
    last_price = config.start_price
    next_order_id = 0  # also the count of orders submitted
    n_expired = 0
    due = never = horizon + 1  # due: the book's next expiry step
    snap_at = (warmup // snap_every + 1) * snap_every if snap_every else never

    for step in range(1, horizon + 1):
        active = schedule.pop(step, None)
        if active:
            if len(active) > 1:  # shuffling one id draws nothing
                rng.shuffle(active)
            for trader_id in active:
                draws = next(rows, None)
                if draws is None:
                    rows = draw_block(rng)
                    draws = next(rows)
                side, limit, shares, lifetime, wait = act(
                    specs[trader_id], book, draws, step, mean_wait, mu_vol,
                    last_price)
                next_order_id += 1
                fills, _ = book.submit(Order(next_order_id, side, limit, shares,
                                             step, step + lifetime))
                if fills:
                    buy = side is Side.BUY
                    for tick, n, _ in fills:
                        tape.extend((step, tick, n, buy))
                    last_price = fills[-1][0] * tick_size
                schedule.setdefault(step + wait, []).append(trader_id)
        elif step < due and step < snap_at:
            continue
        if due <= step:
            n_expired += len(book.expire(step))
        due = book.next_expiry() or never  # expiry steps are >= 1
        mark_steps.append(step)
        mark_prices.append(last_price)
        mark_volumes.append(book.resting_shares())
        if step == snap_at:
            snapshots.append(book.snapshot(step))
            snap_at += snap_every

    gaps = np.diff(np.frombuffer(mark_steps, dtype=np.int64), append=never)
    trade_tape = np.empty(len(tape) // 4, dtype=TAPE_DTYPE)
    for name, column in zip(TAPE_DTYPE.names, np.reshape(tape, (-1, 4)).T):
        trade_tape[name] = column
    post_trades = int(np.count_nonzero(trade_tape["step"] > warmup))
    minutes = (horizon - warmup) / config.steps_per_minute
    return SimOutput(
        config=config,
        trade_tape=trade_tape,
        price_series=np.repeat(np.frombuffer(mark_prices), gaps),
        resting_volume_series=np.repeat(
            np.frombuffer(mark_volumes, dtype=np.int64), gaps),
        depth=Depth.concat(snapshots, tick_size),
        trades_per_minute=post_trades / minutes,
        n_submitted=next_order_id,
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


def calibration_probe(config: SimConfig,
                      horizon: int = PROBE_HORIZON) -> SimConfig:
    """``config`` cut to a probe run: ``horizon`` steps, warmup at most a
    third of them, no snapshots."""
    return replace(config, horizon_T=horizon,
                   warmup=min(config.warmup, horizon // 3),
                   snapshot_interval=0)


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

    Each trader waits Exp(c*N) steps, so trades-per-minute scales as
    1/c and the fixed point c <- c*tpm(c)/target is a Newton step with
    the model's own slope. Starting from ``probe_config.c``, measure tpm
    (averaged over n_seeds derived seeds) and return the measured c once
    it lies within rel_tol of the target, so the next step would move c
    by at most rel_tol; a measurement without trades quarters c instead.
    Each measurement's seeds run on ``pool`` when given (see
    ``fan_out``); the result is the same float with or without one.

    Raises RuntimeError when max_iter probe evaluations are exhausted.
    """
    if target_tpm <= 0:
        raise ValueError("target_tpm must be positive")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    c = probe_config.c
    for _ in range(max_iter):
        tpm = _probe_tpm(probe_config, c, n_seeds, pool)
        if abs(tpm - target_tpm) <= rel_tol * target_tpm:
            return c
        c = c * tpm / target_tpm if tpm > 0 else c / 4.0
    raise RuntimeError(
        f"calibration failed to converge in {max_iter} probe evaluations"
    )
