"""Discrete-time market simulation loop.

The loop walks the activation rows of ``agents.activations``, each
step's traders in a uniform order (preventing serial correlations from
a fixed activation order): ``act`` turns each row into a limit tick
against the book and the order goes through ``OrderBook.submit``. The
loop works only at activations: before a step's first submission it
expires the orders due by the step before, and it takes the (optional)
depth snapshots that fall since the last activation. The price and
resting-volume series are rebuilt after the loop, from the trade tape
and the order columns. A run is fully determined by its config.

Also provides trade-frequency calibration: rescale the waiting-time
scale c by measured/target trades-per-minute of short probe runs until
they hit the target, each measurement's seeds on a process pool if given.
"""

from __future__ import annotations

import math
from array import array
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .agents import TraderSpec, act, activations, as_int, cast_fields
from .orderbook import BUY, SELL, Depth, OrderBook

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
CALIBRATION_TOL = 0.05  # calibrate_c's relative tolerance on trades/minute
CALIBRATION_MAX_PROBES = 60  # measurements before calibrate_c gives up

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

    # each cast field's cast, in the config file's key order
    CASTS = {"c": float, "mu_vol": float, "tick_size": float,
             "start_price": float, "horizon_T": int, "warmup": int,
             "snapshot_interval": int, "seed": int, "steps_per_minute": int}

    def __post_init__(self):
        specs = self.trader_specs
        if not (isinstance(specs, (tuple, list))
                and all(isinstance(s, TraderSpec) for s in specs)):
            raise ValueError(f"trader_specs = {specs!r} is not a tuple of TraderSpec")
        object.__setattr__(self, "trader_specs", tuple(specs))
        if self.warmup is None:
            lifetimes = [s.mu_lifetime for s in self.trader_specs]
            object.__setattr__(
                self, "warmup", int(10 * max(lifetimes)) if lifetimes else 0
            )
        cast_fields(self)
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.mu_vol <= 0:
            raise ValueError("mu_vol must be positive")
        if self.tick_size <= 0 or self.start_price <= 0:
            raise ValueError("tick_size and start_price must be positive")
        if self.steps_per_minute < 1:
            raise ValueError("steps_per_minute must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    book at the end of each step, after its expired orders leave (what a
    snapshot then would sum to). ``trade_tape`` is a structured array of
    ``TAPE_DTYPE``, one row per fill in fill order. ``depth`` holds one
    row per snapshot (none when ``snapshot_interval`` is 0). Both series
    are rebuilt from the tape and the orders after the run's loop.
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
    tick_size, horizon = config.tick_size, config.horizon_T
    warmup, snap_every = config.warmup, config.snapshot_interval

    tape = array("q")  # per fill: TAPE_DTYPE's fields, aggressor id, resting id
    # shares resting after each step, as changes until the cumsum after the
    # loop: orders add theirs at their step and take back what fills left at
    # their end (expiry, or ``never``); fills take theirs from both sides
    volumes = np.zeros(horizon + 2, dtype=np.int64)
    ends = [np.empty(0, np.int64)]  # per window: its orders' ends
    snapshots: list[Depth] = []
    last_price = config.start_price
    next_order_id = 0  # also the count of orders submitted
    n_expired = 0
    due = never = horizon + 1  # at or before the earliest resting expiry
    snap_at = (warmup // snap_every + 1) * snap_every if snap_every else never

    def catch_up(step):
        # expire through ``step``; each snapshot on the way follows its expiry
        nonlocal due, snap_at, n_expired
        while True:
            at = snap_at if snap_at < step else step
            if due <= at:
                n_expired += len(book.expire(at))
                due = book.next_expiry() or never  # expiry steps are >= 1
            if at < snap_at:
                return
            snapshots.append(book.snapshot(at))
            snap_at += snap_every

    def windows():
        for step, _, buy, offset, shares, lifetime in activations(config, rng):
            end = np.minimum(step + lifetime, never)
            np.add.at(volumes, step, shares)
            np.add.at(volumes, end, -shares)
            ends.append(end)
            yield zip(step.tolist(), buy.tolist(), offset.tolist(),
                      shares.tolist(), lifetime.tolist())

    for step, buy, offset, shares, lifetime in chain.from_iterable(windows()):
        if due < step or snap_at < step:
            catch_up(step - 1)
        limit = act(book, buy, offset, step, last_price)
        next_order_id += 1
        expires = step + lifetime
        fills, rested = book.submit(next_order_id, BUY if buy else SELL,
                                    limit, shares, step, expires)
        if expires < due and rested is not None:
            due = expires
        if fills:
            for tick, n, resting_id in fills:
                tape.extend((step, tick, n, buy, next_order_id, resting_id))
            last_price = fills[-1][0] * tick_size
    catch_up(horizon)

    fills = np.reshape(tape, (-1, 6)).T
    trade_tape = np.empty(fills.shape[1], dtype=TAPE_DTYPE)
    for name, column in zip(TAPE_DTYPE.names, fills):
        trade_tape[name] = column
    fill_steps, fill_ticks, fill_shares, _, aggressors, resting = fills
    ends = np.concatenate(ends)
    np.add.at(volumes, fill_steps, -2 * fill_shares)
    for ids in aggressors, resting:
        np.add.at(volumes, ends[ids - 1], fill_shares)
    np.cumsum(volumes, out=volumes)
    post_trades = int(np.count_nonzero(fill_steps > warmup))
    minutes = (horizon - warmup) / config.steps_per_minute
    return SimOutput(
        config=config,
        trade_tape=trade_tape,
        price_series=np.repeat(
            np.concatenate(([config.start_price], fill_ticks * tick_size)),
            np.diff(fill_steps, prepend=1, append=never)),
        resting_volume_series=volumes[1:never],
        depth=Depth.concat(snapshots, tick_size),
        trades_per_minute=post_trades / minutes,
        n_submitted=next_order_id,
        n_expired=n_expired,
        n_resting_end=book.resting_orders(),
    )


def fan_out(fn, jobs, pool: Executor | None, describe) -> list:
    """``fn(job)`` for every job, results in job order.

    The jobs run in the pool's workers if one is given, else in this
    process. Either way a job that raises surfaces as
    ``RuntimeError("<describe(job)> failed: ...")``; a pool's map cancels
    the jobs not yet started as the error leaves it.
    """
    results = []
    try:
        for result in (map if pool is None else pool.map)(fn, jobs):
            results.append(result)
    except Exception as exc:
        raise RuntimeError(f"{describe(jobs[len(results)])} failed: {exc}") from exc
    return results


def calibration_probe(config: SimConfig,
                      horizon: int = PROBE_HORIZON) -> SimConfig:
    """``config`` cut to a probe run: ``horizon`` (>= 1) steps, warmup at
    most a third of them, no snapshots."""
    horizon = as_int("probe_horizon", horizon, 1)
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
    pool: Executor | None = None,
) -> float:
    """Find the waiting-time scale c hitting a target trade frequency.

    Each trader waits Exp(c*N) steps, so trades-per-minute scales as
    1/c and the fixed point c <- c*tpm(c)/target is a Newton step with
    the model's own slope. Starting from ``probe_config.c``, measure tpm
    (averaged over n_seeds derived seeds) and return the measured c once
    it lies within CALIBRATION_TOL of the target, so the next step would
    move c by at most that; a measurement without trades quarters c.
    Near the target tpm falls faster than 1/c, so Newton steps overshoot
    and alternate around it: when the last two measurements straddle the
    target, the next c interpolates log c against log tpm between them.
    Each measurement's seeds run on ``pool`` when given (see
    ``fan_out``); the result is the same float with or without one.

    Raises RuntimeError after CALIBRATION_MAX_PROBES measurements.
    """
    if not 0 < target_tpm < math.inf:  # nan fails too
        raise ValueError(
            f"target_tpm must be positive and finite, got {target_tpm}")
    n_seeds = as_int("n_seeds", n_seeds, 1)
    c = probe_config.c
    last_c = last_tpm = 0.0
    for _ in range(CALIBRATION_MAX_PROBES):
        tpm = _probe_tpm(probe_config, c, n_seeds, pool)
        if abs(tpm - target_tpm) <= CALIBRATION_TOL * target_tpm:
            return c
        if tpm == 0:
            new_c = c / 4.0
        elif last_tpm > 0 and (tpm > target_tpm) != (last_tpm > target_tpm):
            share = math.log(target_tpm / tpm) / math.log(last_tpm / tpm)
            new_c = c * (last_c / c) ** share
        else:
            new_c = c * tpm / target_tpm
        c, last_c, last_tpm = new_c, c, tpm
    raise RuntimeError(
        f"calibration failed to converge in {CALIBRATION_MAX_PROBES} probe evaluations"
    )
