"""Trader behaviors: the draws of every activation, as columns.

Every trader follows one rule set. A trader activates, flips a fair
coin for side, draws a limit price from a normal centered on the best
price of its own side (best bid for buys, best ask for sells), an
exponential order size scaled by kappa, an exponential lifetime, and an
exponential waiting time to its next activation. A group of traders is
its count, kappa, lifetime and price width: RandomTraders have kappa = 1,
and BigTraders are a group with kappa > 1.

Only the price center depends on the book: ``activations`` draws the
rest ahead of the run, ``WINDOW`` steps at a time, and ``act`` centers
one activation's price offset on the book. Equal seeds give equal draws.
The casts every record and integer argument share live here too.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TraderSpec",
    "WINDOW",
    "activations",
    "act",
    "MIN_RECOMMENDED_LIFETIME",
]

# Below ~40 steps the book empties out and price formation degenerates to
# the placement distribution; allowed, but flagged.
MIN_RECOMMENDED_LIFETIME = 40.0

WINDOW = 8192  # steps whose activations are drawn at once


def cast_value(name: str, value, kind, text: bool = False):
    """``value`` as ``kind``, else a ValueError naming ``name``. An int
    casts by ``operator.index``, so numpy ints pass and 2.5 and "5" fail;
    config ``text`` casts by ``kind`` itself, so "5" passes."""
    try:
        return (operator.index if kind is int and not text else kind)(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} = {value!r} is not a valid {kind.__name__}") from None


def as_int(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``, else a ValueError
    naming ``name``."""
    value = cast_value(name, value, int)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def cast_fields(obj) -> None:
    """Cast the fields of the frozen dataclass ``obj`` by its class's
    ``CASTS``: field -> cast, or field -> (item cast, collection) for a
    field of items. A value its cast rejects, a str or scalar given for
    a collection, or a float that is not finite raises a ValueError
    naming the field."""
    for name, kind in type(obj).CASTS.items():
        value = getattr(obj, name)
        kind, collection = kind if isinstance(kind, tuple) else (kind, None)
        if collection and (isinstance(value, str)
                           or not hasattr(value, "__iter__")):
            raise ValueError(f"{name} = {value!r} is not a collection")
        items = [cast_value(name, item, kind)
                 for item in (value if collection else (value,))]
        if kind is float and not all(map(math.isfinite, items)):
            raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(obj, name,
                           collection(items) if collection else items[0])


@dataclass(frozen=True)
class TraderSpec:
    """Parameters shared by one group of identical traders."""

    count: int = 300
    kappa: float = 1.0
    mu_lifetime: float = 120.0
    sigma_price: float = 0.5

    # each field's cast; the config keys trader.<group>.<field>, in order
    CASTS = {"count": int, "kappa": float, "mu_lifetime": float,
             "sigma_price": float}

    def __post_init__(self):
        cast_fields(self)
        if self.count < 1:
            raise ValueError("trader count must be >= 1")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.mu_lifetime <= 0:
            raise ValueError("mu_lifetime must be positive")
        if self.mu_lifetime <= MIN_RECOMMENDED_LIFETIME:
            warnings.warn(
                f"mu_lifetime={self.mu_lifetime} <= {MIN_RECOMMENDED_LIFETIME}: "
                "order book occupancy degenerates in this regime",
                stacklevel=2,
            )
        if self.sigma_price <= 0:
            raise ValueError("sigma_price must be positive")


def activations(config, rng: np.random.Generator):
    """Yield a run's activations as columns ``(step, trader, buy, offset,
    shares, lifetime)``, one ``WINDOW`` of steps 1..horizon_T at a time.

    Rows come by step, and within a step by one uniform key each;
    ``trader`` numbers the traders group by group. A trader acts at the
    partial sums from step 0 of its waits, Exp(mean c*N), ceiling, >= 1,
    drawn as one (traders, k) block per pass over a window. Per row, by
    its trader's group: buy is a fair coin; offset is N(0, sigma_price)
    in price units, which ``act`` centers; shares are kappa * Exp(mean
    mu_vol), nearest int, >= 1; lifetime is Exp(mean mu_lifetime),
    ceiling, >= 1. ``rng`` gives the first waits, then per window the
    wait blocks, the keys, the coins, the normals and the exponentials.
    """
    specs, n = config.trader_specs, config.n_traders
    if n == 0:
        return
    sigma, volume, lifetime = np.repeat(np.array(
        [(s.sigma_price, s.kappa * config.mu_vol, s.mu_lifetime) for s in specs]
    ).T, [s.count for s in specs], axis=1)
    mean_wait = config.c * n
    k = 8 + int(1.25 * WINDOW / mean_wait)  # waits per trader and pass

    def waits(shape):
        waits = np.ceil(mean_wait * rng.standard_exponential(shape))
        return np.maximum(waits, 1).astype(np.int64)

    pending = waits(n)  # each trader's next step
    stop = config.horizon_T + 1
    for lo in range(1, stop, WINDOW):
        hi = min(lo + WINDOW, stop)
        steps, traders = [np.empty(0, np.int64)], [np.empty(0, np.intp)]
        ids = np.flatnonzero(pending < hi)
        while ids.size:
            # row i: trader ids[i]'s pending step, then one per wait after it
            times = np.cumsum(np.column_stack(
                (pending[ids], waits((ids.size, k)))), axis=1)
            acts = times[:, :k] < hi
            steps.append(times[:, :k][acts])
            traders.append(np.repeat(ids, k)[acts.ravel()])
            pending[ids] = times[np.arange(ids.size), acts.sum(axis=1)]
            ids = ids[pending[ids] < hi]
        steps, traders = np.concatenate(steps), np.concatenate(traders)
        order = np.lexsort((rng.random(steps.size), steps))
        steps, traders = steps[order], traders[order]
        buy = rng.random(steps.size) < 0.5
        z = rng.standard_normal(steps.size)
        e_vol, e_lt = rng.standard_exponential((2, steps.size))
        shares = np.maximum(np.rint(volume[traders] * e_vol), 1)
        lifetimes = np.maximum(np.ceil(lifetime[traders] * e_lt), 1)
        yield (steps, traders, buy, sigma[traders] * z,
               shares.astype(np.int64), lifetimes.astype(np.int64))


def act(book_view, buy: bool, offset: float, step: int,
        fallback_price: float) -> int:
    """The limit tick of an activation at ``step``: ``offset`` price units
    from the best price of the own side (best bid for a buy, best ask for
    a sell), or from ``fallback_price`` when that side is empty, rounded
    to the nearest tick and clamped to tick 1. ``step`` does not enter the
    tick; it names the activation for wrappers that watch the calls."""
    center = book_view.best_bid() if buy else book_view.best_ask()
    tick_size = book_view.tick_size
    price = fallback_price if center is None else center * tick_size
    return max(1, round((price + offset) / tick_size))
