"""Trader behaviors: the distribution draws of one activation.

Two trader kinds share one rule set. A trader activates, flips a fair
coin for side, draws a limit price from a normal centered on the best
price of its own side (best bid for buys, best ask for sells), an
exponential order size scaled by kappa, an exponential lifetime, and an
exponential waiting time to its next activation. RandomTrader has
kappa = 1; BigTrader scales its order sizes by kappa.

All draws consume the caller's RNG stream in a fixed order per
activation: side, price, volume, lifetime, waiting time. Two runs with
equal seeds therefore produce identical draw sequences. A trader holds
no state of its own: the run loop builds the order and schedules the
next activation from the draws.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .orderbook import Side, price_to_tick, tick_to_price

__all__ = [
    "TraderKind",
    "TraderSpec",
    "draw_waiting_time",
    "draw_lifetime",
    "draw_volume",
    "draw_limit_price",
    "act",
    "MIN_RECOMMENDED_LIFETIME",
]

# Below ~40 steps the book empties out and price formation degenerates to
# the placement distribution; allowed, but flagged.
MIN_RECOMMENDED_LIFETIME = 40.0


class TraderKind(Enum):
    RANDOM = "random"
    BIG = "big"


def cast_fields(obj, casts: dict, each=()) -> None:
    """Cast the fields of the frozen dataclass ``obj`` named in ``casts``
    (field -> cast); a field in ``each`` becomes a tuple cast item by item.
    Ints cast by ``operator.index``, so numpy ints pass and 2.5 fails.
    A value its cast rejects, or a float that is not finite, raises a
    ValueError naming the field."""
    for name, cast in casts.items():
        value = getattr(obj, name)
        try:
            items = tuple(map(cast, value if name in each else (value,)))
        except (TypeError, ValueError):
            kind = "int" if cast is operator.index else cast.__name__
            raise ValueError(
                f"{name} = {value!r} is not a valid {kind}") from None
        if cast is float and not all(map(math.isfinite, items)):
            raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(obj, name, items if name in each else items[0])


@dataclass(frozen=True)
class TraderSpec:
    """Parameters shared by one group of identical traders."""

    kind: TraderKind = TraderKind.RANDOM
    count: int = 300
    kappa: float = 1.0
    mu_lifetime: float = 120.0
    sigma_price: float = 0.5

    def __post_init__(self):
        cast_fields(self, {"kind": TraderKind, "count": operator.index,
                           **dict.fromkeys(("kappa", "mu_lifetime",
                                            "sigma_price"), float)})
        if self.count < 1:
            raise ValueError("trader count must be >= 1")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.kind is TraderKind.RANDOM and self.kappa != 1.0:
            raise ValueError("RandomTrader has kappa fixed at 1")
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


def draw_waiting_time(rng: np.random.Generator, c: float, n_traders: int) -> int:
    """Steps until a trader's next activation: Exp(mean c*N), ceiling, >= 1."""
    if c <= 0:
        raise ValueError("c must be positive")
    if n_traders < 1:
        raise ValueError("n_traders must be >= 1")
    return max(1, math.ceil(rng.exponential(c * n_traders)))


def draw_lifetime(rng: np.random.Generator, mu_lt: float) -> int:
    """Order lifetime in steps: Exp(mean mu_lt), ceiling, >= 1."""
    return max(1, math.ceil(rng.exponential(mu_lt)))


def draw_volume(rng: np.random.Generator, mu_vol: float, kappa: float = 1.0) -> int:
    """Order size in shares: kappa * Exp(mean mu_vol), nearest int, >= 1."""
    if mu_vol <= 0:
        raise ValueError("mu_vol must be positive")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    return max(1, int(round(kappa * rng.exponential(mu_vol))))


def draw_limit_price(
    rng: np.random.Generator,
    side: Side,
    book_view,
    sigma_price: float,
    fallback_price: float,
) -> int:
    """Limit tick from a normal centered on the own-side best price.

    Buys center on the best bid, sells on the best ask. When that side
    is empty the draw centers on ``fallback_price`` (last trade price,
    else the starting price). Result is rounded to the nearest tick and
    clamped to tick 1.
    """
    if sigma_price <= 0:
        raise ValueError("sigma_price must be positive")
    center_tick = book_view.best_bid() if side is Side.BUY else book_view.best_ask()
    if center_tick is not None:
        center = tick_to_price(center_tick, book_view.tick_size)
    else:
        center = fallback_price
    price = rng.normal(center, sigma_price)
    return price_to_tick(price, book_view.tick_size)


def act(
    spec: TraderSpec,
    book_view,
    rng: np.random.Generator,
    step: int,
    c: float,
    n_traders: int,
    mu_vol: float,
    fallback_price: float,
) -> tuple[Side, int, int, int, int]:
    """One activation of a trader of group ``spec`` at ``step``.

    Returns ``(side, limit, shares, lifetime, wait)``: the order's side,
    limit tick, size and lifetime in steps, and the steps until the
    trader's next activation. Side is a fair coin flip; draws consume
    the RNG stream in that order. The draws do not depend on ``step``;
    it names the activation for wrappers that watch the calls.
    """
    side = Side.BUY if rng.random() < 0.5 else Side.SELL
    limit = draw_limit_price(rng, side, book_view, spec.sigma_price, fallback_price)
    shares = draw_volume(rng, mu_vol, spec.kappa)
    lifetime = draw_lifetime(rng, spec.mu_lifetime)
    return side, limit, shares, lifetime, draw_waiting_time(rng, c, n_traders)
