"""Trader behaviors: the distribution draws of one activation.

Two trader kinds share one rule set. A trader activates, flips a fair
coin for side, draws a limit price from a normal centered on the best
price of its own side (best bid for buys, best ask for sells), an
exponential order size scaled by kappa, an exponential lifetime, and an
exponential waiting time to its next activation. RandomTrader has
kappa = 1; BigTrader scales its order sizes by kappa.

The run draws its randomness in blocks of standardized values, which
serve every trader group: ``normal(loc, s)`` is ``loc + s * z`` and
``exponential(s)`` is ``s * e``. ``draw_block`` takes the draws for
``DRAW_BLOCK`` activations from the caller's RNG with one numpy call per
draw kind, in a fixed order: ``random(B)``, ``standard_normal(B)``,
``standard_exponential((3, B))``. Activation i reads row i, ``(u, z,
e_vol, e_lt, e_wait)``, and ``act`` scales that row by its group's
parameters. Two runs with equal seeds therefore produce identical draw
sequences. A trader holds no state of its own: the run loop builds the
order and schedules the next activation from what ``act`` returns.
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
    "DRAW_BLOCK",
    "draw_block",
    "act",
    "MIN_RECOMMENDED_LIFETIME",
]

# Below ~40 steps the book empties out and price formation degenerates to
# the placement distribution; allowed, but flagged.
MIN_RECOMMENDED_LIFETIME = 40.0

DRAW_BLOCK = 1024  # activations per refill of the standardized draws


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


def draw_block(rng: np.random.Generator):
    """Standardized draws ``(u, z, e_vol, e_lt, e_wait)`` for the next
    ``DRAW_BLOCK`` activations, one row each, from one numpy call per
    draw kind in this order: uniforms, standard normals, and three rows
    of standard exponentials (volume, lifetime, wait)."""
    n = DRAW_BLOCK
    return zip(rng.random(n).tolist(), rng.standard_normal(n).tolist(),
               *rng.standard_exponential((3, n)).tolist())


def act(
    spec: TraderSpec,
    book_view,
    draws: tuple[float, float, float, float, float],
    step: int,
    mean_wait: float,
    mu_vol: float,
    fallback_price: float,
) -> tuple[Side, int, int, int, int]:
    """One activation of a trader of group ``spec`` at ``step``.

    Turns one row of standardized draws ``(u, z, e_vol, e_lt, e_wait)``
    into ``(side, limit, shares, lifetime, wait)``: the order's side,
    limit tick, size and lifetime in steps, and the steps until the
    trader's next activation.

    - side: BUY when u < 0.5, else SELL;
    - limit: N(center, sigma_price) rounded to the nearest tick and
      clamped to tick 1, centered on the best price of the trader's own
      side (best bid for buys, best ask for sells), or on
      ``fallback_price`` when that side is empty;
    - shares: kappa * Exp(mean mu_vol), nearest int, >= 1;
    - lifetime: Exp(mean mu_lifetime), ceiling, >= 1;
    - wait: Exp(mean ``mean_wait`` = c*N), ceiling, >= 1.

    The draws do not depend on ``step``; it names the activation for
    wrappers that watch the calls.
    """
    u, z, e_vol, e_lt, e_wait = draws
    if u < 0.5:
        side, center = Side.BUY, book_view.best_bid()
    else:
        side, center = Side.SELL, book_view.best_ask()
    tick_size = book_view.tick_size
    price = fallback_price if center is None else tick_to_price(center, tick_size)
    return (side,
            price_to_tick(price + spec.sigma_price * z, tick_size),
            max(1, round(spec.kappa * mu_vol * e_vol)),
            max(1, math.ceil(spec.mu_lifetime * e_lt)),
            max(1, math.ceil(mean_wait * e_wait)))
