"""Discrete-tick double-auction limit order book.

Price levels are integer tick indices (price = tick * tick_size); all
matching logic runs on integers so no floating point enters the book.
Each occupied level holds a FIFO queue of resting orders, giving
price-time priority: better price first, earlier order id within a
level; the queue carries its level's share total. Each side keeps its
occupied ticks in one ascending list, whose end nearest the spread is
its best tick. A resting order is one plain list, held by its level's
queue and by the expiry heap, where it is its own entry, ordered by
(expires, id); a filled order leaves the heap lazily.

Supports crossing limit orders (fills execute at the resting order's
tick, remainder rests), expiry and per-level depth snapshots
(``Depth``). Each fill is a plain ``(tick, shares, resting_id)`` tuple;
the aggressor is the order that was submitted. A limit order at the far
side's worst tick acts as a market order that rests what it cannot fill.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum
from heapq import heappop, heappush
from itertools import chain
from operator import index

import numpy as np

from .agents import cast_value

__all__ = [
    "Side",
    "Depth",
    "OrderBook",
    "OrderRejected",
]


class Side(Enum):
    BUY = "buy"
    SELL = "sell"


BUY, SELL = Side.BUY, Side.SELL  # hot paths: a global beats Side.BUY


class OrderRejected(ValueError):
    """Order failed admission checks (bad id, shares, limit or expiry)."""


@dataclass(frozen=True, eq=False)
class Depth:
    """Per-level book depth, one row per recorded step, as columns.

    Per row: its step and, per side, its count of occupied levels. The
    ticks and shares columns hold every row's levels in row order, best
    level first within a row: bid ticks descend from the best bid, ask
    ticks ascend from the best ask.
    """

    tick_size: float
    steps: np.ndarray
    bid_counts: np.ndarray
    bid_ticks: np.ndarray
    bid_shares: np.ndarray
    ask_counts: np.ndarray
    ask_ticks: np.ndarray
    ask_shares: np.ndarray

    def __len__(self) -> int:
        return self.steps.size

    @classmethod
    def concat(cls, parts, tick_size: float) -> "Depth":
        """The rows of ``parts``, in order; no parts give zero rows."""
        parts = list(parts)
        mixed = {p.tick_size for p in parts} - {tick_size}
        if mixed:
            raise ValueError(f"cannot join depth at tick size {tick_size} "
                             f"with depth at tick size {sorted(mixed)}")
        empty = np.empty(0, dtype=np.int64)
        return cls(tick_size, *(
            np.concatenate([empty, *(getattr(p, f.name) for p in parts)])
            for f in fields(cls)[1:]
        ))


class _Level(deque):
    """A price level: its FIFO queue of orders, carrying their ``shares``."""

    __slots__ = ("shares",)


@dataclass
class _BookSide:
    """One side of the book: a level per occupied tick and the occupied
    ``ticks`` in ascending order."""

    sign: int  # +1 asks (best = lowest), -1 bids (best = highest)
    levels: dict[int, _Level] = field(default_factory=dict)
    ticks: list[int] = field(default_factory=list)


class OrderBook:
    """Double-auction book with price-time priority matching.

    Order ids must be strictly increasing across submissions; they double
    as the time component of price-time priority. A resting order is one
    list ``[expires, id, shares, tick, side]``, held by its level's queue
    and, as its own entry, by the expiry heap; ``side`` is the book side
    it rests on, and ``shares`` is what is left of it, 0 once it is
    filled, which leaves its queue at once and the heap lazily.
    """

    def __init__(self, tick_size: float = 0.1):
        tick_size = cast_value("tick_size", tick_size, float)
        if not 0 < tick_size < float("inf"):  # nan fails too
            raise ValueError(f"tick_size must be positive and finite, got {tick_size}")
        self.tick_size = tick_size
        self._bids = _BookSide(sign=-1)
        self._asks = _BookSide(sign=+1)
        self._expiry_heap: list[list] = []
        self._last_id = 0

    # ------------------------------------------------------------------
    # best prices / resting totals
    # ------------------------------------------------------------------

    def best_bid(self) -> int | None:
        ticks = self._bids.ticks
        return ticks[-1] if ticks else None

    def best_ask(self) -> int | None:
        ticks = self._asks.ticks
        return ticks[0] if ticks else None

    def resting_orders(self) -> int:
        return sum(map(len, chain(self._bids.levels.values(),
                                  self._asks.levels.values())))

    # ------------------------------------------------------------------
    # order entry
    # ------------------------------------------------------------------

    def submit(self, order_id: int, side: Side, limit: int, shares: int,
               step: int, expires: int) -> tuple[list, int | None]:
        """Match a limit order, resting any non-crossing remainder.

        Fills walk the opposite side best-first while its price satisfies
        the limit, executing at the resting order's tick. Returns the
        fills and the order id if a remainder rested, else None. The id,
        limit, shares, step and expiry must be integers (numpy ones are
        cast); a side given by its value ("buy" or "sell") is cast to
        ``Side``.
        The order rests until ``expires``, which may not precede ``step``.
        """
        try:
            order_id, limit = index(order_id), index(limit)
            shares, step, expires = index(shares), index(step), index(expires)
        except TypeError:
            for name, value in (("id", order_id), ("limit", limit),
                                ("shares", shares), ("step", step),
                                ("expires", expires)):
                try:
                    index(value)
                except TypeError:
                    raise OrderRejected(f"order {name} must be an integer, "
                                        f"got {value!r}") from None
        if order_id <= self._last_id:
            raise OrderRejected(f"order id {order_id} not strictly increasing")
        if shares < 1:
            raise OrderRejected("order shares must be >= 1")
        if limit < 1:
            raise OrderRejected("order limit must be a valid tick (>= 1)")
        if expires < step:
            raise OrderRejected("order expires before placement")
        if side is not BUY and side is not SELL:
            side = Side(side)  # "buy" or "sell"; else ValueError
        self._last_id = order_id

        if side is BUY:
            own, other = self._bids, self._asks
            crosses = other.ticks and other.ticks[0] <= limit
        else:
            own, other = self._asks, self._bids
            crosses = other.ticks and other.ticks[-1] >= limit
        if crosses:
            fills, shares = self._match(shares, other, limit)
            if shares == 0:
                return fills, None
        else:
            fills = []

        order = [expires, order_id, shares, limit, own]
        level = own.levels.get(limit)
        if level is None:
            own.levels[limit] = level = _Level((order,))
            level.shares = shares
            insort(own.ticks, limit)
        else:
            level.append(order)
            level.shares += shares
        heappush(self._expiry_heap, order)  # ordered by (expires, id)
        return fills, order_id

    def _match(self, shares: int, book_side: _BookSide,
               limit: int) -> tuple[list, int]:
        """Fill ``shares`` against ``book_side`` best-first.

        Levels are consumed while they cross ``limit``; the best tick is
        the end of ``ticks`` nearest the spread. Level totals are updated
        once per level. Returns the fills and the shares left unfilled.
        """
        fills: list[tuple[int, int, int]] = []
        levels = book_side.levels
        ticks = book_side.ticks
        sign = book_side.sign
        end = 0 if sign > 0 else -1  # the best tick's place in ticks
        # a level crosses when sign * tick <= sign * limit: asks (sign +1)
        # at or below a buy limit, bids (sign -1) at or above a sell limit
        bound = sign * limit
        remaining = shares
        while remaining > 0 and ticks and sign * (best := ticks[end]) <= bound:
            queue = levels[best]
            level_fill = 0
            while queue and remaining > 0:
                resting = queue[0]
                left = resting[2]
                fill = remaining if remaining < left else left
                fills.append((best, fill, resting[1]))
                remaining -= fill
                level_fill += fill
                resting[2] = left - fill
                if fill == left:
                    queue.popleft()
            if queue:
                queue.shares -= level_fill
            else:
                del levels[best], ticks[end]
        return fills, remaining

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------

    def next_expiry(self) -> int | None:
        """The earliest expiry of a resting order, None on an empty book:
        ``expire`` at an earlier step removes nothing."""
        heap = self._expiry_heap
        while heap and heap[0][2] == 0:
            heappop(heap)  # a filled order
        return heap[0][0] if heap else None

    def expire(self, step: int) -> list[int]:
        """Remove every resting order that expires at or before ``step``
        and return their ids. The run calls it lazily: before a step's
        first submission, through the step before, when an order is due
        by then, and at snapshots and the end of the horizon."""
        removed: list[int] = []
        heap = self._expiry_heap
        while heap and heap[0][0] <= step:
            order = heappop(heap)
            _, order_id, shares, tick, side = order
            if shares == 0:
                continue  # already fully filled
            queue = side.levels[tick]
            queue.remove(order)
            if queue:
                queue.shares -= shares
            else:
                del side.levels[tick]
                ticks = side.ticks
                del ticks[bisect_left(ticks, tick)]
            removed.append(order_id)
        return removed

    # ------------------------------------------------------------------
    # depth snapshots
    # ------------------------------------------------------------------

    def snapshot(self, step: int) -> Depth:
        """One-row depth record of the book, best level first on both
        sides; its seven columns are slices of one int64 array."""
        bids, asks = self._bids.levels, self._asks.levels
        bid_ticks, ask_ticks = self._bids.ticks[::-1], self._asks.ticks
        nb, na = len(bid_ticks), len(ask_ticks)
        row = np.array([step, nb, *bid_ticks,
                        *[bids[t].shares for t in bid_ticks],
                        na, *ask_ticks, *[asks[t].shares for t in ask_ticks]],
                       dtype=np.int64)
        a = 2 * nb + 3  # the first ask tick
        return Depth(self.tick_size, row[:1], row[1:2], row[2:nb + 2],
                     row[nb + 2:a - 1], row[a - 1:a], row[a:a + na],
                     row[a + na:])
