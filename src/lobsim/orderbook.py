"""Discrete-tick double-auction limit order book.

Price levels are integer tick indices (price = tick * tick_size); all
matching logic runs on integers so no floating point enters the book.
Each occupied level holds a FIFO queue of resting orders, giving
price-time priority: better price first, earlier order id within a
level. Each side keeps its occupied ticks in one ascending list and its
best tick as an attribute; expiry uses a lazy heap over
(expires_step, order_id).

Supports crossing limit orders (fills execute at the resting order's
tick, remainder rests), expiry and per-level depth snapshots
(``Depth``). Each fill is a plain ``(tick, shares, resting_id)`` tuple;
the aggressor is the order that was submitted. A limit order at the far
side's worst tick acts as a market order that rests what it cannot fill.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

__all__ = [
    "Side",
    "Order",
    "Depth",
    "OrderBook",
    "OrderRejected",
]


class Side(Enum):
    BUY = "buy"
    SELL = "sell"


BUY, SELL = Side.BUY, Side.SELL  # hot paths: a global beats Side.BUY


class OrderRejected(ValueError):
    """Order failed admission checks (bad id, shares or limit)."""


@dataclass(slots=True, eq=False)
class Order:
    """A limit order; ``shares`` is the remaining size while resting."""

    id: int
    side: Side
    limit: int
    shares: int
    placed_step: int
    expires_step: int


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


@dataclass
class _BookSide:
    """One side of the book: FIFO queues per occupied tick, the occupied
    ``ticks`` in ascending order and the ``best`` of them (None if none)."""

    sign: int  # +1 asks (best = lowest), -1 bids (best = highest)
    levels: dict[int, deque[Order]] = field(default_factory=dict)
    level_shares: dict[int, int] = field(default_factory=dict)
    ticks: list[int] = field(default_factory=list)
    best: int | None = None
    total_shares: int = 0
    order_count: int = 0

    def add(self, order: Order) -> None:
        tick = order.limit
        queue = self.levels.get(tick)
        if queue is None:
            self.levels[tick] = deque((order,))
            self.level_shares[tick] = order.shares
            ticks = self.ticks
            insort(ticks, tick)
            self.best = ticks[0 if self.sign > 0 else -1]
        else:
            queue.append(order)
            self.level_shares[tick] += order.shares
        self.total_shares += order.shares
        self.order_count += 1


class OrderBook:
    """Double-auction book with price-time priority matching.

    Order ids must be strictly increasing across submissions; they double
    as the time component of price-time priority. The book owns resting
    orders and mutates their remaining ``shares`` as fills occur.
    """

    def __init__(self, tick_size: float = 0.1):
        if tick_size <= 0:
            raise ValueError("tick_size must be positive")
        self.tick_size = tick_size
        self._bids = _BookSide(sign=-1)
        self._asks = _BookSide(sign=+1)
        self._orders: dict[int, Order] = {}
        self._expiry_heap: list[tuple[int, int]] = []
        self._last_id = 0

    # ------------------------------------------------------------------
    # best prices / resting totals
    # ------------------------------------------------------------------

    def best_bid(self) -> int | None:
        return self._bids.best

    def best_ask(self) -> int | None:
        return self._asks.best

    def resting_shares(self) -> int:
        return self._bids.total_shares + self._asks.total_shares

    def resting_orders(self) -> int:
        return self._bids.order_count + self._asks.order_count

    def open_order_ids(self) -> set[int]:
        return set(self._orders)

    # ------------------------------------------------------------------
    # order entry
    # ------------------------------------------------------------------

    def submit(self, order: Order) -> tuple[list, int | None]:
        """Match a limit order, resting any non-crossing remainder.

        Fills walk the opposite side best-first while its price satisfies
        the limit, executing at the resting order's tick. Returns the
        fills and the order id if a remainder rested, else None. A side
        given by its value ("buy" or "sell") is cast to ``Side``.
        """
        if order.id <= self._last_id:
            raise OrderRejected(f"order id {order.id} not strictly increasing")
        if order.shares < 1:
            raise OrderRejected("order shares must be >= 1")
        if order.limit < 1:
            raise OrderRejected("order limit must be a valid tick (>= 1)")
        if order.expires_step < order.placed_step:
            raise OrderRejected("order expires before placement")
        if order.side is not BUY and order.side is not SELL:
            order.side = Side(order.side)  # "buy" or "sell"; else ValueError
        self._last_id = order.id

        if order.side is BUY:
            own, other = self._bids, self._asks
        else:
            own, other = self._asks, self._bids
        best = other.best
        if best is not None and other.sign * (best - order.limit) <= 0:
            fills, order.shares = self._match(order.shares, other, order.limit)
            if order.shares == 0:
                return fills, None
        else:
            fills = []

        own.add(order)
        self._orders[order.id] = order
        heapq.heappush(self._expiry_heap, (order.expires_step, order.id))
        return fills, order.id

    def _match(self, shares: int, book_side: _BookSide,
               limit: int) -> tuple[list, int]:
        """Fill ``shares`` against ``book_side`` best-first.

        Levels are consumed while they cross ``limit``. Level and side
        totals are updated once per level; a fully consumed level is the
        best, so its tick is the end of ``ticks`` nearest the spread.
        Returns the fills and the shares left unfilled.
        """
        fills: list[tuple[int, int, int]] = []
        orders = self._orders
        levels = book_side.levels
        level_shares = book_side.level_shares
        ticks = book_side.ticks
        sign = book_side.sign
        end = 0 if sign > 0 else -1  # the best tick's place in ticks
        # a level crosses when sign * tick <= sign * limit: asks (sign +1)
        # at or below a buy limit, bids (sign -1) at or above a sell limit
        bound = sign * limit
        remaining = shares
        best = book_side.best
        while remaining > 0 and best is not None and sign * best <= bound:
            queue = levels[best]
            level_fill = 0
            while queue and remaining > 0:
                resting = queue[0]
                left = resting.shares
                fill = remaining if remaining < left else left
                fills.append((best, fill, resting.id))
                remaining -= fill
                level_fill += fill
                if fill == left:
                    resting.shares = 0
                    queue.popleft()
                    book_side.order_count -= 1
                    del orders[resting.id]
                else:
                    resting.shares = left - fill
            book_side.total_shares -= level_fill
            if queue:
                level_shares[best] -= level_fill
            else:
                del levels[best]
                del level_shares[best]
                del ticks[end]
                best = ticks[end] if ticks else None
        book_side.best = best
        return fills, remaining

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------

    def next_expiry(self) -> int | None:
        """The earliest ``expires_step`` of a resting order, None on an
        empty book: ``expire`` at an earlier step removes nothing."""
        heap, orders = self._expiry_heap, self._orders
        while heap and heap[0][1] not in orders:
            heapq.heappop(heap)  # its order was filled
        return heap[0][0] if heap else None

    def expire(self, step: int) -> list[int]:
        """Remove every resting order with expires_step <= step and return
        their ids. The run calls it lazily: before a step's first
        submission, through the step before, when an order is due by then,
        and at snapshots and the end of the horizon."""
        removed: list[int] = []
        heap = self._expiry_heap
        orders = self._orders
        while heap and heap[0][0] <= step:
            _, order_id = heapq.heappop(heap)
            order = orders.pop(order_id, None)
            if order is None:
                continue  # already fully filled
            side = self._bids if order.side is BUY else self._asks
            tick = order.limit
            queue = side.levels[tick]
            queue.remove(order)
            side.total_shares -= order.shares
            side.order_count -= 1
            if queue:
                side.level_shares[tick] -= order.shares
            else:
                del side.levels[tick], side.level_shares[tick]
                ticks = side.ticks
                del ticks[bisect_left(ticks, tick)]
                if tick == side.best:
                    side.best = (ticks[0 if side.sign > 0 else -1]
                                 if ticks else None)
            removed.append(order_id)
        return removed

    # ------------------------------------------------------------------
    # depth snapshots
    # ------------------------------------------------------------------

    def snapshot(self, step: int) -> Depth:
        """One-row depth record of the book, best level first on both
        sides; its seven columns are slices of one int64 array."""
        bids, asks = self._bids, self._asks
        bid_ticks, ask_ticks = bids.ticks[::-1], asks.ticks
        nb, na = len(bid_ticks), len(ask_ticks)
        row = np.array([step, nb, *bid_ticks,
                        *map(bids.level_shares.get, bid_ticks),
                        na, *ask_ticks, *map(asks.level_shares.get, ask_ticks)],
                       dtype=np.int64)
        a = 2 * nb + 3  # the first ask tick
        return Depth(self.tick_size, row[:1], row[1:2], row[2:nb + 2],
                     row[nb + 2:a - 1], row[a - 1:a], row[a:a + na],
                     row[a + na:])
