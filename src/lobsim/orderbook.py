"""Discrete-tick double-auction limit order book.

Price levels are integer tick indices (price = tick * tick_size); all
matching logic runs on integers so no floating point enters the book.
Each occupied level holds a FIFO queue of resting orders, giving
price-time priority: better price first, earlier order id within a
level. Best-price lookup uses a lazy heap over occupied ticks, expiry a
lazy heap over (expires_step, order_id).

Supports crossing limit orders (fills execute at the resting order's
tick, remainder rests), expiry and per-level depth snapshots
(``Depth``). Each fill is a plain ``(tick, shares, resting_id)`` tuple;
the aggressor is the order that was submitted. A limit order at the far
side's worst tick acts as a market order that rests what it cannot fill.
"""

from __future__ import annotations

import heapq
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
    "tick_to_price",
    "price_to_tick",
]


class Side(Enum):
    BUY = "buy"
    SELL = "sell"


class OrderRejected(ValueError):
    """Order failed admission checks (bad id, shares or limit)."""


def tick_to_price(tick: int, tick_size: float) -> float:
    """Price of a tick index, in price units."""
    return tick * tick_size


def price_to_tick(price: float, tick_size: float) -> int:
    """Nearest tick index for a price, clamped to the minimum tick 1."""
    return max(1, int(round(price / tick_size)))


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
    """One side of the book: FIFO queues per occupied tick.

    ``heap`` holds candidate best ticks (bid ticks negated so the heap
    top is always the best price); stale entries are discarded lazily
    when the level they point at is no longer occupied.
    """

    sign: int  # +1 asks (best = lowest), -1 bids (best = highest)
    levels: dict[int, deque[Order]] = field(default_factory=dict)
    level_shares: dict[int, int] = field(default_factory=dict)
    heap: list[int] = field(default_factory=list)
    total_shares: int = 0
    order_count: int = 0

    def best(self) -> int | None:
        heap = self.heap
        levels = self.levels
        while heap:
            tick = self.sign * heap[0]
            if tick in levels:
                return tick
            heapq.heappop(heap)
        return None

    def add(self, order: Order) -> None:
        tick = order.limit
        queue = self.levels.get(tick)
        if queue is None:
            self.levels[tick] = deque((order,))
            self.level_shares[tick] = order.shares
            heapq.heappush(self.heap, self.sign * tick)
        else:
            queue.append(order)
            self.level_shares[tick] += order.shares
        self.total_shares += order.shares
        self.order_count += 1

    def remove(self, order: Order) -> None:
        tick = order.limit
        queue = self.levels[tick]
        queue.remove(order)
        if queue:
            self.level_shares[tick] -= order.shares
        else:
            del self.levels[tick]
            del self.level_shares[tick]
        self.total_shares -= order.shares
        self.order_count -= 1

    def sorted_ticks(self) -> list[int]:
        """Occupied ticks, best level first."""
        return sorted(self.levels, reverse=self.sign < 0)


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
        return self._bids.best()

    def best_ask(self) -> int | None:
        return self._asks.best()

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
        if order.side is not Side.BUY and order.side is not Side.SELL:
            order.side = Side(order.side)  # "buy" or "sell"; else ValueError
        self._last_id = order.id

        if order.side is Side.BUY:
            own, other = self._bids, self._asks
        else:
            own, other = self._asks, self._bids
        best = other.best()
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
        totals are updated once per level; a fully consumed level's tick
        is the heap top, so it is popped at once. Returns the fills and
        the shares left unfilled.
        """
        fills: list[tuple[int, int, int]] = []
        orders = self._orders
        levels = book_side.levels
        level_shares = book_side.level_shares
        heap = book_side.heap
        sign = book_side.sign
        # a level crosses when sign * tick <= sign * limit: asks (sign +1)
        # at or below a buy limit, bids (sign -1) at or above a sell limit
        bound = sign * limit
        remaining = shares
        while remaining > 0:
            best = book_side.best()
            if best is None or sign * best > bound:
                break
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
                heapq.heappop(heap)
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
        their ids. The run calls it after a step's submissions, on the steps
        where ``next_expiry()`` is due (at or before the step)."""
        removed: list[int] = []
        heap = self._expiry_heap
        orders = self._orders
        while heap and heap[0][0] <= step:
            _, order_id = heapq.heappop(heap)
            order = orders.pop(order_id, None)
            if order is None:
                continue  # already fully filled
            side = self._bids if order.side is Side.BUY else self._asks
            side.remove(order)
            removed.append(order_id)
        return removed

    # ------------------------------------------------------------------
    # depth snapshots
    # ------------------------------------------------------------------

    def snapshot(self, step: int) -> Depth:
        """One-row depth record of the book, best level first on both sides."""
        columns = [[step]]
        for side in (self._bids, self._asks):
            ticks = side.sorted_ticks()
            columns += [[len(ticks)], ticks, [side.level_shares[t] for t in ticks]]
        return Depth(self.tick_size,
                     *(np.array(c, dtype=np.int64) for c in columns))
