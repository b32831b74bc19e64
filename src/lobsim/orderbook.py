"""Discrete-tick double-auction limit order book.

Price levels are integer tick indices (price = tick * tick_size); all
matching logic runs on integers so no floating point enters the book.
Each occupied level holds a FIFO queue of resting orders, giving
price-time priority: better price first, earlier order id within a
level. Best-price lookup uses a lazy heap over occupied ticks, expiry a
heap over (expires_step, order_id).

Supports crossing limit orders (fills execute at the resting order's
tick, remainder rests), market orders (unfilled remainder is discarded),
end-of-step expiry and per-level depth snapshots.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Side",
    "Order",
    "Trade",
    "BookSnapshot",
    "OrderBook",
    "OrderRejected",
    "tick_to_price",
    "price_to_tick",
]


class Side(Enum):
    BUY = "buy"
    SELL = "sell"

    @property
    def opposite(self) -> "Side":
        return Side.SELL if self is Side.BUY else Side.BUY


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
    trader_id: int
    side: Side
    limit: int
    shares: int
    placed_step: int
    expires_step: int


@dataclass(frozen=True, slots=True)
class Trade:
    """One fill. Executes at the resting order's tick."""

    step: int
    tick: int
    shares: int
    aggressor_id: int
    resting_id: int
    aggressor_side: Side


@dataclass(frozen=True, eq=False)
class BookSnapshot:
    """Per-level depth at one step, best level first on both sides.

    Level data is stored as parallel numpy arrays to keep large snapshot
    collections cheap. Bid ticks descend from the best bid, ask ticks
    ascend from the best ask.
    """

    step: int
    tick_size: float
    bid_ticks: np.ndarray
    bid_shares: np.ndarray
    ask_ticks: np.ndarray
    ask_shares: np.ndarray

    @property
    def best_bid(self) -> int | None:
        return int(self.bid_ticks[0]) if self.bid_ticks.size else None

    @property
    def best_ask(self) -> int | None:
        return int(self.ask_ticks[0]) if self.ask_ticks.size else None


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

    def submit(self, order: Order, step: int) -> tuple[list[Trade], int | None]:
        """Match a limit order, resting any non-crossing remainder.

        Fills walk the opposite side best-first while its price satisfies
        the limit, executing at the resting order's tick. Returns the
        trades and the order id if a remainder rested, else None.
        """
        if order.id <= self._last_id:
            raise OrderRejected(f"order id {order.id} not strictly increasing")
        if order.shares < 1:
            raise OrderRejected("order shares must be >= 1")
        if order.limit < 1:
            raise OrderRejected("order limit must be a valid tick (>= 1)")
        if order.expires_step < order.placed_step:
            raise OrderRejected("order expires before placement")
        self._last_id = order.id

        if order.side is Side.BUY:
            own, other = self._bids, self._asks
        else:
            own, other = self._asks, self._bids
        best = other.best()
        if best is not None and other.sign * (best - order.limit) <= 0:
            trades = self._match(order, other, step, order.limit)
            if order.shares == 0:
                return trades, None
        else:
            trades = []

        own.add(order)
        self._orders[order.id] = order
        heapq.heappush(self._expiry_heap, (order.expires_step, order.id))
        return trades, order.id

    def submit_market(
        self, side: Side, shares: int, step: int, aggressor_id: int = -1
    ) -> tuple[list[Trade], int]:
        """Consume the opposite side best-first until filled or empty.

        The unfilled remainder is discarded (a market order has no limit
        to rest at). Returns the trades and the unfilled share count.
        """
        if shares < 1:
            raise OrderRejected("market order shares must be >= 1")
        order = Order(
            id=aggressor_id, trader_id=aggressor_id, side=side, limit=0,
            shares=shares, placed_step=step, expires_step=step,
        )
        book_side = self._asks if side is Side.BUY else self._bids
        trades = self._match(order, book_side, step, None)
        return trades, order.shares

    def _match(
        self, order: Order, book_side: _BookSide, step: int, limit: int | None
    ) -> list[Trade]:
        """Fill ``order`` against ``book_side`` best-first.

        Levels are consumed while they cross ``limit`` (None: always,
        for market orders). Level and side totals are updated once per
        level; a fully consumed level's tick is the heap top, so it is
        popped at once.
        """
        trades: list[Trade] = []
        orders = self._orders
        levels = book_side.levels
        level_shares = book_side.level_shares
        heap = book_side.heap
        sign = book_side.sign
        # a level crosses when sign * tick <= sign * limit: asks (sign +1)
        # at or below a buy limit, bids (sign -1) at or above a sell limit
        bound = None if limit is None else sign * limit
        remaining = order.shares
        aggressor_id = order.id
        aggressor_side = order.side
        while remaining > 0:
            best = book_side.best()
            if best is None or (bound is not None and sign * best > bound):
                break
            queue = levels[best]
            level_fill = 0
            while queue and remaining > 0:
                resting = queue[0]
                left = resting.shares
                fill = remaining if remaining < left else left
                trades.append(Trade(step, best, fill, aggressor_id,
                                    resting.id, aggressor_side))
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
        order.shares = remaining
        return trades

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------

    def expire(self, step: int) -> list[int]:
        """Remove every resting order with expires_step <= step.

        Called once at the end of each simulation step, strictly after
        the step's submissions. Returns removed order ids.
        """
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

    def snapshot(self, step: int) -> BookSnapshot:
        """Per-level depth snapshot, best level first on both sides."""
        bid_ticks = self._bids.sorted_ticks()
        ask_ticks = self._asks.sorted_ticks()
        bid_sh = self._bids.level_shares
        ask_sh = self._asks.level_shares
        return BookSnapshot(
            step=step,
            tick_size=self.tick_size,
            bid_ticks=np.array(bid_ticks, dtype=np.int64),
            bid_shares=np.array([bid_sh[t] for t in bid_ticks], dtype=np.int64),
            ask_ticks=np.array(ask_ticks, dtype=np.int64),
            ask_shares=np.array([ask_sh[t] for t in ask_ticks], dtype=np.int64),
        )
