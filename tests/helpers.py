"""Shared stream generators, book builders and row-wise references."""

from __future__ import annotations

from itertools import islice

import numpy as np

from lobsim.orderbook import Depth, OrderBook, Side


def make_stream(
    rng: np.random.Generator,
    n_orders: int,
    orders_per_step: int = 5,
    center_tick: int = 1000,
    sigma_ticks: float = 6.0,
    size_mean: float = 8.0,
    lifetime_mean: float = 60.0,
    steps_apart: int = 1,
):
    """Random order stream as (step, id, side, limit, shares, expires);
    ``orders_per_step`` orders every ``steps_apart`` steps from step 1."""
    steps = 1 + steps_apart * (np.arange(n_orders) // orders_per_step)
    buys = rng.random(n_orders) < 0.5
    limits = np.maximum(
        1, center_tick + np.rint(rng.normal(0.0, sigma_ticks, n_orders)).astype(int)
    )
    shares = np.maximum(1, np.rint(rng.exponential(size_mean, n_orders)).astype(int))
    lifetimes = np.maximum(
        1, np.ceil(rng.exponential(lifetime_mean, n_orders)).astype(int)
    )
    sides = [Side.BUY if buy else Side.SELL for buy in buys.tolist()]
    return list(zip(steps.tolist(), range(1, n_orders + 1), sides,
                    limits.tolist(), shares.tolist(),
                    (steps + lifetimes).tolist()))


def discrete_ks(samples: np.ndarray, cdf_at) -> float:
    """Sup distance between an integer sample's ECDF and a discrete CDF."""
    xs, counts = np.unique(samples, return_counts=True)
    ecdf = np.cumsum(counts) / samples.size
    return float(np.max(np.abs(ecdf - cdf_at(xs))))


def trader_gaps(steps: np.ndarray, traders: np.ndarray):
    """Each trader's waits, in steps, from step 0 to each of its
    activations in turn: ``(gaps, ends)``, where a gap ends at step
    ``ends`` and began at ``ends - gaps``. Rows come in run order."""
    by_trader = np.argsort(traders, kind="stable")
    ends, who = steps[by_trader], traders[by_trader]
    first = np.r_[True, who[1:] != who[:-1]]
    return ends - np.where(first, 0, np.r_[0, ends[:-1]]), ends


def build_random_book(
    rng: np.random.Generator,
    n_orders: int = 40,
    center_tick: int = 1000,
    sigma_ticks: float = 8.0,
    size_mean: float = 10.0,
    tick_size: float = 0.1,
) -> OrderBook:
    """Book with resting depth on both sides and no crossed levels."""
    book = OrderBook(tick_size)
    next_id = 1
    for _ in range(n_orders):
        if rng.random() < 0.5:
            side = Side.BUY
            limit = center_tick - 1 - int(abs(rng.normal(0.0, sigma_ticks)))
        else:
            side = Side.SELL
            limit = center_tick + 1 + int(abs(rng.normal(0.0, sigma_ticks)))
        shares = max(1, int(round(rng.exponential(size_mean))))
        book.submit(next_id, side, max(1, limit), shares, 0, 10**9)
        next_id += 1
    return book


def resting_shares(book: OrderBook) -> int:
    """The shares resting on both sides, summed from a depth snapshot."""
    snap = book.snapshot(0)
    return int(snap.bid_shares.sum() + snap.ask_shares.sum())


def open_order_ids(book: OrderBook) -> set[int]:
    """The ids of the orders resting in the book's level queues."""
    return {order[1] for side in (book._bids, book._asks)
            for queue in side.levels.values() for order in queue}


def rebuild_book(snap: Depth) -> OrderBook:
    """A book holding one order per level of the one-row record ``snap``."""
    book = OrderBook(snap.tick_size)
    levels = [(Side.BUY, t, n) for t, n in zip(snap.bid_ticks.tolist(),
                                               snap.bid_shares.tolist())]
    levels += [(Side.SELL, t, n) for t, n in zip(snap.ask_ticks.tolist(),
                                                 snap.ask_shares.tolist())]
    for oid, (side, tick, shares) in enumerate(levels, start=1):
        book.submit(oid, side, tick, shares, 0, 10**9)
    return book


def sweep(book: OrderBook, side: Side, shares: int):
    """Submit a ``side`` order (id 10**9) limited at the far side's worst
    tick: it fills like a market order and rests what it cannot fill.
    Returns the fills and the rested id (None when filled), as ``submit``."""
    snap = book.snapshot(step=0)
    far = snap.ask_ticks if side is Side.BUY else snap.bid_ticks
    if far.size == 0:
        return [], None
    return book.submit(10**9, side, int(far[-1]), shares, 0, 10**9)


def pooled(snapshots, tick_size: float = 0.1) -> Depth:
    """One record holding the rows of ``snapshots``, in order."""
    return Depth.concat(snapshots, tick_size)


def depth_rows(depth: Depth) -> list[Depth]:
    """Each row of ``depth`` as its own one-row record."""
    rows = []
    bid_end = ask_end = 0
    for i in range(len(depth)):
        bids = slice(bid_end, bid_end := bid_end + int(depth.bid_counts[i]))
        asks = slice(ask_end, ask_end := ask_end + int(depth.ask_counts[i]))
        rows.append(Depth(
            depth.tick_size, depth.steps[i:i + 1],
            depth.bid_counts[i:i + 1], depth.bid_ticks[bids],
            depth.bid_shares[bids], depth.ask_counts[i:i + 1],
            depth.ask_ticks[asks], depth.ask_shares[asks],
        ))
    return rows


def snapshot_csv_rows(depth: Depth):
    """The rows of ``snapshots.csv`` for ``depth``, row by row: each
    snapshot's bid levels, then its asks, as (step, side, tick, price,
    shares) with buy volume negated."""
    tick = depth.tick_size
    bids = zip(depth.bid_ticks.tolist(), depth.bid_shares.tolist())
    asks = zip(depth.ask_ticks.tolist(), depth.ask_shares.tolist())
    for step, n_bids, n_asks in zip(depth.steps.tolist(),
                                    depth.bid_counts.tolist(),
                                    depth.ask_counts.tolist()):
        for t, s in islice(bids, n_bids):
            yield step, "buy", t, t * tick, -s
        for t, s in islice(asks, n_asks):
            yield step, "sell", t, t * tick, s
