"""Matching engine, expiry, depth snapshots and the flat-list oracle."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobsim.impact import impact_distribution
from lobsim.orderbook import (
    Depth,
    Order,
    OrderBook,
    OrderRejected,
    Side,
    price_to_tick,
    tick_to_price,
)

from .helpers import (build_random_book, depth_rows, make_stream,
                      rebuild_book, sweep)
from .reference_matcher import ReferenceMatcher


def limit(oid, side, tick, shares, step=0, expires=10**9):
    return Order(oid, side, tick, shares, step, expires)


# ----------------------------------------------------------------------
# submit
# ----------------------------------------------------------------------


def test_submit_into_empty_book_rests():
    book = OrderBook()
    fills, rested = book.submit(limit(1, Side.BUY, 1005, 10))
    assert fills == []
    assert rested == 1
    assert book.best_bid() == 1005
    assert book.best_ask() is None


def test_crossing_buy_fills_at_resting_price():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1003, 7))
    fills, rested = book.submit(limit(2, Side.BUY, 1010, 5))
    assert rested is None
    assert fills == [(1003, 5, 1)]  # (tick, shares, resting id)
    snap = book.snapshot(step=1)  # remainder of the resting order
    assert (snap.ask_ticks.tolist(), snap.ask_shares.tolist()) == ([1003], [2])


def test_crossing_remainder_rests_at_own_limit():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1003, 4))
    fills, rested = book.submit(limit(2, Side.BUY, 1005, 10))
    assert fills == [(1003, 4, 1)]
    assert rested == 2
    assert book.best_bid() == 1005
    assert book.best_ask() is None


def test_price_time_priority_same_tick():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1003, 5))
    book.submit(limit(2, Side.SELL, 1003, 5))
    fills, _ = book.submit(limit(3, Side.BUY, 1003, 6))
    assert fills == [(1003, 5, 1), (1003, 1, 2)]


def test_buy_walks_ascending_ticks():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1005, 3))
    book.submit(limit(2, Side.SELL, 1003, 3))
    book.submit(limit(3, Side.SELL, 1004, 3))
    fills, _ = book.submit(limit(4, Side.BUY, 1005, 9))
    assert [tick for tick, _, _ in fills] == [1003, 1004, 1005]


def test_duplicate_or_nonincreasing_id_rejected():
    book = OrderBook()
    book.submit(limit(5, Side.BUY, 1000, 1))
    with pytest.raises(OrderRejected):
        book.submit(limit(5, Side.SELL, 1001, 1))
    with pytest.raises(OrderRejected):
        book.submit(limit(3, Side.SELL, 1001, 1))


def test_zero_shares_rejected():
    book = OrderBook()
    with pytest.raises(OrderRejected):
        book.submit(limit(1, Side.BUY, 1000, 0))


def test_bad_limit_rejected():
    book = OrderBook()
    with pytest.raises(OrderRejected):
        book.submit(limit(1, Side.BUY, 0, 5))


def _asks_1010_1020() -> OrderBook:
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1010, 5))
    book.submit(limit(2, Side.SELL, 1020, 5))
    return book


def test_string_side_submit_is_read_as_its_side():
    book = _asks_1010_1020()
    order = limit(3, "buy", 1015, 2)
    fills, rested = book.submit(order)
    assert fills == [(1010, 2, 1)] and rested is None
    assert order.side is Side.BUY
    fills, rested = book.submit(limit(4, "buy", 1005, 2))
    assert fills == [] and rested == 4
    assert book.best_bid() == 1005
    book.expire(10**9)  # a cast side is also the side expiry removes from
    assert book.resting_orders() == 0
    with pytest.raises(ValueError, match="not a valid Side"):
        book.submit(limit(5, "up", 1015, 2))


# ----------------------------------------------------------------------
# sweeps: a limit order at the far side's worst tick
# ----------------------------------------------------------------------


def test_market_exact_fill():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1004, 5))
    fills, rested = sweep(book, Side.BUY, 5)
    assert rested is None
    assert fills == [(1004, 5, 1)]
    assert book.best_ask() is None and book.best_bid() is None


def test_market_spanning_levels_matches_cumulative_supply(rng):
    book = build_random_book(rng, n_orders=60)
    snap = book.snapshot(step=0)
    v = int(snap.ask_shares[:3].sum())  # exactly three levels deep
    fills, rested = sweep(book, Side.BUY, v)
    assert rested is None
    ticks = [tick for tick, _, _ in fills]
    assert ticks == sorted(ticks)
    assert set(ticks) == set(snap.ask_ticks[:3].tolist())
    per_level = {}
    for tick, shares, _ in fills:
        per_level[tick] = per_level.get(tick, 0) + shares
    expected = dict(zip(snap.ask_ticks.tolist(), snap.ask_shares.tolist()))
    assert all(per_level[t] == expected[t] for t in per_level)


# ----------------------------------------------------------------------
# expiry
# ----------------------------------------------------------------------


def test_expire_single_order():
    book = OrderBook()
    book.submit(limit(1, Side.BUY, 1000, 5, step=0, expires=7))
    assert book.expire(6) == []
    assert book.expire(7) == [1]
    assert book.resting_shares() == 0


def test_expire_empty_book():
    assert OrderBook().expire(3) == []


def test_expiry_conservation(rng):
    """Removed ids = rested ids minus those fully consumed by fills."""
    book = OrderBook()
    stream = make_stream(rng, 300, lifetime_mean=15.0)
    rested_ids = set()
    expired_ids = []
    fills: dict[int, int] = {}
    sizes: dict[int, int] = {}
    step_now = 1
    for step, oid, side, tick, shares, expires in stream:
        while step_now < step:
            expired_ids += book.expire(step_now)
            step_now += 1
        sizes[oid] = shares
        book_fills, rested = book.submit(
            Order(oid, side, tick, shares, step, expires))
        if rested is not None:
            rested_ids.add(rested)
        for _, n, resting_id in book_fills:
            fills[resting_id] = fills.get(resting_id, 0) + n
            fills[oid] = fills.get(oid, 0) + n
    for step in range(step_now, max(e for *_, e in stream) + 1):
        expired_ids += book.expire(step)
    assert book.resting_shares() == 0
    fully_filled_resting = {
        oid for oid in rested_ids if fills.get(oid, 0) == sizes[oid]
    }
    assert set(expired_ids) == rested_ids - fully_filled_resting
    assert len(expired_ids) == len(set(expired_ids))


# ----------------------------------------------------------------------
# best prices
# ----------------------------------------------------------------------


def test_empty_book_has_no_best_prices():
    book = OrderBook()
    assert book.best_bid() is None
    assert book.best_ask() is None


def test_best_ask_advances_after_level_cleared():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1003, 5))
    book.submit(limit(2, Side.SELL, 1006, 4))
    fills, _ = book.submit(limit(3, Side.BUY, 1003, 5))
    assert len(fills) == 1
    assert book.best_ask() == 1006


# ----------------------------------------------------------------------
# impact shift of a live book
# ----------------------------------------------------------------------


def impact_shift(book, side, volume, saturate=False):
    """The book's virtual shift, or None when the walk is censored."""
    shifts = impact_distribution(
        book.snapshot(0), side, volume,
        censored="saturate" if saturate else "exclude").samples
    return float(shifts[0]) if shifts.size else None


def test_impact_absorbed_at_best_is_zero():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1003, 5))
    book.submit(limit(2, Side.SELL, 1010, 5))
    assert impact_shift(book, Side.BUY, 5) == 0.0


def test_impact_full_depth_walk():
    book = OrderBook(tick_size=0.1)
    book.submit(limit(1, Side.SELL, 1003, 5))
    book.submit(limit(2, Side.SELL, 1010, 5))
    assert impact_shift(book, Side.BUY, 10) == pytest.approx(0.7)
    assert impact_shift(book, Side.BUY, 11) is None
    assert impact_shift(book, Side.BUY, 11, saturate=True) == pytest.approx(0.7)


def test_impact_empty_side_absent():
    book = OrderBook()
    assert impact_shift(book, Side.SELL, 1) is None
    assert impact_shift(book, Side.SELL, 1, saturate=True) is None


@pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
def test_impact_matches_destructive_execution(rng, side):
    """Virtual shift equals a sweep's last fill tick minus pre-trade best."""
    for trial in range(25):
        book = build_random_book(rng, n_orders=50)
        snap = book.snapshot(step=0)
        total = int(
            (snap.ask_shares if side is Side.BUY else snap.bid_shares).sum()
        )
        pre_best = book.best_ask() if side is Side.BUY else book.best_bid()
        for v in (1, max(1, total // 3), total, total + 5):
            virtual = impact_shift(book, side, v, saturate=True)
            fills, _ = sweep(rebuild_book(snap), side, v)
            realized = abs(fills[-1][0] - pre_best) * book.tick_size
            assert virtual == pytest.approx(realized)
            if v <= total:
                assert impact_shift(book, side, v) == pytest.approx(realized)
            else:
                assert impact_shift(book, side, v) is None


def test_impact_monotone_and_inverse_consistent(rng):
    book = build_random_book(rng, n_orders=60)
    snap = book.snapshot(step=0)

    def supply(limit):  # ask shares resting at or below ``limit``
        return int(snap.ask_shares[snap.ask_ticks <= limit].sum())

    total = supply(10**6)
    prev = -1.0
    for v in range(1, total + 1):
        ds = impact_shift(book, Side.BUY, v)
        assert ds is not None and ds >= prev
        prev = ds
        l_tick = book.best_ask() + int(round(ds / book.tick_size))
        assert supply(l_tick) >= v
        below = l_tick - 1
        if below >= book.best_ask():
            assert supply(below) < v


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------


def test_snapshot_orders_and_totals(rng):
    book = build_random_book(rng, n_orders=50)
    snap = book.snapshot(step=9)
    assert len(snap) == 1 and snap.steps.tolist() == [9]
    assert (snap.bid_counts.tolist(), snap.ask_counts.tolist()) == (
        [snap.bid_ticks.size], [snap.ask_ticks.size])
    assert list(snap.ask_ticks) == sorted(snap.ask_ticks)
    assert list(snap.bid_ticks) == sorted(snap.bid_ticks, reverse=True)
    assert snap.bid_ticks[0] < snap.ask_ticks[0]
    assert int(snap.bid_shares.sum() + snap.ask_shares.sum()) == book.resting_shares()
    assert (snap.bid_shares >= 1).all() and (snap.ask_shares >= 1).all()


def test_depth_concat_stacks_rows_in_order(rng):
    snaps = [build_random_book(rng, n_orders=int(n)).snapshot(step=i)
             for i, n in enumerate((30, 0, 5, 12))]
    depth = Depth.concat(snaps, 0.1)
    assert len(depth) == 4 and depth.steps.tolist() == [0, 1, 2, 3]
    for row, snap in zip(depth_rows(depth), snaps):
        for f in fields(Depth)[1:]:
            assert getattr(row, f.name).tolist() == getattr(snap, f.name).tolist()
    assert len(Depth.concat([], 0.1)) == 0


def test_depth_concat_rejects_mixed_tick_sizes():
    parts = [OrderBook(0.1).snapshot(1), OrderBook(0.05).snapshot(2)]
    with pytest.raises(ValueError, match=r"tick size 0\.1 with depth at "
                                         r"tick size \[0\.05\]"):
        Depth.concat(parts, 0.1)


# ----------------------------------------------------------------------
# tick conversion
# ----------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=10**7))
def test_tick_price_round_trip(tick):
    assert price_to_tick(tick_to_price(tick, 0.1), 0.1) == tick


# ----------------------------------------------------------------------
# oracle equivalence and stream invariants
# ----------------------------------------------------------------------


def _run_both(stream):
    book = OrderBook()
    ref = ReferenceMatcher()
    tape = []
    ref_tape = []
    expired = []
    ref_expired = []
    step_now = 1
    last_step = max(s for s, *_ in stream)
    for step, oid, side, tick, shares, expires in stream:
        while step_now < step:
            expired += book.expire(step_now)
            ref_expired += ref.expire(step_now)
            step_now += 1
        fills, _ = book.submit(Order(oid, side, tick, shares, step, expires))
        # the reference's tuple: the fill plus the submitted order
        tape += [(step, fill_tick, n, oid, resting_id, side.value)
                 for fill_tick, n, resting_id in fills]
        ref_trades, _ = ref.submit(oid, side.value, tick, shares, step, expires)
        ref_tape += ref_trades
    for step in range(step_now, last_step + 1):
        expired += book.expire(step)
        ref_expired += ref.expire(step)
    return book, ref, tape, ref_tape, sorted(expired), sorted(ref_expired)


def test_oracle_equivalence_long_stream(rng):
    stream = make_stream(rng, 10_000, lifetime_mean=40.0)
    book, ref, tape, ref_tape, expired, ref_expired = _run_both(stream)
    assert tape == ref_tape
    assert expired == ref_expired
    assert book.open_order_ids() == ref.open_ids()
    assert book.resting_shares() == ref.resting_shares()


@st.composite
def small_streams(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    stream = []
    step = 1
    for i in range(n):
        step += draw(st.integers(min_value=0, max_value=2))
        side = Side.BUY if draw(st.booleans()) else Side.SELL
        tick = draw(st.integers(min_value=995, max_value=1005))
        shares = draw(st.integers(min_value=1, max_value=20))
        lifetime = draw(st.integers(min_value=1, max_value=8))
        stream.append((step, i + 1, side, tick, shares, step + lifetime))
    return stream


def check_book_invariants(book, expired_through=None):
    """The book's records agree with its queues.

    Per side: every level's shares sum its queue and the levels sum to
    the side total; the order count matches the queues and no queue is
    empty; every occupied tick is in the heap and ``best()`` is the max
    bid or min ask. Then: the book is not crossed, the order index holds
    exactly the queued orders, each with its expiry heap entry, and
    (with ``expired_through``) none of them is due by that step.
    """
    queued = {}
    for side in (book._bids, book._asks):
        assert side.levels.keys() == side.level_shares.keys()
        for tick, queue in side.levels.items():
            assert queue, f"empty queue at tick {tick}"
            assert all(o.limit == tick and o.shares >= 1 for o in queue)
            assert side.level_shares[tick] == sum(o.shares for o in queue)
            queued.update((o.id, o) for o in queue)
        assert sum(side.level_shares.values()) == side.total_shares
        assert side.order_count == sum(map(len, side.levels.values()))
        assert {side.sign * t for t in side.levels} <= set(side.heap)
        best = min if side.sign > 0 else max
        assert side.best() == (best(side.levels) if side.levels else None)
    bid, ask = book.best_bid(), book.best_ask()
    assert bid is None or ask is None or bid < ask
    assert book._orders == queued  # same Order objects (identity equality)
    assert {(o.expires_step, o.id) for o in queued.values()} <= set(
        book._expiry_heap)
    if expired_through is not None:
        assert all(o.expires_step > expired_through for o in queued.values())


@settings(max_examples=120, deadline=None)
@given(small_streams())
def test_stream_invariants(stream):
    book = OrderBook()
    step_now = 1
    for step, oid, side, tick, shares, expires in stream:
        while step_now < step:
            book.expire(step_now)
            check_book_invariants(book, expired_through=step_now)
            step_now += 1
        fills, rested = book.submit(
            Order(oid, side, tick, shares, step, expires))
        check_book_invariants(book)
        # fills consume exactly what the aggressor loses
        filled = sum(n for _, n, _ in fills)
        assert filled <= shares
        assert (rested is None) == (filled == shares) or rested is not None
        # fill ticks monotone toward worse prices for the aggressor
        ticks = [t for t, _, _ in fills]
        assert ticks == (sorted(ticks) if side is Side.BUY else
                         sorted(ticks, reverse=True))
        # per-tick FIFO: resting ids increase within one tick
        for a, b in zip(fills, fills[1:]):
            if a[0] == b[0]:
                assert a[2] < b[2]
        bid, ask = book.best_bid(), book.best_ask()
        if bid is not None and ask is not None:
            assert bid < ask
        assert all(n >= 1 for _, n, _ in fills)
    # drain: expiry empties the book by the last order's expiry step
    for step in range(step_now, max(expires for *_, expires in stream) + 1):
        book.expire(step)
        check_book_invariants(book, expired_through=step)
    assert book.resting_orders() == 0


def test_next_expiry_skips_filled_orders():
    book = OrderBook()
    assert book.next_expiry() is None
    book.submit(limit(1, Side.SELL, 1004, 5, expires=3))
    book.submit(limit(2, Side.SELL, 1006, 5, expires=9))
    assert book.next_expiry() == 3
    book.submit(limit(3, Side.BUY, 1004, 5, expires=4))  # fills order 1
    assert book.next_expiry() == 9
    book.submit(limit(4, Side.BUY, 1006, 5, expires=5))  # fills order 2
    assert book.resting_orders() == 0 and book.next_expiry() is None


@settings(max_examples=120, deadline=None)
@given(small_streams(), st.data())
def test_next_expiry_contract(stream, data):
    """next_expiry is None on an empty book, else the earliest expiry of
    a resting order, and expire at any earlier step removes nothing,
    also after fills that left their orders' heap entries behind."""

    def check():
        live = [o.expires_step for o in book._orders.values()]
        nxt = book.next_expiry()
        assert nxt == (min(live) if live else None)
        if nxt is not None:
            early = data.draw(st.integers(min_value=0, max_value=nxt - 1))
            assert book.expire(early) == []
            assert book.next_expiry() == nxt

    book = OrderBook()
    check()
    step_now = 1
    for step, oid, side, tick, shares, expires in stream:
        while step_now < step:
            book.expire(step_now)
            check()
            step_now += 1
        book.submit(Order(oid, side, tick, shares, step, expires))
        check()


@settings(max_examples=60, deadline=None)
@given(small_streams())
def test_oracle_equivalence_property(stream):
    _, _, tape, ref_tape, expired, ref_expired = _run_both(stream)
    assert tape == ref_tape
    assert expired == ref_expired
