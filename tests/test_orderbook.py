"""Matching engine, expiry, depth snapshots and the flat-list oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobsim.impact import walk_depth
from lobsim.orderbook import (
    Order,
    OrderBook,
    OrderRejected,
    Side,
    price_to_tick,
    tick_to_price,
)

from .helpers import build_random_book, make_stream
from .reference_matcher import ReferenceMatcher


def limit(oid, side, tick, shares, step=0, expires=10**9, trader=0):
    return Order(oid, trader, side, tick, shares, step, expires)


# ----------------------------------------------------------------------
# submit
# ----------------------------------------------------------------------


def test_submit_into_empty_book_rests():
    book = OrderBook()
    trades, rested = book.submit(limit(1, Side.BUY, 1005, 10), step=0)
    assert trades == []
    assert rested == 1
    assert book.best_bid() == 1005
    assert book.best_ask() is None


def test_crossing_buy_fills_at_resting_price():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1003, 7), step=0)
    trades, rested = book.submit(limit(2, Side.BUY, 1010, 5), step=1)
    assert rested is None
    assert len(trades) == 1
    t = trades[0]
    assert (t.tick, t.shares, t.aggressor_id, t.resting_id) == (1003, 5, 2, 1)
    assert t.aggressor_side is Side.BUY
    snap = book.snapshot(step=1)  # remainder of the resting order
    assert (snap.ask_ticks.tolist(), snap.ask_shares.tolist()) == ([1003], [2])


def test_crossing_remainder_rests_at_own_limit():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1003, 4), step=0)
    trades, rested = book.submit(limit(2, Side.BUY, 1005, 10), step=0)
    assert [t.shares for t in trades] == [4]
    assert rested == 2
    assert book.best_bid() == 1005
    assert book.best_ask() is None


def test_price_time_priority_same_tick():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1003, 5), step=0)
    book.submit(limit(2, Side.SELL, 1003, 5), step=0)
    trades, _ = book.submit(limit(3, Side.BUY, 1003, 6), step=0)
    assert [(t.resting_id, t.shares) for t in trades] == [(1, 5), (2, 1)]


def test_buy_walks_ascending_ticks():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1005, 3), step=0)
    book.submit(limit(2, Side.SELL, 1003, 3), step=0)
    book.submit(limit(3, Side.SELL, 1004, 3), step=0)
    trades, _ = book.submit(limit(4, Side.BUY, 1005, 9), step=0)
    assert [t.tick for t in trades] == [1003, 1004, 1005]


def test_duplicate_or_nonincreasing_id_rejected():
    book = OrderBook()
    book.submit(limit(5, Side.BUY, 1000, 1), step=0)
    with pytest.raises(OrderRejected):
        book.submit(limit(5, Side.SELL, 1001, 1), step=0)
    with pytest.raises(OrderRejected):
        book.submit(limit(3, Side.SELL, 1001, 1), step=0)


def test_zero_shares_rejected():
    book = OrderBook()
    with pytest.raises(OrderRejected):
        book.submit(limit(1, Side.BUY, 1000, 0), step=0)


def test_bad_limit_rejected():
    book = OrderBook()
    with pytest.raises(OrderRejected):
        book.submit(limit(1, Side.BUY, 0, 5), step=0)


# ----------------------------------------------------------------------
# market orders
# ----------------------------------------------------------------------


def test_market_exact_fill():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1004, 5), step=0)
    trades, unfilled = book.submit_market(Side.BUY, 5, step=1)
    assert unfilled == 0
    assert [(t.tick, t.shares) for t in trades] == [(1004, 5)]
    assert book.best_ask() is None


def test_market_into_empty_side():
    book = OrderBook()
    trades, unfilled = book.submit_market(Side.BUY, 7, step=0)
    assert trades == [] and unfilled == 7


def test_market_remainder_discarded():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1004, 3), step=0)
    trades, unfilled = book.submit_market(Side.BUY, 10, step=0)
    assert unfilled == 7
    assert book.best_ask() is None
    assert book.best_bid() is None  # nothing rested


def test_market_spanning_levels_matches_cumulative_supply(rng):
    book = build_random_book(rng, n_orders=60)
    snap = book.snapshot(step=0)
    v = int(snap.ask_shares[:3].sum())  # exactly three levels deep
    trades, unfilled = book.submit_market(Side.BUY, v, step=0)
    assert unfilled == 0
    ticks = [t.tick for t in trades]
    assert ticks == sorted(ticks)
    assert set(ticks) == set(snap.ask_ticks[:3].tolist())
    per_level = {}
    for t in trades:
        per_level[t.tick] = per_level.get(t.tick, 0) + t.shares
    expected = dict(zip(snap.ask_ticks.tolist(), snap.ask_shares.tolist()))
    assert all(per_level[t] == expected[t] for t in per_level)


# ----------------------------------------------------------------------
# expiry
# ----------------------------------------------------------------------


def test_expire_single_order():
    book = OrderBook()
    book.submit(limit(1, Side.BUY, 1000, 5, step=0, expires=7), step=0)
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
        trades, rested = book.submit(
            Order(oid, 0, side, tick, shares, step, expires), step
        )
        if rested is not None:
            rested_ids.add(rested)
        for t in trades:
            fills[t.resting_id] = fills.get(t.resting_id, 0) + t.shares
            fills[t.aggressor_id] = fills.get(t.aggressor_id, 0) + t.shares
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
    book.submit(limit(1, Side.SELL, 1003, 5), step=0)
    book.submit(limit(2, Side.SELL, 1006, 4), step=0)
    trades, _ = book.submit(limit(3, Side.BUY, 1003, 5), step=0)
    assert len(trades) == 1
    assert book.best_ask() == 1006


# ----------------------------------------------------------------------
# impact shift of a live book
# ----------------------------------------------------------------------


def impact_shift(book, side, volume, saturate=False):
    """The book's virtual shift, or None when the walk is censored."""
    shifts, _ = walk_depth([book.snapshot(0)], side, volume, saturate)
    return float(shifts[0]) if shifts.size else None


def test_impact_absorbed_at_best_is_zero():
    book = OrderBook()
    book.submit(limit(1, Side.SELL, 1003, 5), step=0)
    book.submit(limit(2, Side.SELL, 1010, 5), step=0)
    assert impact_shift(book, Side.BUY, 5) == 0.0


def test_impact_full_depth_walk():
    book = OrderBook(tick_size=0.1)
    book.submit(limit(1, Side.SELL, 1003, 5), step=0)
    book.submit(limit(2, Side.SELL, 1010, 5), step=0)
    assert impact_shift(book, Side.BUY, 10) == pytest.approx(0.7)
    assert impact_shift(book, Side.BUY, 11) is None
    assert impact_shift(book, Side.BUY, 11, saturate=True) == pytest.approx(0.7)


def test_impact_empty_side_absent():
    book = OrderBook()
    assert impact_shift(book, Side.SELL, 1) is None
    assert impact_shift(book, Side.SELL, 1, saturate=True) is None


def _rebuild_book_from_snapshot(snap) -> OrderBook:
    book = OrderBook(snap.tick_size)
    oid = 0
    for tick, shares in zip(snap.bid_ticks.tolist(), snap.bid_shares.tolist()):
        oid += 1
        book.submit(Order(oid, 0, Side.BUY, tick, shares, 0, 10**9), 0)
    for tick, shares in zip(snap.ask_ticks.tolist(), snap.ask_shares.tolist()):
        oid += 1
        book.submit(Order(oid, 0, Side.SELL, tick, shares, 0, 10**9), 0)
    return book


@pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
def test_impact_matches_destructive_execution(rng, side):
    """Virtual shift equals a market order's last fill tick minus pre-trade best."""
    for trial in range(25):
        book = build_random_book(rng, n_orders=50)
        snap = book.snapshot(step=0)
        total = int(
            (snap.ask_shares if side is Side.BUY else snap.bid_shares).sum()
        )
        pre_best = book.best_ask() if side is Side.BUY else book.best_bid()
        for v in (1, max(1, total // 3), total, total + 5):
            virtual = impact_shift(book, side, v, saturate=True)
            scratch = _rebuild_book_from_snapshot(snap)
            trades, _ = scratch.submit_market(side, v, step=0)
            realized = abs(trades[-1].tick - pre_best) * book.tick_size
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
    assert snap.step == 9
    assert list(snap.ask_ticks) == sorted(snap.ask_ticks)
    assert list(snap.bid_ticks) == sorted(snap.bid_ticks, reverse=True)
    assert snap.best_bid < snap.best_ask
    assert int(snap.bid_shares.sum() + snap.ask_shares.sum()) == book.resting_shares()
    assert (snap.bid_shares >= 1).all() and (snap.ask_shares >= 1).all()


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
        trades, _ = book.submit(Order(oid, 0, side, tick, shares, step, expires), step)
        tape += [(t.step, t.tick, t.shares, t.aggressor_id, t.resting_id,
                  t.aggressor_side.value) for t in trades]
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


@settings(max_examples=120, deadline=None)
@given(small_streams())
def test_stream_invariants(stream):
    book = OrderBook()
    step_now = 1
    for step, oid, side, tick, shares, expires in stream:
        while step_now < step:
            book.expire(step_now)
            step_now += 1
        trades, rested = book.submit(
            Order(oid, 0, side, tick, shares, step, expires), step
        )
        # fills consume exactly what the aggressor loses
        filled = sum(t.shares for t in trades)
        assert filled <= shares
        assert (rested is None) == (filled == shares) or rested is not None
        # fill ticks monotone toward worse prices for the aggressor
        ticks = [t.tick for t in trades]
        assert ticks == (sorted(ticks) if side is Side.BUY else
                         sorted(ticks, reverse=True))
        # per-tick FIFO: resting ids increase within one tick
        for a, b in zip(trades, trades[1:]):
            if a.tick == b.tick:
                assert a.resting_id < b.resting_id
        bid, ask = book.best_bid(), book.best_ask()
        if bid is not None and ask is not None:
            assert bid < ask
        assert all(t.shares >= 1 for t in trades)


@settings(max_examples=60, deadline=None)
@given(small_streams())
def test_oracle_equivalence_property(stream):
    _, _, tape, ref_tape, expired, ref_expired = _run_both(stream)
    assert tape == ref_tape
    assert expired == ref_expired
