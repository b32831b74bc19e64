"""Distribution draws of one trader activation."""

import math

import numpy as np
import pytest

from lobsim.agents import DRAW_BLOCK, TraderKind, TraderSpec, act, draw_block
from lobsim.orderbook import Order, OrderBook, Side

BUY_U, SELL_U = 0.25, 0.75  # uniforms that pick each side


def discrete_ks(samples: np.ndarray, cdf_at) -> float:
    """Sup distance between an integer sample's ECDF and a discrete CDF."""
    xs, counts = np.unique(samples, return_counts=True)
    ecdf = np.cumsum(counts) / samples.size
    return float(np.max(np.abs(ecdf - cdf_at(xs))))


def _rows(rng, n: int) -> list:
    """``n`` standardized draw rows, read block by block as a run reads them."""
    rows = []
    while len(rows) < n:
        rows += draw_block(rng)
    return rows[:n]


def _two_sided_book() -> OrderBook:
    book = OrderBook(tick_size=0.1)
    book.submit(Order(1, Side.BUY, 998, 5, 0, 10**9))
    book.submit(Order(2, Side.SELL, 1002, 5, 0, 10**9))
    return book


def _act_one(row, spec=None, book=None, mean_wait=20.0, mu_vol=10.0,
             fallback_price=100.0):
    return act(spec or TraderSpec(), book or _two_sided_book(), row, 1,
               mean_wait, mu_vol, fallback_price)


def _act_many(rng, n: int, spec=None, book=None, mean_wait=20.0, mu_vol=10.0,
              fallback_price=100.0) -> dict[str, np.ndarray]:
    """``act`` over ``n`` rows of ``rng``'s blocks, as one column per field."""
    spec = spec or TraderSpec()
    book = book or _two_sided_book()
    out = [act(spec, book, row, 1, mean_wait, mu_vol, fallback_price)
           for row in _rows(rng, n)]
    sides, *numbers = zip(*out)
    columns = dict(zip(("limit", "shares", "lifetime", "wait"),
                       map(np.array, numbers)))
    columns["buy"] = np.array([side is Side.BUY for side in sides])
    return columns


# ----------------------------------------------------------------------
# draw blocks
# ----------------------------------------------------------------------


def test_draw_block_in_fixed_order():
    # random(B), standard_normal(B), standard_exponential((3, B)): the
    # stream every run (and so every seeded result) is built on
    rows = list(draw_block(np.random.default_rng(11)))
    rng = np.random.default_rng(11)
    u = rng.random(DRAW_BLOCK)
    z = rng.standard_normal(DRAW_BLOCK)
    e = rng.standard_exponential((3, DRAW_BLOCK))
    assert rows == list(zip(u.tolist(), z.tolist(), *e.tolist()))


# ----------------------------------------------------------------------
# waiting times
# ----------------------------------------------------------------------


def test_waiting_time_mean(rng):
    c, n = 2.0, 100
    waits = _act_many(rng, 200_000, mean_wait=c * n)["wait"]
    assert waits.min() >= 1
    assert waits.mean() == pytest.approx(c * n, rel=0.01)


def test_waiting_time_distribution(rng):
    mu = 1.5 * 200
    waits = _act_many(rng, 100_000, mean_wait=mu)["wait"]
    # ceil of Exp(mu): P(W <= k) = 1 - exp(-k/mu)
    d = discrete_ks(waits, lambda k: 1.0 - np.exp(-k / mu))
    assert d < 0.01


# ----------------------------------------------------------------------
# lifetimes
# ----------------------------------------------------------------------


def test_lifetime_mean_and_tail(rng):
    mu = 120.0
    lifetimes = _act_many(rng, 200_000, spec=TraderSpec(mu_lifetime=mu))["lifetime"]
    assert lifetimes.min() >= 1
    assert lifetimes.mean() == pytest.approx(mu, rel=0.01)
    # ceil(X) > 120 iff X > 120 for integer threshold
    assert np.mean(lifetimes > 120) == pytest.approx(math.exp(-1), abs=0.01)


def test_lifetime_distribution(rng):
    mu = 300.0
    lifetimes = _act_many(rng, 100_000, spec=TraderSpec(mu_lifetime=mu))["lifetime"]
    d = discrete_ks(lifetimes, lambda k: 1.0 - np.exp(-k / mu))
    assert d < 0.01


def test_short_lifetime_flagged():
    with pytest.warns(UserWarning):
        TraderSpec(mu_lifetime=40.0)


# ----------------------------------------------------------------------
# volumes
# ----------------------------------------------------------------------


def test_volume_mean_random_trader(rng):
    shares = _act_many(rng, 500_000, mu_vol=10.0)["shares"]
    assert shares.min() >= 1
    assert shares.mean() == pytest.approx(10.0, rel=0.02)


def test_volume_mean_scaled(rng):
    spec = TraderSpec(kind=TraderKind.BIG, kappa=5.0)
    shares = _act_many(rng, 500_000, spec=spec, mu_vol=10.0)["shares"]
    assert shares.mean() == pytest.approx(50.0, rel=0.02)


def test_volume_distribution(rng):
    mu = 3.0 * 10.0
    spec = TraderSpec(kind=TraderKind.BIG, kappa=3.0)
    shares = _act_many(rng, 100_000, spec=spec, mu_vol=10.0)["shares"]
    # nearest int of Exp(mu), at least 1: P(V <= k) = 1 - exp(-(k + 1/2)/mu)
    d = discrete_ks(shares, lambda k: 1.0 - np.exp(-(k + 0.5) / mu))
    assert d < 0.01


def test_volume_clamped_to_one():
    # 10 shares x 0.02 = 0.2 rounds to 0, clamped to 1
    _, _, shares, _, _ = _act_one((BUY_U, 0.0, 0.02, 1.0, 1.0), mu_vol=10.0)
    assert shares == 1


# ----------------------------------------------------------------------
# limit prices
# ----------------------------------------------------------------------


def test_degenerate_sigma_returns_centering_tick():
    # z = 0: the limit is the own side's best tick
    assert _act_one((SELL_U, 0.0, 1.0, 1.0, 1.0))[:2] == (Side.SELL, 1002)
    assert _act_one((BUY_U, 0.0, 1.0, 1.0, 1.0))[:2] == (Side.BUY, 998)


def test_limits_center_on_own_side_best(rng):
    draws = _act_many(rng, 100_000)  # sigma 0.5 = 5 ticks
    buy = draws["buy"]
    assert abs(draws["limit"][buy].mean() - 998) < 0.1
    assert abs(draws["limit"][~buy].mean() - 1002) < 0.1


def test_empty_book_centers_on_fallback(rng):
    book = OrderBook(tick_size=0.1)
    limits = _act_many(rng, 100_000, book=book, fallback_price=100.0)["limit"]
    assert abs(limits.mean() - 1000.0) < 0.5
    # only the empty side falls back: bids only, a sell centers on 100.0
    book.submit(Order(1, Side.BUY, 990, 5, 0, 10**9))
    row = (SELL_U, 0.0, 1.0, 1.0, 1.0)
    assert _act_one(row, book=book, fallback_price=100.0)[1] == 1000
    assert _act_one((BUY_U, *row[1:]), book=book)[1] == 990


def test_minimum_tick_clamp():
    book = OrderBook(tick_size=0.1)
    _, limit, *_ = _act_one((BUY_U, -500.0, 1.0, 1.0, 1.0),
                            spec=TraderSpec(sigma_price=1.0), book=book,
                            fallback_price=1.0)
    assert limit == 1


def test_marketable_fraction_half_when_sigma_dominates_spread(rng):
    book = _two_sided_book()  # spread 4 ticks = 0.4 price units
    spec = TraderSpec(sigma_price=40.0)  # price units: 400 ticks >> spread
    draws = _act_many(rng, 200_000, spec=spec, book=book)
    sells = draws["limit"][~draws["buy"]]
    frac_below_ask = np.mean(sells < book.best_ask())
    assert frac_below_ask == pytest.approx(0.5, abs=0.01)


# ----------------------------------------------------------------------
# act
# ----------------------------------------------------------------------


def test_act_side_balance(rng):
    buys = int(_act_many(rng, 100_000)["buy"].sum())
    # Binomial(n, 1/2): reject outside 4 sigma
    n = 100_000
    assert abs(buys - n / 2) < 4 * math.sqrt(n * 0.25)


def test_act_one_intent_with_valid_fields(rng):
    book = _two_sided_book()
    intents = [_act_one(row, book=book) for row in _rows(rng, 5_000)]
    assert len(intents) == 5_000
    assert all(isinstance(side, Side) for side, *_ in intents)
    assert all(shares >= 1 and lifetime >= 1 and limit >= 1 and wait >= 1
               for _, limit, shares, lifetime, wait in intents)
    assert all(type(x) is int for intent in intents for x in intent[1:])


def test_act_gaps_match_exponential(rng):
    gaps = _act_many(rng, 100_000, mean_wait=2.0 * 10)["wait"]
    mu = 2.0 * 10
    d = discrete_ks(gaps, lambda k: 1.0 - np.exp(-k / mu))
    assert d < 0.01


def test_act_stream_deterministic():
    a = _act_many(np.random.default_rng(7), 2_500)
    b = _act_many(np.random.default_rng(7), 2_500)
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_trader_spec_validation():
    with pytest.raises(ValueError):
        TraderSpec(count=0)
    with pytest.raises(ValueError):
        TraderSpec(kind=TraderKind.RANDOM, kappa=2.0)
    with pytest.raises(ValueError):
        TraderSpec(kappa=0.5, kind=TraderKind.BIG)
    with pytest.raises(ValueError):
        TraderSpec(sigma_price=0.0)
    for field, value in [("mu_lifetime", math.inf), ("sigma_price", math.nan),
                         ("kappa", math.nan), ("kappa", math.inf)]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TraderSpec(kind=TraderKind.BIG, **{field: value})
    with pytest.raises(ValueError, match=r"count = 2\.5 is not a valid int"):
        TraderSpec(count=2.5)
    with pytest.raises(ValueError, match="kind = 'huge' is not a valid TraderKind"):
        TraderSpec(kind="huge")
    spec = TraderSpec(kind="big", count=np.int64(30), kappa=np.float64(5.0),
                      mu_lifetime=1200)
    assert spec == TraderSpec(kind=TraderKind.BIG, count=30, kappa=5.0,
                              mu_lifetime=1200.0)
    assert (type(spec.count), type(spec.kappa), type(spec.mu_lifetime)) == (
        int, float, float)
    spec = TraderSpec(kind=TraderKind.BIG, count=30, kappa=5.0, mu_lifetime=1200.0)
    assert spec.kappa == 5.0
