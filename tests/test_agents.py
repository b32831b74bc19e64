"""Distribution draws of one trader activation."""

import math

import numpy as np
import pytest

from lobsim.agents import (
    TraderKind,
    TraderSpec,
    act,
    draw_lifetime,
    draw_limit_price,
    draw_volume,
    draw_waiting_time,
)
from lobsim.orderbook import Order, OrderBook, Side


class StubRng:
    """Fixed-value generator for clamp/rounding edge cases."""

    def __init__(self, exponential=0.0, normal=0.0, random=0.0):
        self._exp, self._norm, self._rand = exponential, normal, random

    def exponential(self, scale):
        return self._exp

    def normal(self, loc, scale):
        return loc + self._norm

    def random(self):
        return self._rand


def discrete_ks(samples: np.ndarray, cdf_at) -> float:
    """Sup distance between an integer sample's ECDF and a discrete CDF."""
    xs, counts = np.unique(samples, return_counts=True)
    ecdf = np.cumsum(counts) / samples.size
    return float(np.max(np.abs(ecdf - cdf_at(xs))))


# ----------------------------------------------------------------------
# waiting times
# ----------------------------------------------------------------------


def test_waiting_time_mean(rng):
    c, n = 2.0, 100
    draws = np.array([draw_waiting_time(rng, c, n) for _ in range(200_000)])
    assert draws.min() >= 1
    assert draws.mean() == pytest.approx(c * n, rel=0.01)


def test_waiting_time_distribution(rng):
    c, n = 1.5, 200
    mu = c * n
    draws = np.array([draw_waiting_time(rng, c, n) for _ in range(100_000)])
    # ceil of Exp(mu): P(W <= k) = 1 - exp(-k/mu)
    d = discrete_ks(draws, lambda k: 1.0 - np.exp(-k / mu))
    assert d < 0.01


def test_waiting_time_validation(rng):
    with pytest.raises(ValueError):
        draw_waiting_time(rng, 0.0, 10)
    with pytest.raises(ValueError):
        draw_waiting_time(rng, 1.0, 0)


# ----------------------------------------------------------------------
# lifetimes
# ----------------------------------------------------------------------


def test_lifetime_mean_and_tail(rng):
    mu = 120.0
    draws = np.array([draw_lifetime(rng, mu) for _ in range(200_000)])
    assert draws.min() >= 1
    assert draws.mean() == pytest.approx(mu, rel=0.01)
    # ceil(X) > 120 iff X > 120 for integer threshold
    assert np.mean(draws > 120) == pytest.approx(math.exp(-1), abs=0.01)


def test_lifetime_distribution(rng):
    mu = 300.0
    draws = np.array([draw_lifetime(rng, mu) for _ in range(100_000)])
    d = discrete_ks(draws, lambda k: 1.0 - np.exp(-k / mu))
    assert d < 0.01


def test_short_lifetime_flagged():
    with pytest.warns(UserWarning):
        TraderSpec(mu_lifetime=40.0)


# ----------------------------------------------------------------------
# volumes
# ----------------------------------------------------------------------


def test_volume_mean_random_trader(rng):
    draws = np.array([draw_volume(rng, 10.0, 1.0) for _ in range(500_000)])
    assert draws.min() >= 1
    assert draws.mean() == pytest.approx(10.0, rel=0.02)


def test_volume_mean_scaled(rng):
    draws = np.array([draw_volume(rng, 10.0, 5.0) for _ in range(500_000)])
    assert draws.mean() == pytest.approx(50.0, rel=0.02)


def test_volume_clamped_to_one():
    assert draw_volume(StubRng(exponential=0.2), 10.0, 1.0) == 1


def test_volume_validation(rng):
    with pytest.raises(ValueError):
        draw_volume(rng, 0.0)
    with pytest.raises(ValueError):
        draw_volume(rng, 10.0, 0.5)


# ----------------------------------------------------------------------
# limit prices
# ----------------------------------------------------------------------


def _two_sided_book() -> OrderBook:
    book = OrderBook(tick_size=0.1)
    book.submit(Order(1, Side.BUY, 998, 5, 0, 10**9))
    book.submit(Order(2, Side.SELL, 1002, 5, 0, 10**9))
    return book


def test_degenerate_sigma_returns_centering_tick():
    book = _two_sided_book()
    tick = draw_limit_price(StubRng(), Side.SELL, book, 1e-12, 100.0)
    assert tick == 1002
    tick = draw_limit_price(StubRng(), Side.BUY, book, 1e-12, 100.0)
    assert tick == 998


def test_empty_book_centers_on_fallback(rng):
    book = OrderBook(tick_size=0.1)
    draws = np.array([
        draw_limit_price(rng, Side.BUY, book, 0.5, 100.0) for _ in range(100_000)
    ])
    assert abs(draws.mean() - 1000.0) < 0.5


def test_minimum_tick_clamp():
    book = OrderBook(tick_size=0.1)
    assert draw_limit_price(StubRng(normal=-500.0), Side.BUY, book, 1.0, 1.0) == 1


def test_marketable_fraction_half_when_sigma_dominates_spread(rng):
    book = _two_sided_book()  # spread 4 ticks = 0.4 price units
    sigma = 40.0  # price units: 400 ticks >> spread
    best_ask = book.best_ask()
    draws = np.array([
        draw_limit_price(rng, Side.SELL, book, sigma, 100.0)
        for _ in range(100_000)
    ])
    frac_below_ask = np.mean(draws < best_ask)
    assert frac_below_ask == pytest.approx(0.5, abs=0.01)


# ----------------------------------------------------------------------
# act
# ----------------------------------------------------------------------


def _activate_many(rng, n_acts, spec=None, book=None):
    """``n_acts`` activations of one trader: the orders' (side, limit,
    shares, lifetime) draws and the waiting-time gaps between them."""
    spec = spec or TraderSpec()
    book = book or _two_sided_book()
    orders = []
    gaps = []
    step = 1
    for _ in range(n_acts):
        *order, wait = act(spec, book, rng, step, c=2.0, n_traders=10,
                           mu_vol=10.0, fallback_price=100.0)
        orders.append(tuple(order))
        gaps.append(wait)
        step += wait
    return orders, np.array(gaps)


def test_act_side_balance(rng):
    intents, _ = _activate_many(rng, 100_000)
    buys = sum(1 for side, *_ in intents if side is Side.BUY)
    # Binomial(n, 1/2): reject outside 4 sigma
    n = len(intents)
    assert abs(buys - n / 2) < 4 * math.sqrt(n * 0.25)


def test_act_one_intent_with_valid_fields(rng):
    intents, gaps = _activate_many(rng, 5_000)
    assert len(intents) == 5_000
    assert all(isinstance(side, Side) for side, *_ in intents)
    assert all(shares >= 1 and lifetime >= 1 and limit >= 1
               for _, limit, shares, lifetime in intents)
    assert (gaps >= 1).all()


def test_act_gaps_match_exponential(rng):
    _, gaps = _activate_many(rng, 100_000)
    mu = 2.0 * 10
    d = discrete_ks(gaps, lambda k: 1.0 - np.exp(-k / mu))
    assert d < 0.01


def test_act_stream_deterministic():
    intents_a, gaps_a = _activate_many(np.random.default_rng(7), 500)
    intents_b, gaps_b = _activate_many(np.random.default_rng(7), 500)
    assert intents_a == intents_b
    assert gaps_a.tolist() == gaps_b.tolist()


def test_act_draws_in_fixed_order():
    # side, price, volume, lifetime, waiting time: the stream every run
    # (and so every seeded result) is built on
    spec = TraderSpec(kind=TraderKind.BIG, kappa=3.0, mu_lifetime=200.0)
    book = _two_sided_book()
    got = act(spec, book, np.random.default_rng(11), 5, 2.0, 10, 10.0, 100.0)
    rng = np.random.default_rng(11)
    side = Side.BUY if rng.random() < 0.5 else Side.SELL
    expected = (
        side,
        draw_limit_price(rng, side, book, spec.sigma_price, 100.0),
        draw_volume(rng, 10.0, 3.0),
        draw_lifetime(rng, 200.0),
        draw_waiting_time(rng, 2.0, 10),
    )
    assert got == expected


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
