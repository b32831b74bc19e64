"""Distribution draws of the activation columns, and ``act``'s tick."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lobsim.agents as agents
from lobsim.agents import TraderSpec, act, activations
from lobsim.orderbook import OrderBook, Side
from lobsim.simulator import SimConfig

from .helpers import discrete_ks, trader_gaps

FIELDS = ("step", "trader", "buy", "offset", "shares", "lifetime")


def _config(specs=None, c=2.0, mu_vol=10.0, horizon=100_000) -> SimConfig:
    return SimConfig(trader_specs=specs or (TraderSpec(count=10),), c=c,
                     mu_vol=mu_vol, horizon_T=horizon, warmup=0)


def _columns(rng, **config) -> dict[str, np.ndarray]:
    """Every window's activation columns of one run, joined per field."""
    windows = list(activations(_config(**config), rng))
    return {name: np.concatenate(cols) for name, cols in zip(FIELDS, zip(*windows))}


def _two_sided_book() -> OrderBook:
    book = OrderBook(tick_size=0.1)
    book.submit(1, Side.BUY, 998, 5, 0, 10**9)
    book.submit(2, Side.SELL, 1002, 5, 0, 10**9)
    return book


def _limits(book, columns, fallback_price=100.0) -> np.ndarray:
    return np.array([act(book, buy, offset, 1, fallback_price)
                     for buy, offset in zip(columns["buy"].tolist(),
                                            columns["offset"].tolist())])


# ----------------------------------------------------------------------
# the stream
# ----------------------------------------------------------------------


def _reference(config, rng, passes):
    """The documented draws, trader by trader in plain Python: the first
    waits, then per window the wait blocks of the traders still inside
    it, the keys, the coins, the normals and the two exponential rows.
    Appends each window's count of wait blocks to ``passes``."""
    n, spec = config.n_traders, config.trader_specs[0]
    mean_wait = config.c * n
    k = 8 + int(1.25 * agents.WINDOW / mean_wait)  # waits per trader and pass

    def waits(shape):
        return np.maximum(np.ceil(mean_wait * rng.standard_exponential(shape)),
                          1).astype(np.int64).tolist()

    pending = waits(n)
    stop = config.horizon_T + 1
    for lo in range(1, stop, agents.WINDOW):
        hi = min(lo + agents.WINDOW, stop)
        rows = []
        ids = [i for i in range(n) if pending[i] < hi]
        passes.append(0)
        while ids:
            passes[-1] += 1
            for i, block in zip(ids, waits((len(ids), k))):
                used = 0
                while pending[i] < hi and used < k:
                    rows.append((pending[i], i))
                    pending[i] += block[used]
                    used += 1
            ids = [i for i in ids if pending[i] < hi]
        keys = rng.random(len(rows)).tolist()
        rows = [row for _, row in sorted(zip(keys, rows),
                                         key=lambda kr: (kr[1][0], kr[0]))]
        buy = (rng.random(len(rows)) < 0.5).tolist()
        z = rng.standard_normal(len(rows)).tolist()
        e_vol, e_lt = rng.standard_exponential((2, len(rows))).tolist()
        yield ([s for s, _ in rows], [i for _, i in rows], buy,
               [spec.sigma_price * x for x in z],
               [max(1, round(spec.kappa * config.mu_vol * x)) for x in e_vol],
               [max(1, math.ceil(spec.mu_lifetime * x)) for x in e_lt])


@pytest.mark.parametrize("window, count, c, horizon", [
    (5, 7, 0.5, 300),  # windows shorter than a trader's wait block
    (8192, 7, 0.5, 300),  # one window
    (256, 40, 0.2, 12_800),  # two traders outrun their first block
], ids=["small-window", "one-window", "extra-passes"])
def test_activations_in_fixed_order(monkeypatch, window, count, c, horizon):
    # the stream every run (and so every seeded result) is built on
    monkeypatch.setattr(agents, "WINDOW", window)
    config = _config(specs=(TraderSpec(count=count),), c=c, horizon=horizon)
    got = [[col.tolist() for col in cols]
           for cols in activations(config, np.random.default_rng(11))]
    passes = []
    want = [list(cols) for cols in
            _reference(config, np.random.default_rng(11), passes)]
    assert len(got) == len(passes) == -(-horizon // window)
    assert got == want
    if horizon > 10_000:
        assert max(passes) > 1


def test_act_stream_deterministic():
    a = _columns(np.random.default_rng(7), horizon=20_000)
    b = _columns(np.random.default_rng(7), horizon=20_000)
    assert all(np.array_equal(a[k], b[k]) for k in FIELDS)


def test_act_one_intent_with_valid_fields(rng):
    columns = _columns(rng, horizon=20_000)
    steps = columns["step"]
    assert steps.size > 5_000
    assert steps.min() >= 1 and steps.max() <= 20_000
    assert np.all(np.diff(steps) >= 0)
    assert columns["buy"].dtype == bool
    assert columns["offset"].dtype == np.float64
    for name in ("step", "trader", "shares", "lifetime"):
        assert columns[name].dtype.kind == "i"
    assert columns["shares"].min() >= 1 and columns["lifetime"].min() >= 1
    book = _two_sided_book()
    limits = [act(book, buy, offset, step, 100.0) for step, buy, offset in
              zip(steps.tolist(), columns["buy"].tolist(),
                  columns["offset"].tolist())]
    assert all(type(limit) is int and limit >= 1 for limit in limits)


def test_no_traders_no_activations(rng):
    config = SimConfig(trader_specs=(), horizon_T=500, warmup=0)
    assert list(activations(config, rng)) == []


# ----------------------------------------------------------------------
# waiting times and order within a step
# ----------------------------------------------------------------------


def test_waiting_time_mean(rng):
    mu = 2.0 * 10
    columns = _columns(rng, c=2.0, horizon=400_000)
    waits, _ = trader_gaps(columns["step"], columns["trader"])
    assert waits.size > 150_000
    assert waits.min() >= 1
    # ceil of Exp(mu) is geometric: mean 1 / (1 - exp(-1/mu)), about mu + 1/2
    assert waits.mean() == pytest.approx(1 / (1 - math.exp(-1 / mu)), rel=0.01)


def test_waiting_time_distribution(rng):
    mu = 1.5 * 10
    columns = _columns(rng, c=1.5)
    waits, _ = trader_gaps(columns["step"], columns["trader"])
    # ceil of Exp(mu): P(W <= k) = 1 - exp(-k/mu)
    d = discrete_ks(waits, lambda k: 1.0 - np.exp(-k / mu))
    assert d < 0.01


def test_act_gaps_match_exponential(rng):
    # every group waits Exp(c*N), whatever its own parameters
    specs = (TraderSpec(count=6, mu_lifetime=300.0),
             TraderSpec(count=4, kappa=5.0, sigma_price=2.0))
    columns = _columns(rng, specs=specs, c=2.0, horizon=200_000)
    waits, _ = trader_gaps(columns["step"], columns["trader"])
    big = np.sort(columns["trader"]) >= 6  # gaps come trader by trader
    mu = 2.0 * 10
    for group in (waits[~big], waits[big]):
        assert discrete_ks(group, lambda k: 1.0 - np.exp(-k / mu)) < 0.015


def test_uniform_order_within_a_step(rng):
    # 3 traders with mean wait 1.5: many steps hold all three, in each of
    # the 6 orders equally often
    columns = _columns(rng, specs=(TraderSpec(count=3),), c=0.5,
                       horizon=200_000)
    steps, traders = columns["step"], columns["trader"]
    starts = np.flatnonzero(np.r_[True, steps[1:] != steps[:-1]])
    full = starts[np.diff(np.r_[starts, steps.size]) == 3]
    assert full.size > 20_000
    codes = 9 * traders[full] + 3 * traders[full + 1] + traders[full + 2]
    _, counts = np.unique(codes, return_counts=True)
    assert counts.size == 6
    p = 1 / 6
    assert np.all(np.abs(counts - full.size * p)
                  < 4 * math.sqrt(full.size * p * (1 - p)))


# ----------------------------------------------------------------------
# lifetimes
# ----------------------------------------------------------------------


def test_lifetime_mean_and_tail(rng):
    mu = 120.0
    lifetimes = _columns(rng, specs=(TraderSpec(count=10, mu_lifetime=mu),),
                         c=0.5, horizon=120_000)["lifetime"]
    assert lifetimes.size > 200_000
    assert lifetimes.min() >= 1
    # ceil of Exp(mu) is geometric: mean 1 / (1 - exp(-1/mu)), P(1) = 1 - exp(-1/mu)
    assert lifetimes.mean() == pytest.approx(1 / (1 - math.exp(-1 / mu)), rel=0.01)
    assert np.mean(lifetimes == 1) == pytest.approx(1 - math.exp(-1 / mu),
                                                    abs=0.001)
    # ceil(X) > 120 iff X > 120 for integer threshold
    assert np.mean(lifetimes > 120) == pytest.approx(math.exp(-1), abs=0.01)


def test_lifetime_distribution(rng):
    mu = 300.0
    lifetimes = _columns(rng, specs=(TraderSpec(count=10, mu_lifetime=mu),),
                         c=0.5)["lifetime"]
    d = discrete_ks(lifetimes, lambda k: 1.0 - np.exp(-k / mu))
    assert d < 0.01


def test_short_lifetime_flagged():
    with pytest.warns(UserWarning):
        TraderSpec(mu_lifetime=40.0)


# ----------------------------------------------------------------------
# volumes
# ----------------------------------------------------------------------


def test_volume_mean_random_trader(rng):
    shares = _columns(rng, c=0.5, horizon=60_000)["shares"]
    assert shares.size > 100_000
    assert shares.min() >= 1
    assert shares.mean() == pytest.approx(10.0, rel=0.02)


def test_volume_mean_scaled(rng):
    spec = TraderSpec(count=10, kappa=5.0)
    shares = _columns(rng, specs=(spec,), c=0.5, horizon=60_000)["shares"]
    assert shares.mean() == pytest.approx(50.0, rel=0.02)


def test_volume_distribution(rng):
    mu = 3.0 * 10.0
    spec = TraderSpec(count=10, kappa=3.0)
    shares = _columns(rng, specs=(spec,), c=0.5, horizon=100_000)["shares"]
    # nearest int of Exp(mu), at least 1: P(V <= k) = 1 - exp(-(k + 1/2)/mu)
    d = discrete_ks(shares, lambda k: 1.0 - np.exp(-(k + 0.5) / mu))
    assert d < 0.01


def test_volume_clamped_to_one(rng):
    # mean 1 share: Exp(1) < 0.5 rounds to 0 and is clamped to 1, so
    # P(V = 1) = P(X < 1.5) and no order is empty
    shares = _columns(rng, c=0.5, mu_vol=1.0, horizon=60_000)["shares"]
    assert shares.min() == 1
    assert np.mean(shares == 1) == pytest.approx(1 - math.exp(-1.5), abs=0.01)


def test_rows_scaled_by_their_group(rng):
    specs = (TraderSpec(count=5, mu_lifetime=100.0, sigma_price=0.5),
             TraderSpec(count=5, kappa=4.0, mu_lifetime=400.0,
                        sigma_price=2.0))
    columns = _columns(rng, specs=specs, c=0.5, horizon=40_000)
    big = columns["trader"] >= 5
    for rows, spec in ((~big, specs[0]), (big, specs[1])):
        assert columns["shares"][rows].mean() == pytest.approx(
            10.0 * spec.kappa, rel=0.03)
        assert columns["lifetime"][rows].mean() == pytest.approx(
            spec.mu_lifetime + 0.5, rel=0.03)
        assert columns["offset"][rows].std() == pytest.approx(
            spec.sigma_price, rel=0.03)


# ----------------------------------------------------------------------
# sides, offsets and limit prices
# ----------------------------------------------------------------------


def test_act_side_balance(rng):
    buy = _columns(rng, c=0.5, horizon=60_000)["buy"]
    n = buy.size
    # Binomial(n, 1/2): reject outside 4 sigma
    assert n > 100_000
    assert abs(int(buy.sum()) - n / 2) < 4 * math.sqrt(n * 0.25)


def test_offset_is_normal(rng):
    sigma = 0.5
    offsets = np.sort(_columns(rng, c=0.5, horizon=120_000)["offset"])
    cdf = 0.5 * (1 + np.vectorize(math.erf)(offsets / (sigma * math.sqrt(2))))
    ecdf = np.arange(1, offsets.size + 1) / offsets.size
    assert np.max(np.abs(ecdf - cdf)) < 0.005


def test_degenerate_sigma_returns_centering_tick():
    # offset 0: the limit is the own side's best tick
    book = _two_sided_book()
    assert act(book, False, 0.0, 1, 100.0) == 1002
    assert act(book, True, 0.0, 1, 100.0) == 998


@given(st.integers(min_value=1, max_value=10**7))
def test_tick_price_round_trip(tick):
    book = OrderBook(tick_size=0.1)
    book.submit(1, Side.BUY, tick, 1, 0, 10**9)
    assert act(book, True, 0.0, 1, 100.0) == tick


def test_limits_center_on_own_side_best(rng):
    columns = _columns(rng, c=0.5, horizon=60_000)  # sigma 0.5 = 5 ticks
    limits, buy = _limits(_two_sided_book(), columns), columns["buy"]
    assert abs(limits[buy].mean() - 998) < 0.1
    assert abs(limits[~buy].mean() - 1002) < 0.1


def test_empty_book_centers_on_fallback(rng):
    book = OrderBook(tick_size=0.1)
    limits = _limits(book, _columns(rng, c=0.5, horizon=5_000))
    assert abs(limits.mean() - 1000.0) < 0.5
    # only the empty side falls back: bids only, a sell centers on 100.0
    book.submit(1, Side.BUY, 990, 5, 0, 10**9)
    assert act(book, False, 0.0, 1, 100.0) == 1000
    assert act(book, True, 0.0, 1, 100.0) == 990


def test_minimum_tick_clamp():
    book = OrderBook(tick_size=0.1)
    assert act(book, True, -50.0, 1, 1.0) == 1


def test_marketable_fraction_half_when_sigma_dominates_spread(rng):
    book = _two_sided_book()  # spread 4 ticks = 0.4 price units
    spec = TraderSpec(count=10, sigma_price=40.0)  # 400 ticks >> spread
    columns = _columns(rng, specs=(spec,), c=0.5, horizon=120_000)
    limits = _limits(book, columns)
    sells = limits[~columns["buy"]]
    frac_below_ask = np.mean(sells < book.best_ask())
    assert frac_below_ask == pytest.approx(0.5, abs=0.01)


def test_trader_spec_validation():
    with pytest.raises(ValueError):
        TraderSpec(count=0)
    with pytest.raises(ValueError, match="kappa must be >= 1"):
        TraderSpec(kappa=0.5)
    with pytest.raises(ValueError, match="mu_lifetime must be positive"):
        TraderSpec(mu_lifetime=0.0)
    with pytest.raises(ValueError):
        TraderSpec(sigma_price=0.0)
    for field, value in [("mu_lifetime", math.inf), ("sigma_price", math.nan),
                         ("kappa", math.nan), ("kappa", math.inf)]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TraderSpec(**{field: value})
    with pytest.raises(ValueError, match=r"count = 2\.5 is not a valid int"):
        TraderSpec(count=2.5)
    spec = TraderSpec(count=np.int64(30), kappa=np.float64(5.0),
                      mu_lifetime=1200)
    assert spec == TraderSpec(count=30, kappa=5.0, mu_lifetime=1200.0)
    assert (type(spec.count), type(spec.kappa), type(spec.mu_lifetime)) == (
        int, float, float)
    spec = TraderSpec(count=30, kappa=5.0, mu_lifetime=1200.0)
    assert spec.kappa == 5.0
