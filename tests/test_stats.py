"""Return statistics, moment kernels and distribution estimators."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobsim import stats


def two_pass_moments(values):
    """Independent plain-loop reference for mean, std, kurtosis excess.

    Kurtosis is nan when the squared sum of squares underflows (zero or
    subnormal), as in ``MomentAccumulator``.
    """
    n = len(values)
    mean = sum(values) / n
    s2 = sum((x - mean) ** 2 for x in values)
    s4 = sum((x - mean) ** 4 for x in values)
    std = math.sqrt(s2 / n)
    if s2**2 < sys.float_info.min:
        return mean, std, math.nan
    return mean, std, n * s4 / s2**2 - 3.0


# ----------------------------------------------------------------------
# returns
# ----------------------------------------------------------------------


def test_returns_constant_prices():
    rs = stats.returns(np.full(601, 100.0), 60)
    assert rs.values.shape == (10,)
    assert (rs.values == 0).all()


def test_returns_definition():
    rs = stats.returns(np.array([100.0, 101.0]), 1)
    assert rs.values[0] == pytest.approx(0.01)


def test_returns_match_reference(rng):
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 1e-3, 10_000)))
    delta = 60
    rs = stats.returns(prices, delta)
    sampled = [prices[i] for i in range(0, len(prices), delta)]
    expected = [(b - a) / a for a, b in zip(sampled, sampled[1:])]
    assert rs.values.tolist() == expected


def test_returns_validation():
    with pytest.raises(ValueError):
        stats.returns(np.array([100.0, -1.0, 100.0]), 1)
    with pytest.raises(ValueError):
        stats.returns(np.full(10, 100.0), 10)
    with pytest.raises(ValueError):
        stats.returns(np.full(10, 100.0), 0)


# ----------------------------------------------------------------------
# normalize
# ----------------------------------------------------------------------


def test_normalize_zero_mean_unit_std(rng):
    rs = stats.ReturnSeries(rng.exponential(2.0, 50_000) - 1.0, 60)
    g = stats.normalize(rs)
    assert abs(g.values.mean()) < 1e-9
    assert abs(g.values.std() - 1.0) < 1e-9


def test_normalize_affine_invariance(rng):
    r = rng.normal(0, 0.02, 10_000)
    g1 = stats.normalize(stats.ReturnSeries(r, 60))
    g2 = stats.normalize(stats.ReturnSeries(3.5 * r + 0.1, 60))
    np.testing.assert_allclose(g1.values, g2.values, atol=1e-10)


def test_normalize_idempotent(rng):
    r = rng.standard_t(5, 20_000)
    once = stats.normalize(stats.ReturnSeries(r, 60))
    twice = stats.normalize(once)
    np.testing.assert_allclose(once.values, twice.values, atol=1e-12)


def test_normalize_degenerate_raises():
    with pytest.raises(ValueError):
        stats.normalize(stats.ReturnSeries(np.zeros(10), 60))


def _half_stats(out) -> list[tuple[float, float]]:
    """Per half of a run's post-warmup window: the excess kurtosis of its
    normalized 1-minute returns and its trades per minute."""
    from lobsim.experiments import post_warmup_prices

    cfg = out.config
    prices = post_warmup_prices(out)
    half = prices.size // 2
    mid = cfg.warmup + half
    steps = out.trade_tape["step"]
    result = []
    for prices_half, lo, hi in ((prices[:half], cfg.warmup, mid),
                                (prices[half:], mid, cfg.horizon_T)):
        g = stats.normalize(stats.returns(prices_half, cfg.steps_per_minute))
        trades = np.count_nonzero((steps > lo) & (steps <= hi))
        result.append((stats.excess_kurtosis(g.values),
                       trades / ((hi - lo) / cfg.steps_per_minute)))
    return result


def test_stationary_halves_agree():
    """The two halves of a stationary run agree, seed by seed.

    Per seed, the first-minus-second-half differences in excess kurtosis
    and in trades per minute are independent draws; their mean lies
    within 4 standard errors of zero (Student t with 7 degrees of
    freedom: about 0.5% false alarms per statistic).
    """
    from lobsim.agents import TraderSpec
    from lobsim.simulator import SimConfig, derive_seed, run

    diffs = []
    for i in range(8):
        cfg = SimConfig(trader_specs=(TraderSpec(mu_lifetime=120.0),), c=5.1,
                        horizon_T=100_000, seed=derive_seed(1234, i))
        first, second = _half_stats(run(cfg))
        diffs.append(np.subtract(first, second))
    diffs = np.array(diffs)
    stderr = diffs.std(axis=0, ddof=1) / np.sqrt(len(diffs))
    assert np.all(np.abs(diffs.mean(axis=0)) < 4 * stderr), (
        diffs.mean(axis=0), stderr)


# ----------------------------------------------------------------------
# kurtosis
# ----------------------------------------------------------------------


def test_kurtosis_standard_normal(rng):
    assert abs(stats.excess_kurtosis(rng.standard_normal(1_000_000))) < 0.05


def test_kurtosis_laplace(rng):
    draws = rng.laplace(0.0, 1.0, 1_000_000)
    assert stats.excess_kurtosis(draws) == pytest.approx(3.0, abs=0.1)


def test_kurtosis_two_point_minimum():
    vals = np.array([-1.0, 1.0] * 50)
    assert stats.excess_kurtosis(vals) == pytest.approx(-2.0)


def test_kurtosis_affine_invariant(rng):
    x = rng.exponential(1.0, 100_000)
    k1 = stats.excess_kurtosis(x)
    k2 = stats.excess_kurtosis(-2.5 * x + 7.0)
    assert abs(k1 - k2) < 1e-8


def test_kurtosis_validation():
    with pytest.raises(ValueError):
        stats.excess_kurtosis(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        stats.excess_kurtosis(np.full(10, 2.0))
    # nonzero spread whose squared variance underflows to zero / subnormal
    for tiny in (2.2548435199481298e-146, 3.0300511960923067e-80):
        with pytest.raises(ValueError):
            stats.excess_kurtosis(np.array([0.0, 0.0, 0.0, tiny]))


# ----------------------------------------------------------------------
# moving volatility
# ----------------------------------------------------------------------


def test_moving_volatility_constant_returns():
    rs = stats.ReturnSeries(np.full(100, 0.01), 60)
    vols = stats.moving_volatility(rs, window=600)  # 10 samples per window
    assert vols.shape == (91,)
    assert np.all(vols < 1e-15)


def test_moving_volatility_full_window_is_global_sigma(rng):
    vals = rng.normal(0, 0.03, 500)
    rs = stats.ReturnSeries(vals, 60)
    vols = stats.moving_volatility(rs, window=500 * 60)
    assert vols.shape == (1,)
    assert vols[0] == pytest.approx(vals.std())


def test_moving_volatility_two_regimes(rng):
    quiet = rng.normal(0, 1.0, 400)
    loud = rng.normal(0, 3.0, 400)
    rs = stats.ReturnSeries(np.concatenate([quiet, loud]), 1)
    vols = stats.moving_volatility(rs, window=50)
    assert vols[:200].mean() == pytest.approx(1.0, rel=0.1)
    assert vols[-200:].mean() == pytest.approx(3.0, rel=0.1)
    assert vols[-200:].mean() > 2 * vols[:200].mean()


def test_moving_volatility_window_exceeding_series():
    rs = stats.ReturnSeries(np.full(5, 0.01), 60)
    assert stats.moving_volatility(rs, window=600).size == 0


def test_moving_volatility_window_too_small():
    rs = stats.ReturnSeries(np.full(5, 0.01), 60)
    with pytest.raises(ValueError):
        stats.moving_volatility(rs, window=60)


# ----------------------------------------------------------------------
# pdf / ccdf estimators
# ----------------------------------------------------------------------


def _integral(hist: stats.Histogram) -> float:
    return float(np.sum(hist.density * np.diff(hist.edges)))


def test_pdf_single_value():
    hist = stats.estimate_pdf(np.array([5.0]))
    assert hist.density.shape == (1,)
    assert _integral(hist) == pytest.approx(1.0)


def test_pdf_integral_one(rng):
    hist = stats.estimate_pdf(rng.standard_t(4, 50_000))
    assert _integral(hist) == pytest.approx(1.0, abs=1e-9)


def test_pdf_uniform_flat(rng):
    vals = rng.uniform(0.0, 1.0, 100_000)
    hist = stats.estimate_pdf(vals, bins=20)
    per_bin = vals.size / 20
    # density 1 expected; allow 3 sigma Poisson noise per bin
    tol = 3 * math.sqrt(per_bin) / per_bin
    assert np.all(np.abs(hist.density - 1.0) < tol)


def test_ccdf_hand_counted():
    vals = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0])
    xs, ccdf = stats.estimate_ccdf(vals)
    # hand enumeration of P(X > x) over the 10 samples
    assert xs.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0]
    assert ccdf.tolist() == pytest.approx([0.8, 0.7, 0.5, 0.4, 0.2, 0.1, 0.0])


def test_ccdf_min_value_convention(rng):
    vals = rng.permutation(np.arange(1.0, 11.0))
    xs, ccdf = stats.estimate_ccdf(vals)
    assert ccdf[0] == pytest.approx(1 - 1 / len(vals))
    assert (np.diff(ccdf) <= 0).all()
    assert ccdf[-1] == 0.0


# ----------------------------------------------------------------------
# log-normal reference
# ----------------------------------------------------------------------


def test_lognormal_recovers_parameters(rng):
    loc, scale = 1.3, 0.4
    sample = rng.lognormal(loc, scale, 100_000)
    fit_loc, fit_scale = stats.lognormal_reference(sample)
    assert fit_loc == pytest.approx(loc, rel=0.02)
    assert fit_scale == pytest.approx(scale, rel=0.02)


def test_lognormal_constant_sample():
    loc, scale = stats.lognormal_reference(np.full(100, 2.0))
    assert loc == pytest.approx(math.log(2.0))
    assert scale == 0.0


def test_lognormal_rejects_nonpositive():
    with pytest.raises(ValueError):
        stats.lognormal_reference(np.array([1.0, 0.0]))


def test_ks_statistic_against_scipy(rng):
    from scipy.stats import kstest, norm

    sample = rng.standard_normal(5_000)
    ours = stats.ks_statistic(sample, norm.cdf)
    theirs = kstest(sample, norm.cdf).statistic
    assert ours == pytest.approx(theirs, rel=1e-9)


# ----------------------------------------------------------------------
# mergeable moment accumulator
# ----------------------------------------------------------------------


def test_accumulator_matches_two_pass(rng):
    values = rng.gamma(2.0, 1.5, 100_000)
    acc = stats.MomentAccumulator().add(values)
    mean, std, kurt = two_pass_moments(values.tolist())
    assert acc.mean == pytest.approx(mean, rel=1e-10)
    assert acc.std == pytest.approx(std, rel=1e-10)
    assert acc.excess_kurtosis == pytest.approx(kurt, rel=1e-10)
    assert acc.count == values.size


def test_accumulator_merge_equals_pooled(rng):
    parts = [rng.standard_t(6, n) for n in (1_000, 5_000, 2_500)]
    pooled = stats.MomentAccumulator().add(np.concatenate(parts))
    merged = stats.MomentAccumulator()
    for part in parts:
        merged = merged.merge(stats.MomentAccumulator().add(part))
    assert merged.count == pooled.count
    assert merged.mean == pytest.approx(pooled.mean, rel=1e-12)
    assert merged.std == pytest.approx(pooled.std, rel=1e-12)
    assert merged.excess_kurtosis == pytest.approx(pooled.excess_kurtosis, rel=1e-9)


def test_accumulator_merge_order_independent(rng):
    parts = [rng.normal(i, 1 + i, 2_000) for i in range(4)]
    accs = [stats.MomentAccumulator().add(p) for p in parts]
    forward = accs[0].merge(accs[1]).merge(accs[2]).merge(accs[3])
    backward = accs[3].merge(accs[2]).merge(accs[1]).merge(accs[0])
    assert forward.excess_kurtosis == pytest.approx(
        backward.excess_kurtosis, rel=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=4, max_size=200,
    )
)
@example(values=[0.0, 0.0, 0.0, 2.2548435199481298e-146])
@example(values=[0.0, 0.0, 0.0, 3.0300511960923067e-80])
def test_accumulator_property_matches_moments(values):
    arr = np.asarray(values)
    if arr.std() == 0:
        return
    acc = stats.MomentAccumulator().add(arr)
    mean, std, kurt = two_pass_moments(values)
    assert acc.mean == pytest.approx(mean, rel=1e-8, abs=1e-8)
    assert acc.std == pytest.approx(std, rel=1e-8, abs=1e-8)
    # kurtosis is nan in both when the squared variance underflows
    assert acc.excess_kurtosis == pytest.approx(
        kurt, rel=1e-6, abs=1e-6, nan_ok=True
    )
