"""Virtual market impact curves and their comparisons."""

import numpy as np
import pytest

from lobsim.impact import (
    ImpactCurve,
    curve_distance,
    impact_distribution,
    quantile_volumes,
)
from lobsim.orderbook import Order, OrderBook, Side

from .helpers import build_random_book, pooled, rebuild_book, sweep


def _snapshots(rng, n, **book_kwargs):
    return [build_random_book(rng, **book_kwargs).snapshot(step=i)
            for i in range(n)]


# ----------------------------------------------------------------------
# quantile volumes
# ----------------------------------------------------------------------


def test_quantiles_of_identical_sizes():
    assert quantile_volumes([7] * 25, (0.1, 0.5, 0.9, 0.99)) == [7, 7, 7, 7]


def test_quantiles_hand_computed():
    tape = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    shares = sorted(tape)

    def hand_quantile(q):  # linear interpolation at position (n-1) q
        pos = (len(shares) - 1) * q
        lo = int(pos)
        frac = pos - lo
        hi = min(lo + 1, len(shares) - 1)
        return shares[lo] + frac * (shares[hi] - shares[lo])

    got = quantile_volumes(tape, (0.1, 0.5, 0.9))
    expected = [max(1, round(hand_quantile(q))) for q in (0.1, 0.5, 0.9)]
    assert got == expected


def test_quantiles_validation():
    with pytest.raises(ValueError):
        quantile_volumes([], (0.5,))
    with pytest.raises(ValueError):
        quantile_volumes([3], (0.0,))
    with pytest.raises(ValueError):
        quantile_volumes([3], (1.0,))


# ----------------------------------------------------------------------
# impact distribution
# ----------------------------------------------------------------------


def test_string_side_walks_its_side():
    book = OrderBook()
    book.submit(Order(1, Side.SELL, 1010, 5, 0, 10**9))
    book.submit(Order(2, Side.SELL, 1020, 5, 0, 10**9))
    snap = book.snapshot(0)
    for side in ("buy", Side.BUY):
        curve = impact_distribution(snap, side, 7)
        assert curve.samples.tolist() == pytest.approx([1.0])
        assert curve.censored_count == 0 and curve.side is Side.BUY
    with pytest.raises(ValueError, match="not a valid Side"):
        impact_distribution(snap, "up", 7)


def test_unit_volume_concentrates_at_zero(rng):
    snaps = _snapshots(rng, 30, n_orders=60)
    curve = impact_distribution(pooled(snaps), Side.BUY, 1)
    assert curve.censored_count == 0
    assert (curve.samples == 0.0).all()
    xs, probs = curve.ccdf
    assert xs.tolist() == [0.0]
    assert probs.tolist() == [0.0]


def test_single_snapshot_step_ccdf(rng):
    snaps = _snapshots(rng, 1, n_orders=40)
    v = int(snaps[0].ask_shares.sum() // 2) or 1
    curve = impact_distribution(pooled(snaps), Side.BUY, v)
    xs, probs = curve.ccdf
    assert xs.size == 1
    assert probs.tolist() == [0.0]


def test_censored_counted_and_excluded(rng):
    snaps = _snapshots(rng, 50, n_orders=30)
    depths = np.array([int(s.ask_shares.sum()) for s in snaps])
    v = int(np.median(depths))
    curve = impact_distribution(pooled(snaps), Side.BUY, v)
    expected_censored = int((depths < v).sum())
    assert curve.censored_count == expected_censored
    assert curve.samples.size == len(snaps) - expected_censored
    assert curve.n_snapshots == len(snaps)


def test_all_censored_gives_empty_curve(rng):
    snaps = _snapshots(rng, 10, n_orders=10)
    curve = impact_distribution(pooled(snaps), Side.BUY, 10**9)
    assert curve.samples.size == 0
    assert curve.censored_count == curve.n_snapshots == len(snaps)


def test_saturate_keeps_every_snapshot(rng):
    snaps = _snapshots(rng, 40, n_orders=30)
    curve = impact_distribution(pooled(snaps), Side.BUY, 10**6,
                                censored="saturate")
    assert curve.samples.size == len(snaps)
    assert curve.censored_count == len(snaps)
    full_walks = np.array([
        (s.ask_ticks[-1] - s.ask_ticks[0]) * s.tick_size for s in snaps
    ])
    np.testing.assert_allclose(np.sort(curve.samples), np.sort(full_walks))


def test_impact_mode_validation(rng):
    snaps = pooled(_snapshots(rng, 3))
    with pytest.raises(ValueError):
        impact_distribution(snaps, Side.BUY, 1, censored="impute")
    with pytest.raises(ValueError):
        impact_distribution(snaps, Side.BUY, 0)
    with pytest.raises(ValueError, match="volume = 5.5 is not a valid int"):
        impact_distribution(snaps, Side.BUY, 5.5)
    curve = impact_distribution(snaps, Side.BUY, np.int64(3))
    assert curve.volume == 3 and type(curve.volume) is int


@pytest.mark.parametrize("saturate", [False, True])
def test_zero_row_depth_walks_to_nothing(saturate):
    censored = "saturate" if saturate else "exclude"
    for side in Side:
        curve = impact_distribution(pooled([]), side, 5, censored=censored)
        assert curve.samples.size == 0
        assert curve.censored_count == curve.n_snapshots == 0


@pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
@pytest.mark.parametrize("censored", ["exclude", "saturate"])
def test_curves_match_destructive_execution(rng, side, censored):
    """Each pooled shift equals a sweep of the far side of a copied book.

    The second snapshot list holds books of 0-40 orders, so some sides
    are empty: the first snapshot's and some in the middle. Besides the
    70th-percentile depth, each list is walked for 1 share, and for a
    third of, all of and 5 shares past one snapshot's exact depth.
    """
    deep = _snapshots(rng, 25, n_orders=35)
    n_orders = rng.integers(0, 41, 30)
    n_orders[[0, 12, 13, 21]] = 0
    shallow = [build_random_book(rng, n_orders=int(n)).snapshot(step=i)
               for i, n in enumerate(n_orders)]
    for snaps in (deep, shallow, _snapshots(rng, 25, n_orders=50)):
        depths = [
            int((s.ask_shares if side is Side.BUY else s.bid_shares).sum())
            for s in snaps
        ]
        total = sorted(depths)[len(depths) // 2]
        volumes = (int(np.percentile(depths, 70)), 1, max(1, total // 3),
                   total, total + 5)
        for v in volumes:
            curve = impact_distribution(pooled(snaps), side, v,
                                        censored=censored)
            realized = []
            for snap, depth in zip(snaps, depths):
                if depth == 0 or (censored == "exclude" and depth < v):
                    continue
                book = rebuild_book(snap)
                pre_best = (book.best_ask() if side is Side.BUY
                            else book.best_bid())
                fills, _ = sweep(book, side, v)
                realized.append(abs(fills[-1][0] - pre_best) * snap.tick_size)
            np.testing.assert_allclose(curve.samples, np.array(realized))
            assert curve.censored_count == sum(d < v for d in depths)


# ----------------------------------------------------------------------
# curve distance
# ----------------------------------------------------------------------


def _curve(samples, volume=10) -> ImpactCurve:
    return ImpactCurve(
        volume=volume, side=Side.BUY,
        samples=np.asarray(samples, dtype=float),
        censored_count=0, n_snapshots=len(samples),
    )


def test_distance_to_self_is_zero(rng):
    curve = _curve(rng.exponential(1.0, 500))
    assert curve_distance(curve, curve) == 0.0


def test_distance_degenerate_disjoint_steps():
    assert curve_distance(_curve([0.0] * 10), _curve([1.0] * 10)) == 1.0


def test_distance_needs_samples_on_both_curves():
    empty = _curve([])
    for a, b in ((empty, _curve([1.0])), (_curve([1.0]), empty), (empty, empty)):
        with pytest.raises(ValueError, match="no samples"):
            curve_distance(a, b)


def test_distance_symmetry(rng):
    a = _curve(rng.exponential(1.0, 300))
    b = _curve(rng.exponential(2.0, 400))
    assert curve_distance(a, b) == curve_distance(b, a)


def test_stochastic_ordering_in_volume(rng):
    """Bigger volumes never shift the CCDF down (uncensored books)."""
    snaps = _snapshots(rng, 60, n_orders=80)
    min_depth = min(int(s.ask_shares.sum()) for s in snaps)
    volumes = sorted({max(1, min_depth // 4), max(1, min_depth // 2), min_depth})
    curves = [impact_distribution(pooled(snaps), Side.BUY, v) for v in volumes]
    grid = np.unique(np.concatenate([c.samples for c in curves]))
    for small, big in zip(curves, curves[1:]):
        ccdf_small = 1 - np.searchsorted(np.sort(small.samples), grid, "right") / small.samples.size
        ccdf_big = 1 - np.searchsorted(np.sort(big.samples), grid, "right") / big.samples.size
        assert (ccdf_big >= ccdf_small - 1e-12).all()


def test_buy_sell_symmetry_pooled():
    """Model symmetry: buy- and sell-side shift distributions agree."""
    from scipy.stats import ks_2samp

    from lobsim.agents import TraderSpec
    from lobsim.simulator import SimConfig, derive_seed, run

    parts = []
    for i in range(6):
        cfg = SimConfig(
            trader_specs=(TraderSpec(mu_lifetime=120.0),), c=5.1,
            horizon_T=30_000, snapshot_interval=60, seed=derive_seed(555, i),
        )
        parts.append(run(cfg).depth)
    snaps = pooled(parts)
    v = 20
    buy = impact_distribution(snaps, Side.BUY, v)
    sell = impact_distribution(snaps, Side.SELL, v)
    assert ks_2samp(buy.samples, sell.samples).statistic < 0.05
