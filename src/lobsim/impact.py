"""Virtual market impact analysis over recorded book snapshots.

For a fixed hypothetical order size v, every snapshot yields the price
shift a market order of that size would have caused (without executing
it); pooling the shifts gives the impact distribution. Snapshots whose
side holds less than v in total cannot realize a shift and are counted
as censored, not imputed. Comparing shift CCDFs across sizes separates
order-size effects from gap effects: curves that coincide mean the
shifts come from the book's gap structure, not the volume.

On any one snapshot the shift never decreases as the volume grows, so
two volumes' curves coincide only where both volumes end on the same
price level in nearly every snapshot. Two saturated (censored) walks
both end on the deepest level: their curves coincide trivially and
show nothing about gaps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .orderbook import Depth, Side
from .stats import estimate_ccdf

__all__ = [
    "ImpactCurve",
    "quantile_volumes",
    "impact_distribution",
    "curve_distance",
]


@dataclass(frozen=True)
class ImpactCurve:
    """CCDF of virtual price shifts for one hypothetical volume."""

    volume: int
    side: Side
    samples: np.ndarray  # realized shifts, price units
    censored_count: int
    n_snapshots: int

    @property
    def ccdf(self) -> tuple[np.ndarray, np.ndarray]:
        return estimate_ccdf(self.samples)

    @classmethod
    def pool(cls, curves) -> "ImpactCurve":
        """One curve from curves of one volume and side over disjoint
        depth: samples in the given order, counts summed."""
        curves = list(curves)
        return cls(
            volume=curves[0].volume,
            side=curves[0].side,
            samples=np.concatenate([c.samples for c in curves]),
            censored_count=sum(c.censored_count for c in curves),
            n_snapshots=sum(c.n_snapshots for c in curves),
        )


def quantile_volumes(shares, quantiles) -> list[int]:
    """Empirical quantiles of per-trade share counts, as integers >= 1."""
    shares = np.asarray(shares, dtype=np.float64)
    if shares.size == 0:
        raise ValueError("empty trade tape")
    qs = list(quantiles)
    if any(not 0 < q < 1 for q in qs):
        raise ValueError("quantiles must lie in (0, 1)")
    return [max(1, int(round(v))) for v in np.quantile(shares, qs)]


def impact_distribution(
    depth: Depth,
    side: Side,
    volume: int,
    censored: str = "exclude",
) -> ImpactCurve:
    """Virtual price shifts of a ``side`` market order of ``volume``.

    Walks cumulative depth away from the best price on the opposite
    side of the order's flow: a buy consumes asks, a sell consumes
    bids. ``side`` is a ``Side`` or its value ("buy" or "sell"). The
    shift is the distance, in price units, from the best level to the
    level holding the ``volume``-th share; samples are in row order.
    Rows (snapshots) whose side holds less than ``volume`` in total are
    censored and counted. With censored="exclude" they yield no shift;
    with censored="saturate" they yield the full-depth walk (shift to
    the deepest occupied level, where an actual market order's last
    fill would land). Empty sides never yield a shift, so a depth with
    no rows, or with every row censored, gives an empty curve.

    All rows are walked at once under one cumulative sum of the side's
    shares column: row i's walk is one search for ``base_i + volume``,
    where ``base_i`` counts the shares before the row.
    """
    try:
        volume = operator.index(volume)
    except TypeError:
        raise ValueError(f"volume = {volume!r} is not a valid int") from None
    if volume < 1:
        raise ValueError("volume must be >= 1")
    if censored not in ("exclude", "saturate"):
        raise ValueError("censored must be 'exclude' or 'saturate'")
    side = Side(side)
    if side is Side.BUY:
        sizes, ticks, shares = depth.ask_counts, depth.ask_ticks, depth.ask_shares
    else:
        sizes, ticks, shares = depth.bid_counts, depth.bid_ticks, depth.bid_shares
    ends = np.cumsum(sizes)
    starts = ends - sizes  # row i occupies positions [starts[i], ends[i])
    # cum[k]: shares at positions before k; the share a walk needs lies
    # at the position before the first k with cum[k] >= base_i + volume
    cum = np.zeros(shares.size + 1, dtype=np.int64)
    np.cumsum(shares, out=cum[1:])
    last = np.searchsorted(cum, cum[starts] + volume, side="left") - 1
    filled = last < ends
    if censored == "saturate":
        keep = sizes > 0
        last = np.minimum(last, ends - 1)
    else:
        keep = filled
    return ImpactCurve(
        volume=volume,
        side=side,
        samples=np.abs(ticks[last[keep]] - ticks[starts[keep]]) * depth.tick_size,
        censored_count=len(depth) - int(np.count_nonzero(filled)),
        n_snapshots=len(depth),
    )


def curve_distance(a: ImpactCurve, b: ImpactCurve) -> float:
    """Sup-norm distance between two impact CCDFs.

    Evaluates both empirical CCDFs, P(shift > x), over the union of
    their supports and returns the largest absolute difference. A curve
    without samples has no CCDF, so it raises.
    """
    if not (a.samples.size and b.samples.size):
        raise ValueError("cannot compare a curve that has no samples")
    xa = np.sort(a.samples)
    xb = np.sort(b.samples)
    grid = np.union1d(xa, xb)
    ccdf_a = 1.0 - np.searchsorted(xa, grid, side="right") / xa.size
    ccdf_b = 1.0 - np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.max(np.abs(ccdf_a - ccdf_b)))
