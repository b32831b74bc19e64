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

from dataclasses import dataclass, replace

import numpy as np

from .agents import as_int
from .orderbook import Depth, Side
from .stats import estimate_ccdf

__all__ = [
    "ImpactCurve",
    "add_counts",
    "quantile_volumes",
    "impact_distribution",
    "curve_distance",
]


def add_counts(vectors) -> np.ndarray:
    """Elementwise sum of count vectors of any lengths (bincounts)."""
    vectors = list(vectors)
    total = np.zeros(max((v.size for v in vectors), default=0), dtype=np.int64)
    for v in vectors:
        total[:v.size] += v
    return total


@dataclass(frozen=True)
class ImpactCurve:
    """CCDF of virtual price shifts for one hypothetical volume, held as
    a histogram: ``counts[k]`` realized shifts of k ticks."""

    volume: int
    side: Side
    counts: np.ndarray
    tick_size: float
    censored_count: int
    n_snapshots: int

    @property
    def samples(self) -> np.ndarray:
        """The realized shifts, price units, sorted ascending."""
        return np.repeat(np.arange(self.counts.size), self.counts) * self.tick_size

    @property
    def ccdf(self) -> tuple[np.ndarray, np.ndarray]:
        """P(shift > x) at each realized shift x, from the counts."""
        ticks = np.flatnonzero(self.counts)
        return estimate_ccdf(ticks * self.tick_size, self.counts[ticks])

    @property
    def median(self) -> float:
        """``np.median`` of the samples: the mean of the two middle
        order statistics, found in the cumulative counts."""
        cum = np.cumsum(self.counts)
        if not (cum.size and cum[-1]):
            raise ValueError("a curve without samples has no median")
        middle = np.searchsorted(cum, [(cum[-1] - 1) // 2, cum[-1] // 2],
                                 side="right")
        return float(np.mean(middle * self.tick_size))

    @classmethod
    def pool(cls, curves) -> "ImpactCurve":
        """One curve from curves of one volume and side over disjoint
        depth: the counts summed."""
        curves = list(curves)
        return replace(curves[0], counts=add_counts(c.counts for c in curves),
                       censored_count=sum(c.censored_count for c in curves),
                       n_snapshots=sum(c.n_snapshots for c in curves))


def quantile_volumes(share_counts, quantiles) -> list[int]:
    """Quantiles of per-trade share counts, as integers >= 1, from the
    tape's bincount ``share_counts``: ``np.quantile``'s linear quantiles
    of the tape, rounded. The cumulative counts give the two order
    statistics around each position (n-1)q."""
    cum = np.cumsum(share_counts, dtype=np.int64)
    if not (cum.size and cum[-1]):
        raise ValueError("empty trade tape")
    qs = np.asarray(quantiles, dtype=np.float64)
    if not np.all((qs > 0) & (qs < 1)):
        raise ValueError("quantiles must lie in (0, 1)")
    lo = np.floor((cum[-1] - 1) * qs)
    t = (cum[-1] - 1) * qs - lo
    # the k-th smallest share count is the first value whose cum exceeds k
    a, b = (np.searchsorted(cum, k, side="right").astype(np.float64)
            for k in (lo, np.minimum(lo + 1, cum[-1] - 1)))
    # np.quantile's lerp, which interpolates from the nearer end
    values = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    return [max(1, int(round(v))) for v in values.tolist()]


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
    shift is the distance, in ticks, from the best level to the level
    holding the ``volume``-th share; the curve counts the shifts, so
    its samples come sorted, not in row order.
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
    volume = as_int("volume", volume, 1)
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
        counts=np.bincount(np.abs(ticks[last[keep]] - ticks[starts[keep]])),
        tick_size=depth.tick_size,
        censored_count=len(depth) - int(np.count_nonzero(filled)),
        n_snapshots=len(depth),
    )


def curve_distance(a: ImpactCurve, b: ImpactCurve) -> float:
    """Sup-norm distance between two impact CCDFs.

    Evaluates both empirical CCDFs, P(shift > x), over the union of
    their supports and returns the largest absolute difference. A curve
    without samples has no CCDF, so it raises.
    """
    if not (a.counts.any() and b.counts.any()):
        raise ValueError("cannot compare a curve that has no samples")
    (xa, pa), (xb, pb) = a.ccdf, b.ccdf
    grid = np.union1d(xa, xb)
    # P(shift > x) is 1 below a curve's support, else its CCDF at the
    # largest support point <= x
    ccdf_a = np.append(1.0, pa)[np.searchsorted(xa, grid, side="right")]
    ccdf_b = np.append(1.0, pb)[np.searchsorted(xb, grid, side="right")]
    return float(np.max(np.abs(ccdf_a - ccdf_b)))
