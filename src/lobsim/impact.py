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

from dataclasses import dataclass

import numpy as np

from .orderbook import Depth, Side
from .stats import estimate_ccdf

__all__ = [
    "ImpactCurve",
    "walk_depth",
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


def walk_depth(
    depth: Depth,
    side: Side,
    volume: int,
    saturate: bool = False,
) -> tuple[np.ndarray, int]:
    """Virtual price shifts of a ``side`` market order of ``volume``.

    Walks cumulative depth away from the best price on the opposite
    side of the order's flow: a buy consumes asks, a sell consumes
    bids. ``side`` is a ``Side`` or its value ("buy" or "sell"). The
    shift is the distance, in price units, from the best level to the
    level holding the ``volume``-th share. When a side holds less than
    ``volume`` in total the row is censored: it yields no shift by
    default, or the full-depth walk (shift to the deepest occupied
    level, where an actual market order's last fill would land) with
    ``saturate=True``. Empty sides are censored and never yield a shift.

    Returns the shifts in row order and the censored count. All rows
    are walked at once under one cumulative sum of the side's shares
    column: row i's walk is one search for ``base_i + volume``, where
    ``base_i`` counts the shares before the row.
    """
    if volume < 1:
        raise ValueError("volume must be >= 1")
    if Side(side) is Side.BUY:
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
    if saturate:
        keep = sizes > 0
        last = np.minimum(last, ends - 1)
    else:
        keep = filled
    shifts = np.abs(ticks[last[keep]] - ticks[starts[keep]]) * depth.tick_size
    return shifts, len(depth) - int(np.count_nonzero(filled))


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
    """Pool virtual price shifts of a fixed volume over recorded depth.

    Rows (snapshots) whose side depth is below the volume are censored.
    With censored="exclude" they are dropped from the distribution (and
    counted); with censored="saturate" they contribute the full-depth
    walk, matching what a real market order of that size would realize.
    Empty-side rows are always excluded.
    """
    if not len(depth):
        raise ValueError("no snapshots")
    if censored not in ("exclude", "saturate"):
        raise ValueError("censored must be 'exclude' or 'saturate'")
    shifts, n_censored = walk_depth(
        depth, side, volume, saturate=censored == "saturate"
    )
    if not shifts.size:
        raise ValueError(
            f"volume {volume} exceeds book depth in every snapshot"
        )
    return ImpactCurve(
        volume=volume,
        side=Side(side),
        samples=shifts,
        censored_count=n_censored,
        n_snapshots=len(depth),
    )


def curve_distance(a: ImpactCurve, b: ImpactCurve) -> float:
    """Sup-norm distance between two impact CCDFs.

    Evaluates both empirical CCDFs, P(shift > x), over the union of
    their supports and returns the largest absolute difference.
    """
    xa = np.sort(a.samples)
    xb = np.sort(b.samples)
    grid = np.union1d(xa, xb)
    ccdf_a = 1.0 - np.searchsorted(xa, grid, side="right") / xa.size
    ccdf_b = 1.0 - np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.max(np.abs(ccdf_a - ccdf_b)))
