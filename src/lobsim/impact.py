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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .orderbook import BookSnapshot, Side
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
    snapshots: Sequence[BookSnapshot],
    side: Side,
    volume: int,
    saturate: bool = False,
) -> tuple[np.ndarray, int]:
    """Virtual price shifts of a ``side`` market order of ``volume``.

    Walks cumulative depth away from the best price on the opposite
    side of the order's flow: a buy consumes asks, a sell consumes
    bids. The shift is the distance, in price units, from the best
    level to the level holding the ``volume``-th share. When a side
    holds less than ``volume`` in total the snapshot is censored: it
    yields no shift by default, or the full-depth walk (shift to the
    deepest occupied level, where an actual market order's last fill
    would land) with ``saturate=True``. Empty sides are censored and
    never yield a shift.

    Returns the shifts in snapshot order and the censored count. All
    snapshots are walked at once: their sides are concatenated under
    one cumulative sum, and snapshot i's walk is one search for
    ``base_i + volume``, where ``base_i`` counts the shares before it.
    """
    if volume < 1:
        raise ValueError("volume must be >= 1")
    if not snapshots:
        return np.empty(0), 0
    if side is Side.BUY:
        ticks = [s.ask_ticks for s in snapshots]
        shares = [s.ask_shares for s in snapshots]
    else:
        ticks = [s.bid_ticks for s in snapshots]
        shares = [s.bid_shares for s in snapshots]
    sizes = np.array([t.size for t in ticks], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes  # snapshot i occupies positions [starts[i], ends[i])
    # cum[k]: shares at positions before k; the share a walk needs lies
    # at the position before the first k with cum[k] >= base_i + volume
    cum = np.concatenate([np.zeros(1, dtype=np.int64), *shares])
    np.cumsum(cum, out=cum)
    last = np.searchsorted(cum, cum[starts] + volume, side="left") - 1
    filled = last < ends
    if saturate:
        keep = sizes > 0
        last = np.minimum(last, ends - 1)
    else:
        keep = filled
    # the sums are no longer needed: their buffer takes the ticks, which
    # keeps the walk's peak memory at one array of levels
    flat_ticks = np.concatenate(ticks, out=cum[1:])
    tick_size = np.array([s.tick_size for s in snapshots])
    shifts = (np.abs(flat_ticks[last[keep]] - flat_ticks[starts[keep]])
              * tick_size[keep])
    return shifts, len(snapshots) - int(np.count_nonzero(filled))


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
    snapshots: list[BookSnapshot],
    side: Side,
    volume: int,
    censored: str = "exclude",
) -> ImpactCurve:
    """Pool virtual price shifts of a fixed volume over snapshots.

    Snapshots whose side depth is below the volume are censored. With
    censored="exclude" they are dropped from the distribution (and
    counted); with censored="saturate" they contribute the full-depth
    walk, matching what a real market order of that size would realize.
    Empty-side snapshots are always excluded.
    """
    if not snapshots:
        raise ValueError("no snapshots")
    if censored not in ("exclude", "saturate"):
        raise ValueError("censored must be 'exclude' or 'saturate'")
    shifts, n_censored = walk_depth(
        snapshots, side, volume, saturate=censored == "saturate"
    )
    if not shifts.size:
        raise ValueError(
            f"volume {volume} exceeds book depth in every snapshot"
        )
    return ImpactCurve(
        volume=volume,
        side=side,
        samples=shifts,
        censored_count=n_censored,
        n_snapshots=len(snapshots),
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
