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

The walk itself is ``orderbook.walk_depth``, the package's one
cumulative-depth walk; it lives beside ``BookSnapshot`` so that the
book's own ``impact_shift`` can use it without importing this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orderbook import BookSnapshot, Side, walk_depth
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


def quantile_volumes(trade_tape, quantiles) -> list[int]:
    """Empirical quantiles of per-trade share counts, as integers >= 1.

    Accepts trade records or bare share counts.
    """
    shares = np.asarray(
        [t.shares if hasattr(t, "shares") else t for t in trade_tape],
        dtype=np.float64,
    )
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
