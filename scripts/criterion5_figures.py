"""Re-measure the criterion-5 figures quoted in README.md.

Run from the repository root (about 20 s on two cores):

    PYTHONPATH=src python -m pytest scripts/criterion5_figures.py -q -s -p no:cacheprovider

The measurement borrows the acceptance suite's session fixtures, so it
reads the very books criterion 5 reads: the same calibration, seeds and
horizon. It prints the verdict's volumes and tails, the dense-for-sparse
swap, the sparse book's depth figures and the sup-distance table by
volume pair. It checks no figure against a bound.

Volume origins, all from the kappa=5 BigTrader tape after warmup:
per fill, the tape's rows; per aggressor order, consecutive fills with
the same step and aggressor side (two same-side orders that both fill
in one step count as one); per minute, the shares traded in each
60-step minute.
"""

from dataclasses import replace

import numpy as np

from lobsim.impact import curve_distance, impact_distribution, quantile_volumes
from lobsim.orderbook import Side
from lobsim.simulator import run
from tests.test_acceptance import (  # noqa: F401 (fixtures)
    bigtrader_k5,
    calibrate,
    impact_1200,
    impact_120,
    pooled_snapshots,
)


def _row_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    rows = np.repeat(np.arange(counts.size), counts)
    return np.bincount(rows, weights=values, minlength=counts.size)


def _origins(bigtape) -> dict[str, tuple[int, int]]:
    """Each origin's volume pair from the BigTrader tape."""
    cfg = bigtape.scenario.effective_config()
    orders, minutes, fills = [], [], []
    for art in bigtape.runs:
        tape = run(replace(cfg, seed=art.seed)).trade_tape
        tape = tape[tape["step"] > cfg.warmup]
        assert np.array_equal(tape["shares"], art.tape_shares)
        fills.append(tape["shares"])
        new = np.ones(tape.size, dtype=bool)
        new[1:] = ((tape["step"][1:] != tape["step"][:-1])
                   | (tape["buy"][1:] != tape["buy"][:-1]))
        orders.append(np.add.reduceat(tape["shares"], np.flatnonzero(new)))
        minute = tape["step"] // cfg.steps_per_minute
        minutes.append(np.bincount(minute - minute[0], weights=tape["shares"]))
    return {
        "per fill, 0.9/0.99": quantile_volumes(np.concatenate(fills), (0.9, 0.99)),
        "per aggressor order, 0.9/0.99":
            quantile_volumes(np.concatenate(orders), (0.9, 0.99)),
        "per minute, 0.9/0.99":
            quantile_volumes(np.concatenate(minutes), (0.9, 0.99)),
    }


def _pct(x: float) -> str:
    if 0 < x < 0.001:
        return "<0.1%"
    return f"{x:.1%}" if 0 < x < 0.01 else f"{x:.0%}"


def _pair(depth, va, vb, censored):
    a = impact_distribution(depth, Side.BUY, va, censored=censored)
    b = impact_distribution(depth, Side.BUY, vb, censored=censored)
    try:
        d = f"{curve_distance(a, b):.3f}"
    except ValueError:  # a curve with no samples has no CCDF
        d = "-"
    return a, b, d


def test_print_criterion5_figures(impact_120, impact_1200, bigtrader_k5):
    sparse = pooled_snapshots(impact_120)
    dense = pooled_snapshots(impact_1200)
    v09, v99 = quantile_volumes(
        np.concatenate([r.tape_shares for r in bigtrader_k5.runs]), (0.9, 0.99))

    def q99(depth, v):
        return float(np.quantile(
            impact_distribution(depth, Side.BUY, v).samples, 0.99))

    print(f"\nsnapshots: {len(sparse)} (lifetime 120), {len(dense)} (1200)")
    print(f"volumes v=({v09}, {v99}); 99th-pct shift: "
          f"v={v09}@120 {q99(sparse, v09):.2f}, v={v99}@1200 {q99(dense, v99):.2f}, "
          f"swap v={v09}@1200 {q99(dense, v09):.2f}")

    # the sparse book's ask side
    occupied = sparse.ask_counts > 0
    firsts = np.cumsum(sparse.ask_counts) - sparse.ask_counts
    side_shares = _row_sums(sparse.ask_counts, sparse.ask_shares)
    print(f"lifetime 120 asks: best level median "
          f"{np.median(sparse.ask_shares[firsts[occupied]]):g} shares; side "
          f"median {np.median(sparse.ask_counts):g} levels and "
          f"{np.median(side_shares):g} shares")
    # saturated walks keep every occupied row, in row order
    a = impact_distribution(sparse, Side.BUY, v09, censored="saturate")
    b = impact_distribution(sparse, Side.BUY, v99, censored="saturate")
    deep = side_shares[occupied] >= v99
    print(f"of {int(deep.sum())} snapshots holding {v99} shares, the {v09}th "
          f"and {v99}th share sit on one level in "
          f"{np.mean(a.samples[deep] == b.samples[deep]):.0%}")

    pairs = {"per fill, 0.1/0.5": tuple(quantile_volumes(
        np.concatenate([r.tape_shares for r in bigtrader_k5.runs]), (0.1, 0.5)))}
    pairs.update(_origins(bigtrader_k5))
    pairs["deeper than the sparse book"] = (100, 300)
    pairs["deeper than both books"] = (300, 900)
    print("| volumes | origin | d(120) exclude / saturate | censored@120 "
          "| d(1200) exclude / saturate | censored@1200 |")
    print("|---|---|---|---|---|---|")
    for origin, (va, vb) in pairs.items():
        cells = []
        for depth in (sparse, dense):
            ca, cb, d_ex = _pair(depth, va, vb, "exclude")
            d_sat = _pair(depth, va, vb, "saturate")[2]
            cells += [f"{d_ex} / {d_sat}",
                      f"{_pct(ca.censored_count / len(depth))} / "
                      f"{_pct(cb.censored_count / len(depth))}"]
        print(f"| {va}, {vb} | {origin} | " + " | ".join(cells) + " |")
