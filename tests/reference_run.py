"""Per-step reference run: the run loop's oracle.

Walks every step of the horizon in turn over the same activation
columns as ``simulator.run`` (``agents.activations``, same seed), so it
checks the loop and the book, not the draws. It places each order at
the model's limit rule computed here, matches it in the flat-list
``ReferenceMatcher``, expires eagerly at the end of every step, and
reads the per-step series and the snapshots off the matcher's lists.
Deliberately naive: no lazy expiry, no catch-up, no rebuilt series.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from lobsim.agents import activations
from lobsim.orderbook import Depth
from lobsim.simulator import TAPE_DTYPE, SimConfig, SimOutput

from .reference_matcher import ReferenceMatcher


def _levels(side: list[list]) -> list[tuple[int, int]]:
    """(tick, shares) per level of a flat side list, best first."""
    return [(tick, sum(e[2] for e in level))
            for tick, level in groupby(side, key=lambda e: e[3])]


def reference_run(config: SimConfig) -> SimOutput:
    windows = activations(config, np.random.default_rng(config.seed))
    rows = [row for columns in windows
            for row in zip(*(column.tolist() for column in columns))]
    by_step = {step: list(group)
               for step, group in groupby(rows, key=lambda row: row[0])}
    book, tick_size = ReferenceMatcher(), config.tick_size
    price, order_id, n_expired = config.start_price, 0, 0
    tape, prices, volumes, snapshots = [], [], [], []
    every = config.snapshot_interval
    for step in range(1, config.horizon_T + 1):
        for _, _, buy, offset, shares, lifetime in by_step.get(step, ()):
            own = book.bids if buy else book.asks
            center = own[0][3] * tick_size if own else price
            limit = max(1, round((center + offset) / tick_size))
            order_id += 1
            trades, _ = book.submit(order_id, "buy" if buy else "sell", limit,
                                    shares, step, step + lifetime)
            tape += [(step, tick, n, buy) for _, tick, n, *_ in trades]
            if trades:
                price = trades[-1][1] * tick_size
        n_expired += len(book.expire(step))
        prices.append(price)
        volumes.append(book.resting_shares())
        if every and step > config.warmup and step % every == 0:
            snapshots.append((step, _levels(book.bids), _levels(book.asks)))

    def side_columns(i):  # counts, ticks and shares of one side's levels
        counts = [len(snap[i]) for snap in snapshots]
        levels = [level for snap in snapshots for level in snap[i]]
        return (np.array(counts, dtype=np.int64),
                *np.array(levels, dtype=np.int64).reshape(-1, 2).T)

    trade_tape = np.array(tape, dtype=TAPE_DTYPE)
    post = np.count_nonzero(trade_tape["step"] > config.warmup)
    minutes = (config.horizon_T - config.warmup) / config.steps_per_minute
    return SimOutput(
        config=config,
        trade_tape=trade_tape,
        price_series=np.array(prices),
        resting_volume_series=np.array(volumes, dtype=np.int64),
        depth=Depth(tick_size,
                    np.array([snap[0] for snap in snapshots], dtype=np.int64),
                    *side_columns(1), *side_columns(2)),
        trades_per_minute=post / minutes,
        n_submitted=order_id,
        n_expired=n_expired,
        n_resting_end=len(book.open_ids()),
    )
