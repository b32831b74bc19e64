"""Flat-list reference matcher: the matching-engine oracle.

Keeps each side as one flat list of resting orders maintained in
price-then-id order and consumes fills from the front, so price-time
priority is realized by scanning a sorted flat list rather than by the
engine's level-queue structure. Deliberately simple and structurally
unrelated to the production book.
"""

from __future__ import annotations

from bisect import insort

# entry layout: [sort_tick, order_id, shares, tick, expires_step]; ids are
# unique, so list order compares (sort_tick, order_id) and stops there


class ReferenceMatcher:
    def __init__(self):
        self.bids: list[list] = []  # sorted by (-tick, id): best first
        self.asks: list[list] = []  # sorted by (tick, id): best first

    def submit(self, order_id, side, limit, shares, step, expires_step):
        """Returns trades as (step, tick, shares, aggressor, resting, side)."""
        trades = []
        if side == "buy":
            book = self.asks
            while shares > 0 and book and book[0][3] <= limit:
                shares = self._fill(trades, book, order_id, side, shares, step)
            if shares > 0:
                insort(self.bids, [-limit, order_id, shares, limit, expires_step])
                return trades, order_id
        else:
            book = self.bids
            while shares > 0 and book and book[0][3] >= limit:
                shares = self._fill(trades, book, order_id, side, shares, step)
            if shares > 0:
                insort(self.asks, [limit, order_id, shares, limit, expires_step])
                return trades, order_id
        return trades, None

    @staticmethod
    def _fill(trades, book, order_id, side, shares, step):
        resting = book[0]
        fill = min(shares, resting[2])
        trades.append((step, resting[3], fill, order_id, resting[1], side))
        resting[2] -= fill
        if resting[2] == 0:
            del book[0]
        return shares - fill

    def expire(self, step):
        removed = [e[1] for e in self.bids if e[4] <= step]
        removed += [e[1] for e in self.asks if e[4] <= step]
        if removed:
            self.bids = [e for e in self.bids if e[4] > step]
            self.asks = [e for e in self.asks if e[4] > step]
        return sorted(removed)

    def open_ids(self):
        return {e[1] for e in self.bids} | {e[1] for e in self.asks}

    def resting_shares(self):
        return sum(e[2] for e in self.bids) + sum(e[2] for e in self.asks)
