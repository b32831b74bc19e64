"""Span tracer for the benchmark's traced run.

The tracer replaces module and class attributes of ``lobsim`` with
wrappers that record one span per call: a name, a start, an end and the
span that was open when the call began (its parent). Spans live in flat
arrays while the workload runs and are written out when it ends; self
times and per-layer metrics are computed afterwards, from the arrays.

Wrappers are installed from outside the program, around the calls one
module makes into another, and removed again by ``Tracer.uninstall``.
Everything runs in one process (``workers=1``), so every span of a run
lands in the same arrays.
"""

from __future__ import annotations

import importlib
import pickle
from array import array
from time import perf_counter

import numpy as np

# (span name, owner path, attribute). The owner is where the caller looks
# the name up: ``simulator`` imports ``act`` by name, so the wrapper goes
# on ``lobsim.simulator.act``; ``OrderBook`` methods go on the class.
HOOKS = (
    ("agents.act", "lobsim.simulator", "act"),
    ("orderbook.submit", "lobsim.orderbook:OrderBook", "submit"),
    ("orderbook.expire", "lobsim.orderbook:OrderBook", "expire"),
    ("orderbook.snapshot", "lobsim.orderbook:OrderBook", "snapshot"),
    ("simulator.run", "lobsim.experiments", "run"),
    ("simulator.run", "lobsim.simulator", "run"),
    ("simulator.calibrate_c", "lobsim.experiments", "calibrate_c"),
    ("stats.returns", "lobsim.stats", "returns"),
    ("stats.normalize", "lobsim.stats", "normalize"),
    ("stats.excess_kurtosis", "lobsim.stats", "excess_kurtosis"),
    ("stats.moving_volatility", "lobsim.stats", "moving_volatility"),
    ("stats.estimate_pdf", "lobsim.stats", "estimate_pdf"),
    ("stats.lognormal_reference", "lobsim.stats", "lognormal_reference"),
    ("stats.estimate_ccdf", "lobsim.impact", "estimate_ccdf"),
    ("stats.accumulate", "lobsim.stats:MomentAccumulator", "add"),
    ("impact.impact_distribution", "lobsim.experiments", "impact_distribution"),
    ("impact.quantile_volumes", "lobsim.experiments", "quantile_volumes"),
    ("experiments.run_scenario", "lobsim.experiments", "run_scenario"),
    ("experiments.lifetime_sweep", "lobsim.experiments", "lifetime_sweep"),
    # private, so it may disappear; a missing hook is counted, not fatal
    ("experiments.write_csv", "lobsim.experiments", "_write_csv"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in HOOKS))


def resolve(owner_path: str):
    """The module, or ``module:Class``, that an attribute is looked up on."""
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans into flat arrays; one instance per traced run."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = {
            "fills": 0,
            "expired_orders": 0,
            "expire_hits": 0,
            "snapshot_levels": 0,
            "steps": 0,
            "active_steps": 0,
            "impact_walks": 0,
            "impact_censored": 0,
        }
        self.missing_hooks: list[str] = []
        self.scenario_results: list = []
        self._stack = [-1]
        self._last_step = 0
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _wrap(self, fn, code: int, after):
        names, parents = self.names.append, self.parents.append
        starts, ends = self.starts, self.ends
        starts_append, ends_append = starts.append, ends.append
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(ends)
            names(code)
            parents(stack[-1])
            ends_append(0.0)
            stack.append(i)
            starts_append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str):
        c = self.counters
        if name == "agents.act":
            def after(args, _):
                step = args[3]
                if step != self._last_step:
                    self._last_step = step
                    c["active_steps"] += 1
        elif name == "orderbook.submit":
            def after(_, result):
                c["fills"] += len(result[0])
        elif name == "orderbook.expire":
            def after(_, removed):
                if removed:
                    c["expired_orders"] += len(removed)
                    c["expire_hits"] += 1
        elif name == "orderbook.snapshot":
            def after(_, snap):
                c["snapshot_levels"] += snap.bid_ticks.size + snap.ask_ticks.size
        elif name == "simulator.run":
            def after(args, _):
                c["steps"] += args[0].horizon_T
                self._last_step = 0  # the next run starts again at step 1
        elif name == "impact.impact_distribution":
            def after(args, curve):
                c["impact_walks"] += len(args[0])
                c["impact_censored"] += curve.censored_count
        elif name == "experiments.run_scenario":
            def after(_, result):
                self.scenario_results.append(result)
        else:
            after = None
        return after

    def install(self) -> "Tracer":
        for name, owner_path, attr in HOOKS:
            owner = resolve(owner_path)
            fn = vars(owner).get(attr)
            if fn is None:
                self.missing_hooks.append(f"{owner_path}.{attr}")
                continue
            code = SPAN_NAMES.index(name)
            setattr(owner, attr, self._wrap(fn, code, self._after(name)))
            self._installed.append((owner, attr, fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def ipc_bytes(self) -> int:
        """Pickled size of every scenario's ``runs``: what workers ship."""
        return sum(
            len(pickle.dumps(r.runs, protocol=pickle.HIGHEST_PROTOCOL))
            for r in self.scenario_results
        )

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.frombuffer(self.names, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


def load_spans(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in ("names", "parents", "starts", "ends")}


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Children may overlap each other or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    own = ends - starts
    children = np.flatnonzero(parents >= 0)
    children = children[np.lexsort((starts[children], parents[children]))]
    groups = np.split(children, np.flatnonzero(np.diff(parents[children])) + 1)
    for group in groups:
        if group.size == 0:
            continue
        p = parents[group[0]]
        lo = np.maximum(starts[group], starts[p])
        hi = np.maximum(np.minimum(ends[group], ends[p]), lo)
        # children sorted by start: each adds only what lies beyond the
        # furthest end of the children before it
        reach = np.concatenate(([starts[p]], np.maximum.accumulate(hi)[:-1]))
        own[p] -= np.maximum(hi - np.maximum(lo, reach), 0.0).sum()
    return own
