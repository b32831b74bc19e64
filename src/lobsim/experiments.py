"""Batch orchestration: scenarios, seed fan-out, sweeps, figure data.

A scenario is one simulation config fanned out over a list of distinct
seeds. Runs execute in a worker pool (seed-keyed, no shared state; a
lifetime sweep shares one pool between its calibration probes and its
scenarios) and pool deterministically: per-seed results are sorted by
seed before any aggregation, so pooled statistics are invariant under
permutation of the seed list and reruns emit byte-identical CSVs.

Output layout, one directory per scenario:

    <out_dir>/<name>/scenario.cfg          config copy (provenance)
    <out_dir>/<name>/runs/<seed>/*.csv     per-run trade tape, price
                                           series, depth snapshots
    <out_dir>/<name>/pooled/*.csv          pooled aggregates

Config files are flat ``key = value`` text (# comments); trader groups
use dotted keys like ``trader.random.count``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import stats
from .agents import TraderSpec, as_int, cast_fields, cast_value
from .impact import (ImpactCurve, add_counts, impact_distribution,
                     quantile_volumes)
from .orderbook import Depth, Side
from .simulator import (PROBE_HORIZON, PROBE_SEEDS, SimConfig, SimOutput,
                        calibrate_c, calibration_probe, derive_seed, fan_out,
                        run)

__all__ = [
    "Scenario",
    "RunArtifacts",
    "ScenarioResult",
    "SweepRow",
    "SweepResult",
    "run_scenario",
    "lifetime_sweep",
    "scenario_from_config",
    "write_config",
    "worker_pool",
]

# 390 trading minutes per day, matching the US session the empirical
# calibration targets come from.
MINUTES_PER_DAY = 390

CSV_CHUNK = 4096  # lines per write: a long series is never one string

KNOWN_OUTPUTS = frozenset(
    {"return_pdf", "kurtosis_point", "volatility_pdf", "impact_curves", "snapshots"}
)


@dataclass(frozen=True)
class Scenario:
    """A named config fanned out over distinct seeds."""

    name: str
    config: SimConfig
    seeds: tuple[int, ...]
    outputs: frozenset[str] = frozenset({"return_pdf", "kurtosis_point"})
    vol_window: int = 1000  # steps per moving-volatility window
    impact_volumes: tuple[int, ...] = ()
    impact_quantiles: tuple[float, ...] = (0.1, 0.5, 0.9, 0.99)
    impact_side: Side = Side.BUY
    impact_censored: str = "exclude"

    # each cast field's cast, in the config file's key order: seeds follow
    # the name, the SimConfig keys follow the seeds
    CASTS = {"seeds": (int, tuple), "outputs": (str, frozenset),
             "vol_window": int, "impact_quantiles": (float, tuple),
             "impact_side": Side, "impact_censored": str,
             "impact_volumes": (int, tuple)}

    def __post_init__(self):
        cast_fields(self)
        # the name is a directory under out_dir and a config line
        name = self.name
        if (not name or name in (".", "..") or name != name.strip()
                or name.splitlines() != [name] or "/" in name or "#" in name):
            raise ValueError(f"name = {name!r} is not a valid scenario name "
                             "(one path part, no '#', line break or outer "
                             "space)")
        if not self.seeds:
            raise ValueError("scenario needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("scenario seeds must be distinct")
        unknown = self.outputs - KNOWN_OUTPUTS
        if unknown:
            raise ValueError(f"unknown outputs: {sorted(unknown)}")
        if self.impact_censored not in ("exclude", "saturate"):
            raise ValueError("impact_censored must be 'exclude' or 'saturate'")
        if any(v < 1 for v in self.impact_volumes):
            raise ValueError(
                f"impact_volumes must be >= 1, got {self.impact_volumes}"
            )
        if any(not 0 < q < 1 for q in self.impact_quantiles):
            raise ValueError(
                f"impact_quantiles must lie in (0, 1), got {self.impact_quantiles}"
            )
        if ("impact_curves" in self.outputs and not self.impact_volumes
                and not self.impact_quantiles):
            raise ValueError("impact_curves needs impact_volumes or "
                             "impact_quantiles; both are empty")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"scenario seeds must be >= 0, got {self.seeds}")
        cfg = self.config
        n_returns = (cfg.horizon_T - cfg.warmup) // cfg.steps_per_minute
        if n_returns < 4:
            # excess_kurtosis needs 4 returns per run
            raise ValueError(
                f"horizon_T - warmup = {cfg.horizon_T} - {cfg.warmup} steps "
                f"give {n_returns} returns of {cfg.steps_per_minute} steps "
                f"per run; a run needs at least 4")
        if "volatility_pdf" in self.outputs:
            # moving_volatility's window, against the returns of one run
            window = self.vol_window // cfg.steps_per_minute
            if not 2 <= window <= n_returns:
                raise ValueError(
                    f"vol_window = {self.vol_window} covers {window} return "
                    f"samples; volatility_pdf needs 2 to {n_returns}, the "
                    f"returns of one run")

    def effective_config(self) -> SimConfig:
        """Config with snapshots exactly when an output reads depth: the
        config's own cadence (every 60 steps if it has none), else none."""
        reads_depth = self.outputs & {"impact_curves", "snapshots"}
        interval = (self.config.snapshot_interval or 60) if reads_depth else 0
        return replace(self.config, snapshot_interval=interval)


@dataclass
class RunArtifacts:
    """Light per-seed results returned from workers."""

    seed: int
    n_returns: int
    gamma2: float
    normalized_returns: np.ndarray
    trades_per_minute: float
    avg_volume_per_day: float
    volatilities: np.ndarray | None = None
    impact_curves: dict[int, ImpactCurve] | None = None
    n_snapshots: int = 0
    share_counts: np.ndarray | None = None  # post-warmup tape, bincount
    depth: Depth | None = None


@dataclass
class ScenarioResult:
    scenario: Scenario
    runs: list[RunArtifacts]
    pooled_returns: np.ndarray
    gamma2: float
    gamma2_stderr: float
    trades_per_minute: float
    avg_volume_per_day: float
    volatilities: np.ndarray | None = None
    impact_curves: dict[int, ImpactCurve] = field(default_factory=dict)
    quantile_volumes_used: tuple[int, ...] = ()


@dataclass(frozen=True)
class SweepRow:
    mu_lt: float
    avg_volume_per_day: float
    excess_kurtosis: float
    stderr: float


@dataclass
class SweepResult:
    rows: list[SweepRow]


# ----------------------------------------------------------------------
# per-seed worker
# ----------------------------------------------------------------------


def post_warmup_prices(output: SimOutput) -> np.ndarray:
    """Price series from the warmup boundary on (step 0 = start price)."""
    cfg = output.config
    full = np.concatenate(([cfg.start_price], output.price_series))
    return full[cfg.warmup:]


def avg_volume_per_day(output: SimOutput) -> float:
    """Time-average resting shares over complete post-warmup days.

    Falls back to the overall post-warmup mean when the run is shorter
    than one 390-minute day.
    """
    series = output.resting_volume_series[output.config.warmup:]
    day = MINUTES_PER_DAY * output.config.steps_per_minute
    n_days = series.size // day
    if n_days == 0:
        return float(series.mean())
    return float(series[: n_days * day].mean())


def _run_seed(payload: tuple[Scenario, int, str | None, str | None]) -> RunArtifacts:
    scenario, seed, out_dir, depth_dir = payload
    cfg = replace(scenario.effective_config(), seed=seed)
    output = run(cfg)
    depth = output.depth

    rs = stats.returns(post_warmup_prices(output), cfg.steps_per_minute)
    g = stats.normalize(rs)
    art = RunArtifacts(
        seed=seed,
        n_returns=g.size,
        gamma2=stats.excess_kurtosis(g),
        normalized_returns=g,
        trades_per_minute=output.trades_per_minute,
        avg_volume_per_day=avg_volume_per_day(output),
    )
    if "volatility_pdf" in scenario.outputs:
        art.volatilities = stats.moving_volatility(
            rs, scenario.vol_window // cfg.steps_per_minute)
    if depth_dir is not None:
        # impact curves: count the tape's shares, park the depth for the walk
        tape = output.trade_tape
        art.share_counts = np.bincount(tape["shares"][tape["step"] > cfg.warmup])
        (Path(depth_dir) / f"{seed}.pickle").write_bytes(pickle.dumps(depth))
    art.n_snapshots = len(depth)
    if "snapshots" in scenario.outputs and out_dir is None:
        # nothing on disk to hold it: hand the depth back in memory
        art.depth = depth

    if out_dir is not None:
        _write_run_csvs(Path(out_dir), scenario, output, art)
    return art


def _walk_seed(payload: tuple[Scenario, int, str, tuple]) -> dict[int, ImpactCurve]:
    scenario, seed, depth_dir, volumes = payload
    depth = pickle.loads((Path(depth_dir) / f"{seed}.pickle").read_bytes())
    return {v: impact_distribution(depth, scenario.impact_side, v,
                                   censored=scenario.impact_censored)
            for v in volumes}


# ----------------------------------------------------------------------
# scenario execution
# ----------------------------------------------------------------------


def _resolve_workers(workers: int | None, n_jobs: int) -> int:
    """The argument, else the CPU count; at most n_jobs."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(as_int("workers", workers, 1), n_jobs))


@contextmanager
def worker_pool(workers: int | None, n_jobs: int):
    """A process pool of the resolved worker count, or None for one worker.

    With one worker everything runs in the calling process. The pool
    keeps the default start method (fork on Linux), so workers inherit
    wrappers installed on lobsim's modules; perfbench counts activations
    that way.
    """
    n_workers = _resolve_workers(workers, n_jobs)
    if n_workers == 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        yield pool


def run_scenario(
    scenario: Scenario,
    out_dir: str | Path | None = None,
    workers: int | None = None,
    pool: Executor | None = None,
) -> ScenarioResult:
    """Run every seed, pool deterministically, optionally emit CSVs.

    Seeds run on ``pool`` when one is given (``lifetime_sweep`` shares
    its own); otherwise on a pool of ``workers`` processes opened for
    this call. Each run's returns are standardized by its own mean and
    sigma before pooling.

    Impact curves take two passes over the seeds: the first parks each
    seed's depth in a temporary directory and returns its share counts,
    the parent takes the volumes (the pinned ones, else the quantiles of
    the counts' sum), and the second walks each parked depth for them.
    A seed that fails in either pass is named (see ``fan_out``).
    """
    scenario_dir = None
    runs_dir = None
    if out_dir is not None:
        scenario_dir = Path(out_dir) / scenario.name
        runs_dir = scenario_dir / "runs"
        runs_dir.mkdir(parents=True, exist_ok=True)

    shared = nullcontext(pool) if pool is not None else worker_pool(
        workers, len(scenario.seeds))
    parked = (tempfile.TemporaryDirectory(prefix="lobsim-")
              if "impact_curves" in scenario.outputs else nullcontext())
    quantiles_used = ()
    # an owned pool shuts down before the directory goes: no worker writes to it
    with parked as depth_dir, shared as pool:
        payloads = [(scenario, seed, str(runs_dir) if runs_dir else None,
                     depth_dir) for seed in scenario.seeds]
        runs = fan_out(_run_seed, payloads, pool, lambda p: f"seed {p[1]}")
        runs.sort(key=lambda r: r.seed)
        if depth_dir is not None:
            if not scenario.impact_volumes:
                quantiles_used = tuple(dict.fromkeys(quantile_volumes(  # dedupe
                    add_counts(r.share_counts for r in runs),
                    scenario.impact_quantiles)))
            volumes = scenario.impact_volumes or quantiles_used
            walks = [(scenario, r.seed, depth_dir, volumes) for r in runs]
            for r, curves in zip(runs, fan_out(_walk_seed, walks, pool,
                                               lambda p: f"seed {p[1]}")):
                r.impact_curves = curves

    accum = stats.MomentAccumulator()
    for r in runs:
        accum.add(r.normalized_returns)
    pooled = np.concatenate([r.normalized_returns for r in runs])

    per_run_g2 = np.array([r.gamma2 for r in runs])
    result = ScenarioResult(
        scenario=scenario,
        runs=runs,
        pooled_returns=pooled,
        gamma2=accum.excess_kurtosis,
        gamma2_stderr=float(per_run_g2.std(ddof=1) / np.sqrt(len(runs)))
        if len(runs) > 1 else 0.0,
        trades_per_minute=float(np.mean([r.trades_per_minute for r in runs])),
        avg_volume_per_day=float(np.mean([r.avg_volume_per_day for r in runs])),
        quantile_volumes_used=quantiles_used,
    )

    if "volatility_pdf" in scenario.outputs:
        result.volatilities = np.concatenate([r.volatilities for r in runs])

    # a seed whose book never holds v only adds censored snapshots
    for v in runs[0].impact_curves or ():
        curve = ImpactCurve.pool(r.impact_curves[v] for r in runs)
        if not curve.counts.any():
            raise ValueError(f"volume {v} exceeds book depth in every snapshot")
        result.impact_curves[v] = curve

    if scenario_dir is not None:
        _write_pooled_csvs(scenario_dir, scenario, result)
    return result


# ----------------------------------------------------------------------
# derived scenarios
# ----------------------------------------------------------------------


def with_lifetime(scenario: Scenario, mu_lt: float) -> Scenario:
    """Copy of a scenario with every trader group's lifetime replaced.

    The warmup is re-derived (10x the new lifetime) so swept books all
    reach stationary occupancy before statistics start.
    """
    specs = tuple(replace(s, mu_lifetime=float(mu_lt)) for s in scenario.config.trader_specs)
    cfg = replace(scenario.config, trader_specs=specs, warmup=None)
    return replace(scenario, name=f"{scenario.name}_lt{int(mu_lt)}", config=cfg)


def lifetime_sweep(
    base: Scenario,
    lifetimes,
    out_dir: str | Path | None = None,
    workers: int | None = None,
    target_tpm: float | None = None,
    probe_horizon: int = PROBE_HORIZON,
) -> SweepResult:
    """Run the base scenario across order lifetimes.

    Each lifetime gets its own run set (and, when ``target_tpm`` is
    given, its own calibrated waiting-time scale, keeping the trade
    frequency fixed while the book occupancy varies). Emits a
    per-lifetime table of average resting volume per day and pooled
    kurtosis excess. One worker pool serves every calibration probe and
    every seed run of the sweep.

    Every lifetime's scenario is built before anything runs, so a bad
    lifetime, or two that share a scenario name (and so an output
    directory), raise ValueError naming them at once.
    """
    lifetimes = list(lifetimes)
    if not lifetimes:
        raise ValueError("no lifetimes to sweep")
    scenarios = {}
    for mu_lt in lifetimes:
        try:
            scen = with_lifetime(base, mu_lt)
        except ValueError as exc:
            raise ValueError(f"lifetime {mu_lt}: {exc}") from exc
        if scen.name in scenarios:
            raise ValueError(f"lifetimes {scenarios[scen.name][0]} and {mu_lt} "
                             f"share the scenario name {scen.name}")
        scenarios[scen.name] = (mu_lt, scen)
    n_jobs = len(base.seeds)
    if target_tpm is not None:
        n_jobs = max(n_jobs, PROBE_SEEDS)
    rows = []
    with worker_pool(workers, n_jobs) as pool:
        for mu_lt, scen in scenarios.values():
            if target_tpm is not None:
                probe = calibration_probe(scen.config, probe_horizon)
                c = calibrate_c(target_tpm, probe, pool=pool)
                scen = replace(scen, config=replace(scen.config, c=c))
            # with one worker ``pool`` is None: ``workers`` keeps the seeds in process
            res = run_scenario(scen, out_dir=out_dir, workers=workers, pool=pool)
            rows.append(SweepRow(float(mu_lt), res.avg_volume_per_day,
                                 res.gamma2, res.gamma2_stderr))
    result = SweepResult(rows=rows)
    if out_dir is not None:
        _write_csv(Path(out_dir) / f"{base.name}_sweep.csv",
                   [f.name for f in fields(SweepRow)],
                   zip(*map(astuple, rows)))
    return result


# ----------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------


def _write_csv(path: Path, header, columns) -> None:
    """Write equal-length columns as CSV: each cell is ``str`` of the
    value's Python scalar (``.tolist()``), CSV_CHUNK lines per write."""
    columns = [np.asarray(c) for c in columns]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_CHUNK):
            cells = [_cell_text(c[start:start + CSV_CHUNK]) for c in columns]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cell_text(values: np.ndarray) -> list[str]:
    """``str`` of each value, formatting each distinct value once. Floats
    are keyed by their bits, so -0.0, 0.0 and each NaN keep their text."""
    floats = values.dtype.kind == "f"
    keys = values.view(f"i{values.itemsize}") if floats else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    if floats:
        distinct = distinct.view(values.dtype)
    text = np.array([str(v) for v in distinct.tolist()], dtype=object)
    return text[inverse].tolist()


def _write_run_csvs(runs_dir: Path, scenario: Scenario, output: SimOutput,
                    art: RunArtifacts) -> None:
    cfg = output.config
    seed_dir = runs_dir / str(cfg.seed)
    tape = output.trade_tape
    _write_csv(
        seed_dir / "trade_tape.csv",
        ("step", "price", "shares", "aggressor_side"),
        (tape["step"], tape["tick"] * cfg.tick_size, tape["shares"],
         np.where(tape["buy"], Side.BUY.value, Side.SELL.value)),
    )
    if art.volatilities is not None:
        _write_csv(
            seed_dir / "volatility_series.csv",
            ("window_index", "sigma"),
            (np.arange(art.volatilities.size), art.volatilities),
        )
    _write_csv(
        seed_dir / "price_series.csv",
        ("step", "price", "resting_volume"),
        (np.arange(1, cfg.horizon_T + 1), output.price_series,
         output.resting_volume_series),
    )
    if "snapshots" in scenario.outputs:
        depth = output.depth
        # each snapshot's bid levels, then its asks: all bids precede all
        # asks, so a stable sort by row keeps that order within a row.
        # Buy volume carries a negative sign (plot convention).
        rows = np.arange(len(depth))
        order = np.argsort(np.concatenate((np.repeat(rows, depth.bid_counts),
                                           np.repeat(rows, depth.ask_counts))),
                           kind="stable")
        is_ask = order >= depth.bid_ticks.size
        ticks = np.concatenate((depth.bid_ticks, depth.ask_ticks))[order]
        _write_csv(
            seed_dir / "snapshots.csv",
            ("step", "side", "tick", "price", "shares"),
            (np.repeat(depth.steps, depth.bid_counts + depth.ask_counts),
             np.where(is_ask, Side.SELL.value, Side.BUY.value),
             ticks, ticks * depth.tick_size,
             np.concatenate((-depth.bid_shares, depth.ask_shares))[order]),
        )


def _write_pooled_csvs(scenario_dir: Path, scenario: Scenario,
                       result: ScenarioResult) -> None:
    pooled = scenario_dir / "pooled"
    write_config(scenario, scenario_dir / "scenario.cfg")
    header = ("seed", "gamma2", "trades_per_minute", "avg_volume_per_day",
              "n_returns")
    # seeds stay Python ints, so one past 2**63 prints as given
    _write_csv(pooled / "summary.csv", header,
               [np.array([getattr(r, name) for r in result.runs],
                         dtype=object if name == "seed" else None)
                for name in header])
    if "kurtosis_point" in scenario.outputs:
        _write_csv(
            pooled / "kurtosis.csv",
            ("gamma2", "stderr", "n_returns", "n_seeds"),
            ([result.gamma2], [result.gamma2_stderr],
             [result.pooled_returns.size], [len(result.runs)]),
        )
    if "return_pdf" in scenario.outputs:
        hist = stats.estimate_pdf(result.pooled_returns)
        _write_csv(
            pooled / "return_pdf.csv",
            ("bin_center", "density"),
            (hist.centers, hist.density),
        )
    if "volatility_pdf" in scenario.outputs and result.volatilities is not None:
        hist = stats.estimate_pdf(result.volatilities)
        _write_csv(
            pooled / "volatility_pdf.csv",
            ("bin_center", "density"),
            (hist.centers, hist.density),
        )
        positive = result.volatilities[result.volatilities > 0]
        if positive.size:
            loc, scale = stats.lognormal_reference(positive)
            _write_csv(
                pooled / "volatility_lognormal.csv",
                ("location", "scale", "n"),
                ([loc], [scale], [positive.size]),
            )
    for v in sorted(result.impact_curves):
        curve = result.impact_curves[v]
        _write_csv(pooled / f"impact_v{v}.csv", ("delta_s", "ccdf"), curve.ccdf)
        _write_csv(
            pooled / f"impact_v{v}_censored.csv",
            ("volume", "censored_count", "n_snapshots"),
            ([v], [curve.censored_count], [curve.n_snapshots]),
        )


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------


# the config keys that differ from their SimConfig field names
_FILE_KEYS = {"horizon_T": "horizon", "seed": "base_seed"}


def _parse(key: str, raw: str, cast):
    """A config value (or flag) read by its field's cast. For an (item
    cast, collection) pair it is comma-separated items: an empty value
    is no items, an empty item fails."""
    if not isinstance(cast, tuple):
        return cast_value(key, raw, cast, text=True)
    kind, collection = cast
    items = [tok.strip() for tok in raw.split(",")] if raw.strip() else []
    if "" in items:
        raise ValueError(f"{key} = {raw!r} has an empty item")
    return collection(_parse(key, tok, kind) for tok in items)


def _take(entries: dict[str, str], record: type, prefix: str = "") -> dict:
    """Pop the config keys of ``record``'s cast fields from ``entries``,
    each value read by its field's cast, as field -> value."""
    given = {}
    for name, cast in record.CASTS.items():
        key = prefix + _FILE_KEYS.get(name, name)
        if key in entries:
            given[name] = _parse(key, entries.pop(key), cast)
    return given


def _values(record, prefix: str = "") -> dict:
    """The config keys of ``record``'s cast fields and their values."""
    return {prefix + _FILE_KEYS.get(name, name): getattr(record, name)
            for name in record.CASTS}


def scenario_from_config(path: str | Path) -> Scenario:
    """Parse a flat key = value scenario config file."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()

    name = entries.pop("name", None)
    if not name:
        raise ValueError("config needs a 'name'")

    groups: dict[str, list[str]] = {}
    for key in [k for k in entries if k.startswith("trader.")]:
        parts = key.split(".")
        if len(parts) != 3:
            raise ValueError(f"bad trader key {key!r}")
        groups.setdefault(parts[1], []).append(parts[2])
    if not groups:
        raise ValueError("config needs at least one trader.<group>.count")
    specs = []
    for gname in sorted(groups):
        unknown = set(groups[gname]) - set(TraderSpec.CASTS)
        if unknown:
            raise ValueError(f"unknown trader keys for {gname!r}: {sorted(unknown)}")
        if "count" not in groups[gname]:
            raise ValueError(f"trader group {gname!r} needs trader.{gname}.count")
        specs.append(TraderSpec(**_take(entries, TraderSpec, f"trader.{gname}.")))
    config = SimConfig(trader_specs=tuple(specs), **_take(entries, SimConfig))

    # seeds lists the seeds; master_seed and n_seeds derive them instead
    clash = sorted({"master_seed", "n_seeds"} & entries.keys())
    if "seeds" in entries and clash:
        raise ValueError(f"seeds cannot be given with {' or '.join(clash)}")
    given = _take(entries, Scenario)
    if "seeds" not in given:
        master, n_seeds = (_parse(key, entries.pop(key, default), int)
                           for key, default in (("master_seed", "0"),
                                                ("n_seeds", "1")))
        given["seeds"] = tuple(derive_seed(master, i) for i in range(n_seeds))
    scenario = Scenario(name=name, config=config, **given)
    if entries:
        raise ValueError(f"unknown config keys: {sorted(entries)}")
    return scenario


def _format(value) -> str:
    """A value as the file holds it: collections comma-joined (sets
    sorted), enums by value, strs as they are, the rest by repr (the
    casts read it)."""
    if isinstance(value, (tuple, frozenset)):
        items = sorted(value) if isinstance(value, frozenset) else value
        return ", ".join(map(_format, items))
    if isinstance(value, Enum):
        return value.value
    return value if isinstance(value, str) else repr(value)


def write_config(scenario: Scenario, path: str | Path) -> None:
    """Serialize a scenario to the flat config format (round-trips)."""
    # the seeds keep their place after the name
    entries = {"name": scenario.name, "seeds": scenario.seeds,
               **_values(scenario.config), **_values(scenario)}
    if not scenario.impact_volumes:
        del entries["impact_volumes"]
    for i, spec in enumerate(scenario.config.trader_specs):
        entries.update(_values(spec, f"trader.g{i:02d}."))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{key} = {_format(value)}\n"
                            for key, value in entries.items()))
