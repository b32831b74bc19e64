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
                                           series, snapshots
    <out_dir>/<name>/pooled/*.csv          pooled aggregates

Config files are flat ``key = value`` text (# comments); trader groups
use dotted keys like ``trader.random.count``.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import stats
from .agents import TraderKind, TraderSpec
from .impact import (ImpactCurve, impact_distribution, quantile_volumes,
                     walk_depth)
from .orderbook import Side
from .simulator import (PROBE_SEEDS, SimConfig, SimOutput, calibrate_c,
                        derive_seed, fan_out, run)

__all__ = [
    "Scenario",
    "RunArtifacts",
    "ScenarioResult",
    "SweepRow",
    "SweepResult",
    "run_scenario",
    "lifetime_sweep",
    "bigtrader_scenario",
    "scenario_from_config",
    "write_config",
    "worker_pool",
    "STEPS_PER_DAY",
    "WORKERS_ENV_VAR",
]

# 390 trading minutes per day, matching the US session the empirical
# calibration targets come from.
MINUTES_PER_DAY = 390
STEPS_PER_DAY = 390 * 60

WORKERS_ENV_VAR = "LOBSIM_WORKERS"

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

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        object.__setattr__(
            self, "impact_volumes", tuple(int(v) for v in self.impact_volumes)
        )
        if not self.name:
            raise ValueError("scenario needs a name")
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

    def effective_config(self) -> SimConfig:
        """Config with a snapshot cadence forced on when snapshots are needed."""
        cfg = self.config
        needs_snaps = self.outputs & {"impact_curves", "snapshots"}
        if needs_snaps and cfg.snapshot_interval == 0:
            cfg = replace(cfg, snapshot_interval=60)
        return cfg


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
    impact_curves: dict[int, ImpactCurve] | None = None  # pinned volumes
    n_snapshots: int = 0
    tape_shares: np.ndarray | None = None
    snapshots: list | None = None


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


def _run_seed(payload: tuple[Scenario, int, str | None]) -> RunArtifacts:
    scenario, seed, out_dir = payload
    cfg = replace(scenario.effective_config(), seed=seed)
    output = run(cfg)

    rs = stats.returns(post_warmup_prices(output), cfg.steps_per_minute)
    g = stats.normalize(rs)
    art = RunArtifacts(
        seed=seed,
        n_returns=g.values.size,
        gamma2=stats.excess_kurtosis(g.values),
        normalized_returns=g.values,
        trades_per_minute=output.trades_per_minute,
        avg_volume_per_day=avg_volume_per_day(output),
    )
    if "volatility_pdf" in scenario.outputs:
        art.volatilities = stats.moving_volatility(rs, scenario.vol_window)
    if "impact_curves" in scenario.outputs:
        if scenario.impact_volumes:
            # a seed whose book never holds v only adds censored snapshots;
            # _pool_impact raises when every seed's book falls short
            saturate = scenario.impact_censored == "saturate"
            art.impact_curves = {}
            for v in scenario.impact_volumes:
                shifts, n_censored = walk_depth(
                    output.snapshots, scenario.impact_side, v, saturate
                )
                art.impact_curves[v] = ImpactCurve(
                    volume=v, side=scenario.impact_side, samples=shifts,
                    censored_count=n_censored,
                    n_snapshots=len(output.snapshots),
                )
        else:
            # quantile volumes are pooled: hand snapshots back instead
            art.snapshots = output.snapshots
            art.tape_shares = np.array(
                [t.shares for t in output.trade_tape if t.step > cfg.warmup],
                dtype=np.int64,
            )
    art.n_snapshots = len(output.snapshots)
    if "snapshots" in scenario.outputs and out_dir is None:
        # nothing on disk to hold them: hand the snapshots back in memory
        art.snapshots = output.snapshots

    if out_dir is not None:
        _write_run_csvs(Path(out_dir), scenario, output, art)
    return art


# ----------------------------------------------------------------------
# scenario execution
# ----------------------------------------------------------------------


def _resolve_workers(workers: int | None, n_jobs: int) -> int:
    """The argument, else LOBSIM_WORKERS, else the CPU count; at most n_jobs."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if not env:
            return max(1, min(os.cpu_count() or 1, n_jobs))
        if not env.isdigit() or int(env) < 1:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be a positive integer, got {env!r}"
            )
        workers = int(env)
    elif workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    return max(1, min(workers, n_jobs))


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
    """
    scenario_dir = None
    runs_dir = None
    if out_dir is not None:
        scenario_dir = Path(out_dir) / scenario.name
        runs_dir = scenario_dir / "runs"
        runs_dir.mkdir(parents=True, exist_ok=True)

    payloads = [(scenario, seed, str(runs_dir) if runs_dir else None)
                for seed in scenario.seeds]
    shared = nullcontext(pool) if pool is not None else worker_pool(
        workers, len(payloads))
    with shared as pool:
        runs = fan_out(_run_seed, payloads, pool, lambda p: f"seed {p[1]}")
    runs.sort(key=lambda r: r.seed)

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
    )

    if "volatility_pdf" in scenario.outputs:
        result.volatilities = np.concatenate([r.volatilities for r in runs])

    if "impact_curves" in scenario.outputs:
        _pool_impact(scenario, runs, result)

    if scenario_dir is not None:
        _write_pooled_csvs(scenario_dir, scenario, result)
    return result


def _pool_impact(scenario: Scenario, runs: list[RunArtifacts],
                 result: ScenarioResult) -> None:
    volumes = scenario.impact_volumes
    if volumes:
        for v in volumes:
            curves = [r.impact_curves[v] for r in runs]
            samples = np.concatenate([c.samples for c in curves])
            if not samples.size:
                raise ValueError(
                    f"volume {v} exceeds book depth in every snapshot"
                )
            result.impact_curves[v] = ImpactCurve(
                volume=v, side=scenario.impact_side, samples=samples,
                censored_count=sum(c.censored_count for c in curves),
                n_snapshots=sum(c.n_snapshots for c in curves),
            )
        return
    # volumes not pinned: derive them from the pooled trade tape
    tape_shares = np.concatenate([r.tape_shares for r in runs])
    volumes = quantile_volumes(tape_shares, scenario.impact_quantiles)
    volumes = tuple(dict.fromkeys(volumes))  # dedupe, keep order
    snapshots = [s for r in runs for s in r.snapshots]
    for v in volumes:
        result.impact_curves[v] = impact_distribution(
            snapshots, scenario.impact_side, v, censored=scenario.impact_censored
        )
    result.quantile_volumes_used = volumes


# ----------------------------------------------------------------------
# derived scenarios
# ----------------------------------------------------------------------


def with_lifetime(scenario: Scenario, mu_lt: float, name: str | None = None) -> Scenario:
    """Copy of a scenario with every trader group's lifetime replaced.

    The warmup is re-derived (10x the new lifetime) so swept books all
    reach stationary occupancy before statistics start.
    """
    specs = tuple(replace(s, mu_lifetime=float(mu_lt)) for s in scenario.config.trader_specs)
    cfg = replace(scenario.config, trader_specs=specs, warmup=None)
    return replace(scenario, name=name or f"{scenario.name}_lt{int(mu_lt)}", config=cfg)


def bigtrader_scenario(
    base: Scenario, kappa: float, n_big: int, name: str | None = None
) -> Scenario:
    """Base population plus ``n_big`` large-order traders.

    The added group inherits lifetime and placement width from the
    base's first trader group; every other parameter (and the seed
    list) is shared, so n_big=0 reproduces the base exactly.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if n_big < 0:
        raise ValueError("n_big must be >= 0")
    name = name or f"{base.name}_big{n_big}x{kappa:g}"
    if n_big == 0:
        return replace(base, name=name)
    template = base.config.trader_specs[0]
    big = TraderSpec(
        kind=TraderKind.BIG,
        count=n_big,
        kappa=float(kappa),
        mu_lifetime=template.mu_lifetime,
        sigma_price=template.sigma_price,
    )
    cfg = replace(base.config, trader_specs=base.config.trader_specs + (big,))
    return replace(base, name=name, config=cfg)


def lifetime_sweep(
    base: Scenario,
    lifetimes,
    out_dir: str | Path | None = None,
    workers: int | None = None,
    target_tpm: float | None = None,
    probe_horizon: int = 30_000,
) -> SweepResult:
    """Run the base scenario across order lifetimes.

    Each lifetime gets its own run set (and, when ``target_tpm`` is
    given, its own calibrated waiting-time scale, keeping the trade
    frequency fixed while the book occupancy varies). Emits a
    per-lifetime table of average resting volume per day and pooled
    kurtosis excess. One worker pool serves every calibration probe and
    every seed run of the sweep.
    """
    lifetimes = list(lifetimes)
    if not lifetimes:
        raise ValueError("no lifetimes to sweep")
    n_jobs = len(base.seeds)
    if target_tpm is not None:
        n_jobs = max(n_jobs, PROBE_SEEDS)
    rows = []
    with worker_pool(workers, n_jobs) as pool:
        for mu_lt in lifetimes:
            scen = with_lifetime(base, mu_lt)
            if target_tpm is not None:
                probe = replace(
                    scen.config,
                    horizon_T=probe_horizon,
                    warmup=min(scen.config.warmup, probe_horizon // 3),
                    snapshot_interval=0,
                )
                c = calibrate_c(target_tpm, probe, pool=pool)
                scen = replace(scen, config=replace(scen.config, c=c))
            res = run_scenario(scen, out_dir=out_dir, workers=workers, pool=pool)
            rows.append(SweepRow(
                mu_lt=float(mu_lt),
                avg_volume_per_day=res.avg_volume_per_day,
                excess_kurtosis=res.gamma2,
                stderr=res.gamma2_stderr,
            ))
    result = SweepResult(rows=rows)
    if out_dir is not None:
        path = Path(out_dir) / f"{base.name}_sweep.csv"
        _write_csv(
            path,
            ("mu_lt", "avg_volume_per_day", "excess_kurtosis", "stderr"),
            [(r.mu_lt, r.avg_volume_per_day, r.excess_kurtosis, r.stderr)
             for r in result.rows],
        )
    return result


# ----------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_run_csvs(runs_dir: Path, scenario: Scenario, output: SimOutput,
                    art: RunArtifacts) -> None:
    cfg = output.config
    seed_dir = runs_dir / str(cfg.seed)
    tick = cfg.tick_size
    _write_csv(
        seed_dir / "trade_tape.csv",
        ("step", "price", "shares", "aggressor_side"),
        [(t.step, t.tick * tick, t.shares, t.aggressor_side.value)
         for t in output.trade_tape],
    )
    if art.volatilities is not None:
        _write_csv(
            seed_dir / "volatility_series.csv",
            ("window_index", "sigma"),
            enumerate(art.volatilities.tolist()),
        )
    _write_csv(
        seed_dir / "price_series.csv",
        ("step", "price", "resting_volume"),
        zip(range(1, cfg.horizon_T + 1),
            output.price_series.tolist(),
            output.resting_volume_series.tolist()),
    )
    if "snapshots" in scenario.outputs:
        rows = []
        for snap in output.snapshots:
            # plot convention: buy volume carries a negative sign
            for t, s in zip(snap.bid_ticks.tolist(), snap.bid_shares.tolist()):
                rows.append((snap.step, "buy", t, t * tick, -s))
            for t, s in zip(snap.ask_ticks.tolist(), snap.ask_shares.tolist()):
                rows.append((snap.step, "sell", t, t * tick, s))
        _write_csv(
            seed_dir / "snapshots.csv",
            ("step", "side", "tick", "price", "shares"),
            rows,
        )


def _write_pooled_csvs(scenario_dir: Path, scenario: Scenario,
                       result: ScenarioResult) -> None:
    pooled = scenario_dir / "pooled"
    write_config(scenario, scenario_dir / "scenario.cfg")
    _write_csv(
        pooled / "summary.csv",
        ("seed", "gamma2", "trades_per_minute", "avg_volume_per_day", "n_returns"),
        [(r.seed, r.gamma2, r.trades_per_minute, r.avg_volume_per_day, r.n_returns)
         for r in result.runs],
    )
    if "kurtosis_point" in scenario.outputs:
        _write_csv(
            pooled / "kurtosis.csv",
            ("gamma2", "stderr", "n_returns", "n_seeds"),
            [(result.gamma2, result.gamma2_stderr,
              result.pooled_returns.size, len(result.runs))],
        )
    if "return_pdf" in scenario.outputs:
        hist = stats.estimate_pdf(result.pooled_returns)
        _write_csv(
            pooled / "return_pdf.csv",
            ("bin_center", "density"),
            zip(hist.centers.tolist(), hist.density.tolist()),
        )
    if "volatility_pdf" in scenario.outputs and result.volatilities is not None:
        hist = stats.estimate_pdf(result.volatilities)
        _write_csv(
            pooled / "volatility_pdf.csv",
            ("bin_center", "density"),
            zip(hist.centers.tolist(), hist.density.tolist()),
        )
        positive = result.volatilities[result.volatilities > 0]
        if positive.size:
            loc, scale = stats.lognormal_reference(positive)
            _write_csv(
                pooled / "volatility_lognormal.csv",
                ("location", "scale", "n"),
                [(loc, scale, positive.size)],
            )
    for v in sorted(result.impact_curves):
        curve = result.impact_curves[v]
        xs, probs = curve.ccdf
        _write_csv(
            pooled / f"impact_v{v}.csv",
            ("delta_s", "ccdf"),
            zip(xs.tolist(), probs.tolist()),
        )
        _write_csv(
            pooled / f"impact_v{v}_censored.csv",
            ("volume", "censored_count", "n_snapshots"),
            [(v, curve.censored_count, curve.n_snapshots)],
        )


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------


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

    def take(key, default=None):
        return entries.pop(key, default)

    name = take("name")
    if not name:
        raise ValueError("config needs a 'name'")

    groups: dict[str, dict[str, str]] = {}
    for key in [k for k in entries if k.startswith("trader.")]:
        parts = key.split(".")
        if len(parts) != 3:
            raise ValueError(f"bad trader key {key!r}")
        groups.setdefault(parts[1], {})[parts[2]] = entries.pop(key)
    if not groups:
        raise ValueError("config needs at least one trader.<group>.count")
    specs = []
    for gname in sorted(groups):
        g = groups[gname]
        unknown = set(g) - {"kind", "count", "kappa", "mu_lifetime", "sigma_price"}
        if unknown:
            raise ValueError(f"unknown trader keys for {gname!r}: {sorted(unknown)}")
        specs.append(TraderSpec(
            kind=TraderKind(g.get("kind", "random")),
            count=int(g["count"]),
            kappa=float(g.get("kappa", 1.0)),
            mu_lifetime=float(g.get("mu_lifetime", 120.0)),
            sigma_price=float(g.get("sigma_price", 0.5)),
        ))

    warmup = take("warmup")
    config = SimConfig(
        trader_specs=tuple(specs),
        c=float(take("c", 7.0)),
        mu_vol=float(take("mu_vol", 10.0)),
        tick_size=float(take("tick_size", 0.1)),
        start_price=float(take("start_price", 100.0)),
        horizon_T=int(take("horizon", 100_000)),
        warmup=int(warmup) if warmup is not None else None,
        snapshot_interval=int(take("snapshot_interval", 0)),
        seed=int(take("base_seed", 0)),
        steps_per_minute=int(take("steps_per_minute", 60)),
    )

    seeds_raw = take("seeds")
    if seeds_raw:
        seeds = tuple(int(s) for s in seeds_raw.split(","))
    else:
        master = int(take("master_seed", 0))
        n_seeds = int(take("n_seeds", 1))
        seeds = tuple(derive_seed(master, i) for i in range(n_seeds))

    outputs_raw = take("outputs", "return_pdf, kurtosis_point")
    outputs = frozenset(
        tok.strip() for tok in outputs_raw.split(",") if tok.strip()
    )
    volumes_raw = take("impact_volumes", "")
    quantiles_raw = take("impact_quantiles", "0.1, 0.5, 0.9, 0.99")
    scenario = Scenario(
        name=name,
        config=config,
        seeds=seeds,
        outputs=outputs,
        vol_window=int(take("vol_window", 1000)),
        impact_volumes=tuple(int(v) for v in volumes_raw.split(",") if v.strip()),
        impact_quantiles=tuple(
            float(q) for q in quantiles_raw.split(",") if q.strip()
        ),
        impact_side=Side(take("impact_side", "buy")),
        impact_censored=take("impact_censored", "exclude"),
    )
    if entries:
        raise ValueError(f"unknown config keys: {sorted(entries)}")
    return scenario


def write_config(scenario: Scenario, path: str | Path) -> None:
    """Serialize a scenario to the flat config format (round-trips)."""
    cfg = scenario.config
    lines = [
        f"name = {scenario.name}",
        f"seeds = {', '.join(str(s) for s in scenario.seeds)}",
        f"c = {cfg.c!r}",
        f"mu_vol = {cfg.mu_vol!r}",
        f"tick_size = {cfg.tick_size!r}",
        f"start_price = {cfg.start_price!r}",
        f"horizon = {cfg.horizon_T}",
        f"warmup = {cfg.warmup}",
        f"snapshot_interval = {cfg.snapshot_interval}",
        f"base_seed = {cfg.seed}",
        f"steps_per_minute = {cfg.steps_per_minute}",
        f"outputs = {', '.join(sorted(scenario.outputs))}",
        f"vol_window = {scenario.vol_window}",
        f"impact_quantiles = {', '.join(repr(q) for q in scenario.impact_quantiles)}",
        f"impact_side = {scenario.impact_side.value}",
        f"impact_censored = {scenario.impact_censored}",
    ]
    if scenario.impact_volumes:
        lines.append(
            f"impact_volumes = {', '.join(str(v) for v in scenario.impact_volumes)}"
        )
    for i, spec in enumerate(cfg.trader_specs):
        g = f"g{i:02d}"
        lines += [
            f"trader.{g}.kind = {spec.kind.value}",
            f"trader.{g}.count = {spec.count}",
            f"trader.{g}.kappa = {spec.kappa!r}",
            f"trader.{g}.mu_lifetime = {spec.mu_lifetime!r}",
            f"trader.{g}.sigma_price = {spec.sigma_price!r}",
        ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
