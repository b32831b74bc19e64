"""The benchmark's workloads: how each is built, run, checked and digested.

Every workload goes through lobsim's public API only and is a pure
function of the workload seed, so repeats of one invocation must agree
byte for byte. The checks use the paper's invariants rather than frozen
values, so they keep holding when the program's random stream changes.

- ``rt120_kurtosis``: the sparse heavy-tail regime (lifetime 120), no
  snapshots, no files. Exercises ``agents`` draws, ``orderbook.submit``/
  ``expire`` and the per-step ``simulator`` loop; bypasses snapshots,
  ``impact``, CSV writing and nearly all worker-to-parent traffic.
- ``big1200_impact``: the dense book (lifetime 1200 plus 30 BigTraders
  with kappa 5) on the quantile-impact path: a snapshot every 60 steps,
  snapshots pickled back to the parent and impact walks pooled there.
  Exercises ``orderbook.snapshot``, long matching walks, ``impact`` and
  worker-to-parent bytes; bypasses calibration and CSV writing.
- ``sweep_csv``: ``lifetime_sweep`` over lifetimes 120 and 3600 with
  calibration to 5.4 trades/minute and CSV output. Exercises serial
  ``calibrate_c`` probes in the parent, a saturated long-lifetime book
  and CSV writing; bypasses ``impact``.

lobsim is imported inside functions: ``run.py`` imports this module in a
process that does not have the program on its path.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

TARGET_TPM = 5.4
CALIBRATION_TOL = 0.05  # calibrate_c's default rel_tol
CALIBRATION_SEEDS = 5  # calibrate_c's default n_seeds
PROBE_HORIZON = 30_000  # lifetime_sweep's default probe_horizon


@dataclass(frozen=True)
class Size:
    n_seeds: int
    horizon: int | None = None  # None keeps the config file's horizon
    lifetimes: tuple[float, ...] = (120.0, 3600.0)
    probe_horizon: int = PROBE_HORIZON


# "full" is what the benchmark measures; "smoke" is a seconds-long
# version of the same code paths for the benchmark's own tests.
SIZES = {
    "full": {
        "rt120_kurtosis": Size(n_seeds=8),
        "big1200_impact": Size(n_seeds=8),
        "sweep_csv": Size(n_seeds=2),
    },
    "smoke": {
        "rt120_kurtosis": Size(n_seeds=2, horizon=20_000),
        "big1200_impact": Size(n_seeds=2, horizon=18_000),
        "sweep_csv": Size(n_seeds=2, horizon=24_000,
                          lifetimes=(120.0, 1200.0), probe_horizon=6_000),
    },
}

NAMES = tuple(SIZES["full"])


class Problems:
    """Check failures, keyed by the seed run they condemn (None: all)."""

    def __init__(self):
        self.items: list[tuple[object, str]] = []

    def require(self, ok, key, message: str) -> None:
        if not ok:
            self.items.append((key, message))

    def failed_seeds(self, attempted: int) -> int:
        keys = {key for key, _ in self.items}
        return attempted if None in keys else len(keys)


class Workload:
    def __init__(self, name: str, size: Size, root: Path):
        self.name = name
        self.size = size
        self.root = root

    @property
    def writes_csv(self) -> bool:
        return self.name == "sweep_csv"

    @property
    def config_path(self) -> Path:
        cfg = "big1200.cfg" if self.name == "big1200_impact" else "rt120.cfg"
        return self.root / "configs" / cfg

    @property
    def seed_runs(self) -> int:
        """Seed runs one repeat attempts (calibration probes not counted)."""
        n = self.size.n_seeds
        return n * len(self.size.lifetimes) if self.name == "sweep_csv" else n

    def scenario(self, seed: int):
        from lobsim import derive_seed, scenario_from_config

        base = scenario_from_config(self.config_path)
        cfg = base.config
        if self.size.horizon is not None:
            cfg = replace(cfg, horizon_T=self.size.horizon)
        seeds = tuple(derive_seed(seed, i) for i in range(self.size.n_seeds))
        if self.name == "rt120_kurtosis":
            cfg = replace(cfg, snapshot_interval=0)
            return replace(base, config=cfg, seeds=seeds,
                           outputs=frozenset({"return_pdf", "kurtosis_point"}))
        return replace(base, config=cfg, seeds=seeds)

    def execute(self, scenario, out_dir: Path | None, workers: int):
        # Looked up at call time, so the tracer's wrappers are seen.
        import lobsim.experiments as experiments

        if self.name == "sweep_csv":
            return experiments.lifetime_sweep(
                scenario, self.size.lifetimes, out_dir=out_dir,
                workers=workers, target_tpm=TARGET_TPM,
                probe_horizon=self.size.probe_horizon,
            )
        return experiments.run_scenario(scenario, out_dir=out_dir,
                                        workers=workers)

    # ------------------------------------------------------------------
    # correctness
    # ------------------------------------------------------------------

    def check(self, result, scenario, out_dir: Path | None,
              probe: bool) -> Problems:
        problems = Problems()
        if self.name == "rt120_kurtosis":
            self._check_scenario(problems, result, scenario)
            problems.require(result.gamma2 > 0, None,
                             f"pooled gamma2 {result.gamma2} not heavy-tailed")
            problems.require(
                abs(result.trades_per_minute - TARGET_TPM) <= 0.1 * TARGET_TPM,
                None, f"trades/minute {result.trades_per_minute} far from "
                      f"the config's calibration target {TARGET_TPM}")
        elif self.name == "big1200_impact":
            self._check_scenario(problems, result, scenario)
            self._check_impact(problems, result, scenario)
        else:
            self._check_sweep(problems, result, scenario, out_dir, probe)
        return problems

    def _check_scenario(self, problems: Problems, result, scenario) -> None:
        cfg = scenario.config
        n_returns = (cfg.horizon_T - cfg.warmup) // cfg.steps_per_minute
        problems.require([r.seed for r in result.runs] == sorted(scenario.seeds),
                         None, "runs missing or out of seed order")
        for r in result.runs:
            problems.require(r.n_returns == n_returns, r.seed,
                             f"seed {r.seed}: {r.n_returns} returns, "
                             f"expected {n_returns}")
            problems.require(math.isfinite(r.gamma2), r.seed,
                             f"seed {r.seed}: gamma2 {r.gamma2}")
            problems.require(r.trades_per_minute > 0, r.seed,
                             f"seed {r.seed}: no trades")
        problems.require(
            result.pooled_returns.size == n_returns * len(result.runs), None,
            "pooled returns do not add up over seeds")
        problems.require(math.isfinite(result.gamma2), None,
                         f"pooled gamma2 {result.gamma2}")

    def _check_impact(self, problems: Problems, result, scenario) -> None:
        cfg = scenario.config
        per_seed = cfg.horizon_T // cfg.snapshot_interval \
            - cfg.warmup // cfg.snapshot_interval
        for r in result.runs:
            problems.require(r.n_snapshots == per_seed, r.seed,
                             f"seed {r.seed}: {r.n_snapshots} snapshots, "
                             f"expected {per_seed}")
        volumes = result.quantile_volumes_used
        problems.require(len(result.impact_curves) > 0, None,
                         "no impact curves")
        problems.require(list(volumes) == sorted(set(volumes)), None,
                         f"quantile volumes {volumes} not increasing")
        n_snaps = per_seed * len(result.runs)
        for v, curve in result.impact_curves.items():
            problems.require(curve.samples.size > 0, None,
                             f"impact curve v={v} is empty")
            problems.require(0 <= curve.censored_count <= curve.n_snapshots,
                             None, f"impact curve v={v}: censored "
                                   f"{curve.censored_count} > snapshots")
            problems.require(
                curve.n_snapshots == n_snaps
                and curve.samples.size + curve.censored_count == n_snaps,
                None, f"impact curve v={v}: snapshots do not add up")
            problems.require(bool(np.all(curve.samples >= 0)), None,
                             f"impact curve v={v}: negative shift")

    def _check_sweep(self, problems: Problems, result, scenario,
                     out_dir: Path, probe: bool) -> None:
        from lobsim import scenario_from_config

        lifetimes = self.size.lifetimes
        problems.require([r.mu_lt for r in result.rows] == list(lifetimes),
                         None, "sweep rows do not match the lifetimes")
        if len(result.rows) == len(lifetimes):
            g_short, g_long = (result.rows[0].excess_kurtosis,
                               result.rows[-1].excess_kurtosis)
            problems.require(g_short > g_long, None,
                             f"gamma2 {g_short} at lifetime {lifetimes[0]:g} "
                             f"not above {g_long} at {lifetimes[-1]:g}")
        table = out_dir / f"{scenario.name}_sweep.csv"
        problems.require(table.is_file() and _csv_rows(table) == len(lifetimes),
                         None, f"{table.name} missing or incomplete")
        seeds = sorted(scenario.seeds)
        for mu_lt in lifetimes:
            sdir = out_dir / f"{scenario.name}_lt{int(mu_lt)}"
            for name in ("kurtosis.csv", "return_pdf.csv",
                         "volatility_pdf.csv", "summary.csv"):
                problems.require((sdir / "pooled" / name).is_file(), None,
                                 f"{sdir.name}/pooled/{name} missing")
            summary = sdir / "pooled" / "summary.csv"
            if summary.is_file():
                rows = [line.split(",") for line
                        in summary.read_text().splitlines()[1:]]
                problems.require([int(r[0]) for r in rows] == seeds, None,
                                 f"{sdir.name}: summary seeds differ")
                for r in rows:
                    key = (mu_lt, int(r[0]))
                    problems.require(math.isfinite(float(r[1])), key,
                                     f"{sdir.name} seed {r[0]}: gamma2 {r[1]}")
                    problems.require(float(r[2]) > 0, key,
                                     f"{sdir.name} seed {r[0]}: no trades")
            for seed in seeds:
                for name in ("trade_tape.csv", "price_series.csv",
                             "volatility_series.csv", "snapshots.csv"):
                    path = sdir / "runs" / str(seed) / name
                    problems.require(path.is_file(), (mu_lt, seed),
                                     f"{sdir.name}/runs/{seed}/{name} missing")
            cfg_file = sdir / "scenario.cfg"
            if probe and cfg_file.is_file():
                tpm = probe_tpm(scenario_from_config(cfg_file).config,
                                self.size.probe_horizon)
                problems.require(
                    abs(tpm - TARGET_TPM) <= CALIBRATION_TOL * TARGET_TPM,
                    None, f"{sdir.name}: calibrated c gives {tpm:.3f} "
                          f"trades/minute on the probe, target {TARGET_TPM}")

    # ------------------------------------------------------------------
    # determinism
    # ------------------------------------------------------------------

    def digest(self, result, out_dir: Path | None) -> str:
        """Hash of the pooled statistics and every CSV written."""
        h = hashlib.sha256()
        if self.name == "sweep_csv":
            for row in result.rows:
                h.update(repr((row.mu_lt, row.avg_volume_per_day,
                               row.excess_kurtosis, row.stderr)).encode())
            for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
                h.update(str(path.relative_to(out_dir)).encode())
                h.update(path.read_bytes())
            return h.hexdigest()
        for r in result.runs:
            h.update(repr((r.seed, r.gamma2, r.trades_per_minute,
                           r.avg_volume_per_day)).encode())
        h.update(repr((result.gamma2, result.gamma2_stderr,
                       result.quantile_volumes_used)).encode())
        h.update(result.pooled_returns.tobytes())
        for v in sorted(result.impact_curves):
            curve = result.impact_curves[v]
            h.update(repr((v, curve.censored_count, curve.n_snapshots)).encode())
            h.update(curve.samples.tobytes())
        return h.hexdigest()


def probe_tpm(config, probe_horizon: int) -> float:
    """Trades/minute of calibrate_c's probe runs at ``config.c``.

    Rebuilds the probe that lifetime_sweep hands to calibrate_c: the
    scenario config shortened to the probe horizon, averaged over the
    same derived probe seeds.
    """
    from lobsim import derive_seed, run

    probe = replace(config, horizon_T=probe_horizon,
                    warmup=min(config.warmup, probe_horizon // 3),
                    snapshot_interval=0)
    return sum(
        run(replace(probe, seed=derive_seed(probe.seed, i))).trades_per_minute
        for i in range(CALIBRATION_SEEDS)
    ) / CALIBRATION_SEEDS


def _csv_rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1


def get(name: str, size: str, root: Path) -> Workload:
    return Workload(name, SIZES[size][name], root)
