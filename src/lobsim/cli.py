"""Command-line entry points for scenario runs, sweeps and calibration."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .experiments import (
    Scenario,
    _parse_list,
    lifetime_sweep,
    run_scenario,
    scenario_from_config,
    worker_pool,
)
from .simulator import (PROBE_HORIZON, PROBE_SEEDS, SimConfig, calibrate_c,
                        calibration_probe, derive_seed)

PAPER_SEEDS = 5000
PAPER_HORIZON = 500_000


def _load_scenario(args) -> Scenario:
    """The config's scenario, at publication scale if asked. Without
    ``--out`` nothing reads snapshots, so none are shipped back."""
    scenario = scenario_from_config(args.config)
    if getattr(args, "paper_scale", False):
        seeds = tuple(derive_seed(scenario.seeds[0], i)
                      for i in range(PAPER_SEEDS))
        cfg = replace(scenario.config, horizon_T=PAPER_HORIZON)
        scenario = replace(scenario, seeds=seeds, config=cfg)
    if args.out is None:
        scenario = replace(scenario, outputs=scenario.outputs - {"snapshots"})
    return scenario


def _cmd_run(args) -> int:
    scenario = _load_scenario(args)
    result = run_scenario(scenario, out_dir=args.out, workers=args.workers)
    print(f"scenario {scenario.name}: {len(result.runs)} runs")
    print(f"  trades/minute        {result.trades_per_minute:.3f}")
    print(f"  avg volume per day   {result.avg_volume_per_day:.1f}")
    print(f"  pooled gamma2        {result.gamma2:.3f} +- {result.gamma2_stderr:.3f}")
    if args.out:
        print(f"  outputs under        {args.out}/{scenario.name}/")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    lifetimes = _parse_list("--lifetimes", args.lifetimes, float)
    result = lifetime_sweep(
        scenario,
        lifetimes,
        out_dir=args.out,
        workers=args.workers,
        target_tpm=args.target_tpm,
    )
    print("mu_lt,avg_volume_per_day,excess_kurtosis,stderr")
    for row in result.rows:
        print(f"{row.mu_lt:g},{row.avg_volume_per_day:.2f},"
              f"{row.excess_kurtosis:.4f},{row.stderr:.4f}")
    return 0


def _cmd_calibrate(args) -> int:
    config = (scenario_from_config(args.config).config if args.config
              else SimConfig())
    probe = calibration_probe(config, args.probe_horizon)
    with worker_pool(None, args.probe_seeds) as pool:
        c = calibrate_c(args.target_tpm, probe, n_seeds=args.probe_seeds,
                        pool=pool)
    print(f"calibrated c = {c!r} for {args.target_tpm} trades/minute")
    return 0


def _cmd_impact(args) -> int:
    scenario = _load_scenario(args)
    outputs = set(scenario.outputs) | {"impact_curves"}
    overrides = {"outputs": frozenset(outputs)}
    if args.volumes:
        overrides["impact_volumes"] = _parse_list("--volumes", args.volumes, int)
    if args.quantiles:
        overrides["impact_quantiles"] = _parse_list("--quantiles", args.quantiles,
                                                    float)
        overrides.setdefault("impact_volumes", ())
    if args.censored:
        overrides["impact_censored"] = args.censored
    scenario = replace(scenario, **overrides)
    result = run_scenario(scenario, out_dir=args.out, workers=args.workers)
    if result.quantile_volumes_used:
        print(f"quantile volumes: {list(result.quantile_volumes_used)}")
    for v in sorted(result.impact_curves):
        curve = result.impact_curves[v]
        print(f"v={v}: {curve.samples.size} shifts, "
              f"{curve.censored_count}/{curve.n_snapshots} censored, "
              f"median shift {float(np.median(curve.samples)):.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobsim",
        description="Agent-based double-auction order book simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output directory for CSVs")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: LOBSIM_WORKERS or CPU count)")

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config")
    add_common(p_run)
    p_run.add_argument("--paper-scale", action="store_true",
                       help="publication scale: 5000 seeds, horizon 5e5")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep order lifetimes")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--lifetimes", required=True,
                         help="comma-separated lifetimes, e.g. 120,240,480")
    p_sweep.add_argument("--target-tpm", type=float, default=None,
                         help="recalibrate c per lifetime to this trade frequency")
    add_common(p_sweep)
    p_sweep.add_argument("--paper-scale", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="calibrate waiting-time scale c")
    p_cal.add_argument("config", nargs="?", default=None)
    p_cal.add_argument("--target-tpm", type=float, required=True)
    p_cal.add_argument("--probe-horizon", type=int, default=PROBE_HORIZON)
    p_cal.add_argument("--probe-seeds", type=int, default=PROBE_SEEDS)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_imp = sub.add_parser("impact", help="virtual market impact curves")
    p_imp.add_argument("config")
    p_imp.add_argument("--quantiles", default=None,
                       help="traded-volume quantiles, e.g. 0.1,0.5,0.9,0.99")
    p_imp.add_argument("--volumes", default=None,
                       help="explicit volumes, e.g. 700,1100 (overrides quantiles)")
    p_imp.add_argument("--censored", choices=("exclude", "saturate"), default=None)
    add_common(p_imp)
    p_imp.set_defaults(func=_cmd_impact)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
