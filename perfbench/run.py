"""lobsim benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload rt120_kurtosis --seed 1 --seconds 35 --trace 0

Runs one workload for about ``--seconds`` seconds, checks its outputs
and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off: the
median over repeats of the workload on 2 worker processes, each repeat
in a fresh interpreter, plus the set-up time of a fresh interpreter.

``--trace 1`` gives the per-layer metrics. It runs the workload once
untraced on 2 workers (the determinism reference), then pairs of
untraced and traced repeats on 1 worker, so every span of the traced
repeat is recorded in one process. The tracing overhead is the traced
against the untraced 1-worker wall time.

The program is imported from ``src/`` of the checkout this script sits
in; the script fails when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

WORKERS = 2  # the benchmark box has 2 cores
MIN_REPEATS = 3
MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
DEADLINE_S = 165.0  # every invocation must end within 180 s

# name -> unit; the order is the order of output
END_TO_END = {
    "wall_s": "s",
    "activations_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "agents.act_calls": "count",
    "agents.act_s": "s",
    "orderbook.submit_calls": "count",
    "orderbook.submit_s": "s",
    "orderbook.fills": "count",
    "orderbook.fills_per_submit": "ratio",
    "orderbook.expire_calls": "count",
    "orderbook.expire_s": "s",
    "orderbook.expired_orders": "count",
    "orderbook.expire_hit_ratio": "ratio",
    "orderbook.snapshot_calls": "count",
    "orderbook.snapshot_s": "s",
    "orderbook.snapshot_levels": "levels",
    "simulator.run_calls": "count",
    "simulator.run_s": "s",
    "simulator.loop_self_s": "s",
    "simulator.steps": "count",
    "simulator.active_step_ratio": "ratio",
    "simulator.calibrate_s": "s",
    "simulator.calibrate_probe_runs": "count",
    "stats.calls": "count",
    "stats.s": "s",
    "impact.walks": "count",
    "impact.censored_ratio": "ratio",
    "impact.distribution_s": "s",
    "impact.quantile_volumes_s": "s",
    "experiments.self_s": "s",
    "experiments.csv_s": "s",
    "experiments.ipc_bytes": "bytes",
    "experiments.csv_bytes": "bytes",
    "experiments.csv_files": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
    "trace.missing_hooks": "count",
}
# per-layer metrics that are times vary between traced repeats: take the
# median; the others are counts that must repeat exactly
LAYER_TIMES = {name for name, unit in PER_LAYER.items() if unit == "s"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def run_child(cmd: list[str], timeout: float) -> tuple[int, str, str]:
    """Run a command in its own process group; kill the group after.

    Killing the group also stops worker processes a crashed or timed-out
    child may have left behind.
    """
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\ntimed out after {timeout:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


class SetupTimer:
    """Wall time of a fresh interpreter importing lobsim and parsing a config.

    The first spawn is not timed: it lets Python write its bytecode cache,
    which a user pays once, not on every command.
    """

    def __init__(self, config_path: Path):
        code = "import sys, lobsim; lobsim.scenario_from_config(sys.argv[1])"
        self.cmd = [sys.executable, "-c", code, str(config_path)]
        self.times: list[float] = []
        self.sample()
        self.times.clear()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = perf_counter()
            rc, _, err = run_child(self.cmd, CHILD_TIMEOUT_S)
            if rc != 0:
                raise RuntimeError(f"set-up failed:\n{err}")
            self.times.append(perf_counter() - t0)


class Runner:
    def __init__(self, workload: str, seed: int, size: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.deadline = deadline
        self.count = 0

    def repeat(self, mode: str, workers: int, probe_check: bool = False) -> dict:
        """One repeat in a fresh interpreter; failures come back as data."""
        self.count += 1
        rdir = WORK / self.workload / f"r{self.count:02d}-{mode}-w{workers}"
        cmd = [sys.executable, str(HERE / "repeat.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, "--mode", mode,
               "--workers", str(workers), "--dir", str(rdir)]
        if probe_check:
            cmd.append("--probe-check")
        timeout = max(5.0, min(CHILD_TIMEOUT_S, self.deadline - perf_counter()))
        t0 = perf_counter()
        rc, out, err = run_child(cmd, timeout)
        elapsed = perf_counter() - t0
        lines = out.strip().splitlines()
        if rc != 0 or not lines:
            sys.stderr.write(err[-4000:])
            attempted = workloads.get(self.workload, self.size, ROOT).seed_runs
            rep = {"attempted": attempted, "failed": attempted,
                   "problems": [f"repeat exited with code {rc}"],
                   "digest": None}
        else:
            rep = json.loads(lines[-1])
            if mode == "traced":
                # the last traced repeat's spans stay on disk for inspection
                spans_file = WORK / self.workload / "spans.npz"
                shutil.move(rdir / "spans.npz", spans_file)
                rep["layers"], rep["layer_split"] = analyse(
                    tracer.load_spans(spans_file), rep)
        rep.update(mode=mode, workers=workers, elapsed=elapsed)
        shutil.rmtree(rdir, ignore_errors=True)
        return rep


def ok(rep: dict) -> bool:
    return rep["failed"] == 0 and rep["digest"] is not None


def analyse(spans: dict, rep: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repeat, and its self time per module.

    The module split is a share of the traced wall time.
    """
    codes = spans["names"]
    parents = spans["parents"]
    dur = spans["ends"] - spans["starts"]
    own = tracer.self_times(spans["starts"], spans["ends"], parents)
    c = rep["counters"]

    def mask(*names):
        return np.isin(codes, [tracer.SPAN_NAMES.index(n) for n in names])

    def calls(*names):
        return int(mask(*names).sum())

    def total(*names):
        return float(dur[mask(*names)].sum())

    def self_s(*names):
        return float(own[mask(*names)].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    stats_names = [n for n in tracer.SPAN_NAMES if n.startswith("stats.")]
    runs = mask("simulator.run")
    calib = tracer.SPAN_NAMES.index("simulator.calibrate_c")
    has_parent = parents >= 0
    probe_runs = runs & has_parent & (codes[np.where(has_parent, parents, 0)] == calib)
    submits = calls("orderbook.submit")
    expires = calls("orderbook.expire")
    snaps = calls("orderbook.snapshot")
    metrics = {
        "agents.act_calls": calls("agents.act"),
        "agents.act_s": total("agents.act"),
        "orderbook.submit_calls": submits,
        "orderbook.submit_s": total("orderbook.submit"),
        "orderbook.fills": c["fills"],
        "orderbook.fills_per_submit": ratio(c["fills"], submits),
        "orderbook.expire_calls": expires,
        "orderbook.expire_s": total("orderbook.expire"),
        "orderbook.expired_orders": c["expired_orders"],
        "orderbook.expire_hit_ratio": ratio(c["expire_hits"], expires),
        "orderbook.snapshot_calls": snaps,
        "orderbook.snapshot_s": total("orderbook.snapshot"),
        "orderbook.snapshot_levels": ratio(c["snapshot_levels"], snaps),
        "simulator.run_calls": calls("simulator.run"),
        "simulator.run_s": total("simulator.run"),
        "simulator.loop_self_s": self_s("simulator.run"),
        "simulator.steps": c["steps"],
        "simulator.active_step_ratio": ratio(c["active_steps"], c["steps"]),
        "simulator.calibrate_s": total("simulator.calibrate_c"),
        "simulator.calibrate_probe_runs": int(probe_runs.sum()),
        "stats.calls": calls(*stats_names),
        "stats.s": self_s(*stats_names),
        "impact.walks": c["impact_walks"],
        "impact.censored_ratio": ratio(c["impact_censored"], c["impact_walks"]),
        "impact.distribution_s": total("impact.impact_distribution"),
        "impact.quantile_volumes_s": total("impact.quantile_volumes"),
        "experiments.self_s": self_s("experiments.run_scenario",
                                     "experiments.lifetime_sweep"),
        "experiments.csv_s": total("experiments.write_csv"),
        "experiments.ipc_bytes": c["ipc_bytes"],
        "experiments.csv_bytes": rep["csv_bytes"],
        "experiments.csv_files": rep["csv_files"],
        "trace.unaccounted_s": rep["wall_s"] - float(dur[~has_parent].sum()),
        "trace.spans": int(codes.size),
        "trace.missing_hooks": c["missing_hooks"],
    }
    split: dict[str, float] = {}
    for code, name in enumerate(tracer.SPAN_NAMES):
        module = name.split(".")[0]
        share = float(own[codes == code].sum()) / rep["wall_s"]
        split[module] = split.get(module, 0.0) + share
    return metrics, split


def end_to_end(runner: Runner, seconds: float, setup: SetupTimer):
    # Set-up samples are taken between repeats, so that both spread over
    # the whole run rather than one burst meeting one state of the host.
    start = perf_counter()
    reps: list[dict] = []
    while True:
        setup.sample()
        reps.append(runner.repeat("plain", WORKERS, probe_check=not reps))
        elapsed = perf_counter() - start
        est = statistics.median(r["elapsed"] for r in reps)
        if len(reps) >= MIN_REPEATS and elapsed + est > seconds:
            break
        if perf_counter() + est > runner.deadline:
            break
    setup.sample(max(0, MIN_SETUP_SAMPLES - len(setup.times)))
    good = [r for r in reps if ok(r)]
    metrics = {}
    if good:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in good),
            "activations_per_s": statistics.median(
                r["activations"] / r["wall_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "setup_s": statistics.median(setup.times),
        }
    info = {"repeats": len(reps), "timed_repeats": len(good),
            "setup_samples": len(setup.times),
            "wall_s_all": [r.get("wall_s") for r in reps]}
    return metrics, reps, info


def per_layer(runner: Runner, seconds: float):
    start = perf_counter()
    reps = [runner.repeat("plain", WORKERS, probe_check=True)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        order = ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain")
        for mode in order:
            rep = runner.repeat(mode, 1)
            (traced if mode == "traced" else plain).append(rep)
        elapsed = perf_counter() - start
        est = statistics.median(r["elapsed"] for r in plain) \
            + statistics.median(r["elapsed"] for r in traced)
        if elapsed + est > seconds or perf_counter() + est > runner.deadline:
            break
    reps += plain + traced
    good_traced = [r for r in traced if ok(r)]
    good_plain = [r for r in plain if ok(r)]
    metrics, info = {}, {"pairs": len(traced)}
    if good_traced and good_plain:
        per_rep = [r["layers"] for r in good_traced]
        for name in per_rep[0]:
            values = [m[name] for m in per_rep]
            metrics[name] = statistics.median(values) if name in LAYER_TIMES \
                else values[0]
        counts = [{k: v for k, v in m.items() if k not in LAYER_TIMES}
                  for m in per_rep]
        if any(m != counts[0] for m in counts):
            good_traced[0]["problems"].append("traced counts differ between repeats")
            good_traced[0]["failed"] = good_traced[0]["attempted"]
        untraced = statistics.median(r["wall_s"] for r in good_plain)
        traced_wall = statistics.median(r["wall_s"] for r in good_traced)
        metrics.update({
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / untraced - 1.0,
        })
        info["layer_split"] = {m: round(v, 4) for m, v
                               in good_traced[0]["layer_split"].items()}
    return {k: metrics[k] for k in PER_LAYER if k in metrics}, reps, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="lobsim benchmark: one workload, one JSON result line")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full", choices=tuple(workloads.SIZES),
                   help="'smoke' shrinks every workload for the benchmark's "
                        "own tests")
    args = p.parse_args(argv)

    workload = workloads.get(args.workload, args.size, ROOT)
    for needed in (ROOT / "src" / "lobsim" / "__init__.py", workload.config_path):
        if not needed.is_file():
            return fail(f"{needed.relative_to(ROOT)} not found: run from a "
                        "checkout of the lobsim repository")

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    deadline = perf_counter() + DEADLINE_S
    runner = Runner(args.workload, args.seed, args.size, deadline)
    try:
        if args.trace:
            metrics, reps, info = per_layer(runner, args.seconds)
            units = PER_LAYER
        else:
            setup = SetupTimer(workload.config_path)
            metrics, reps, info = end_to_end(runner, args.seconds, setup)
            units = END_TO_END
    except RuntimeError as exc:
        return fail(str(exc))

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    agree = len({r["digest"] for r in reps}) == 1
    correct = failed == 0 and agree and len(metrics) == len(units)

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {len(reps)} repeats")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} "
          f"({failed} of {attempted} seed runs)")
    for key, value in info.items():
        print(f"  {key:32s} {value}")
    print(f"  {'digest':32s} {reps[0]['digest']} "
          f"({'all repeats agree' if agree else 'REPEATS DIFFER'})")
    for rep in reps:
        for problem in rep["problems"]:
            print(f"  check failed ({rep['mode']}): {problem}")

    result_file = WORK / args.workload / f"result_trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "metrics": metrics, "info": info, "digest": reps[0]["digest"],
        "repeats": reps,
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
