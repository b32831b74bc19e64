"""One repeat of one workload, in a fresh interpreter.

``run.py`` starts this script once per repeat, so no memory high-water
mark or warm cache carries over between repeats. It times the workload,
reads peak RSS, then checks and digests the outputs outside the timed
region, and prints one JSON object as its last line of output.

Modes:
  plain   tracing off. Only ``simulator.run`` is wrapped, once per seed,
          to read the run's activation count.
  traced  every layer boundary in ``tracer.HOOKS`` is wrapped; spans are
          written to ``<dir>/spans.npz``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads


class ActivationCounter:
    """Wraps ``simulator.run`` to log each run's activation count.

    Worker processes are forked from this interpreter, so they inherit
    the wrapper; each appends one short line to a shared log file.
    """

    TARGETS = (("lobsim.experiments", "run"), ("lobsim.simulator", "run"))

    def __init__(self, log: Path):
        self.log = log
        self._saved = []

    def install(self) -> "ActivationCounter":
        log = str(self.log)
        for module_name, attr in self.TARGETS:
            module = tracer.resolve(module_name)
            fn = getattr(module, attr)

            def counted(config, _fn=fn):
                output = _fn(config)
                with open(log, "a") as fh:
                    fh.write(f"{output.n_submitted}\n")
                return output

            setattr(module, attr, counted)
            self._saved.append((module, attr, fn))
        return self

    def uninstall(self) -> tuple[int, int]:
        """Restore the originals; return (runs logged, activations)."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        counts = [int(x) for x in self.log.read_text().split()] \
            if self.log.exists() else []
        return len(counts), sum(counts)


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped workers' ru_maxrss (KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def csv_totals(out_dir: Path | None) -> tuple[int, int]:
    if out_dir is None:
        return 0, 0
    files = [p for p in out_dir.rglob("*.csv") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=tuple(workloads.SIZES))
    p.add_argument("--mode", required=True, choices=("plain", "traced"))
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--probe-check", action="store_true",
                   help="also re-run the calibration probes (sweep_csv)")
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    workload = workloads.get(args.workload, args.size, root)
    scenario = workload.scenario(args.seed)
    args.dir.mkdir(parents=True, exist_ok=True)
    out_dir = args.dir / "out" if workload.writes_csv else None

    if args.mode == "traced":
        hook = tracer.Tracer().install()
    else:
        hook = ActivationCounter(args.dir / "activations.log").install()
    t0 = perf_counter()
    result = workload.execute(scenario, out_dir, args.workers)
    wall = perf_counter() - t0
    rss = peak_rss_mb()

    report = {"wall_s": wall, "peak_rss_mb": rss}
    if args.mode == "traced":
        hook.uninstall()
        hook.save(args.dir / "spans.npz")
        report["counters"] = dict(
            hook.counters,
            ipc_bytes=hook.ipc_bytes(),
            missing_hooks=len(hook.missing_hooks),
        )
    else:
        report["runs_logged"], report["activations"] = hook.uninstall()

    problems = workload.check(result, scenario, out_dir, args.probe_check)
    if args.mode == "plain":
        runs = report["runs_logged"]
        problems.require(runs >= workload.seed_runs, None,
                         f"activation log has {runs} runs, expected at least "
                         f"{workload.seed_runs}: workers did not inherit the "
                         "counter")
    files, size = csv_totals(out_dir)
    report.update(
        attempted=workload.seed_runs,
        failed=problems.failed_seeds(workload.seed_runs),
        problems=[msg for _, msg in problems.items],
        digest=workload.digest(result, out_dir),
        csv_files=files,
        csv_bytes=size,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
