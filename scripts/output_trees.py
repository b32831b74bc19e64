"""Print a manifest of the files the CLI writes, to compare two checkouts.

Run from the repository root:

    python scripts/output_trees.py --workers 1 > manifest.txt

It cuts the shipped configs down (their first ``--seeds`` seeds, horizon
``--horizon``), then runs, each in its own output directory:

    run     configs/rt120.cfg --out run
    impact  configs/big1200.cfg --out impact_quantiles
    impact  configs/big1200.cfg --volumes 10,160,700 --censored saturate
            --out impact_volumes
    sweep   configs/rt120.cfg --lifetimes 120,600 --out sweep
    sweep   configs/rt120.cfg --lifetimes 120,600 --target-tpm 5.4
            --out sweep_calibrated

Each command runs in a fresh interpreter with the test-only packages
(scipy, hypothesis, pytest) blocked from import, so a runtime import of
one of them, also inside a worker, fails the script: the runtime needs
numpy only. Each command's stdout is kept as ``<out>/stdout.txt``. The
manifest is one ``path,bytes,sha256`` line per file, sorted by path, so
checking one checkout against another, or one worker count against
another, is one ``diff`` of two manifests. The CLI comes from this checkout's
``src/``; the files are written to a temporary directory and removed
unless ``--keep`` names a directory to write them to instead.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from lobsim.experiments import scenario_from_config, write_config  # noqa: E402

# (output directory, subcommand, config, options)
COMMANDS = (
    ("run", "run", "rt120", ()),
    ("impact_quantiles", "impact", "big1200", ()),
    ("impact_volumes", "impact", "big1200",
     ("--volumes", "10,160,700", "--censored", "saturate")),
    ("sweep", "sweep", "rt120", ("--lifetimes", "120,600")),
    ("sweep_calibrated", "sweep", "rt120",
     ("--lifetimes", "120,600", "--target-tpm", "5.4")),
)


# ``python -c NUMPY_ONLY <subcommand> ...`` runs the CLI, which forks its
# workers from this interpreter, with the test-only packages unimportable
NUMPY_ONLY = """\
import sys
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None
from lobsim.cli import main
sys.exit(main())
"""


def cut_config(name: str, root: Path, n_seeds: int, horizon: int) -> str:
    """The shipped config ``name`` cut down, written under ``root``."""
    scenario = scenario_from_config(REPO / "configs" / f"{name}.cfg")
    scenario = replace(scenario, seeds=scenario.seeds[:n_seeds],
                       config=replace(scenario.config, horizon_T=horizon))
    write_config(scenario, root / f"{name}.cfg")
    return f"{name}.cfg"


def write_trees(root: Path, workers: int, n_seeds: int, horizon: int) -> None:
    configs = {name: cut_config(name, root, n_seeds, horizon)
               for name in ("rt120", "big1200")}
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for out, command, config, options in COMMANDS:
        # relative paths keep the stdout free of the temporary root
        argv = [sys.executable, "-c", NUMPY_ONLY, command, configs[config],
                *options, "--out", out, "--workers", str(workers)]
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              text=True)
        if done.returncode:
            sys.exit(f"{' '.join(argv[3:])} failed:\n{done.stderr}")
        (root / out / "stdout.txt").write_text(done.stdout)


def manifest(root: Path) -> list[str]:
    return sorted(
        f"{p.relative_to(root).as_posix()},{p.stat().st_size},"
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}"
        for p in root.rglob("*") if p.is_file()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=3,
                        help="seeds per config (its first ones)")
    parser.add_argument("--horizon", type=int, default=30_000)
    parser.add_argument("--keep", type=Path, default=None,
                        help="write the trees here (a new directory)")
    args = parser.parse_args(argv)
    if args.keep is not None:
        args.keep.mkdir(parents=True)
        write_trees(args.keep, args.workers, args.seeds, args.horizon)
        lines = manifest(args.keep)
    else:
        with tempfile.TemporaryDirectory(prefix="output-trees-") as tmp:
            write_trees(Path(tmp), args.workers, args.seeds, args.horizon)
            lines = manifest(Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
