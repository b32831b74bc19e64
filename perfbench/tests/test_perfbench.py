"""Tests of the benchmark itself: span arithmetic, hooks and a smoke run.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # id: (start, end, parent); listed out of start order on purpose
    spans = {
        0: (0.0, 10.0, -1),
        1: (3.0, 6.0, 0),   # overlaps span 2: the union 1..6 counts once
        2: (1.0, 4.0, 0),
        3: (1.5, 2.5, 2),
        4: (9.0, 12.0, 0),  # sticks out of its parent: only 9..10 counts
        5: (20.0, 21.0, -1),
    }
    starts, ends, parents = (np.array([spans[i][k] for i in sorted(spans)])
                             for k in range(3))
    own = tracer.self_times(starts, ends, parents)
    assert own.tolist() == pytest.approx([4.0, 3.0, 2.0, 1.0, 3.0, 1.0])


def test_self_times_of_nested_calls_add_up_to_the_root():
    import lobsim.experiments as experiments

    t = tracer.Tracer().install()
    try:
        scenario = workloads.get("rt120_kurtosis", "smoke", ROOT).scenario(3)
        experiments.run_scenario(scenario, workers=1)
    finally:
        t.uninstall()
    starts, ends = np.asarray(t.starts), np.asarray(t.ends)
    parents = np.asarray(t.parents)
    own = tracer.self_times(starts, ends, parents)
    roots = parents < 0
    assert roots.sum() == 1
    assert own.sum() == pytest.approx((ends - starts)[roots].sum(), rel=1e-9)
    assert np.all(own >= -1e-9)


def test_uninstall_restores_every_hooked_attribute():
    before = {(o, a): vars(tracer.resolve(o))[a] for _, o, a in tracer.HOOKS}
    t = tracer.Tracer().install()
    assert t.missing_hooks == []
    t.uninstall()
    after = {(o, a): vars(tracer.resolve(o))[a] for _, o, a in tracer.HOOKS}
    assert after == before


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.missing_hooks"] == 0
    assert m["agents.act_calls"] == m["orderbook.submit_calls"] > 0
    # each workload reaches the layers it was chosen for, and only those
    assert (m["orderbook.snapshot_calls"] > 0) == (workload != "rt120_kurtosis")
    assert (m["impact.walks"] > 0) == (workload == "big1200_impact")
    assert (m["experiments.csv_files"] > 0) == (workload == "sweep_csv")
    assert (m["simulator.calibrate_probe_runs"] > 0) == (workload == "sweep_csv")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "rt120_kurtosis", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
