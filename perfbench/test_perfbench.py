"""Smoke test of the benchmark: every workload at reduced size.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], out.stderr
    assert res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counters = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {k: first["metrics"][k]["value"] for k in counters} == {k: second["metrics"][k]["value"] for k in counters}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""
