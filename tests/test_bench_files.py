"""Every BENCH_*.json at the repository root holds the raw perfbench runs
behind a speed claim, as perfbench printed them: the file parses, every run
is correct, its metric names and units are BENCHMARK.json's, each run's
source is the parent's or the change's as its tag says, and the runs of a
workload and seed come in pairs of one parent and one change run, in the
order they ran.
"""

import copy
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# the metrics a run reports: end to end with --trace 0, per layer with --trace 1
METRICS = {trace: {m["name"]: m["unit"] for m in DECLARED[key]} for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
TAGS = ("parent", "change")


def bench_problems(bench):
    """What is wrong with one parsed BENCH file, one message each."""
    problems = []
    sources = {tag: bench[f"{tag}_src_sha256"] for tag in TAGS}
    if sources["parent"] == sources["change"]:
        problems.append("the parent and the change have the same source")
    for group in bench["groups"]:
        where = f"{group['workload']} seed {group['seed']} trace {group['trace']}"
        tags = [run["tag"] for run in group["runs"]]
        if not tags or len(tags) % 2 or any({a, b} != set(TAGS) for a, b in zip(tags[::2], tags[1::2])):
            problems.append(f"{where}: runs are not pairs of one parent and one change run: {tags}")
        declared = METRICS[group["trace"]]
        for i, run in enumerate(group["runs"]):
            result = run["result"]
            if result["correct"] is not True:
                problems.append(f"{where} run {i}: not correct")
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if units != declared:
                problems.append(f"{where} run {i}: metrics {units} are not BENCHMARK.json's")
            if run["env"]["src_sha256"] != sources.get(run["tag"]):
                problems.append(f"{where} run {i}: source {run['env']['src_sha256']} is not the {run['tag']}'s")
    return problems


def test_a_bench_file_exists():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file(path):
    assert bench_problems(json.loads(path.read_text())) == []


def _run(tag, value):
    metrics = {name: {"value": value, "unit": unit} for name, unit in METRICS[0].items()}
    return {
        "tag": tag,
        "env": {"src_sha256": f"{tag}-source"},
        "result": {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics},
    }


def _bench():
    runs = [_run("parent", 1.0), _run("change", 0.9), _run("change", 0.9), _run("parent", 1.0)]
    return {
        "parent_src_sha256": "parent-source",
        "change_src_sha256": "change-source",
        "groups": [{"workload": "symmetry", "seed": 1, "trace": 0, "runs": runs}],
    }


def _broken(edit):
    bench = copy.deepcopy(_bench())
    edit(bench, bench["groups"][0]["runs"])
    return bench


@pytest.mark.parametrize(
    "edit",
    [
        lambda b, runs: runs[1].update(tag="parent"),
        lambda b, runs: runs.pop(),
        lambda b, runs: runs.clear(),
        lambda b, runs: runs[2]["result"].update(correct=False),
        lambda b, runs: runs[0]["result"]["metrics"]["solve_s"].update(unit="ms"),
        lambda b, runs: runs[0]["result"]["metrics"].pop("peak_rss_mb"),
        lambda b, runs: runs[3]["result"]["metrics"].update(speedup={"value": 2.0, "unit": "ratio"}),
        lambda b, runs: runs[1]["env"].update(src_sha256="parent-source"),
        lambda b, runs: b.update(change_src_sha256="parent-source"),
    ],
    ids=["two-parents", "odd-count", "no-runs", "incorrect", "unit", "missing", "extra", "mislabelled", "same-source"],
)
def test_checker_catches(edit):
    assert bench_problems(_bench()) == []
    assert bench_problems(_broken(edit))
