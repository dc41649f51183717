"""Smoke test of the benchmark: every workload at about N = 60, untraced
and traced, plus the refusal to run without the package.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def record(workload, trace):
    path = ROOT / ".bench_work" / f"BENCH_{workload}_seed1_trace{trace}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def results():
    """{(workload, trace): parsed last line} of one smoke run each."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_follows_the_spec(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced(results, workload):
    untraced, traced = record(workload, 0), record(workload, 1)
    for key in ("rel_err", "iterations"):
        assert traced["end_to_end"][key] == untraced["end_to_end"][key]
    assert results[workload, 1]["metrics"]["solvers.iterations"]["value"] \
        == untraced["end_to_end"]["iterations"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_the_traced_pass(results, workload):
    rec = record(workload, 1)
    run = rec["per_layer_phases"]["run"]
    total = sum(v for k, v in run.items() if k.endswith(".self_s"))
    total += rec["per_layer"]["trace.untraced_s"]
    assert total == pytest.approx(statistics.mean(rec["traced_run_samples"]),
                                  rel=1e-9)
    assert rec["per_layer"]["trace.untraced_s"] >= 0


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_work" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
