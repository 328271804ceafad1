"""Smoke tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

from blt import cli, geometry, scales  # noqa: E402


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_harness(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--sizes", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_at_tiny_size(workload, trace):
    spec = benchmark_spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    result = run_harness(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] is covered once
        Span("c", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_tracer_restores_every_binding():
    original = geometry.grid_polygon_mass
    with Tracer() as tracer:
        assert scales.grid_polygon_mass is not original
        assert scales.grid_polygon_mass.__wrapped__ is original
    assert scales.grid_polygon_mass is original
    assert geometry.grid_polygon_mass is original
    assert tracer.spans == []


def linear_reports(tmp_path):
    rnd = workloads.linear_round(5, 0, str(tmp_path), workloads.TINY)
    reports = []
    for k, call in enumerate(rnd.calls):
        out = str(tmp_path / f"report-{k}.json")
        code = cli.main(call.argv + ["--output", out])
        checker.check_report(call, code, out)
        reports.append((call, code, out))
    return reports


def rewrite(path: str, **changes) -> None:
    with open(path) as fh:
        report = json.load(fh)
    report["result"].update(changes)
    with open(path, "w") as fh:
        json.dump(report, fh)


def test_checker_rejects_perturbed_reports(tmp_path):
    (ball, ball_code, ball_out), (search, search_code, search_out), *_ = linear_reports(tmp_path)
    with pytest.raises(checker.CheckError):
        checker.check_report(ball, 2, ball_out)
    rewrite(ball_out, flag="inconclusive")
    with pytest.raises(checker.CheckError):
        checker.check_report(ball, ball_code, ball_out)
    with open(search_out) as fh:
        estimate = json.load(fh)["result"]["estimate"]
    rewrite(search_out, estimate=estimate * 0.98)
    with pytest.raises(checker.CheckError):
        checker.check_report(search, search_code, search_out)


def test_reference_comparison_flags_drift():
    stored = {"ball-check": {"lhs": 1.0, "slack": 0.05}}
    close = {"ball-check": {"lhs": 1.0 + 1e-13, "slack": 0.05}}
    assert checker.compare_references(stored, close) == []
    drifted = {"ball-check": {"lhs": 1.0 + 1e-6, "slack": 0.05}}
    problems = checker.compare_references(stored, drifted)
    assert len(problems) == 1 and "lhs" in problems[0]


def test_references_cover_every_workload_command():
    stored = checker.load_references()
    for name, workload in workloads.WORKLOADS.items():
        assert set(stored[name]) == {workload.primary, workload.secondary}
