"""Smoke tests of the benchmark itself, at tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("serve_live", "durable_recover")


def bench(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    human = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]), (
            name, human)
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "workloads.py", "querymix.py", "spans.py", "hostspeed.py"):
        (copy / name).write_text(open(os.path.join(BENCH, name), encoding="utf-8").read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "durable_recover", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_gate_trips_on_a_corrupted_reference(workload, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "reference_digest", lambda _workload: "0" * 64)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny"])
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False
    # Every cycle is gated, not only the last one.
    cycles = workloads.SIZES["tiny"][workload].cycles or 1
    for cycle in range(cycles):
        assert f"GATE FAILED: cycle {cycle}: cloud digest" in captured.err


def tiny_durable_run(tmp_path):
    params = workloads.SIZES["tiny"]["durable_recover"]
    workload = workloads.horizon(params, 3, 1.0, "durable_recover")
    inputs = workloads.setup(workload)
    inputs.reference = workloads.reference_digest(workload)
    result = workloads.durable_recover(inputs, params, 0.2, state_root=str(tmp_path))
    return inputs, params, result


@pytest.mark.parametrize("reference", ["digest", "answers"])
def test_recovered_gates_trip_on_a_corrupted_pre_crash_reference(tmp_path, reference):
    inputs, params, result = tiny_durable_run(tmp_path)
    try:
        assert result.problems == [] and not result.failures
        assert workloads.check("durable_recover", inputs, params, result) == []
        corrupted = "0" * 64
        result.before_crash[reference] = (
            corrupted if reference == "digest" else [corrupted] + result.before_crash[reference][1:]
        )
        problems = workloads.check("durable_recover", inputs, params, result)
        assert any(reference in problem for problem in problems), problems
    finally:
        workloads.close(result)


def test_conservation_gate_trips_on_a_corrupted_ledger():
    params = workloads.SIZES["tiny"]["durable_recover"]
    workload = workloads.horizon(params, 3, 1.0, "durable_recover")
    inputs = workloads.setup(workload)
    health = workloads.run_workload(workload, transport="direct").health()
    assert workloads.conservation_problems(health, inputs.readings) == []
    assert workloads.conservation_problems(health, inputs.readings + 1)
    health["conservation"]["total_counted_losses"] = 1
    assert workloads.conservation_problems(health, inputs.readings)
