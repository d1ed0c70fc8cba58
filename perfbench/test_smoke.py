"""Smoke tests of the benchmark on tiny configs (a few seconds each).

    python3 -m pytest perfbench/test_smoke.py

They run the real CLI through the real harness and prove that the
correctness gates bite: a corrupted output row and a failed invocation both
raise fail_rate.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import Bath, Dense, count_failures  # noqa: E402


def tiny(name):
    return {
        "dense": lambda: Dense(0, n=3, count=3),
        "bath": lambda: Bath(0, n=2, taus=3, ohmicities=(2.0,), temps=(0.5,)),
    }[name]()


# A value column per workload that its gate checks on every row.
CHECKED_COLUMN = {"dense": "noiseless_fidelity", "bath": "chi"}


@pytest.fixture(autouse=True)
def few_samples(monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


def fail_rate(result):
    return result["failed"] / result["attempted"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_seed_moves_inputs_but_not_sizes():
    a, b = Bath(1), Bath(2)
    assert a.taus != b.taus and len(a.taus) == len(b.taus) == 21
    assert Dense(1).argv() != Dense(2).argv()
    assert Dense(1).argv() == Dense(1).argv() and 1.0 in Dense(1).gammas


@pytest.mark.parametrize("name", ["dense", "bath"])
def test_tiny_workload_passes_and_corruption_is_caught(name, monkeypatch):
    workload = tiny(name)
    clean = run.measure(workload, seconds=0, trace=False)
    assert clean["failed"] == 0
    assert clean["metrics"]["pass_rate"]["value"] == 1.0
    assert set(clean["metrics"]) == set(run.END_TO_END)

    column = workload.header.index(CHECKED_COLUMN[name])
    read = run.read_output

    def corrupt_row_2(path):
        lines = read(path).splitlines()
        cells = lines[2].split(",")
        cells[column] = repr(float(cells[column]) * (1 + 1e-6) + 1e-9)
        lines[2] = ",".join(cells)
        return "\n".join(lines) + "\n"

    monkeypatch.setattr(run, "read_output", corrupt_row_2)
    bad = run.measure(workload, seconds=0, trace=False)
    assert bad["failed"] == 1
    assert fail_rate(bad) > 0.0
    assert bad["metrics"]["pass_rate"]["value"] < 1.0


def test_failed_invocation_fails_every_row():
    workload = tiny("bath")
    assert count_failures(workload, None)[0] == workload.expected_rows
    header = ",".join(workload.header) + "\n"
    assert count_failures(workload, header)[0] == workload.expected_rows


def test_traced_run_reports_every_layer_metric():
    dense = run.measure(tiny("dense"), seconds=0, trace=True)
    metrics = {k: m["value"] for k, m in dense["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["cli.main.self_s"] > 0.0
    assert metrics["linops.max_dim"] == 2 ** (3 + 1)
    assert metrics["povm.pgm.calls"] == 3 + 1  # adapted per gamma + noiseless
    assert metrics["povm.pgm.self_s"] < metrics["povm.pgm.s"]

    bath = run.measure(tiny("bath"), seconds=0, trace=True)
    metrics = {k: m["value"] for k, m in bath["metrics"].items()}
    assert metrics["spinboson.decoherence_factor.calls_per_point"] == 2  # two POVM modes
    assert metrics["spinboson.phase.calls_per_distinct"] == 2
    assert metrics["spinboson.chi.calls"] == 3 * 2  # three taus, two modes
    assert metrics["closedform.f_ih.calls_per_n"] == 3  # three points, one N
    assert metrics["linops.max_dim"] == 2 ** (2 + 1)


def test_without_package_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
