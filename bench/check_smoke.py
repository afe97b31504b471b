"""Tests of the benchmark itself.  Not collected by the project's test run
(the file name does not match ``test_*.py``); run them explicitly from the
root of a checkout:

    python3 -m pytest -q bench/check_smoke.py

Smoke mode runs every workload on tiny inputs, so these take about a minute;
``test_sanity_counters`` replays the full verify round once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_workload_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        for m in declared:
            assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                       for line in proc.stdout.splitlines()), m["name"]
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # The layers' self times account for the traced wall time, within
        # the tracing overhead.
        assert any(line.startswith("# accounting: ok:") for line in proc.stdout.splitlines()), \
            proc.stdout


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "results"))
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "20", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_covers_every_op_a_seed_can_draw():
    reference = checks.load_reference()
    assert {op["key"] for op in workloads.catalogue()} <= set(reference)


def test_op_lists_depend_only_on_seed_and_seconds():
    for w in workloads.WORKLOADS:
        a = workloads.generate(w, 5, 20)
        assert a == workloads.generate(w, 5, 20)
        assert len(a) == len(workloads.generate(w, 6, 20))
    assert workloads.generate("range-sweep", 5, 20) != workloads.generate("range-sweep", 6, 20)


def test_pooled_tail_is_highest_percentile_with_ten_beyond():
    assert compare.pooled_tail(list(range(1, 31))) == (20, pytest.approx(100 * 20 / 30), 10)
    assert compare.pooled_tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_sanity_counters():
    """Counts of the verify round at the seed commit, known beforehand."""
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "1")
    result = result_line(proc)
    assert result["correct"] is True
    sanity = dict(line[len("# sanity: "):].rsplit(" = ", 1)
                  for line in proc.stdout.splitlines() if line.startswith("# sanity: "))
    assert sanity == {
        "eigh calls in the inequalities suite": "21701",
        "eigvalsh calls in the inequalities suite": "3700",
        "hull builds": "16",
    }
