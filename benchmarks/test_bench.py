"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_bench.py

Runs the launcher end to end on every workload, traced and untraced, and
checks in-process that a corrupted golden hash or an over-budget drift
shows up in the failure count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "0.5",
         *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed(lines, name):
    """The value of a ``metric <name> = <value> <unit>`` line, and its unit."""
    for line in lines:
        if line.startswith(f"metric {name} = "):
            value, unit = line.split(" = ", 1)[1].split()[:2]
            return float(value), unit
    raise AssertionError(f"metric {name} not printed")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = run_bench("--workload", workload, "--seed", "3",
                              "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert printed(lines, m["name"])[1] == m["unit"]
        if not trace:
            assert reported["value"] > 0
    if not trace:
        assert printed(lines, "fail_ratio") == (0.0, "1")
        assert printed(lines, "drift_max")[0] > 0


def run_pass_in_process(workload, tmp_path, golden=None, drift_budget=None):
    """One pass of a tiny workload in this process; returns its Runner."""
    sys.path.insert(0, str(HERE))
    import worker

    worker.import_package()
    import workloads

    if golden is None:
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    if drift_budget is None:
        drift_budget = workloads.DRIFT_BUDGET
    ops = workloads.build(workload, 0, "tiny", ROOT, tmp_path, golden, drift_budget)
    runner = worker.Runner(ops, worker.SpeedMeter())
    runner.run_pass()
    return runner


def test_corrupted_golden_hash_counts_as_failed(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    artifact = sorted(golden["single_mode_cubic"])[0]
    golden["single_mode_cubic"][artifact] = "0" * 64
    runner = run_pass_in_process("scenarios", tmp_path, golden=golden)
    assert runner.failed / runner.attempted > 0
    assert runner.hard_failed >= 1  # the run is reported as incorrect
    assert any("differ from golden" in m for m in runner.messages)


def test_drift_over_budget_counts_as_failed(tmp_path):
    runner = run_pass_in_process("sweep", tmp_path, drift_budget=1e-30)
    assert runner.failed / runner.attempted > 0
    # the drift budget is the one check that does not make a run incorrect
    assert runner.hard_failed == 0
    assert any("drift" in m for m in runner.messages)
