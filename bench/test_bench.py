"""Smoke tests of the benchmark: small inputs, one-second runs.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "B", "ratio"}


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = _bench(workload, trace=0)
    result = _result(proc)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate = 0/" in proc.stdout
    assert "false_transfer_rate = " in proc.stdout
    assert "job_s.tail is p" in proc.stdout
    assert "OpenBLAS threads" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_and_counts_repeat(workload):
    first, second = (_result(_bench(workload, trace=1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(first) == expected and _units(second) == expected
    counts = {name for name, unit in expected.items() if unit in COUNT_UNITS}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("wide_mixed", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generator_is_seeded():
    a, b = (workloads.generate("wide_mixed", 7, smoke=True)[0] for _ in range(2))
    c = workloads.generate("wide_mixed", 8, smoke=True)[0]
    assert np.array_equal(a.target, b.target) and np.array_equal(a.ref, b.ref)
    assert not np.array_equal(a.target, c.target)
    assert set(a.kinds) == {workloads.PERIODIC, workloads.NOISE, workloads.CONSTANT}


def test_tail_is_the_eleventh_slowest():
    times = [float(i) for i in range(1, 41)]
    assert run.tail(times) == (30.0, 75.0, 10)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0, 0)


@pytest.fixture
def finished_job(tmp_path):
    sys.path.insert(0, str(run.SRC))
    spec = run.build_specs("io_filtered", 5, True, tmp_path)[0]
    run.run_job(spec)
    return spec


def test_check_accepts_the_program_output(finished_job):
    scores = run.check_output(finished_job)
    assert len(scores.gains) == 2 and all(0 < g < 1 for g in scores.gains)


def test_check_rejects_an_altered_passthrough_channel(finished_job):
    names, values = workloads.read_table(finished_job.out)
    c = next(i for i, name in enumerate(names) if name not in finished_job.selected)
    values[0, c] += 1e-3
    workloads.write_table(finished_job.out, names, values)
    with pytest.raises(run.JobFailed, match="values changed"):
        run.check_output(finished_job)


def test_check_rejects_a_skipped_periodic_channel(finished_job):
    report = json.loads(finished_job.report.read_text())
    name = sorted(finished_job.selected)[0]
    report[name]["status"] = run.SKIPPED
    finished_job.report.write_text(json.dumps(report))
    with pytest.raises(run.JobFailed, match="status skipped_no_seasonality"):
        run.check_output(finished_job)


def test_speed_scales_by_the_kernel_times_around_an_interval(monkeypatch):
    kernel_times = iter([0.04, 0.02, 0.01])
    monkeypatch.setattr(run.calibration, "kernel_seconds", lambda: next(kernel_times))
    monkeypatch.setattr(run.calibration, "REFERENCE_S", 0.02)
    speed = run.Speed()
    assert speed.scale(3.0) == pytest.approx(3.0 * 0.02 / 0.03)
    assert speed.scale(3.0) == pytest.approx(3.0 * 0.02 / 0.015)


def test_calibration_kernel_is_fixed_work():
    assert run.calibration.kernel() == run.calibration.kernel()
