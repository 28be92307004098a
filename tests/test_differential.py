"""Tests of tools/differential.py: a revision matches itself, and a report
mismatch is summarized per float field."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _in_git_checkout() -> bool:
    try:
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True)
    except OSError:
        return False
    return probe.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a commit")
def test_differential_head_against_itself_has_no_mismatch():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "differential.py"), "HEAD", "HEAD", "--match", "n17/default"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "14 cases, 0 mismatches between HEAD and HEAD"


def _differential():
    spec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_float_differences_summarize_each_float_field():
    base = {
        "a": {"reference_period": 16.0, "acf": [1.0, 0.5, -0.25], "spectrum": [0.0, 4.0], "mean_factor": None},
        "b": {"reference_period": 8.0, "acf": [1.0, 0.2], "spectrum": [2.0], "mean_factor": [0.5, -0.5]},
        "c": {"status": "passthrough"},
    }
    head = json.loads(json.dumps(base))
    head["a"]["acf"][2] = -0.5
    head["b"]["reference_period"] = 8.5
    head["b"]["mean_factor"].append(0.1)  # one more interval: two shapes
    head["c"]["acf"] = [1.0]  # held in one report only
    summarize = _differential().float_differences
    tail = "channels held in one report only or in two shapes"
    assert summarize(json.dumps(base).encode(), json.dumps(head).encode()) == [
        f"acf: largest difference 0.25 absolute, 0.25 of the field's largest magnitude 1, 0.5 of its own element; 1 {tail}",
        f"mean_factor: largest difference 0 absolute, - of the field's largest magnitude 0, 0 of its own element; 1 {tail}",
        "reference_period: largest difference 0.5 absolute, 0.0312 of the field's largest magnitude 16, "
        f"0.0588 of its own element; 0 {tail}",
    ]
    assert summarize(json.dumps(base).encode(), json.dumps(base).encode()) == []
    assert summarize(b"frame,a\n0,1\n", b"frame,a\n0,2\n") == []
