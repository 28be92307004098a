"""Smoke test of tools/differential.py: a revision matches itself."""

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
