"""Every demo script runs to completion against the library in src/, and
prints what it printed when its digest was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


# Each demo's one run in a session, shared by the two tests that read it.
_RUNS: dict[Path, subprocess.CompletedProcess] = {}


def _run(demo: Path) -> subprocess.CompletedProcess:
    if demo not in _RUNS:
        _RUNS[demo] = subprocess.run(
            [sys.executable, str(demo)],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            timeout=120,
        )
    return _RUNS[demo]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


# sha256 of each demo's stdout less its "elapsed:" lines, the one part of
# it that varies between runs; a demo added without a digest fails here.
DEMO_STDOUT = {
    "01_solution_concepts": "8601a7344d18412162027ad70076346409453809a39fcc80d080622d7a3e6eab",
    "02_iterated_elimination": "353b30f809f161c87c0704ec21a0547d9c7a976007bc4fb1b64e3d95d831b239",
    "03_random_sweeps": "119270c5383bc23dfee89d1c012c8988b1a5fc6e23f1e36514b728c8ba1bd14b",
    "04_files_and_reports": "dcf05dfd3dadb253ca93bf47978a4bd3f3490792fab9a61b6b383ea392a35572",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_is_pinned(demo):
    proc = _run(demo)
    proc.check_returncode()
    kept = b"".join(
        line for line in proc.stdout.splitlines(keepends=True) if not line.startswith(b"elapsed:")
    )
    assert hashlib.sha256(kept).hexdigest() == DEMO_STDOUT[demo.stem]
