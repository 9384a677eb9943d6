"""``tools/sweep_layers.py``, the per-step timer of a sweep game, at a tiny
size."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_layers.py"

STEPS = [
    "generation", "_symmetric_game", "build_report", "is_symmetric", "_best_diagonal", "_rational_mask",
    "_iterate", "hofstadter-rationalizable", "hofstadter-individually-rational",
    "ir-survives-round-1", "_check_game", "sweep()",
]


def test_prints_every_step(tmp_path):
    out = subprocess.run(
        [sys.executable, str(TOOL), "--reps", "1", "--pool", "2", "--games", "4"],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    ).stdout.splitlines()
    assert out[0].startswith("sweep-2p-shaped games: 2 seeds x 4 games, min of 1 reps")
    assert [line[:34].strip() for line in out[1:]] == STEPS
    for line in out[1:]:
        least, median, greatest, share = line[34:].split()
        assert 0 < float(least) <= float(median) <= float(greatest)
    assert out[-1].endswith("100.0%")
