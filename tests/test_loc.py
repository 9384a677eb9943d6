"""``tools/loc.py``, the library-size counter CI prints for every PR."""

import subprocess
import sys
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

# 2 module docstring lines, 1 class docstring line, 3 code lines; the
# comment line and the blank line are not counted.
FIXTURE = '''"""A module
docstring."""
# a comment line

import os
class Counted:
    """A class docstring."""
    size = len(os.sep)
'''


def test_counts_code_and_docstring_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(LOC), str(path)], capture_output=True, text=True, check=True
    ).stdout
    assert out == (
        f"    6 lines     3 code     3 docstring {path}\n"
        "    6 lines     3 code     3 docstring total\n"
    )
