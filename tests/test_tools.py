import subprocess
import sys
from pathlib import Path

SRC_LINES = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

SAMPLE = '''"""Module docstring.

Its second line.
"""
# a comment
import os  # a trailing comment leaves a code line


def f():
    """A one-line docstring."""
    # a comment inside
    return os.sep


class C:
    """A class docstring
    on two lines."""

    x = """a string that is
    no docstring"""
'''


def test_src_lines_splits_code_docstrings_and_comments(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "empty.py").write_text("\n")
    out = subprocess.run(
        [sys.executable, str(SRC_LINES), str(tmp_path / "pkg")],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    rows = {line.split()[-1]: line.split()[:3] for line in out[1:-1]}
    assert rows[str(tmp_path / "pkg" / "sample.py")] == ["6", "6", "2"]
    assert rows[str(tmp_path / "pkg" / "empty.py")] == ["0", "0", "0"]
    assert out[-1].split()[:5] == ["6", "6", "2", "total", "(14"]
