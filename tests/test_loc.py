"""tools/loc.py: each source line is counted once, as code, comment and docstring, or blank."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

SOURCE = '''"""A module docstring.

Its blank line is blank.
"""

# a comment line
X = 1  # code with a comment


def f():
    """One line."""
    text = """not a docstring:

    a string of code"""
    return text
'''


def test_each_line_is_counted_once_by_its_class(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("Y = 2\n")
    res = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # code: X, def, the two lines of `text` with text, return, and Y; docstring
    # and comment: 3 + 1 and the comment line; blank: 3 between statements and
    # one in each multi-line string
    assert res.stdout == (f"{tmp_path / 'pkg'}: 16 lines: 6 code, 5 comment and docstring,"
                          " 5 blank\n")
