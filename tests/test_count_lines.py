"""tools/count_lines.py: which lines of a module count as code."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"

# Seven code lines: the import, the def, the two lines of the sum, the two
# lines of the string that is assigned, and the return.
FIXTURE = '''"""A module docstring
over two lines."""

import math  # a comment after code

# a comment line


def f(x):
    """A function docstring."""
    total = (x +
             math.pi)
    text = """a string that is
not a docstring"""
    return total, text
'''


def test_count_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "comments.py").write_text("# only a comment\n\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "comments.py 0\nfixture.py 7\ntotal 7\n"
