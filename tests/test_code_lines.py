"""``tools/code_lines.py``, which gives every code-line count of the
package, on a package written here: docstrings, comment-only lines and
blank lines do not count, and every line of any other string does."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 5 code lines: the import, the def, the class and TABLE's two lines
DOCUMENTED = '''"""The module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


# a comment-only line
def f():
    """A function docstring."""


class C:
    """A class docstring,
    over two lines."""

TABLE = """not a docstring:
every line counts"""
'''


def _run(*argv):
    return subprocess.run([sys.executable, str(TOOL), *map(str, argv)],
                          capture_output=True, text=True, timeout=60)


def test_counts_code_lines_per_module_and_the_total(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "documented.py").write_text(DOCUMENTED)
    (tmp_path / "sub" / "one.py").write_text("x = 1\n")
    proc = _run(tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "      5  documented.py",
        "      1  sub/one.py",
        "      6  total",
    ]


def test_wrong_usage_exits_2(tmp_path):
    for argv in ((), (tmp_path, tmp_path)):
        proc = _run(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage:")
