"""Count the code lines of every Python module under a directory.

A code line is a physical line that holds part of a token other than a
comment, and that is not part of a docstring: the string statement that
opens a module, class or function body (``ast``).  A string token that
spans several lines counts every line it spans.  Blank lines and
comment-only lines hold no such token (``tokenize``).

    python tools/code_lines.py src/kiselman

prints one line per module, sorted by its count, largest first, then the
total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    counts = {str(p.relative_to(root)): code_lines(p) for p in sorted(root.rglob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:>7,}  {name}")
    print(f"{sum(counts.values()):>7,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
