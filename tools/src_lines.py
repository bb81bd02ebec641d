"""Count non-blank code, docstring and comment lines of the Python sources.

Usage: ``python tools/src_lines.py [DIR ...]`` (default ``src``).  Prints
one row per ``.py`` file under each directory, then the total.  A
docstring line is a line of the leading string constant of a module,
class or function; a comment line is one whose first non-blank character
is ``#``; every other non-blank line is code.
"""

import ast
import sys
from pathlib import Path


def split(source):
    """``(code, docstring, comment)`` counts of the non-blank lines of
    ``source``."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    counts = [0, 0, 0]
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if number in doc:
            counts[1] += 1
        elif text.startswith("#"):
            counts[2] += 1
        else:
            counts[0] += 1
    return tuple(counts)


def main(argv):
    roots = [Path(a) for a in argv] or [Path("src")]
    files = sorted(p for root in roots for p in root.rglob("*.py"))
    total = [0, 0, 0]
    print(f"{'code':>6} {'doc':>6} {'comment':>7}  file")
    for path in files:
        counts = split(path.read_text(encoding="utf-8"))
        total = [t + c for t, c in zip(total, counts)]
        print(f"{counts[0]:>6} {counts[1]:>6} {counts[2]:>7}  {path}")
    print(f"{total[0]:>6} {total[1]:>6} {total[2]:>7}  total "
          f"({sum(total)} non-blank)")


if __name__ == "__main__":
    main(sys.argv[1:])
