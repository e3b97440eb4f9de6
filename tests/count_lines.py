"""Count the lines of the ngonspiral package: total, code, docstring,
comment and blank.

Each line of each module under ``src/ngonspiral`` falls in one class: a
blank line holds only whitespace (inside a docstring too), any other line
of the docstring of a module, class or function (found with ``ast``) is a
docstring line, a line with a token of code (found with ``tokenize``) is
code, and the rest are comment lines.  Give a package directory or a
module to count something else:

    python tests/count_lines.py [PATH]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")


def docstring_lines(source: str) -> set[int]:
    """Line numbers (from 1) of every docstring in ``source``."""
    lines: set[int] = set()
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, owners) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The lines of one module's ``source`` by class, and their total."""
    docs = docstring_lines(source)
    code: set[int] = set()
    layout = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(CLASSES, 0)
    lines = source.splitlines()
    for number, line in enumerate(lines, 1):
        if not line.strip():
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        else:
            counts["comment"] += 1
    counts["total"] = len(lines)
    return counts


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ngonspiral"


def count_package(root: Path) -> dict[str, int]:
    """The summed counts of the module ``root``, or of every ``*.py`` file
    under the directory ``root``."""
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    if not paths:
        raise SystemExit(f"no Python files at {root}")
    totals = dict.fromkeys(("total",) + CLASSES, 0)
    for path in paths:
        for key, value in count(path.read_text()).items():
            totals[key] += value
    return totals


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else PACKAGE
    totals = count_package(root)
    print(f"{root}: {totals['total']:,} lines, of which " +
          ", ".join(f"{totals[key]:,} {key}" for key in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
