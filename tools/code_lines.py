"""Count the code lines of each module of the titlerec package.

A code line is a line that is not blank, holds more than a comment and lies
outside every docstring (a module's, a class's or a function's). Lines of
other strings count. Run from the repository root:

    python tools/code_lines.py [package directory, default src/titlerec]

It prints one ``<lines>  <module>`` row per module and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that make no line code on their own
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring in ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    text = source.splitlines()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    lines -= docstring_lines(ast.parse(source))
    return sum(1 for line in lines if text[line - 1].strip())


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/titlerec")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
