"""Count the code lines of a Python package, module by module.

A code line is a line that holds a token other than a comment, minus the
lines of expression statements that are a bare string constant (docstrings
and other string literals standing alone). Blank lines, comment lines and
docstring lines therefore do not count; a string that spans lines inside an
expression counts every line it spans.

Usage::

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/queueloss`` next to this directory. Prints one
``module lines`` row per module, sorted by name, then ``total lines``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code: layout, comments and the file's frame.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file ``path``."""
    source = path.read_bytes()
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "queueloss"
    counts = {path.stem: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name} {n}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
