"""Count the lines of ``src/compresslab/*.py`` two ways, per file and in total.

    python tools/code_lines.py [ROOT]

ROOT is a checkout holding ``src/compresslab`` (default: this repository).
The first column is ``wc -l``'s count.  The second counts code lines: lines
holding a token other than a comment or whitespace, leaving out every line
of a module, class or function docstring (``tokenize`` + ``ast``).  So a
deletion of code and a trim of prose can be told apart.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token other than a comment, a docstring or whitespace."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, "src", "compresslab", "*.py")))
    if not paths:
        print(f"no src/compresslab/*.py under {root}", file=sys.stderr)
        return 2
    total_wc = total_code = 0
    print(f"{'wc -l':>7} {'code':>6}  file")
    for path in paths:
        with open(path) as f:
            source = f.read()
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{wc:7d} {code:6d}  {os.path.relpath(path, root)}")
    print(f"{total_wc:7d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
