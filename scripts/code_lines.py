#!/usr/bin/env python3
"""Code lines of the library, per file and in total.

    python3 scripts/code_lines.py

A code line of `src/regcover/*.py` is a line that holds a token of code:
blank lines, comment lines and the lines of docstrings (the string that
opens a module, class or function body) are left out.  Tokens come from
`tokenize`, so a string or bracket spanning several lines counts each of
them, and docstrings are found with `ast`.
"""

import ast
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "regcover"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path):
    """The number of code lines of the Python file at `path`."""
    with open(path, "rb") as fh:
        lines = set()
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:16} {n:6,}")
    print(f"{'total':16} {total:6,}")


if __name__ == "__main__":
    main()
