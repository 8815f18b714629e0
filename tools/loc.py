"""Count lines of Python source: physical lines and code lines per file, and
in total.

A code line holds at least one token that is neither a comment nor part of
a docstring (the string a module, class or function body starts with).
Blank lines, comment lines and docstring lines are not code lines.

Usage: python3 tools/loc.py [path ...]   (default: src)
A path is a ``.py`` file or a directory searched for them.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

# Tokens that are layout or comment, not code.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.AST) -> set:
    """The (line, column) each docstring of ``tree`` starts at."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count(text: str) -> tuple:
    """(physical lines, code lines) of the Python source ``text``."""
    docstrings = _docstring_starts(ast.parse(text))
    code: set = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def sources(paths) -> list:
    files = []
    for path in map(pathlib.Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv) -> int:
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  file")
    for path in sources(argv or ["src"]):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{lines:>7} {code:>7}  {path}")
    print(f"{total_lines:>7} {total_code:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
