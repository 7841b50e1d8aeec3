"""Lines of code in Python files, without docstrings, comments or blank lines.

    python tests/tools/srclines.py [FILE ...]

counts src/friendlab/*.py when no file is given, and prints each file's
count and then the total, as `wc -l` does.  A line counts when a token
other than a comment or a line break lies on it outside a docstring (the
first statement of a module, class or function, when it is a string); a
token over several lines counts on each.  Standard library only; a record
beside `wc -l`, not a gate.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[2]
    paths = [Path(a) for a in argv] or sorted((root / "src" / "friendlab").glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:8d} {os.path.relpath(path)}")
    print(f"{total:8d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
