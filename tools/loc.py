"""Total and code-only line counts of Python sources.

    python3 tools/loc.py            # src/ellu2
    python3 tools/loc.py PATH ...   # files, or directories searched for *.py

Code-only lines are those that are not blank, not comment-only and not part
of a docstring (the first statement of a module, class or function, when it
is a string literal).  One line per file, then the total over all of them.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def counts(source: str) -> tuple[int, int]:
    """(total lines, code-only lines) of one Python source."""
    lines = source.splitlines()
    skip = {i for i, line in enumerate(lines, 1) if not line.strip()}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), len(code - skip)


def sources(paths: list[Path]) -> list[Path]:
    out = []
    for path in paths:
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "ellu2"])
    args = ap.parse_args(argv)
    total = code = 0
    for path in sources(args.paths):
        n, c = counts(path.read_text(encoding="utf-8"))
        total, code = total + n, code + c
        print(f"{n:7d} {c:7d}  {os.path.relpath(path)}")
    print(f"{total:7d} {code:7d}  total (lines, code-only)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
