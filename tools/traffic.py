"""The functions of ``src/ellu2`` that no traffic executes.

    PYTHONPATH=src python3 tools/traffic.py

Traffic is what the program is run for: two rounds of each benchmark
workload (``perfbench/workloads.py``, run in this process as
``perfbench/run.py`` runs them, with its ``DrawCounter`` installed), and
the CLI commands of ``COMMANDS`` (``run --suite all``, each ``check``
command and each ``eval`` command), their output discarded.  All of it runs
under a ``sys.settrace`` line tracer that records the lines executed in
``src/ellu2`` and nothing else.  It takes about 30 s on a 2-core x86-64
machine, reports on stderr whether each round passed its checks and each
command's exit code, and writes nothing.

It prints the functions that no traffic calls, then the functions with at
least ``MISSED`` statements that no traffic executes, each with its missed
statement lines.  A function that no traffic calls is a candidate for
deletion, unless ``OFF_TRAFFIC`` names it with the reason it stays: a name
the benchmark's tracer binds (``perfbench/tracer.py``, pinned in
``tests/test_bench_contract.py``) or a helper of one, an error or
exact-zero path, or a seam that tests need.  The tool exits 1 if a
function no traffic calls is not listed, or if a listed one is gone or
called; else 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ellu2"
# Least number of unexecuted statements that lists a function that ran.
MISSED = 3
ROUNDS = 2
SEED = 20240
COMMANDS = [
    ["run", "--suite", "all"],
    ["check", "corep", "--N", "3", "--samples", "5"],
    ["check", "biorth", "--N", "4", "--M", "1", "--samples", "5"],
    ["check", "biorth", "--N", "4", "--M", "1", "--samples", "5", "--dual"],
    ["check", "bailey", "--n", "4", "--samples", "50", "--seed", "1"],
    ["check", "qdybe", "--samples", "100"],
    ["check", "relations", "--omega", "0.4-0.2i", "--lambda", "0.7+0.3i", "--samples", "10"],
    ["eval", "theta", "--z", "1", "--p", "0.1"],
    ["eval", "r-entries", "--z", "1", "--lambda", "0.3+0.1i"],
    ["eval", "pochhammer", "--a", "q^:2", "--n", "3"],
    ["eval", "omega", "--a1", "q^:1", "--upper", "0.9+0.2i,1.1,0.8-0.1i,1.2+0.3i,0.7,q^:9,q^:-2", "--slot", "6"],
    ["eval", "tau", "--N", "2", "--k", "1", "--j", "1", "--m", "2",
     "--omega", "0.4-0.2i", "--lambda", "0.7+0.3i", "--z", "1.3+0.4i"],
]
# Statements that run no code of their own, or whose line no event names.
_SILENT = (ast.Global, ast.Nonlocal, ast.Try)
_PINNED = "pinned by the benchmark's tracer"
# The functions no traffic calls on purpose, by file and qualified name,
# each with the reason it stays.
OFF_TRAFFIC = {
    "biorth.py norm_h": _PINNED,
    "biorth.py weight_w1": _PINNED,
    "biorth.py weight_w2": _PINNED,
    "biorth.py c_det_product": _PINNED,
    "biorth.py check_biorth": _PINNED,
    "biorth.py check_dual_biorth": _PINNED,
    "biorth.py _item": "the one item of a pinned one-item entry (norm_h, weight_w1, ...)",
    "biorth.py _check": "the report of the pinned check_biorth and check_dual_biorth",
    "biorth.py BiorthCache.__init__": "the cache of the pinned check_biorth; the tracer counts its hits",
    "biorth.py BiorthCache.get": _PINNED,
    "biorth.py BiorthReport.residual": "test seam: the worse of a report's sum and oracle residuals",
    "corep.py check_unitarity": _PINNED,
    "corep.py check_inversion_words": _PINNED,
    "corep.py _element_residual": "the one element of the pinned check_unitarity and check_inversion_words",
    "rep.py apply_word_scaled": _PINNED,
    "rep.py _rows_at": "the one-sample bind of the pinned corep checks; a test seam",
    "theta.py ThetaContext.conj": "test seam: tau_tilde_plan over numbers, the tests' tau_tilde_closed",
    "theta.py Factor.__neg__": "test seam: the faults that negate a value over records",
    "theta.py _same": "the finish of a known plan of many records, which the templates compile, not call",
    "theta.py _zeroed": "exact-zero path: a product whose exact zero survives, finished to 0",
    "words.py CoefficientFn.__repr__": "test seam: a coefficient's name in a failing assertion",
    "words.py AlgebraElement.__len__": "test seam: the number of terms of an element",
    "words.py bigrade": "test seam: the grading the word tests check",
}


class Function:
    """A function of a source file: its name, its first line as its code
    object gives it, and the lines of its own statements (a nested
    function's body is its own)."""

    def __init__(self, path: Path, qualname: str, node: ast.FunctionDef):
        self.path, self.qualname = path, qualname
        self.first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        self.lines: set[int] = set()
        todo = list(body)
        while todo:
            stmt = todo.pop()
            if not isinstance(stmt, _SILENT):
                self.lines.add(stmt.lineno)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    todo.append(child)
                elif isinstance(child, ast.excepthandler):
                    todo.extend(child.body)


def functions(path: Path) -> list[Function]:
    """Every function and method of the source at ``path``."""
    out = []

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                out.append(Function(path, name, child))
                walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


class LineTracer:
    """The lines executed in the package's files, and the first line of
    each code object of them called."""

    def __init__(self) -> None:
        self.prefix = str(PACKAGE) + "/"
        self.lines: set[tuple[str, int]] = set()
        self.calls: set[tuple[str, int]] = set()

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.calls.add((code.co_filename, code.co_firstlineno))
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line


def traffic() -> None:
    """Two rounds of each workload, then each command of ``COMMANDS``."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import ellu2  # noqa: F401  (loaded before the draw counter is installed)
    from calibrate import Clock
    from ellu2.cli import main
    from tracer import DrawCounter
    from workloads import WORKLOADS

    for name, make in WORKLOADS.items():
        draws = DrawCounter().install()
        try:
            workload = make(SEED, draws, Clock(rescale=False))
            for i in range(ROUNDS):
                errors = workload.round(i, workload.inputs(i)).errors
                print(f"{name} round {i}: {'; '.join(errors) or 'correct'}", file=sys.stderr)
        finally:
            draws.close()
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        print(f"ellu2 {' '.join(argv)}: exit {code}", file=sys.stderr)


def main() -> int:
    sys.dont_write_bytecode = True
    tracer = LineTracer()
    sys.settrace(tracer)
    try:
        traffic()
    finally:
        sys.settrace(None)
    uncalled, partial, unlisted, stale = [], [], [], dict(OFF_TRAFFIC)
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in functions(path):
            where = f"{path.relative_to(ROOT)}:{fn.first} {fn.qualname}"
            key = f"{path.name} {fn.qualname}"
            if (str(path), fn.first) not in tracer.calls:
                reason = stale.pop(key, None)
                uncalled.append(f"{where} ({len(fn.lines)} statements): {reason or 'NOT LISTED'}")
                if reason is None:
                    unlisted.append(where)
                continue
            missed = sorted(n for n in fn.lines if (str(path), n) not in tracer.lines)
            if len(missed) >= MISSED:
                partial.append(f"{where}: {len(missed)} of {len(fn.lines)} unexecuted, lines {missed}")
    print(f"{len(uncalled)} functions no traffic calls:")
    print("\n".join(f"  {line}" for line in uncalled))
    print(f"{len(partial)} functions with at least {MISSED} statements no traffic executes:")
    print("\n".join(f"  {line}" for line in partial))
    if unlisted or stale:
        print(f"{len(unlisted)} uncalled functions not in OFF_TRAFFIC, {len(stale)} listed ones gone or called:")
        print("\n".join(f"  {line}" for line in unlisted + list(stale)))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
