"""Command-line interface: suite runner, focused checks, and point evaluation."""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import sys
import time

import numpy as np

from .corep import t_word, tau_closed, tau_product
from .rep import RepContext, apply_word
from .rmatrix import r_entries
from .series import SeriesSpec, eval_omega, eval_omega_termwise
from .suites import (
    SUITE_NAMES,
    RunConfig,
    assemble_report,
    bailey_table,
    biorth_table,
    canonical_json,
    corep_table,
    qdybe_table,
    relations_table,
    run_suite,
    suite_names,
)
from .theta import PoleError, ThetaContext, TrackedArg, garg, pochhammer, qarg, theta, theta_factors

__all__ = ["main"]


class UsageError(ValueError):
    """An option outside its domain; reported in one line with exit code 2."""


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style complex literals (plain reals included)."""
    t = text.strip().replace(" ", "").replace("I", "i")
    t = t.replace("i", "j")
    try:
        return complex(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


def parse_tracked(text: str, ctx: ThetaContext, z: complex | None) -> TrackedArg:
    """Parse a series parameter, keeping exact q-power structure when given.

    Accepted forms: 'a+bi' (generic), 'q^:<int>' (exact q to twice the
    integer), and 'z*q^:<int>' (the --z point times an exact q power).  A
    literal must be finite and nonzero, as every theta argument is.
    """
    t = text.strip()
    if t.startswith("q^:"):
        return qarg(_q_power(text, t[3:]))
    if t.startswith("z*q^:"):
        if z is None:
            raise argparse.ArgumentTypeError("form 'z*q^:<int>' requires --z")
        return garg(z * ctx.qpow(2 * _q_power(text, t[5:])))
    value = parse_complex(t)
    if value == 0 or not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"parameter {text!r} must be finite and nonzero")
    return garg(value)


def _q_power(text: str, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse q power in {text!r}") from None


def fmt(value: complex) -> str:
    # Adding 0.0 folds IEEE negative zeros into plain zeros before printing.
    re, im = complex(value).real + 0.0, complex(value).imag + 0.0
    if im == 0.0:
        return f"{re:.12g}"
    if re == 0.0:
        return f"{im:.12g}i"
    sign = "+" if im >= 0 else "-"
    return f"{re:.12g}{sign}{abs(im):.12g}i"


def _add_base_args(p: argparse.ArgumentParser, p_default=None, q_default=None) -> None:
    p.add_argument("--p", type=float, default=p_default, help="elliptic nome in (0, 1)")
    p.add_argument("--q", type=float, default=q_default, help="deformation base in (0, 1)")


def _add_run_args(p: argparse.ArgumentParser, samples_default: int | None) -> None:
    """The options ``run`` and every ``check`` share; ``_config`` reads them."""
    samples = "draws (default %(default)s)" if samples_default else "override per-suite draw count"
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--samples", type=int, default=samples_default, help=samples)
    _add_base_args(p)
    p.add_argument("--tol", type=float, default=None, help="override headline tolerance")
    p.add_argument("--json", dest="json_path", default=None, help="write report to this path")
    p.add_argument("--max-redraws", type=int, default=50)


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ellu2",
        description="Numerical checks for elliptic hypergeometric identities "
        "and the dynamical quantum group behind them.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run verification suites and emit a JSON report")
    runp.add_argument(
        "--suite",
        action="append",
        default=None,
        choices=list(SUITE_NAMES) + ["all"],
        help="suite to run (repeatable; default all)",
    )
    _add_run_args(runp, None)

    checkp = sub.add_parser("check", help="focused checks with per-entry residual tables")
    checksub = checkp.add_subparsers(dest="check_kind", required=True)

    ccorep = checksub.add_parser("corep", help="matrix-element oracle tower at one level")
    ccorep.add_argument("--N", type=int, required=True)
    _add_run_args(ccorep, 5)
    ccorep.set_defaults(table=lambda cfg, a: corep_table(cfg, a.N, a.samples))

    cbiorth = checksub.add_parser("biorth", help="(dual) biorthogonality residual table")
    cbiorth.add_argument("--N", type=int, required=True)
    cbiorth.add_argument("--M", type=int, default=0)
    cbiorth.add_argument("--dual", action="store_true")
    _add_run_args(cbiorth, 5)
    cbiorth.set_defaults(table=lambda cfg, a: biorth_table(cfg, a.N, a.M, a.samples, a.dual))

    cbailey = checksub.add_parser("bailey", help="series transformation residuals per sample")
    cbailey.add_argument(
        "--n", type=int, default=None, help="pin the truncation order (default: random 0..6)"
    )
    _add_run_args(cbailey, 50)
    cbailey.set_defaults(table=lambda cfg, a: bailey_table(cfg, a.n, a.samples))

    cqdybe = checksub.add_parser("qdybe", help="shifted hexagon identity residuals per sample")
    _add_run_args(cqdybe, 100)
    cqdybe.set_defaults(table=lambda cfg, a: qdybe_table(cfg, a.samples))

    crel = checksub.add_parser("relations", help="defining-relation residual table")
    crel.add_argument(
        "--omega", type=parse_complex, default=None, help="pin the representation weight"
    )
    crel.add_argument(
        "--lambda", dest="lam", type=parse_complex, default=None, help="pin the evaluation point"
    )
    _add_run_args(crel, 50)
    crel.set_defaults(table=lambda cfg, a: relations_table(cfg, a.omega, a.lam, a.samples))

    evalp = sub.add_parser("eval", help="evaluate one quantity at explicit parameters")
    evalsub = evalp.add_subparsers(dest="eval_kind", required=True)

    etheta = evalsub.add_parser("theta")
    etheta.add_argument("--z", type=parse_complex, required=True)
    _add_base_args(etheta, p_default=0.1, q_default=0.7)

    epoch = evalsub.add_parser("pochhammer")
    epoch.add_argument("--a", required=True, help="argument: a+bi, q^:<int>, or z*q^:<int>")
    epoch.add_argument("--n", type=int, required=True)
    epoch.add_argument("--z", type=parse_complex, default=None)
    _add_base_args(epoch, p_default=0.1, q_default=0.7)

    eomega = evalsub.add_parser("omega")
    eomega.add_argument("--a1", required=True)
    eomega.add_argument("--upper", required=True, help="comma-separated parameter list")
    eomega.add_argument(
        "--slot", type=int, required=True, help="0-based index of the q^:-n entry in --upper"
    )
    eomega.add_argument("--z", type=parse_complex, default=None)
    _add_base_args(eomega, p_default=0.1, q_default=0.7)

    etau = evalsub.add_parser("tau")
    etau.add_argument("--N", type=int, required=True)
    etau.add_argument("--k", type=int, required=True)
    etau.add_argument("--j", type=int, required=True)
    etau.add_argument("--m", type=int, required=True)
    etau.add_argument("--omega", type=parse_complex, required=True)
    etau.add_argument("--lambda", dest="lam", type=parse_complex, required=True)
    etau.add_argument("--z", type=parse_complex, required=True)
    _add_base_args(etau, p_default=0.1, q_default=0.7)

    erent = evalsub.add_parser("r-entries")
    erent.add_argument("--z", type=parse_complex, required=True)
    erent.add_argument("--lambda", dest="lam", type=parse_complex, required=True)
    _add_base_args(erent, p_default=0.1, q_default=0.7)

    return ap


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _validate(args: argparse.Namespace) -> None:
    """Check every option against its domain before any work starts.

    Series parameters are parsed here too and stored back on ``args`` (as
    ``args.a`` or ``args.spec``), so a command only sees values it can
    evaluate.  Exit code 1 stays reserved for an identity that failed.
    """
    for flag in ("p", "q"):
        value = getattr(args, flag)
        _require(value is None or 0.0 < value < 1.0, f"--{flag} must lie in (0, 1), got {value}")
    if args.p is not None:
        # A nome whose theta product would be cut short of its floor.
        try:
            theta_factors(args.p)
        except ValueError as exc:
            raise UsageError(f"--p: {exc}") from None
    for dest, flag in (("z", "z"), ("omega", "omega"), ("lam", "lambda")):
        value = getattr(args, dest, None)
        _require(value is None or cmath.isfinite(value), f"--{flag} must be finite")
    # Every --z enters a theta argument as a factor.
    _require(getattr(args, "z", None) != 0, "--z must be nonzero")
    if args.command != "eval":
        _require(args.seed >= 0, "--seed must be >= 0")
        _require(args.samples is None or args.samples >= 1, "--samples must be >= 1")
        _require(args.max_redraws >= 0, "--max-redraws must be >= 0")
        _require(args.tol is None or args.tol > 0, "--tol must be > 0")
    kind = getattr(args, "check_kind", None) or getattr(args, "eval_kind", None)
    if kind == "corep":
        _require(args.N >= 0, "--N must be >= 0")
    elif kind == "biorth":
        _require(args.N >= 1, "--N must be >= 1")
        _require(args.M >= 0, "--M must be >= 0")
    elif kind == "bailey":
        _require(args.n is None or args.n >= 0, "--n must be >= 0")
    elif kind == "tau":
        _require(0 <= args.k <= args.N and 0 <= args.j <= args.N, "need 0 <= --k, --j <= --N")
        _require(args.m >= 0, "--m must be >= 0")
    elif kind in ("pochhammer", "omega"):
        ctx = _context(args)
        try:
            if kind == "pochhammer":
                args.a = parse_tracked(args.a, ctx, args.z)
            else:
                a1 = parse_tracked(args.a1, ctx, args.z)
                upper = tuple(parse_tracked(tk, ctx, args.z) for tk in args.upper.split(","))
                args.spec = SeriesSpec(a1, upper, args.slot, ctx)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError(str(exc)) from None


def _emit(report: dict, json_path: str | None, t0: float) -> int:
    """Write the report and, on stderr, the wall time since ``t0``; exit 1 when it fails."""
    elapsed = 1000.0 * (time.monotonic() - t0)
    text = canonical_json(report)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    print(f"wall time: {elapsed:.0f} ms", file=sys.stderr)
    return 0 if report["pass"] else 1


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config(args)
    t0 = time.monotonic()
    records = []
    for name in suite_names(args.suite):
        t = time.monotonic()
        records.append(run_suite(name, cfg))
        print(f"suite {name}: {1000.0 * (time.monotonic() - t):.0f} ms", file=sys.stderr)
    return _emit(assemble_report(cfg, records), args.json_path, t0)


def _cmd_check(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    return _emit(args.table(_config(args), args), args.json_path, t0)


def _context(args: argparse.Namespace) -> ThetaContext:
    return ThetaContext(args.p, args.q)


# Without this, an eval point near the edge of the double range would print
# numpy's floating-point warnings before its one-line PoleError.
@np.errstate(all="ignore")
def _cmd_eval(args: argparse.Namespace) -> int:
    ctx = _context(args)
    if args.eval_kind == "theta":
        print(fmt(theta(args.z, ctx)))
        return 0
    if args.eval_kind == "pochhammer":
        print(fmt(pochhammer(args.a, args.n, ctx)))
        return 0
    if args.eval_kind == "omega":
        result = eval_omega(args.spec)
        termwise = eval_omega_termwise(args.spec)
        print(f"omega = {fmt(result.value)}")
        print(f"terms = {result.terms}")
        print(f"|ratio - termwise| = {abs(result.value - termwise):.3e}")
        for w in result.warnings:
            print(f"warning: {w}")
        return 0
    if args.eval_kind == "tau":
        rc = RepContext(args.omega, args.lam, ctx)
        closed = tau_closed(args.N, args.k, args.j, args.m, args.lam, args.z, args.omega, ctx)
        prod = tau_product(args.N, args.k, args.j, args.m, args.lam, args.z, args.omega, ctx)
        got = apply_word(t_word(args.N, args.k, args.j, args.z, ctx), args.m, rc)
        word_val = got.get(args.m + args.k - args.j, 0.0 + 0.0j)
        print(f"tau = {fmt(closed)}")
        print(f"|closed - word| = {abs(closed - word_val):.3e}")
        print(f"|closed - product| = {abs(closed - prod):.3e}")
        return 0
    a, b, c, d = r_entries(args.lam, args.z, ctx)
    print(f"a = {fmt(a)}")
    print(f"b = {fmt(b)}")
    print(f"c = {fmt(c)}")
    print(f"d = {fmt(d)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _validate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_eval(args)
    except (UsageError, PoleError) as exc:
        # Suites and checks redraw at poles, so a PoleError reaching here
        # comes from an eval point that sits on one.
        print(f"ellu2: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
