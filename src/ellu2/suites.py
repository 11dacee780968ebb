"""Registry-driven verification suites with deterministic JSON reporting.

Every suite draws generic parameters from the shared sampling policy, runs a
family of identity checks, and reports the worst relative residual seen.  The
RNG stream is seeded per suite from (seed, registry index), so a fixed seed
reproduces every sample and the report bytes exactly, whether a suite runs
alone or as part of the full battery.

Suites and the focused tables of ``ellu2 check`` share one engine:

- one sampler, ``_DrawAhead``, draws the attempts of up to ``AHEAD``
  unfinished samples in one batch and evaluates them together;
- one loop, ``_sample``, draws each sample from a sampler through
  ``run_with_redraws``, redrawing at poles, and returns the completed
  values and the rejected count;
- one fold, ``_per_key``, keeps the worst residual per key, counting a NaN as
  +inf (``residuals.worst``) so that a check which breaks fails its gate;
- ``_suite_result`` returns a suite's record and ``_table`` a table's
  report; the two own the pass rules, and ``_grid`` folds the per-(k, j)
  and per-(k, l) entries of the corep and biorth tables;
- each sampler a suite shares with its table is written once
  (``_qdybe_ahead``, ``_bailey_ahead``, ``_relations_ahead``,
  ``_biorth_ahead``, and ``_corep_tower`` for a tower's residuals), and
  draws the same attempts for both.

Every suite and table draws ahead.  A batch's ``draw(k)`` makes all the
``rng`` calls of its k attempts, as many whatever their outcome
(``RunConfig.draws``, ``sampling.draw_batch``; the series suite and the
bailey draws with an unpinned order draw an integer between their slots,
so they draw one attempt at a time).  Its ``evaluate(drawn)`` returns each
draw's result or its error, never raising at a pole of one draw: the
theta suite's residuals of ``_theta_batch``, the relation and unitarity
rows of ``rep.bind_rows``, the biorth rows of ``biorth.sweep_rows``, the
towers bound by ``corep.closed_towers``, and the series, transformation
and R-matrix checks over numbers, draw by draw (``_each``).
``theta.theta_columns`` names the draws whose theta values fail and
``Template.bind_all`` reports each draw's failures as codes, and each
batch turns them into that draw's error.  Every unfinished sample takes at
least one more attempt, so no drawn attempt goes unused, and the stream,
the redraws and the reports are those of drawing one at a time.  The cap
bounds what one batch binds: the relations suite's 50 draws bound together
would add several MB to peak memory.

A batch does its per-draw work on arrays, each draw with the bits it
gets alone: the theta suite computes every draw's residuals at once on
split arrays, by the array forms of ``residuals`` (``_theta_batch``), and
a compiled check folds every draw of its bind at once
(``rep.Compiled.fold``).  The one-draw-at-a-time forms
these replaced, the draws among them, are kept beside the tests as their
references.

Each draw is read in one pass: the theta suite reads a draw's theta
values from its batch, which evaluates every draw's in one
``theta_columns`` call (``_theta_batch``), the series suite finishes both
its evaluators from one lookup of the vector cache, and the biorth suites
and tables read a draw's rows as its batch gave them
(``biorth.sweep_rows``).  Nothing that reads a draw binds: a sampler's
batch binds it.

A sample returns plain floats (or, for the per-sample tables, one entry), so
nothing of a draw outlives it (or, drawn ahead, its own attempt).  ``_sample``
looks ``run_with_redraws`` up in this module's namespace at each call, never
through a default argument or a closure: tools that count draws rebind that
name.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .biorth import BiorthParams, sweep_rows
from .corep import (
    TOWER_M,
    UNITARITY_MMAX,
    _inversion_rows,
    _unitarity_rows,
    check_coproduct,
    check_counit_exact,
    check_tensor_relation,
    closed_towers,
    linear_independence_ratio,
    product_tower,
    tau_plan,
    tau_tilde_plan,
)
from .rep import (
    DET_FORMS_SHAPE,
    RELATIONS_SHAPE,
    RepContext,
    _det_form_rows,
    _relation_rows,
    bind_rows,
    relation_inventory,
    rows_of,
)
from .residuals import TINY, max_along, rel_to_terms, residual_between_split, spread
from .residuals import sum_along, worst, worst_along
from .rmatrix import det_residual, qdybe_residual
from .sampling import draw_batch, run_with_redraws
from .series import (
    SeriesSpec,
    bailey_theta_condition,
    check_bailey,
    eval_omega,
    omega_plan,
    termwise_plan,
)
from .theta import ABS_RANGE, CODE, THETA_RANGE, PoleError, combine, error, garg, qarg
from .theta import _c_abs, _c_div, _c_mul, theta_columns, theta_condition

__all__ = [
    "RunConfig",
    "SUITE_NAMES",
    "assemble_report",
    "bailey_table",
    "biorth_table",
    "canonical_json",
    "corep_table",
    "qdybe_table",
    "relations_table",
    "run_report",
    "run_suite",
    "suite_names",
]

REPORT_VERSION = 1
# Most attempts a draw-ahead sampler draws and evaluates in one batch.
AHEAD = 10
# The gate on the middle determinant's closed form, in the suite and the table.
QDYBE_DET_TOL = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Resolved command-line options shared by all suites."""

    seed: int = 20240
    samples: int | None = None
    p: float | None = None
    q: float | None = None
    tol: float | None = None
    max_redraws: int = 50

    def draws(self, rng: np.random.Generator, k: int, kinds: tuple, zero_guard: float = 1e-12) -> list[list]:
        """The draws of k attempts of ``kinds`` (``sampling.draw_batch``),
        each context at the pinned p and q and ``zero_guard``."""
        return draw_batch(rng, k, kinds, self.p, self.q, zero_guard)


def _theta_identity_residual(terms: tuple, args: np.ndarray, p: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Residual of sum_i c_i theta(args_i) = 0 at each draw of a batch.
    ``terms`` is (c, values): the coefficients, split (real, imaginary),
    terms x draws, and the theta values of the terms' arguments, split,
    terms x arguments x draws; ``args`` holds the arguments, as complex
    rows in the same order, and ``p`` each draw's nome.

    Each term enters the scale at its own condition, |term| times the largest
    ``theta_condition`` of its arguments: a theta factor near a zero turns the
    rounding of its argument into that much relative error.  Every step is
    Python's on complex numbers, term after term (``theta._c_mul``,
    ``_c_abs``, ``residuals.max_along`` and ``sum_along``), so each residual
    has the bits a loop over one draw gives.
    Where that loop would raise, the draw's ``code`` takes the error, if it
    has none yet: ``PoleError(THETA_RANGE)`` for a product beyond the double
    range, as for a value, and ``OverflowError`` for a modulus beyond it.
    """
    (cr, ci), (vr, vi) = terms
    product = (1.0, 0.0)
    for j in range(vr.shape[1]):
        product = _c_mul(*product, vr[:, j], vi[:, j])
    t = _c_mul(cr, ci, *product)
    size, beyond = _c_abs(*t)
    cond, over = theta_condition(args, p)
    scale = max_along((TINY, *(size * cond.reshape(vr.shape).max(axis=1))))
    top, top_beyond = _c_abs(*sum_along(t))
    # The errors the loop meets, in its order: each term's product (one
    # beyond range leaves |term| unraised), then |term| and its
    # conditions; then |total|.
    over = beyond | over.reshape(vr.shape).any(axis=1)
    finite = np.isfinite(product[0]) & np.isfinite(product[1])
    met = np.where(finite, np.where(over, CODE[ABS_RANGE], 0), CODE[THETA_RANGE])
    for row in [*met, np.where(top_beyond, CODE[ABS_RANGE], 0)]:
        np.copyto(code, row, where=code == 0)
    return top / scale


def _sample(samples: int, max_redraws: int, draws: _DrawAhead) -> tuple[list, int]:
    """(values, rejected): ``samples`` samples of the sampler ``draws``,
    each attempted (``_DrawAhead.attempt``) and redrawn at poles.

    ``values`` holds the completed samples in order; a sample still at a
    pole after ``max_redraws`` attempts counts as rejected.  Before each
    sample the sampler is told how many samples, that one included, are
    still unfinished.
    """
    values = []
    for i in range(samples):
        draws.unfinished = samples - i
        value, rejected = run_with_redraws(draws.attempt, max_redraws)
        if not rejected:
            values.append(value)
    return values, samples - len(values)


def _per_key(values: Iterable[Iterable[tuple]], keys: Iterable = ()) -> dict:
    """The worst residual per key over samples of (key, residual) pairs.

    Each of ``keys`` starts at 0.0, as does any other key at its first pair.
    A NaN residual counts as +inf (``residuals.worst``), so a check that
    breaks fails closed rather than vanishing from the maximum.
    """
    out = dict.fromkeys(keys, 0.0)
    for pairs in values:
        for key, v in pairs:
            out[key] = worst((out.get(key, 0.0), v))
    return out


def _suite_result(
    name: str,
    samples: int,
    rejected: int,
    classes: dict[str, float],
    values: list[dict[str, float]],
    notes: list[str],
    gates: Iterable[tuple[bool, str]] = (),
) -> dict:
    """Fold the completed samples' residuals into a suite's report record.

    The first entry of ``classes`` is the headline residual class; the others
    get their own tolerance and surface through notes.  Each of ``gates`` is
    one more (passed, note) condition of the suite.
    """
    top = _per_key((value.items() for value in values), classes)
    keys = list(classes)
    passed = all(top[k] <= classes[k] for k in keys) and rejected < samples
    for k in keys[1:]:
        notes.append(f"{k}: max residual {top[k]:.3e} (tol {classes[k]:g})")
    for ok, note in gates:
        passed = passed and ok
        notes.append(note)
    if rejected >= samples:
        notes.append("all samples rejected by pole guard")
    return {
        "suite": name,
        "samples": samples - rejected,
        "rejected": rejected,
        "max_rel_residual": top[keys[0]],
        "tol": classes[keys[0]],
        "pass": passed,
        "notes": notes,
    }


def _drive(
    name: str,
    samples: int,
    max_redraws: int,
    classes: dict[str, float],
    draws: _DrawAhead,
    notes: list[str],
) -> dict:
    """Sample a sampler of named residuals with pole redraws; aggregate them."""
    values, rejected = _sample(samples, max_redraws, draws)
    return _suite_result(name, samples, rejected, classes, values, notes)


class _DrawAhead:
    """Attempts drawn ahead and evaluated in batches: the one sampler of
    every suite and table.

    ``draw(k)`` makes the draws of k attempts, with all their ``rng``
    calls (``RunConfig.draws``, ``sampling.draw_batch``), as many whatever
    the outcome, and ``evaluate(drawn)`` gives the result of each of a
    list of them, or the error of a draw that failed, not raised.  Each
    call of ``attempt`` is one attempt.  When no drawn attempt is left, it
    draws as many as there are samples still ``unfinished`` (set by
    ``_sample``), at most ``AHEAD``, and evaluates them together, once.  An
    attempt takes the next draw's result, or raises a fresh error of its
    error's type and message (``rep.rows_of``).  Nothing of a batch is kept
    but these results, each popped by its attempt.
    """

    def __init__(self, draw: Callable[[int], list], evaluate: Callable[[list], list]):
        self.draw, self.evaluate = draw, evaluate
        self.unfinished = 1
        self.queue: deque = deque()

    def attempt(self):
        if not self.queue:
            drawn = self.draw(min(self.unfinished, AHEAD))
            self.queue.extend(self.evaluate(drawn))
        return rows_of(self.queue.popleft())


def _each(check: Callable, drawn: Iterable[tuple]) -> list:
    """``check(*d)`` of each d of ``drawn``, in order, or the error it
    raised, not raised: the outcomes of a batch whose draws are checked
    one by one.  An error is kept without its traceback, which would hold
    the frames that hold it."""
    out = []
    for d in drawn:
        try:
            out.append(check(*d))
        except ArithmeticError as exc:
            out.append(exc.with_traceback(None))
    return out


def _rep_draws(
    cfg: RunConfig, rng: np.random.Generator, k: int, omega=None, lam=None, zero_guard: float = 1e-12, points: int = 1
) -> list[tuple]:
    """k attempts, each (rc, z_1, ..., z_points): the base, then the weight
    omega and evaluation point lambda, each drawn unless pinned, then
    ``points`` spectral points, from one ``sampling.draw_batch``."""
    kinds = ("context", *("box" for pinned in (omega, lam) if pinned is None), *("annulus",) * points)
    ctxs, *drawn = cfg.draws(rng, k, kinds, zero_guard)
    omegas = drawn.pop(0) if omega is None else [omega] * k
    lams = drawn.pop(0) if lam is None else [lam] * k
    return list(zip([RepContext(*rep) for rep in zip(omegas, lams, ctxs)], *drawn))


# The operands, among a theta suite draw's points (z, w, x, y, 1, -z, p),
# of the products and quotients its theta arguments take: x y, z w, x w,
# z y, x z, y w (the three-term relation's, each pair once as a product
# and once as a quotient), then p z and 1 / z, and -z / y.
_PRODUCTS = ([2, 0, 2, 0, 2, 3, 6], [3, 1, 1, 3, 0, 1, 0])
_QUOTIENTS = ([2, 0, 2, 0, 2, 3, 4, 5], [3, 1, 1, 3, 0, 1, 0, 3])


def _theta_batch(drawn: list) -> list:
    """The theta suite's identities at each draw (ctx, z, w, x, y): the
    quasi-periodicity and inversion of theta(z), theta(q^(-2s)) =
    -q^(-2s) theta(q^(2s)) for s = 1..5, and the three-term relation at x,
    y, z, w.  Each draw gives its worst residual, by name, or its error,
    not raised: ``PoleError(THETA_RANGE)`` where ``theta_vec`` would raise
    or give a value beyond the double range, as ``theta`` does.

    Every draw's theta values come from one ``theta_columns`` call, and the
    residuals are computed for all draws at once on split arrays, every
    operation CPython's on complex numbers (``theta._c_mul``, ``_c_div``,
    ``_c_abs``), so each draw has the bits, and the error, that evaluating
    it alone over numbers gives.  The powers of q are each draw's
    ``ctx.qpow``; one beyond the double range (a pinned q below about
    1e-31) raises, at every draw of that q alike."""
    ctxs, k = [ctx for ctx, *_ in drawn], len(drawn)
    p = np.array([ctx.p for ctx in ctxs])
    points = np.array([d[1:] for d in drawn], dtype=complex).T
    points = np.concatenate([points, np.ones((1, k)), -points[:1], p[None]])
    re, im = points.real, points.imag
    mr, mi = _c_mul(re[_PRODUCTS[0]], im[_PRODUCTS[0]], re[_PRODUCTS[1]], im[_PRODUCTS[1]])
    dr, di = _c_div(re[_QUOTIENTS[0]], im[_QUOTIENTS[0]], re[_QUOTIENTS[1]], im[_QUOTIENTS[1]])
    powers = np.array([[ctx.qpow(2 * s) for s in (-1, -2, -3, -4, -5, 1, 2, 3, 4, 5)] for ctx in ctxs]).T
    # theta(z), theta(p z), theta(1 / z), the ten powers, then the
    # three-term relation's twelve arguments, four per term.
    columns = np.empty((25, k), dtype=complex)
    columns[0], columns[3:13] = points[0], powers
    for part, m, d in ((columns.real, mr, dr), (columns.imag, mi, di)):
        part[1], part[2], part[13::2], part[14::2] = m[6], d[6], m[:6], d[:6]
    values, failed = theta_columns(columns, ctxs)
    values[:, failed] = np.nan  # an argument 0 fails as a value beyond range does
    vr, vi = values.real, values.imag
    with np.errstate(all="ignore"):
        code = np.where(np.isfinite(values).all(axis=0), 0, CODE[THETA_RANGE])
        sr, si = _c_div(-vr[0], -vi[0], re[0], im[0])
        nr, ni = _c_mul(-powers.real[:5], -powers.imag[:5], vr[8:13], vi[8:13])
        # theta(p z) and theta(1 / z) against -theta(z) / z, and each
        # theta(q^(-2s)) against -q^(-2s) theta(q^(2s)); where a modulus
        # is beyond range, Python raises.
        lhs, rhs = (vr[1:8], vi[1:8]), (np.vstack([sr, sr, nr]), np.vstack([si, si, ni]))
        parts = [(lhs[0] - rhs[0], lhs[1] - rhs[1]), lhs, rhs]
        over = np.any([_c_abs(*x)[1] for x in parts], axis=(0, 1))
        np.copyto(code, CODE[ABS_RANGE], where=(code == 0) & over)
        res = residual_between_split(lhs, rhs)
        # The terms' coefficients: 1, -1 and -z / y.
        coefficients = (np.vstack([np.ones(k), -np.ones(k), dr[7]]), np.vstack([np.zeros((2, k)), di[7]]))
        terms = (coefficients, (vr[13:].reshape(3, 4, k), vi[13:].reshape(3, 4, k)))
        top = worst_along([*res, _theta_identity_residual(terms, columns[13:], p, code)])
    return [error(c) if c else {"theta identities": r} for r, c in zip(top.tolist(), code.tolist())]


def _suite_theta(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:

    def draw(k: int) -> list:
        # The context, then z, w, x and y, in that order.
        return list(zip(*cfg.draws(rng, k, ("context", *("annulus",) * 4))))

    return _drive("theta", samples, cfg.max_redraws, {"theta identities": tol}, _DrawAhead(draw, _theta_batch), [])


def _ordered(cfg: RunConfig, rng: np.random.Generator, high: int, points: int) -> tuple:
    """One attempt drawn alone, (ctx, n, z_1, ..., z_points): the base, an
    order n from 0..high - 1 (``rng.integers``), then ``points`` spectral
    points."""
    ctx = cfg.draws(rng, 1, ("context",))[0][0]
    n = int(rng.integers(0, high))
    return (ctx, n, *(z for (z,) in cfg.draws(rng, 1, ("annulus",) * points)))


def _suite_series(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:
    notes: list[str] = []

    def draw(k: int) -> list:
        # Each attempt's base, order, a1 and five upper parameters, then
        # the order the permuted series takes the free parameters in.
        return [(*_ordered(cfg, rng, 9, 6), tuple(rng.permutation(6).tolist())) for _ in range(k)]

    def check(ctx, n: int, a1: complex, *drawn) -> dict[str, float]:
        *uppers, perm = drawn
        sixth = a1**3 * ctx.qpow(4 + 2 * n) / np.prod(uppers)
        free = tuple(garg(u) for u in uppers) + (garg(complex(sixth)),)
        spec = SeriesSpec(garg(a1), free + (qarg(-n),), 6, ctx)
        # Both evaluators from one lookup; the permuted series below then
        # finds every argument in the vector cache.
        both = combine(ctx, [omega_plan(spec), termwise_plan(spec)], lambda *got: got)
        (value, max_term, _), termwise = both.value()
        warning = spec.balancing_warning()
        if warning is not None:
            notes.append(f"unexpected balance warning: {warning}")
            return {"evaluator agreement": float("inf")}
        res = [rel_to_terms(value, termwise, max_term)]
        permuted = eval_omega(SeriesSpec(spec.a1, tuple(free[i] for i in perm) + (qarg(-n),), 6, ctx))
        res.append(rel_to_terms(value, permuted.value, max_term))
        return {"evaluator agreement": worst(res)}

    draws = _DrawAhead(draw, partial(_each, check))
    return _drive("series", samples, cfg.max_redraws, {"evaluator agreement": tol}, draws, notes)


BAILEY_MAX_CONDITION = 1e6


def _bailey_ahead(cfg: RunConfig, rng: np.random.Generator, order: int | None, read: Callable) -> _DrawAhead:
    """The draw-ahead sampler of the transformation check: an attempt gives
    ``read(n, report, theta condition)`` of its draw of a base, the order
    n (drawn from 0..6 unless pinned by ``order``) and six points.

    The draw is gated on the report's condition, the cancellation between
    terms, times the theta condition, the largest ``theta_condition`` over the
    terms' factors (``bailey_theta_condition``).  A draw whose product passes
    ``BAILEY_MAX_CONDITION`` fails with ``PoleError``, to be redrawn: the
    forced seventh parameter can land near a pole, and p near a power of q^2
    puts a factor of the terminating row near a zero of theta; either hides
    the identity behind rounding double precision cannot resolve.
    """

    def draw(k: int) -> list:
        if order is None:
            return [_ordered(cfg, rng, 7, 6) for _ in range(k)]
        ctxs, *points = cfg.draws(rng, k, ("context", *("annulus",) * 6))
        return [(ctx, order, *args) for ctx, *args in zip(ctxs, *points)]

    def check(ctx, n: int, *args):
        report = check_bailey(*args, n, ctx)
        theta_cond = bailey_theta_condition(*args, n, ctx)
        condition = report.condition * theta_cond
        if condition > BAILEY_MAX_CONDITION:
            raise PoleError(
                f"bailey draw condition {condition:.2e} exceeds {BAILEY_MAX_CONDITION:g}"
            )
        return read(n, report, theta_cond)

    return _DrawAhead(draw, partial(_each, check))


def _suite_bailey(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:
    draws = _bailey_ahead(cfg, rng, None, lambda n, report, theta_cond: {"transformation": report.residual})
    return _drive("bailey", samples, cfg.max_redraws, {"transformation": tol}, draws, [])


def _qdybe_ahead(cfg: RunConfig, rng: np.random.Generator, read: Callable) -> _DrawAhead:
    """The draw-ahead sampler of the R-matrix: an attempt gives
    ``read(hexagon residual, middle determinant residual)`` of its draw of
    a base, lambda and three spectral points."""

    def draw(k: int) -> list:
        return list(zip(*cfg.draws(rng, k, ("context", "box", "annulus", "annulus", "annulus"))))

    def check(ctx, lam: complex, z1: complex, z2: complex, z3: complex):
        return read(qdybe_residual(lam, z1, z2, z3, ctx), det_residual(lam, z1, ctx))

    return _DrawAhead(draw, partial(_each, check))


def _suite_qdybe(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:
    draws = _qdybe_ahead(cfg, rng, lambda res, det: {"hexagon": res, "det closed form": det})
    classes = {"hexagon": tol, "det closed form": QDYBE_DET_TOL}
    return _drive("qdybe", samples, cfg.max_redraws, classes, draws, [])


def _relations_ahead(
    cfg: RunConfig,
    rng: np.random.Generator,
    read: Callable,
    omega: complex | None = None,
    lam: complex | None = None,
    det_forms: bool = False,
) -> _DrawAhead:
    """The draw-ahead sampler of the relation checks: an attempt gives
    ``read(relations, forms)`` of the outcomes (``rep.bind_rows``) of its
    draw of a rep context and z1, z2, z: the relation rows, and with
    ``det_forms`` the determinant-form rows, else None.  ``read`` raises an
    outcome's error with ``rep.rows_of``."""

    def draw(k: int) -> list:
        # Relation sides multiply up to eight theta-quotient coefficients, so
        # a denominator theta of magnitude 1e-7 already costs 1e-9 relative
        # accuracy; insist on a wider pole margin than the evaluation default.
        return _rep_draws(cfg, rng, k, omega, lam, zero_guard=1e-4, points=3)

    def evaluate(drawn: list) -> list:
        points = [(rc, {"z": z, "z1": z1, "z2": z2}) for rc, z1, z2, z in drawn]
        relations = bind_rows(_relation_rows, RELATIONS_SHAPE, points)
        forms = [None] * len(drawn)
        if det_forms:
            forms = bind_rows(_det_form_rows, DET_FORMS_SHAPE, [(rc, {"z": z}) for rc, *_, z in drawn])
        return _each(read, zip(relations, forms))

    return _DrawAhead(draw, evaluate)


def _suite_relations(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:
    notes: list[str] = []
    det_tol = 1e-10
    flagged: set[str] = set()

    def read(relations, forms) -> dict[str, float]:
        rows = rows_of(relations)
        # Flagged before the determinant forms' error is raised: an attempt
        # redrawn at that error keeps its notes.
        for rel_name, res in rows.items():
            if res > tol and rel_name not in flagged:
                flagged.add(rel_name)
                notes.append(f"relation over tolerance: {rel_name} ({res:.3e})")
        return {"defining relations": worst(rows.values()), "det forms": worst(rows_of(forms).values())}

    draws = _relations_ahead(cfg, rng, read, det_forms=True)
    classes = {"defining relations": tol, "det forms": det_tol}
    return _drive("relations", samples, cfg.max_redraws, classes, draws, notes)


def _corep_tower(
    rc: RepContext, z: complex, n_level: int, tower: Callable[..., complex]
) -> dict[tuple[int, int], float]:
    """Worst spread per (k, j) at one level between the word action,
    ``tau_product`` and the closed form, over m < ``TOWER_M``.  The word
    action and the closed form come bound at the draw as ``tower``, the
    level's reader of ``corep.closed_towers``, compiled once for the level;
    ``tau_product`` is the one side evaluated over numbers, by one reader
    for the draw and level (``corep.product_tower``), which evaluates each
    prefactor, elliptic binomial and letter coefficient once.  Each
    (k, j, m) reads, or raises, its word action, then its ``tau_product``,
    then its closed form, so the first error of a draw is the one a numeric
    tower raises first."""
    product = product_tower(n_level, rc.lam0, z, rc.omega, rc.ctx)
    out: dict[tuple[int, int], float] = {}
    for k in range(n_level + 1):
        for j in range(n_level + 1):
            out[(k, j)] = worst([
                spread([tower(k, j, m, "word"), product(k, j, m), tower(k, j, m)])
                for m in range(TOWER_M)
            ])
    return out


def _suite_corep(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:
    tensor_tol = 1e-9
    indep_floor = 1e-8
    heavy_draws = 2
    completed = 0
    min_indep = float("inf")
    counit_failures: list[str] = []

    def draw(k: int) -> list:
        # The towers' rep context and z, then the tensor checks' second
        # lambda, two relation points and six independence points: every
        # attempt draws them, whether it runs the tensor checks or not.
        kinds = ("context", "box", "box", "annulus", "box", *("annulus",) * 8)
        return [(RepContext(omega, lam, ctx), *more) for ctx, omega, lam, *more in zip(*cfg.draws(rng, k, kinds))]

    def evaluate(drawn: list) -> list:
        # Each level's tower and conjugate tower bound at the whole batch.
        pairs = [(rc, z) for rc, z, *_ in drawn]
        towers = zip(*(closed_towers(tau_plan, n_level, pairs) for n_level in range(1, 5)))
        conjugates = zip(*(closed_towers(tau_tilde_plan, n_level, pairs) for n_level in range(1, 4)))
        return _each(check, [(t, c, *d) for d, t, c in zip(drawn, towers, conjugates)])

    def check(towers, conjugates, rc: RepContext, z: complex, lam2: complex, *points) -> dict[str, float]:
        nonlocal completed, min_indep
        ctx = rc.ctx
        tower = worst(
            res
            for n_level, bound in enumerate(towers, 1)
            for res in _corep_tower(rc, z, n_level, bound).values()
        )
        star_res = [
            spread([conjugate(k, j, m, "word"), conjugate(k, j, m)])
            for n_level, conjugate in enumerate(conjugates, 1)
            for k in range(n_level + 1)
            for j in range(n_level + 1)
            for m in range(TOWER_M)
        ]
        for n_level in range(1, 6):
            counit_failures.extend(check_counit_exact(n_level, z, ctx))
        out = {"matrix element tower": tower, "conjugate tower": worst(star_res)}
        if completed < heavy_draws:
            rc2 = RepContext(lam2, rc.lam0, ctx)
            out["tensor coproduct"] = worst(
                check_coproduct(n_level, z, m, n, rc, rc2)
                for n_level in range(1, 4)
                for m in range(3)
                for n in range(3)
            )
            out["tensor relations"] = worst(
                check_tensor_relation(lhs, rhs, m, n, rc, rc2)
                for _, lhs, rhs in relation_inventory(points[0], points[1], ctx)
                for m in range(2)
                for n in range(2)
            )
            # More points than columns, each at its own basis index.
            basis = [(x, m) for m, x in enumerate(points[2:])]
            # All three first: where one raises, the attempt is redrawn and
            # leaves none of its ratios in the gate.
            ratios = [
                linear_independence_ratio(n, rc.lam0, rc.omega, ctx, basis[: n + 3]) for n in range(1, 4)
            ]
            # A NaN ratio certifies nothing: count it as 0.0, below the floor.
            min_indep = min(min_indep, *(0.0 if math.isnan(r) else r for r in ratios))
        completed += 1
        return out

    classes = {
        "matrix element tower": tol,
        "conjugate tower": tol,
        "tensor coproduct": tol,
        "tensor relations": tensor_tol,
    }
    values, rejected = _sample(samples, cfg.max_redraws, _DrawAhead(draw, evaluate))
    if counit_failures:
        counit = f"counit structure failures: {sorted(set(counit_failures))[:4]}"
    else:
        counit = "counit structure exact for N <= 5"
    if min_indep <= indep_floor:
        indep = f"matrix element independence ratio {min_indep:.3e} <= {indep_floor:g}"
    else:
        indep = f"matrix element independence ratio min {min_indep:.3e}"
    gates = [(not counit_failures, counit), (min_indep > indep_floor, indep)]
    return _suite_result("corep", samples, rejected, classes, values, [], gates)


def _suite_unitarity(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:
    inversion_tol = 1e-7
    # Each family is bound at every (k, j) of its level and every m up to
    # ``UNITARITY_MMAX``: unitarity at N = 1, 2, 3, then inversion at N = 1, 2.
    families = [(_unitarity_rows, N) for N in (1, 2, 3)] + [(_inversion_rows, N) for N in (1, 2)]

    def draw(k: int) -> list:
        return _rep_draws(cfg, rng, k)

    def evaluate(drawn: list) -> list:
        points = [(rc, {"z": z}) for rc, z in drawn]
        bound = [bind_rows(build, (n_level, UNITARITY_MMAX), points) for build, n_level in families]
        out: list = []
        for outcomes in zip(*bound):
            failed = [got for got in outcomes if isinstance(got, ArithmeticError)]
            out.append(failed[0] if failed else {
                "unitarity": worst(v for rows in outcomes[:3] for v in rows.values()),
                "inversion sums": worst(v for rows in outcomes[3:] for v in rows.values()),
            })
        return out

    classes = {"unitarity": tol, "inversion sums": inversion_tol}
    return _drive("unitarity", samples, cfg.max_redraws, classes, _DrawAhead(draw, evaluate), [])


def _biorth_ahead(
    cfg: RunConfig, rng: np.random.Generator, n_level: int, m_shift: int, dual: bool, read: Callable
) -> _DrawAhead:
    """The draw-ahead sampler at one sweep shape (N, M), direct or dual: an
    attempt gives ``read`` of the rows of its draw's (dual) sweep
    (``biorth.sweep_rows``)."""

    def draw(k: int) -> list:
        drawn = cfg.draws(rng, k, ("context", "box", "box", "annulus"))
        return [BiorthParams(n_level, lam, m_shift, omega, z, ctx) for ctx, lam, omega, z in zip(*drawn)]

    def evaluate(drawn: list) -> list:
        # Each draw's outcome alone, its rows read or its error kept.
        return _each(lambda rows: read(rows_of(rows)), zip(sweep_rows(drawn, dual=dual)))

    return _DrawAhead(draw, evaluate)


def _suite_biorth(
    dual: bool, cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float
) -> dict:
    """The biorth suite, or with ``dual`` the dual-biorth suite: the worst
    of each residual of ``biorth.sweep_rows`` over the rows of each sample."""
    classes = {
        "biorthogonality sum": tol,
        "termwise vs oracle": 1e-7,
        "representation oracle": 1e-7,
    }

    def read(rows) -> dict[str, float]:
        # The classes in the order of a row's fields, max term left out.
        return dict(zip(classes, map(worst, zip(*rows))))

    values: list[dict[str, float]] = []
    rejected = 0
    for n_level in range(1, 6):
        for m_shift in (0, 1, 2):
            draws = _biorth_ahead(cfg, rng, n_level, m_shift, dual, read)
            got, lost = _sample(samples, cfg.max_redraws, draws)
            values += got
            rejected += lost
    name = "dual-biorth" if dual else "biorth"
    return _suite_result(name, 15 * samples, rejected, classes, values, [])


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    samples: int
    tol: float
    fn: Callable[[RunConfig, np.random.Generator, int, float], dict]


_REGISTRY: tuple[SuiteSpec, ...] = (
    SuiteSpec("theta", 200, 1e-10, _suite_theta),
    SuiteSpec("series", 50, 1e-11, _suite_series),
    SuiteSpec("bailey", 50, 1e-7, _suite_bailey),
    SuiteSpec("qdybe", 100, 1e-10, _suite_qdybe),
    SuiteSpec("relations", 50, 1e-9, _suite_relations),
    SuiteSpec("corep", 8, 1e-8, _suite_corep),
    SuiteSpec("unitarity", 20, 1e-8, _suite_unitarity),
    SuiteSpec("biorth", 10, 1e-6, partial(_suite_biorth, False)),
    SuiteSpec("dual-biorth", 10, 1e-6, partial(_suite_biorth, True)),
)

SUITE_NAMES = tuple(spec.name for spec in _REGISTRY)
_INDEX = {spec.name: i for i, spec in enumerate(_REGISTRY)}


def _tol(cfg: RunConfig, name: str) -> float:
    """The headline tolerance of a suite, or of its table: the override, else the registry's."""
    return cfg.tol if cfg.tol is not None else _REGISTRY[_INDEX[name]].tol


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Run one registered suite with its dedicated RNG stream."""
    if name not in _INDEX:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    spec = _REGISTRY[_INDEX[name]]
    rng = np.random.default_rng([cfg.seed, _INDEX[name]])
    samples = cfg.samples if cfg.samples is not None else spec.samples
    return spec.fn(cfg, rng, samples, _tol(cfg, name))


def suite_names(names: list[str] | None) -> list[str]:
    """The selected suites in order; none, or "all" among them, selects all."""
    return list(SUITE_NAMES) if not names or "all" in names else list(names)


def run_report(cfg: RunConfig, names: list[str] | None = None) -> dict:
    """Run the selected suites (default all) and assemble the full report."""
    return assemble_report(cfg, [run_suite(name, cfg) for name in suite_names(names)])


def assemble_report(cfg: RunConfig, records: list[dict]) -> dict:
    """The report around the suite records ``run_suite`` returned.

    Wall time is intentionally reported as null so reports stay byte-stable
    across machines; callers wanting timing print it to stderr.
    """
    return {
        "version": REPORT_VERSION,
        "seed": cfg.seed,
        "p": cfg.p,
        "q": cfg.q,
        "samples_override": cfg.samples,
        "tol_override": cfg.tol,
        "max_redraws": cfg.max_redraws,
        "suites": records,
        "pass": all(r["pass"] for r in records),
        "wall_time_ms": None,
    }


def canonical_json(report: dict) -> str:
    """The report as JSON, keys sorted, indented by two.

    JSON (RFC 8259) has no token for a non-finite number, so one is written
    as the string "inf", "-inf" or "nan"; every other value keeps its bytes.
    """
    return json.dumps(_finite(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite(value):
    """``value`` with each non-finite float, at any depth, spelled as a string."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _table(
    cfg: RunConfig, check: str, samples: int, rejected: int, tol: float, entries: list[dict], **head
) -> dict:
    """A table report: the shared header, the check's own ``head`` fields, and ``entries``.

    A table passes when it has entries, all pass, and some draw completed.
    """
    return {
        "version": REPORT_VERSION,
        "check": check,
        **head,
        "seed": cfg.seed,
        "samples": samples - rejected,
        "rejected": rejected,
        "tol": tol,
        "entries": entries,
        "pass": bool(entries) and all(e["pass"] for e in entries) and rejected < samples,
        "wall_time_ms": None,
    }


def _grid(values: list, n_level: int, second: str, tol: float) -> list[dict]:
    """Table entries of the worst residual per (k, ``second``) on the level's
    (N + 1) x (N + 1) grid, over samples of ((k, ``second``), residual) pairs.
    An entry no sample reached reads 0.0 and does not pass: nothing checked it."""
    top = _per_key(values)
    return [
        {
            "k": k,
            second: i,
            "max_rel_residual": top.get((k, i), 0.0),
            "pass": top.get((k, i), math.inf) <= tol,
        }
        for k in range(n_level + 1)
        for i in range(n_level + 1)
    ]


def corep_table(cfg: RunConfig, n_level: int, samples: int) -> dict:
    """Per-(k, j) worst tower residuals for one corepresentation level.

    The draws are made ahead (``_DrawAhead``), and the level's tower is
    bound at all the draws of a batch at once (``corep.closed_towers``);
    each draw's result, or the error it raises, is then that of
    ``_corep_tower`` at the draw alone."""
    rng = np.random.default_rng([cfg.seed, 100 + n_level])
    tol = _tol(cfg, "corep")

    def draw(k: int) -> list:
        return _rep_draws(cfg, rng, k)

    def check(tower, rc: RepContext, z: complex) -> Iterable:
        return _corep_tower(rc, z, n_level, tower).items()

    def evaluate(drawn: list) -> list:
        return _each(check, [(tower, *d) for d, tower in zip(drawn, closed_towers(tau_plan, n_level, drawn))])

    values, rejected = _sample(samples, cfg.max_redraws, _DrawAhead(draw, evaluate))
    entries = _grid(values, n_level, "j", tol)
    return _table(cfg, "corep", samples, rejected, tol, entries, N=n_level)


def bailey_table(cfg: RunConfig, order: int | None, samples: int) -> dict:
    """Per-sample residuals of the series transformation.

    ``order`` pins the truncation index of both sides; None draws it from
    0..6 per sample.  Draws whose condition number exceeds the cancellation
    budget of double precision are rejected and redrawn, as in the suite
    (``_bailey_ahead``).  Each entry reports the two factors of that condition
    apart: ``condition``, the report's cancellation between terms, and
    ``theta_condition``, the largest theta condition over the terms' factors.
    """
    rng = np.random.default_rng([cfg.seed, 300 + (99 if order is None else order)])
    tol = _tol(cfg, "bailey")

    def read(n: int, report, theta_cond: float) -> dict:
        return {
            "n": n,
            "residual": report.residual,
            "condition": report.condition,
            "theta_condition": theta_cond,
            "pass": report.residual <= tol,
        }

    entries, rejected = _sample(samples, cfg.max_redraws, _bailey_ahead(cfg, rng, order, read))
    return _table(cfg, "bailey", samples, rejected, tol, entries, n=order)


def qdybe_table(cfg: RunConfig, samples: int) -> dict:
    """Per-sample residuals of the shifted hexagon identity on three legs."""
    rng = np.random.default_rng([cfg.seed, 600])
    tol = _tol(cfg, "qdybe")

    def read(res: float, det: float) -> dict:
        return {
            "residual": res,
            "det_residual": det,
            "pass": res <= tol and det <= QDYBE_DET_TOL,
        }

    entries, rejected = _sample(samples, cfg.max_redraws, _qdybe_ahead(cfg, rng, read))
    return _table(cfg, "qdybe", samples, rejected, tol, entries, det_tol=QDYBE_DET_TOL)


def relations_table(
    cfg: RunConfig, omega: complex | None, lam: complex | None, samples: int
) -> dict:
    """Worst residual per defining relation, optionally at pinned weights.

    ``omega`` and ``lam`` pin the representation weight and evaluation point;
    None draws fresh values each sample.
    """
    rng = np.random.default_rng([cfg.seed, 700])
    tol = _tol(cfg, "relations")
    draws = _relations_ahead(cfg, rng, lambda relations, _: list(rows_of(relations).items()), omega, lam)
    values, rejected = _sample(samples, cfg.max_redraws, draws)
    entries = [
        {"relation": name, "max_rel_residual": v, "pass": v <= tol}
        for name, v in sorted(_per_key(values).items())
    ]
    pinned = {
        "omega": None if omega is None else [omega.real, omega.imag],
        "lambda": None if lam is None else [lam.real, lam.imag],
    }
    return _table(cfg, "relations", samples, rejected, tol, entries, **pinned)


def biorth_table(
    cfg: RunConfig, n_level: int, m_shift: int, samples: int, dual: bool
) -> dict:
    """Per-(k, l) worst residuals of the (dual) biorthogonality sum."""
    rng = np.random.default_rng(
        [cfg.seed, (500 if dual else 200) + 10 * n_level + m_shift]
    )
    check = "dual-biorth" if dual else "biorth"
    tol = _tol(cfg, check)

    def read(rows) -> list[tuple[tuple[int, int], float]]:
        # Row r is (k, l) = divmod(r, N + 1); its residual is its report's,
        # the worse of the sum and the oracle.
        return [(divmod(r, n_level + 1), worst((s, o))) for r, (s, _, o, _) in enumerate(rows)]

    draws = _biorth_ahead(cfg, rng, n_level, m_shift, dual, read)
    values, rejected = _sample(samples, cfg.max_redraws, draws)
    entries = _grid(values, n_level, "l", tol)
    return _table(cfg, check, samples, rejected, tol, entries, N=n_level, M=m_shift)
