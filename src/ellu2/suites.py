"""Registry-driven verification suites with deterministic JSON reporting.

Every suite draws generic parameters from the shared sampling policy, runs a
family of identity checks, and reports the worst relative residual seen.  The
RNG stream is seeded per suite from (seed, registry index), so a fixed seed
reproduces every sample and the report bytes exactly, whether a suite runs
alone or as part of the full battery.

Suites and the focused tables of ``ellu2 check`` share one engine:

- one loop, ``_sample``, draws each sample through ``run_with_redraws``,
  redrawing at poles, and returns the completed values and the rejected
  count;
- one fold, ``_worst``, keeps the worst residual per key, counting a NaN as
  +inf (``residuals.worst``) so that a check which breaks fails its gate;
- ``_suite_result`` returns a suite's record and ``_table`` a table's
  report; the two own the pass rules, and ``_grid`` folds the per-(k, j)
  and per-(k, l) entries of the corep and biorth tables;
- each per-sample body a suite shares with its table is written once
  (``_corep_tower``, ``_qdybe_draw``, ``_relations_ahead``,
  ``_biorth_ahead``, ``_bailey_draw``) and consumes the RNG in the same
  order for both.

The theta suite, and the suites and tables whose checks are compiled
(biorth and dual-biorth, relations, unitarity, and the corep tables), draw
ahead through one sampler, ``_DrawAhead``, and evaluate the attempts of up
to ``AHEAD`` unfinished samples in one batch, which returns each draw's
results (the theta suite's residual of ``_theta_batch``, the relation and
unitarity rows of ``rep.bind_rows``, the biorth rows of
``biorth.sweep_rows``, a tower's residuals) or its error.  A batch never
raises at a pole of one draw: ``theta.theta_columns`` names the draws
whose theta values fail and ``Template.bind_all`` reports each draw's
failures as codes, and each batch turns them into that draw's error.
An attempt makes all its ``rng`` calls before anything of it is evaluated,
as many whatever the outcome, and every unfinished sample takes at least
one more attempt; so no drawn attempt goes unused, and the stream, the
redraws and the reports are those of drawing one at a time.  The cap bounds
what one batch binds: the relations suite's 50 draws bound together would
add several MB to peak memory.

A batch does its per-draw work on arrays, each draw with the bits it
gets alone: its attempts are drawn in one ``sampling.draw_batch`` call
(``RunConfig.draws``; ``_rep_draws`` for the representation samplers),
the theta suite computes every draw's residuals at once on split arrays
(``_theta_batch``), and a compiled check folds every draw of its bind at
once (``rep.Compiled.fold``).  The one-draw-at-a-time forms these replaced
are kept beside the tests as their references.

Each draw is read in one pass: the theta suite reads a draw's theta
values from its batch, which evaluates every draw's in one
``theta_columns`` call (``_theta_batch``), the series suite finishes both
its evaluators from one lookup of the vector cache, and the biorth suites
and tables read a draw's rows as its batch gave them
(``biorth.sweep_rows``).  Nothing that reads a draw binds: a sampler's
batch, or a one-sample entry, binds it.

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
    closed_tower,
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
from .residuals import TINY, rel_to_terms, spread, worst
from .rmatrix import det_residual, qdybe_residual
from .sampling import draw_batch, draw_context, draw_lambda, draw_z, run_with_redraws
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

    def context(self, rng: np.random.Generator, zero_guard: float = 1e-12):
        return draw_context(rng, self.p, self.q, zero_guard)

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
    ``_c_abs``), so each residual has the bits a loop over one draw gives.
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
    scale = TINY
    for big in size * cond.reshape(vr.shape).max(axis=1):
        scale = np.where(big > scale, big, scale)
    total = (0.0, 0.0)
    for tr, ti in zip(*t):
        total = (total[0] + tr, total[1] + ti)
    top, top_beyond = _c_abs(*total)
    # The errors the loop meets, in its order: each term's product (one
    # beyond range leaves |term| unraised), then |term| and its
    # conditions; then |total|.
    over = beyond | over.reshape(vr.shape).any(axis=1)
    finite = np.isfinite(product[0]) & np.isfinite(product[1])
    met = np.where(finite, np.where(over, CODE[ABS_RANGE], 0), CODE[THETA_RANGE])
    for row in [*met, np.where(top_beyond, CODE[ABS_RANGE], 0)]:
        np.copyto(code, row, where=code == 0)
    return top / scale


def _sample(
    samples: int,
    max_redraws: int,
    sample_fn: Callable[[], object],
    pending: Callable[[int], None] | None = None,
) -> tuple[list, int]:
    """(values, rejected): ``samples`` draws of ``sample_fn``, each redrawn at poles.

    ``values`` holds the completed draws in order; a draw still at a pole
    after ``max_redraws`` attempts counts as rejected.  ``pending``, when
    given, is told before each sample how many samples, that one included,
    are still unfinished (``_DrawAhead``).
    """
    values = []
    for i in range(samples):
        if pending is not None:
            pending(samples - i)
        value, rejected = run_with_redraws(sample_fn, max_redraws)
        if not rejected:
            values.append(value)
    return values, samples - len(values)


def _worst(values: Iterable[Iterable[tuple]], keys: Iterable = ()) -> dict:
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
    top = _worst((value.items() for value in values), classes)
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
    sample_fn: Callable[[], dict[str, float]],
    notes: list[str],
    pending: Callable[[int], None] | None = None,
) -> dict:
    """Run a per-sample closure with pole redraws; aggregate named residuals."""
    values, rejected = _sample(samples, max_redraws, sample_fn, pending)
    return _suite_result(name, samples, rejected, classes, values, notes)


class _DrawAhead:
    """Attempts drawn ahead and evaluated in batches.

    ``draw(k)`` makes the draws of k attempts, with all their ``rng``
    calls, in one ``sampling.draw_batch``, which gives each attempt the
    numbers drawing it alone gives, and ``evaluate(drawn)`` gives the
    result of each of a list of them, or the error of a draw that failed,
    not raised.  Each call of ``attempt`` is one attempt.  When no drawn
    attempt is left, it draws as many as there are samples still
    unfinished (``pending``), at most ``AHEAD``, and evaluates them
    together, once.  An attempt takes the next draw's result, or raises a
    fresh error of its error's type and message (``rep.rows_of``).  Nothing
    of a batch is kept but these results, each popped by its attempt.
    """

    def __init__(self, draw: Callable[[int], list], evaluate: Callable[[list], list]):
        self.draw, self.evaluate = draw, evaluate
        self.unfinished = 1
        self.queue: deque = deque()

    def pending(self, unfinished: int) -> None:
        self.unfinished = unfinished

    def attempt(self):
        if not self.queue:
            drawn = self.draw(min(self.unfinished, AHEAD))
            self.queue.extend(self.evaluate(drawn))
        return rows_of(self.queue.popleft())


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
        # |lhs - rhs| / max(|lhs|, |rhs|, TINY) of theta(p z) and
        # theta(1 / z) against -theta(z) / z, and of each theta(q^(-2s))
        # against -q^(-2s) theta(q^(2s)).
        lhs, rhs = (vr[1:8], vi[1:8]), (np.vstack([sr, sr, nr]), np.vstack([si, si, ni]))
        parts = [(lhs[0] - rhs[0], lhs[1] - rhs[1]), lhs, rhs]
        (diff, d_over), (left, l_over), (right, r_over) = [_c_abs(*x) for x in parts]
        over = (d_over | l_over | r_over).any(axis=0)
        np.copyto(code, CODE[ABS_RANGE], where=(code == 0) & over)
        larger = np.where(right > left, right, left)
        res = diff / np.where(TINY > larger, TINY, larger)
        # The terms' coefficients: 1, -1 and -z / y.
        coefficients = (np.vstack([np.ones(k), -np.ones(k), dr[7]]), np.vstack([np.zeros((2, k)), di[7]]))
        terms = (coefficients, (vr[13:].reshape(3, 4, k), vi[13:].reshape(3, 4, k)))
        top = np.maximum(res.max(axis=0), _theta_identity_residual(terms, columns[13:], p, code))
    # ``residuals.worst``: the largest and 0.0, or +inf where any is NaN.
    top = np.where(np.isnan(top), math.inf, np.maximum(top, 0.0))
    return [error(c) if c else {"theta identities": r} for r, c in zip(top.tolist(), code.tolist())]


def _suite_theta(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:

    def draw(k: int) -> list:
        # The context, then z, w, x and y, in that order.
        return list(zip(*cfg.draws(rng, k, ("context", *("annulus",) * 4))))

    draws = _DrawAhead(draw, _theta_batch)
    classes = {"theta identities": tol}
    return _drive("theta", samples, cfg.max_redraws, classes, draws.attempt, [], draws.pending)


def _suite_series(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:
    notes: list[str] = []

    def sample() -> dict[str, float]:
        ctx = cfg.context(rng)
        n = int(rng.integers(0, 9))
        a1 = draw_z(rng)
        uppers = [draw_z(rng) for _ in range(5)]
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
        perm = tuple(free[i] for i in rng.permutation(6))
        permuted = eval_omega(SeriesSpec(spec.a1, perm + (qarg(-n),), 6, ctx))
        res.append(rel_to_terms(value, permuted.value, max_term))
        return {"evaluator agreement": worst(res)}

    return _drive("series", samples, cfg.max_redraws, {"evaluator agreement": tol}, sample, notes)


BAILEY_MAX_CONDITION = 1e6


def _bailey_draw(cfg: RunConfig, rng: np.random.Generator, order: int | None):
    """(n, report, theta condition) of one drawn transformation check.

    The draw is gated on the report's condition, the cancellation between
    terms, times the theta condition, the largest ``theta_condition`` over the
    terms' factors (``bailey_theta_condition``).  A draw whose product passes
    ``BAILEY_MAX_CONDITION`` raises ``PoleError``, to be redrawn: the forced
    seventh parameter can land near a pole, and p near a power of q^2 puts a
    factor of the terminating row near a zero of theta; either hides the
    identity behind rounding double precision cannot resolve.
    """
    ctx = cfg.context(rng)
    n = int(rng.integers(0, 7)) if order is None else order
    args = tuple(draw_z(rng) for _ in range(6))
    report = check_bailey(*args, n, ctx)
    theta_cond = bailey_theta_condition(*args, n, ctx)
    condition = report.condition * theta_cond
    if condition > BAILEY_MAX_CONDITION:
        raise PoleError(
            f"bailey draw condition {condition:.2e} exceeds {BAILEY_MAX_CONDITION:g}"
        )
    return n, report, theta_cond


def _suite_bailey(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:

    def sample() -> dict[str, float]:
        return {"transformation": _bailey_draw(cfg, rng, None)[1].residual}

    return _drive("bailey", samples, cfg.max_redraws, {"transformation": tol}, sample, [])


def _qdybe_draw(cfg: RunConfig, rng: np.random.Generator) -> tuple[float, float]:
    """(hexagon residual, middle determinant residual) of one drawn R-matrix."""
    ctx = cfg.context(rng)
    lam = draw_lambda(rng)
    z1, z2, z3 = (draw_z(rng) for _ in range(3))
    return qdybe_residual(lam, z1, z2, z3, ctx), det_residual(lam, z1, ctx)


def _suite_qdybe(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:
    def sample() -> dict[str, float]:
        res, det = _qdybe_draw(cfg, rng)
        return {"hexagon": res, "det closed form": det}

    classes = {"hexagon": tol, "det closed form": QDYBE_DET_TOL}
    return _drive("qdybe", samples, cfg.max_redraws, classes, sample, [])


def _relations_ahead(
    cfg: RunConfig,
    rng: np.random.Generator,
    omega: complex | None = None,
    lam: complex | None = None,
    det_forms: bool = False,
) -> _DrawAhead:
    """The draw-ahead sampler of the relation checks: an attempt gives the
    outcomes (``rep.bind_rows``) of its draw of a rep context and z1, z2,
    z: the relation rows, and with ``det_forms`` the determinant-form
    rows, else None."""

    def draw(k: int) -> list:
        # Relation sides multiply up to eight theta-quotient coefficients, so
        # a denominator theta of magnitude 1e-7 already costs 1e-9 relative
        # accuracy; insist on a wider pole margin than the evaluation default.
        return _rep_draws(cfg, rng, k, omega, lam, zero_guard=1e-4, points=3)

    def evaluate(drawn: list) -> list:
        points = [(rc, {"z": z, "z1": z1, "z2": z2}) for rc, z1, z2, z in drawn]
        relations = bind_rows(_relation_rows, RELATIONS_SHAPE, points)
        if not det_forms:
            return [(rows, None) for rows in relations]
        forms = bind_rows(_det_form_rows, DET_FORMS_SHAPE, [(rc, {"z": z}) for rc, *_, z in drawn])
        return list(zip(relations, forms))

    return _DrawAhead(draw, evaluate)


def _suite_relations(cfg: RunConfig, rng: np.random.Generator, samples: int, tol: float) -> dict:
    notes: list[str] = []
    det_tol = 1e-10
    flagged: set[str] = set()
    draws = _relations_ahead(cfg, rng, det_forms=True)

    def sample() -> dict[str, float]:
        relations, forms = draws.attempt()
        rows = rows_of(relations)
        # Flagged before the determinant forms' error is raised: an attempt
        # redrawn at that error keeps its notes.
        for rel_name, res in rows.items():
            if res > tol and rel_name not in flagged:
                flagged.add(rel_name)
                notes.append(f"relation over tolerance: {rel_name} ({res:.3e})")
        return {"defining relations": worst(rows.values()), "det forms": worst(rows_of(forms).values())}

    return _drive(
        "relations",
        samples,
        cfg.max_redraws,
        {"defining relations": tol, "det forms": det_tol},
        sample,
        notes,
        draws.pending,
    )


def _corep_tower(
    rc: RepContext, z: complex, n_level: int, tower: Callable[..., complex]
) -> dict[tuple[int, int], float]:
    """Worst spread per (k, j) at one level between the word action,
    ``tau_product`` and the closed form, over m < ``TOWER_M``.  The word
    action and the closed form come bound at the draw as ``tower``, the
    level's reader of ``corep.closed_tower`` or ``corep.closed_towers``,
    compiled once for the level; ``tau_product`` is the one side evaluated
    over numbers, by one reader for the draw and level
    (``corep.product_tower``), which evaluates each prefactor, elliptic
    binomial and letter coefficient once.  Each (k, j, m) reads, or raises,
    its word action, then its ``tau_product``, then its closed form, so the
    first error of a draw is the one a numeric tower raises first."""
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

    def sample() -> dict[str, float]:
        nonlocal completed, min_indep
        rc, z = _rep_draws(cfg, rng, 1)[0]
        ctx, omega, lam0 = rc.ctx, rc.omega, rc.lam0
        tower = worst(
            res
            for n_level in range(1, 5)
            for res in _corep_tower(rc, z, n_level, closed_tower(tau_plan, n_level, rc, z)).values()
        )
        star_res = []
        for n_level in range(1, 4):
            conjugate = closed_tower(tau_tilde_plan, n_level, rc, z)
            star_res += [
                spread([conjugate(k, j, m, "word"), conjugate(k, j, m)])
                for k in range(n_level + 1)
                for j in range(n_level + 1)
                for m in range(TOWER_M)
            ]
        for n_level in range(1, 6):
            counit_failures.extend(check_counit_exact(n_level, z, ctx))
        out = {"matrix element tower": tower, "conjugate tower": worst(star_res)}
        if completed < heavy_draws:
            rc2 = RepContext(draw_lambda(rng), lam0, ctx)
            out["tensor coproduct"] = worst(
                check_coproduct(n_level, z, m, n, rc, rc2)
                for n_level in range(1, 4)
                for m in range(3)
                for n in range(3)
            )
            out["tensor relations"] = worst(
                check_tensor_relation(lhs, rhs, m, n, rc, rc2)
                for _, lhs, rhs in relation_inventory(draw_z(rng), draw_z(rng), ctx)
                for m in range(2)
                for n in range(2)
            )
            # More points than columns, each at its own basis index.
            points = [(draw_z(rng), m) for m in range(6)]
            for n_level in range(1, 4):
                ratio = linear_independence_ratio(
                    n_level, lam0, omega, ctx, points[: n_level + 3]
                )
                # A NaN ratio certifies nothing: count it as 0.0, below the floor.
                min_indep = min(min_indep, 0.0 if math.isnan(ratio) else ratio)
        completed += 1
        return out

    classes = {
        "matrix element tower": tol,
        "conjugate tower": tol,
        "tensor coproduct": tol,
        "tensor relations": tensor_tol,
    }
    values, rejected = _sample(samples, cfg.max_redraws, sample)
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

    draws = _DrawAhead(draw, evaluate)
    return _drive(
        "unitarity",
        samples,
        cfg.max_redraws,
        {"unitarity": tol, "inversion sums": inversion_tol},
        draws.attempt,
        [],
        draws.pending,
    )


def _biorth_ahead(
    cfg: RunConfig, rng: np.random.Generator, n_level: int, m_shift: int, dual: bool
) -> _DrawAhead:
    """The draw-ahead sampler at one sweep shape (N, M), direct or dual: an
    attempt gives the rows of its draw's (dual) sweep (``biorth.sweep_rows``),
    which the suite and the table read."""

    def draw(k: int) -> list:
        drawn = cfg.draws(rng, k, ("context", "box", "box", "annulus"))
        return [BiorthParams(n_level, lam, m_shift, omega, z, ctx) for ctx, lam, omega, z in zip(*drawn)]

    return _DrawAhead(draw, partial(sweep_rows, dual=dual))


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
    values: list[dict[str, float]] = []
    rejected = 0
    for n_level in range(1, 6):
        for m_shift in (0, 1, 2):
            draws = _biorth_ahead(cfg, rng, n_level, m_shift, dual)

            def sample() -> dict[str, float]:
                # The classes in the order of a row's fields, max term left out.
                return dict(zip(classes, map(worst, zip(*draws.attempt()))))

            got, lost = _sample(samples, cfg.max_redraws, sample, draws.pending)
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
    top = _worst(values)
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

    def evaluate(drawn: list) -> list:
        out: list = []
        for (rc, z), tower in zip(drawn, closed_towers(tau_plan, n_level, drawn)):
            try:
                out.append(_corep_tower(rc, z, n_level, tower).items())
            except ArithmeticError as exc:
                out.append(exc)
        return out

    draws = _DrawAhead(draw, evaluate)
    values, rejected = _sample(samples, cfg.max_redraws, draws.attempt, draws.pending)
    entries = _grid(values, n_level, "j", tol)
    return _table(cfg, "corep", samples, rejected, tol, entries, N=n_level)


def bailey_table(cfg: RunConfig, order: int | None, samples: int) -> dict:
    """Per-sample residuals of the series transformation.

    ``order`` pins the truncation index of both sides; None draws it from
    0..6 per sample.  Draws whose condition number exceeds the cancellation
    budget of double precision are rejected and redrawn, as in the suite
    (``_bailey_draw``).  Each entry reports the two factors of that condition
    apart: ``condition``, the report's cancellation between terms, and
    ``theta_condition``, the largest theta condition over the terms' factors.
    """
    rng = np.random.default_rng([cfg.seed, 300 + (99 if order is None else order)])
    tol = _tol(cfg, "bailey")

    def sample() -> dict:
        n, report, theta_cond = _bailey_draw(cfg, rng, order)
        return {
            "n": n,
            "residual": report.residual,
            "condition": report.condition,
            "theta_condition": theta_cond,
            "pass": report.residual <= tol,
        }

    entries, rejected = _sample(samples, cfg.max_redraws, sample)
    return _table(cfg, "bailey", samples, rejected, tol, entries, n=order)


def qdybe_table(cfg: RunConfig, samples: int) -> dict:
    """Per-sample residuals of the shifted hexagon identity on three legs."""
    rng = np.random.default_rng([cfg.seed, 600])
    tol = _tol(cfg, "qdybe")

    def sample() -> dict:
        res, det = _qdybe_draw(cfg, rng)
        return {
            "residual": res,
            "det_residual": det,
            "pass": res <= tol and det <= QDYBE_DET_TOL,
        }

    entries, rejected = _sample(samples, cfg.max_redraws, sample)
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
    draws = _relations_ahead(cfg, rng, omega, lam)

    def sample() -> list[tuple[str, float]]:
        relations, _ = draws.attempt()
        return list(rows_of(relations).items())

    values, rejected = _sample(samples, cfg.max_redraws, sample, draws.pending)
    entries = [
        {"relation": name, "max_rel_residual": v, "pass": v <= tol}
        for name, v in sorted(_worst(values).items())
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
    draws = _biorth_ahead(cfg, rng, n_level, m_shift, dual)

    def sample() -> list[tuple[tuple[int, int], float]]:
        # Row r is (k, l) = divmod(r, N + 1); its residual is its report's,
        # the worse of the sum and the oracle.
        rows = enumerate(draws.attempt())
        return [(divmod(r, n_level + 1), worst((s, o))) for r, (s, _, o, _) in rows]

    values, rejected = _sample(samples, cfg.max_redraws, sample, draws.pending)
    entries = _grid(values, n_level, "l", tol)
    return _table(cfg, check, samples, rejected, tol, entries, N=n_level, M=m_shift)
