"""The per-draw forms of the drawn-ahead batches, kept as references.

The suites draw, check and fold each drawn-ahead batch on arrays:
``sampling.draw_batch`` draws a batch's attempts in one call,
``suites._theta_batch`` computes the theta suite's residuals for all its
draws at once, and ``rep.Compiled.fold`` folds every draw of a bind
together.  These are the one-draw-at-a-time forms those replaced, over
Python numbers, which the batches must equal bit for bit:

- the draw of one attempt of each drawn-ahead sampler, one ``rng.uniform``
  per slot (``theta_attempt`` ... ``biorth_attempt``);
- the theta suite's worst residual at one draw (``theta_outcome``, from
  ``theta_worst``, ``theta_identity_residual`` and the scalar
  ``theta_condition``);
- a compiled check's rows at one draw (``compiled_outcome``,
  ``compiled_fold``).

``batch_identity_residual`` runs the suite's array form of the three-term
residual at one draw, so that a test can hold it against the reference.
"""

import cmath
import math

import numpy as np

from ellu2 import suites
from ellu2.biorth import BiorthParams
from ellu2.rep import RepContext, item_errors
from ellu2.residuals import TINY, worst
from ellu2.sampling import draw_lambda, draw_z
from ellu2.theta import THETA_RANGE, PoleError, theta_vec


# -- the draws ----------------------------------------------------------------


def rep_attempt(cfg, rng, omega=None, lam=None, zero_guard=1e-12):
    """The base, then the weight omega and evaluation point lambda, each drawn unless pinned."""
    ctx = cfg.context(rng, zero_guard)
    omega = draw_lambda(rng) if omega is None else omega
    lam = draw_lambda(rng) if lam is None else lam
    return RepContext(omega, lam, ctx)


def theta_attempt(cfg, rng):
    # The context, then z, w, x and y, in that order.
    return (cfg.context(rng), *(draw_z(rng) for _ in range(4)))


def relations_attempt(cfg, rng, omega=None, lam=None):
    rc = rep_attempt(cfg, rng, omega, lam, zero_guard=1e-4)
    z1, z2, z = (draw_z(rng) for _ in range(3))
    return rc, z1, z2, z


def unitarity_attempt(cfg, rng):
    """An attempt of the unitarity suite, and of the corep table."""
    return rep_attempt(cfg, rng), draw_z(rng)


def biorth_attempt(cfg, rng, n_level, m_shift):
    ctx = cfg.context(rng)
    lam, omega, z = draw_lambda(rng), draw_lambda(rng), draw_z(rng)
    return BiorthParams(n_level, lam, m_shift, omega, z, ctx)


# -- the theta suite --------------------------------------------------------


def theta_condition(z, p):
    """Largest |x| / |1 - x| over the long-product factors 1 - x of theta(z)."""
    cond = 1.0
    for x in (z, p / z):
        while abs(x) >= 0.5:
            cond = max(cond, abs(x) / max(abs(1.0 - x), 1e-300))
            x *= p
    return cond


def theta_identity_residual(terms, values, ctx):
    """Residual of sum_i c_i theta(args_i) = 0 for terms (c_i, args_i), where
    ``values`` holds the theta values of the terms' arguments, in order; a
    product beyond the double range raises ``PoleError``, as a value does."""
    total = 0.0 + 0.0j
    scale = TINY
    read = iter(values)
    for c, args in terms:
        product = math.prod([next(read) for _ in args], start=1.0 + 0.0j)
        if not cmath.isfinite(product):
            raise PoleError(THETA_RANGE)
        t = c * product
        total += t
        scale = max(scale, abs(t) * max(theta_condition(a, ctx.p) for a in args))
    return abs(total) / scale


def batch_identity_residual(terms, values, ctx):
    """(residual, failure code) of ``theta_identity_residual``'s terms and
    values by ``suites._theta_identity_residual``, a batch of one draw;
    every term takes the same number of arguments."""
    n = len(terms)
    c = np.array([[complex(c)] for c, _ in terms])
    v = np.array(values, dtype=complex).reshape(n, -1, 1)
    args = np.array([a for _, args in terms for a in args], dtype=complex).reshape(-1, 1)
    code = np.zeros(1, dtype=int)
    with np.errstate(all="ignore"):
        res = suites._theta_identity_residual(((c.real, c.imag), (v.real, v.imag)), args, np.array([ctx.p]), code)
    return res[0], int(code[0])


def rel(lhs, rhs):
    """|lhs - rhs| relative to the larger side."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), TINY)


def theta_worst(values, ctx, z, down, three_term):
    """The worst residual of the theta suite's identities at one draw from
    its theta values; a value beyond the double range raises ``PoleError``."""
    if not all(map(cmath.isfinite, values)):
        raise PoleError(THETA_RANGE)
    shifted = -values[0] / z
    res = [rel(values[1], shifted), rel(values[2], shifted)]
    res += [rel(values[3 + i], -down[i] * values[8 + i]) for i in range(5)]
    res.append(theta_identity_residual(three_term, values[13:], ctx))
    return worst(res)


def theta_outcome(ctx, z, w, x, y):
    """The theta suite's worst residual at one draw, each theta value
    ``theta_vec``'s, or its error raised."""
    down = [ctx.qpow(-2 * s) for s in range(1, 6)]
    up = [ctx.qpow(2 * s) for s in range(1, 6)]
    three_term = [
        (1.0, (x * y, x / y, z * w, z / w)),
        (-1.0, (x * w, x / w, z * y, z / y)),
        (-z / y, (x * z, x / z, y * w, y / w)),
    ]
    column = [z, ctx.p * z, 1.0 / z, *down, *up, *(a for _, t in three_term for a in t)]
    values = theta_vec(column, ctx).tolist()
    return theta_worst(values, ctx, z, down, three_term)


# -- the compiled checks ----------------------------------------------------


def compiled_outcome(check, values, codes, zero_guard):
    """Each row's residual by key of the compiled ``check`` at one draw,
    from its values and failure codes; or the error of the first row that
    fails, never raised."""
    item_error = item_errors(check.guard_rows, values, codes, zero_guard)
    for guards, paths in check.items:
        failure = item_error(guards, paths)
        if failure is not None:
            return failure
    return dict(zip(check.keys, compiled_fold(check, values[: check.paths]).tolist()))


def compiled_fold(check, values):
    """Each row's residual at one draw from its paths' values; a NaN
    anywhere in a row makes it +inf, as ``residuals.worst`` folds it."""
    groups, cells, entries = len(check.group_row), len(check.cell_sign), len(check.entry_group)
    sr = np.bincount(check.path_cell, values.real, cells)
    si = np.bincount(check.path_cell, values.imag, cells)
    dr = np.bincount(check.cell_entry, sr * check.cell_sign, entries)
    di = np.bincount(check.cell_entry, si * check.cell_sign, entries)
    diff = np.zeros(groups)
    scale = np.full(groups, TINY)
    out = np.zeros(len(check.keys))
    with np.errstate(invalid="ignore"):
        np.maximum.at(diff, check.entry_group, np.hypot(dr, di))
        np.maximum.at(scale, check.cell_group, np.hypot(sr, si))
        np.maximum.at(scale, check.peak_group, np.hypot(values.real, values.imag)[check.peak_paths])
        np.maximum.at(out, check.group_row, diff / scale)
    out[np.isnan(out)] = np.inf
    return out
