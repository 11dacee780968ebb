"""Elliptic dynamical R-matrix on the tensor square of the two-dimensional module.

The matrix acts on span(e_+1, e_-1)^(x2) and preserves weight, so it is
determined by the scalars on e_+1 x e_+1 and e_-1 x e_-1 (both 1) and the
middle two-by-two block (a, b; c, d) in the basis (e_+1 x e_-1, e_-1 x e_+1).
The shifted Yang-Baxter equation on the tensor cube moves the dynamical
parameter by the weight of the spectator leg.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .residuals import TINY, residual_between
from .theta import PoleError, ThetaContext, theta

__all__ = [
    "r_entries",
    "r_matrix",
    "middle_det_closed",
    "det_residual",
    "qdybe_residual",
]


def _guarded(value: complex, ctx: ThetaContext, label: str) -> complex:
    if abs(value) < ctx.zero_guard:
        raise PoleError(f"{label} below zero guard")
    return value


_R_GUARDS = tuple(
    f"{label} below zero guard"
    for label in ("theta(q^2 z)", "theta(q^(2 lam + 2))", "theta(q^(-2 lam - 2))")
)


def r_entries(lam: complex, z: complex, ctx: ThetaContext) -> tuple[complex, complex, complex, complex]:
    """Middle-block entries (a, b, c, d) at dynamical parameter lam and spectral z.

    The entries are guarded by theta(q^2 z), theta(q^(2 lam + 2)) and
    theta(q^(-2 lam - 2)), in that order.  Over records (the relation
    checks' templates) the entries are ``Factor``s, each carrying the three
    guards, since a path may read one entry only.
    """
    q2 = ctx.qpow(2)
    q2z, lp, lm = q2 * z, ctx.qpow(2 * (lam + 1)), ctx.qpow(-2 * (lam + 1))
    checked = ctx.check([(None, (arg,), (), m) for arg, m in zip((q2z, lp, lm), _R_GUARDS)])
    entries = (
        ctx.quotient(None, (z, ctx.qpow(2 * (lam + 2))), (q2z, lp)),
        ctx.quotient(None, (q2, lm * z), (q2z, lm)),
        ctx.quotient(None, (q2, lp * z), (q2z, lp)),
        ctx.quotient(None, (z, ctx.qpow(-2 * lam)), (q2z, lm)),
    )
    if checked is None:
        return entries
    return tuple(entry * checked for entry in entries)


def r_matrix(lam: complex, z: complex, ctx: ThetaContext) -> np.ndarray:
    """Four-by-four matrix in the basis (e+ e+, e+ e-, e- e+, e- e-)."""
    a, b, c, d = r_entries(lam, z, ctx)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    m[3, 3] = 1.0
    m[1, 1] = a
    m[1, 2] = b
    m[2, 1] = c
    m[2, 2] = d
    return m


def middle_det_closed(z: complex, ctx: ThetaContext) -> complex:
    """Closed form of the middle-block determinant, independent of lam."""
    q2 = ctx.qpow(2)
    return q2 * theta(z / q2, ctx) / _guarded(theta(z * q2, ctx), ctx, "theta(q^2 z)")


def det_residual(lam: complex, z: complex, ctx: ThetaContext) -> float:
    """Error of ``a d - b c`` against ``middle_det_closed``, relative to its inputs.

    The scale is max(|a d|, |b c|, |closed|): when the two products cancel,
    their rounding error stays a few ulps of |a d|, however small the
    determinant.
    """
    a, b, c, d = r_entries(lam, z, ctx)
    ad, bc = a * d, b * c
    closed = middle_det_closed(z, ctx)
    return abs(ad - bc - closed) / max(abs(ad), abs(bc), abs(closed), TINY)


def _embed_index(legs: tuple[int, int], spectator: int) -> np.ndarray:
    """The index table of ``_embed`` for one pair of legs: for each cell of
    the 8x8 matrix that a two-leg matrix reaches, in rows, its flat position,
    the flat position of its entry among the two-leg matrices of weights +1
    and -1 stacked, and the same among one matrix."""
    i, j = legs
    cells = []
    for col in range(8):
        bits_in = ((col >> 2) & 1, (col >> 1) & 1, col & 1)
        sub_col = 2 * bits_in[i] + bits_in[j]
        for sub_row in range(4):
            bits_out = list(bits_in)
            bits_out[i] = (sub_row >> 1) & 1
            bits_out[j] = sub_row & 1
            row = (bits_out[0] << 2) | (bits_out[1] << 1) | bits_out[2]
            entry = 4 * sub_row + sub_col
            cells.append((8 * row + col, 16 * bits_in[spectator] + entry, entry))
    return np.array(cells).T


# One index table per pair of legs, with the third leg as the spectator.
_EMBED = {
    (legs, 3 - sum(legs)): _embed_index(legs, 3 - sum(legs)) for legs in ((0, 1), (0, 2), (1, 2))
}


def _embed(
    rm_by_weight: dict[Optional[int], np.ndarray],
    legs: tuple[int, int],
    spectator: int,
    shifted: bool,
) -> np.ndarray:
    """Embed a two-leg matrix into the tensor cube, optionally branching on the
    spectator weight.  Leg bits are 0 for weight +1 and 1 for weight -1; basis
    index is the big-endian bit string (b1, b2, b3).

    The cells come from the constant index table of the legs (``_EMBED``):
    each cell of the cube matrix is 0 plus the one entry of the two-leg
    matrix (of the spectator's weight, when ``shifted``) that lands there,
    or 0.  Adding to 0 turns a -0.0 part of an entry into +0.0;
    ``tests/test_kernel_reference.py`` holds the cells to the earlier loop
    over cells, bit for bit.
    """
    cell, stacked, single = _EMBED[legs, spectator]
    if shifted:
        entries = np.concatenate((rm_by_weight[1].ravel(), rm_by_weight[-1].ravel()))[stacked]
    else:
        entries = rm_by_weight[None].ravel()[single]
    out = np.zeros(64, dtype=complex)
    out[cell] += entries
    return out.reshape(8, 8)


def _leg_op(
    lam: complex,
    z: complex,
    legs: tuple[int, int],
    spectator: int,
    shifted: bool,
    ctx: ThetaContext,
) -> np.ndarray:
    if shifted:
        rms = {w: r_matrix(lam - w, z, ctx) for w in (+1, -1)}
    else:
        rms = {None: r_matrix(lam, z, ctx)}
    return _embed(rms, legs, spectator, shifted)


def qdybe_residual(
    lam: complex, z1: complex, z2: complex, z3: complex, ctx: ThetaContext
) -> float:
    """Max-norm relative residual of the shifted Yang-Baxter equation:
    ``residual_between`` of its two sides' 64 entries, each side a map of
    flat index to entry.

    Left side: R12 shifted by leg 3, then R13, then R23 shifted by leg 1.
    Right side: R23, then R13 shifted by leg 2, then R12.  Matrices compose
    right to left.
    """
    z12, z13, z23 = z1 / z2, z1 / z3, z2 / z3
    lhs = (
        _leg_op(lam, z12, (0, 1), 2, True, ctx)
        @ _leg_op(lam, z13, (0, 2), 1, False, ctx)
        @ _leg_op(lam, z23, (1, 2), 0, True, ctx)
    )
    rhs = (
        _leg_op(lam, z23, (1, 2), 0, False, ctx)
        @ _leg_op(lam, z13, (0, 2), 1, True, ctx)
        @ _leg_op(lam, z12, (0, 1), 2, False, ctx)
    )
    return residual_between(*(dict(enumerate(side.ravel().tolist())) for side in (lhs, rhs)))
