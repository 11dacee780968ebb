"""Terminating very-well-poised balanced series in base (q^2, p).

A series of level r is determined by the leading parameter a1 and the upper
parameters a4, ..., a_{r+1}; term k carries

    theta(a1 q^(4k)) / theta(a1) * q^(2k)
        * (a1)_k prod_i (a_i)_k / [ (q^2)_k prod_i (a1 q^2 / a_i)_k ].

One designated upper parameter must be an exact negative power q^(-2n), which
terminates the sum at k = n.  The balancing constraint, the square of the
product of upper parameters equal to a1^(r-3) q^(2(r-5)), is checked in an
advisory way: exactly when every parameter is tracked, otherwise numerically
up to an integer power of the nome.

The core evaluator accumulates running products column by column (never
recomputing full Pochhammer symbols per term) and supports a merged slot: one
denominator Pochhammer replaced by the partial-product ratio against a
numerator Pochhammer of fixed length.  That is how prefactor zeros cancel
series poles at integer specializations without ever forming 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .theta import (
    PoleError,
    ThetaContext,
    ThetaProduct,
    TrackedArg,
    garg,
    qarg,
    theta_vec_cached,
)

__all__ = [
    "SeriesSpec",
    "SeriesValue",
    "BaileyReport",
    "vwp_sum",
    "eval_omega",
    "eval_omega_termwise",
    "bailey_g",
    "check_bailey",
]


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of one terminating very-well-poised balanced series.

    ``upper`` holds a4, ..., a_{r+1}; ``termination_slot`` indexes the entry
    that must be an exact q^(-2n) power.
    """

    a1: TrackedArg
    upper: tuple[TrackedArg, ...]
    termination_slot: int
    ctx: ThetaContext

    def __post_init__(self) -> None:
        if len(self.upper) < 1:
            raise ValueError("need at least one upper parameter")
        if not 0 <= self.termination_slot < len(self.upper):
            raise ValueError("termination_slot out of range")
        t = self.upper[self.termination_slot]
        if not (t.is_one and t.s <= 0):
            raise ValueError("termination slot must be an exact q^(-2n) power, n >= 0")

    @property
    def termination_index(self) -> int:
        return -self.upper[self.termination_slot].s

    @property
    def level(self) -> int:
        """r in the r+1-on-r counting: upper parameters are a4..a_{r+1}."""
        return len(self.upper) + 2

    def balancing_warning(self) -> Optional[str]:
        """None when balanced; otherwise a description of the defect.

        Exact additive check when all parameters are tracked powers; numeric
        check up to an integer power of p otherwise.
        """
        r = self.level
        if self.a1.is_one and all(u.is_one for u in self.upper):
            lhs = 2 * sum(u.s for u in self.upper)
            rhs = (r - 3) * self.a1.s + (r - 5)
            if lhs != rhs:
                return f"unbalanced: exact exponent defect {lhs - rhs}"
            return None
        ctx = self.ctx
        prod = np.prod([u.value(ctx) for u in self.upper])
        target = self.a1.value(ctx) ** (r - 3) * ctx.qpow(2 * (r - 5))
        if target == 0:
            return "unbalanced: degenerate target"
        ratio = prod * prod / target
        mag = abs(ratio)
        if mag == 0:
            return "unbalanced: vanishing parameter product"
        tshift = round(-np.log(mag) / np.log(ctx.p))
        defect = abs(ratio * ctx.p**tshift - 1.0)
        if defect > 1e-8:
            return f"unbalanced: defect {defect:.3e} after nome shift {tshift}"
        return None


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    terms: int
    max_term_magnitude: float
    warnings: tuple[str, ...] = ()


def _poch_columns(
    ctx: ThetaContext, params: Sequence[TrackedArg], length: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running Pochhammer products for each parameter over lengths 0..length.

    Returns (cum, zcum, raw): cum[r, i] is the product of nonzero factors of
    (params[r])_i, zcum[r, i] counts exact zero factors among them, raw[r, t]
    is the factor value with exact zeros replaced by 1.
    """
    nrows = len(params)
    if nrows == 0 or length == 0:
        return (
            np.ones((nrows, length + 1), dtype=complex),
            np.zeros((nrows, length + 1), dtype=np.int64),
            np.ones((nrows, length), dtype=complex),
        )
    q2pow = ctx.qpow(2) ** np.arange(length)
    args = np.empty((nrows, length), dtype=complex)
    zmask = np.zeros((nrows, length), dtype=bool)
    for r, ta in enumerate(params):
        args[r] = ta.value(ctx) * q2pow
        if ta.is_one and 0 <= -ta.s < length:
            zmask[r, -ta.s] = True
    vals = theta_vec_cached(args.ravel(), ctx).reshape(nrows, length)
    vals[zmask] = 1.0
    cum = np.ones((nrows, length + 1), dtype=complex)
    np.cumprod(vals, axis=1, out=cum[:, 1:])
    zcum = np.zeros((nrows, length + 1), dtype=np.int64)
    np.cumsum(zmask, axis=1, out=zcum[:, 1:])
    return cum, zcum, vals


def vwp_sum(
    ctx: ThetaContext,
    a1: TrackedArg,
    numer: Sequence[TrackedArg],
    denom: Sequence[TrackedArg],
    n: int,
    merged: Optional[tuple[TrackedArg, int]] = None,
) -> tuple[complex, float, int]:
    """Sum of terms k = 0..n of the very-well-poised structure.

    ``numer`` holds the upper parameters (without a1, which is included
    automatically), ``denom`` the explicit denominator parameters (without
    q^2, also automatic).  ``merged``, when given, is a pair (c, J): the
    denominator Pochhammer (c)_k is evaluated as the ratio (c)_J / (c)_k,
    i.e. multiplied in numerator position as the partial product over
    i = k..J-1; J >= n is required.  Returns (value, max term magnitude,
    index of last contributing term + 1).
    """
    if n < 0:
        raise ValueError("termination index must be >= 0")
    if a1.theta_is_zero():
        raise PoleError("leading series parameter hits an exact zero")

    num_params = [a1, *numer]
    den_params = [qarg(1), *denom]
    ncum, nzc, _ = _poch_columns(ctx, num_params, n)
    dcum, dzc, draw = _poch_columns(ctx, den_params, n)
    if np.any(dzc[:, -1] > 0):
        raise PoleError("denominator Pochhammer factor hits an exact zero")
    if n > 0 and np.any(np.abs(draw) < ctx.zero_guard):
        raise PoleError("denominator theta factor below zero guard")

    ks = np.arange(n + 1)
    head_args = a1.value(ctx) * ctx.qpow(4) ** ks
    head_zero = np.array([a1.theta_is_zero(2 * int(k)) for k in ks])
    head = theta_vec_cached(head_args, ctx)
    head[head_zero] = 1.0
    th_a1 = theta_vec_cached([a1.value(ctx)], ctx)[0]
    if abs(th_a1) < ctx.zero_guard:
        raise PoleError("theta(a1) below zero guard")

    zero_count = nzc.sum(axis=0) + head_zero.astype(np.int64)
    if merged is not None:
        c, big_j = merged
        if big_j < n:
            raise ValueError("merged numerator length must cover the sum range")
        mcum, mzc, _ = _poch_columns(ctx, [c], big_j)
        ratio = mcum[0, big_j] / mcum[0, : n + 1]
        rzero = mzc[0, big_j] - mzc[0, : n + 1]
        zero_count = zero_count + rzero
    else:
        ratio = np.ones(n + 1, dtype=complex)

    # Interleave numerator and denominator rows so the running product stays
    # near the scale of the final term; separate products can overflow even
    # when every term is representable.
    terms = head / th_a1 * ctx.qpow(2) ** ks * ratio
    for i in range(max(ncum.shape[0], dcum.shape[0])):
        if i < ncum.shape[0]:
            terms = terms * ncum[i]
        if i < dcum.shape[0]:
            terms = terms / dcum[i]
    live = zero_count == 0
    terms = np.where(live, terms, 0.0)
    if not np.all(np.isfinite(terms)):
        raise PoleError("series term magnitude exceeds double precision range")
    value = complex(np.sum(terms))
    max_term = float(np.max(np.abs(terms))) if n >= 0 else 0.0
    nz = np.nonzero(live)[0]
    return value, max_term, int(nz[-1]) + 1 if nz.size else 0


def _denominators(spec: SeriesSpec) -> list[TrackedArg]:
    """The slots a1 q^2 / a_i derived by tracked division."""
    a1, ctx = spec.a1, spec.ctx
    out = []
    for u in spec.upper:
        out.append(
            TrackedArg(
                a1.s + 1 - u.s,
                a1.generic / u.generic,
                a1.is_one and u.is_one,
            )
        )
    return out


def eval_omega(spec: SeriesSpec) -> SeriesValue:
    """Evaluate a terminating series by running-product accumulation."""
    warnings = ()
    w = spec.balancing_warning()
    if w is not None:
        warnings = (w,)
    value, max_term, terms = vwp_sum(
        spec.ctx,
        spec.a1,
        spec.upper,
        _denominators(spec),
        spec.termination_index,
        merged=None,
    )
    return SeriesValue(value, terms, max_term, warnings)


def eval_omega_termwise(spec: SeriesSpec) -> complex:
    """Naive per-term evaluation with fresh Pochhammer products.

    Slow path used to cross-check the accumulating evaluator; identical
    semantics including exact zero and pole handling.
    """
    ctx = spec.ctx
    dens = _denominators(spec)
    total = 0.0 + 0.0j
    for k in range(spec.termination_index + 1):
        tp = ThetaProduct(ctx, ctx.qpow(2 * k))
        tp.theta(spec.a1.shifted(2 * k))
        tp.theta(spec.a1, inv=True)
        tp.poch(spec.a1, k)
        for u in spec.upper:
            tp.poch(u, k)
        tp.poch(qarg(1), k, inv=True)
        for d in dens:
            tp.poch(d, k, inv=True)
        total += tp.value()
    return total


def bailey_g(a: complex, b: complex, c: complex, d: complex, e: complex, f: complex, n: int, ctx: ThetaContext) -> complex:
    """The last upper parameter forced by b c d e f g = a^3 q^(2(n+2))."""
    return a**3 * ctx.qpow(2 * (n + 2)) / (b * c * d * e * f)


@dataclass(frozen=True)
class BaileyReport:
    """Two-sided comparison with the largest-term conditioning estimate.

    ``condition`` bounds how much cancellation the two sums hide; the
    achievable residual at double precision is roughly 1e-16 * condition.
    """

    lhs: complex
    rhs: complex
    residual: float
    condition: float


def check_bailey(
    a: complex,
    b: complex,
    c: complex,
    d: complex,
    e: complex,
    f: complex,
    n: int,
    ctx: ThetaContext,
) -> BaileyReport:
    """Two-term transformation between terminating series of level nine.

    The left series has uppers (b, c, d, e, f, g, q^(-2n)) with g determined
    by the product constraint; the right series replaces (b, c, d) by their
    reflections through lam = a^2 q^2 / (b c d) and carries an explicit
    four-by-four Pochhammer prefactor.
    """
    g = bailey_g(a, b, c, d, e, f, n, ctx)
    lam = a * a * ctx.qpow(2) / (b * c * d)
    lhs_spec = SeriesSpec(
        garg(a),
        (garg(b), garg(c), garg(d), garg(e), garg(f), garg(g), qarg(-n)),
        termination_slot=6,
        ctx=ctx,
    )
    rhs_spec = SeriesSpec(
        garg(lam),
        (
            garg(lam * b / a),
            garg(lam * c / a),
            garg(lam * d / a),
            garg(e),
            garg(f),
            garg(g),
            qarg(-n),
        ),
        termination_slot=6,
        ctx=ctx,
    )
    q2 = ctx.qpow(2)
    pref = ThetaProduct(ctx)
    for num in (a * q2, a * q2 / (e * f), lam * q2 / e, lam * q2 / f):
        pref.poch(garg(num), n)
    for den in (a * q2 / e, a * q2 / f, lam * q2 / (e * f), lam * q2):
        pref.poch(garg(den), n, inv=True)
    lhs_eval = eval_omega(lhs_spec)
    rhs_eval = eval_omega(rhs_spec)
    pref_value = pref.value()
    lhs = lhs_eval.value
    rhs = pref_value * rhs_eval.value
    denom = abs(lhs) + abs(rhs) + 1e-300
    residual = abs(lhs - rhs) / denom
    peak = max(lhs_eval.max_term_magnitude, abs(pref_value) * rhs_eval.max_term_magnitude)
    return BaileyReport(lhs, rhs, residual, (peak + denom) / denom)
