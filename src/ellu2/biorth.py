"""Discrete biorthogonality of the matrix-element series families.

A pair of terminating very well poised series families, differing by a shift
of the spectral parameter, satisfies a weighted biorthogonality relation with
explicit weights w1, w2 and quadratic norm h.  ``check_biorth`` and
``check_dual_biorth`` evaluate the explicit sums and compare them against
delta(k, l) targets; ``biorth_oracle_term`` rebuilds every summand from the
representation side (closed tau forms, gamma normalizations, determinant
scalars), which is treated as ground truth for the weight formulas.

Structural zeros for k + j > N are handled by rewriting the finite weight
factor (q^(-2(N-k)); q^2)_j as an explicit sign and power times an ascending
Pochhammer that cancels against the series denominators; the ``merged``
variants of the weights carry the sign-and-power part, and the matching
series are evaluated with the ascending part folded into each term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .corep import (
    gamma_factor,
    tau_closed,
    tau_series_parts,
    tau_tilde_closed,
    tau_tilde_series_parts,
)
from .series import vwp_sum
from .theta import ThetaContext, ThetaProduct, elliptic_binomial, garg, qarg

__all__ = [
    "BiorthParams",
    "norm_h",
    "weight_w1",
    "weight_w2",
    "c_det_product",
    "biorth_lhs_member",
    "biorth_term",
    "dual_term",
    "biorth_oracle_term",
    "biorth_rep_oracle",
    "BiorthReport",
    "check_biorth",
    "check_dual_biorth",
]


@dataclass(frozen=True)
class BiorthParams:
    """Level, spectral data and base for one biorthogonality instance."""

    N: int
    Lam: complex
    M: int
    omega: complex
    z: complex
    ctx: ThetaContext

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("level N must be >= 1")
        if self.M < 0:
            raise ValueError("M must be a nonnegative integer")
        object.__setattr__(self, "_norms", {})


def _memo_per_params(fn):
    """Keep fn(bp, k) on ``bp``: a (k, l) sweep asks for each k many times."""

    @functools.wraps(fn)
    def memo(bp: BiorthParams, k: int) -> complex:
        key = (fn.__name__, k)
        got = bp._norms.get(key)
        if got is None:
            got = bp._norms[key] = fn(bp, k)
        return got

    return memo


def norm_h(bp: BiorthParams, k: int) -> complex:
    """Quadratic norm of the k-th family member."""
    qp = bp.ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    tp = ThetaProduct(bp.ctx)
    tp.poch(qarg(1), k)
    tp.poch(garg(qp(-2 * (Lam + M + 1))), k)
    tp.poch(garg(qp(-2 * (Lam - om + M))), k)
    tp.poch(garg(qp(-2 * (Lam - N))), k)
    tp.poch(qarg(M + 1), k, inv=True)
    tp.poch(qarg(-N), k, inv=True)
    tp.poch(garg(qp(-2 * (om - M))), k, inv=True)
    tp.poch(garg(qp(-2 * Lam)), k, inv=True)
    tp.poch(garg(qp(-2 * (Lam + 1))), 2 * k)
    tp.poch(garg(qp(-2 * Lam)), 2 * k, inv=True)
    tp.poch(garg(z * qp(2 * M - om - 1)), k)
    tp.poch(garg(qp(2 * (M - N) - om + 5) / z), k)
    tp.poch(garg(qp(-2 * (Lam + M) + om + 1) / z), k, inv=True)
    tp.poch(garg(z * qp(2 * (N - Lam - M) + om - 5)), k, inv=True)
    tp.poch(garg(qp(-2 * (Lam - om + 2 * M + 1))), N)
    tp.poch(garg(qp(-2 * Lam)), N)
    tp.poch(garg(qp(-2 * (Lam + M + 1))), N, inv=True)
    tp.poch(garg(qp(-2 * (Lam - om + M))), N, inv=True)
    tp.poch(garg(z * qp(om - 1)), N)
    tp.poch(garg(z * qp(-om - 3)), N)
    tp.poch(garg(z * qp(2 * M - om - 1)), N, inv=True)
    tp.poch(garg(z * qp(-2 * M + om - 3)), N, inv=True)
    return tp.value()


@_memo_per_params
def _norm_first(bp: BiorthParams, k: int) -> complex:
    """Second-index normalization of the first weight.

    Equal to 1 at k = 0.  Pinned, together with ``_norm_second`` and
    ``_norm_gauge``, by requiring every summand of both orthogonality sums to
    coincide with the representation-side oracle; see ``check_biorth``.
    """
    qp = bp.ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    sc = qp((M - 2 * N - 2) * k + 1.5 * k * (k - 1)) * elliptic_binomial(N, k, bp.ctx)
    tp = ThetaProduct(bp.ctx, sc)
    tp.theta(qarg(1), count=k)
    tp.poch(garg(qp(2 * (Lam - k + 1))), k)
    tp.poch(garg(z * qp(2 * (Lam + M - k + 1) - om - 1)), k)
    tp.poch(garg(qp(2 * (Lam - N - k + 1))), k, inv=True)
    tp.poch(garg(z * qp(2 * M - om - 1)), k, inv=True)
    tp.poch(garg(qp(2 * (Lam + M + 2 - k))), k, inv=True)
    return tp.value()


@_memo_per_params
def _norm_second(bp: BiorthParams, l: int) -> complex:
    """Second-index normalization of the second weight (1 at l = 0)."""
    qp = bp.ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    sc = qp((2 * N - M) * l - 1.5 * l * (l - 1)) / elliptic_binomial(N, l, bp.ctx)
    tp = ThetaProduct(bp.ctx, sc)
    tp.theta(qarg(1), count=-l)
    tp.poch(garg(qp(2 * (Lam - N - l + 1))), l)
    tp.poch(garg(z * qp(2 * M - om - 1)), l)
    tp.poch(garg(qp(2 * (Lam + M + 2 - l))), l)
    tp.poch(garg(qp(2 * (Lam + 2 - l))), l, inv=True)
    tp.poch(garg(z * qp(2 * (Lam + M - l + 1) - om - 1)), l, inv=True)
    return tp.value()


@_memo_per_params
def _norm_gauge(bp: BiorthParams, k: int) -> complex:
    """First-index gauge factor shared by the two weights (1 at k = 0).

    It cancels in every product weight_w1(j, k) * weight_w2(j, l), so the
    direct orthogonality sum is insensitive to it; the dual sum, where the
    weights enter with swapped index roles, fixes it uniquely.
    """
    qp = bp.ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    sc = qp(1.5 * k * (k + 1) - (2 * N + 2 - M) * k - k * om) / z**k
    tp = ThetaProduct(bp.ctx, sc)
    tp.theta(qarg(1), count=k)
    tp.poch(garg(qp(2 * (Lam + M - N + 2))), k)
    tp.poch(qarg(N - k + 1), k)
    return tp.value()


def weight_w1(bp: BiorthParams, i1: int, i2: int, merged: bool = False) -> complex:
    """First weight factor; ``merged`` replaces the finite block by its rewrite."""
    ctx = bp.ctx
    qp = ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    a = qp(2 * (Lam - om + 2 * M - N + 1))
    tp = ThetaProduct(ctx, qp(2 * i1 - 2 * i2))
    tp.theta(garg(a * qp(4 * i1)))
    tp.theta(garg(a), inv=True)
    tp.poch(garg(a), i1)
    tp.poch(garg(qp(2 * (Lam - om + 2 * M + 2))), i1, inv=True)
    tp.poch(garg(z * qp(2 * (Lam - i2 + M) - om - 1)), i1)
    tp.poch(garg(qp(-2 * (N - 2 - M - i2) - om + 1) / z), i1, inv=True)
    tp.poch(qarg(M + i2 + 1), i1)
    if merged:
        tp.mul_scalar((-1.0) ** i1 * qp(-2 * i1 * (N - i2) + i1 * (i1 - 1)))
    else:
        tp.poch(qarg(-(N - i2)), i1)
    tp.poch(garg(qp(-2 * (Lam - i2 + 1))), i1)
    tp.poch(garg(qp(-2 * (om - M - i2))), i1)
    tp.poch(qarg(1), i1, inv=True)
    tp.poch(garg(qp(2 * (Lam - N + M + 2))), i1, inv=True)
    tp.poch(qarg(M + 1), i1, inv=True)
    tp.poch(garg(qp(-2 * (Lam - 2 * i2 + 1))), i1, inv=True)
    tp.poch(qarg(-N), i1, inv=True)
    tp.poch(garg(qp(-2 * (om - M))), i1, inv=True)
    tp.poch(garg(qp(2 * (Lam - N - om + M + 1))), i1, inv=True)
    return tp.value() * _norm_gauge(bp, i1) / _norm_first(bp, i2)


def weight_w2(bp: BiorthParams, i1: int, i2: int, merged: bool = False) -> complex:
    """Second weight factor; ``merged`` as in weight_w1."""
    ctx = bp.ctx
    qp = ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    tp = ThetaProduct(ctx)
    tp.poch(qarg(M + i2 + 1), i1)
    if merged:
        tp.mul_scalar((-1.0) ** i1 * qp(-2 * i1 * (N - i2) + i1 * (i1 - 1)))
    else:
        tp.poch(qarg(-(N - i2)), i1)
    tp.poch(garg(qp(-2 * (Lam - i2 + 1))), i1)
    tp.poch(garg(qp(-2 * (om - M - i2))), i1)
    tp.poch(garg(qp(-2 * (Lam - 2 * i2 + 1))), i1, inv=True)
    tp.poch(garg(qp(-2 * (N - 3 - Lam + i2 - M) - om - 1) / z), i1)
    tp.poch(garg(z * qp(2 * (M + i2) - om - 1)), i1, inv=True)
    return tp.value() / (_norm_gauge(bp, i1) * _norm_second(bp, i2))


def c_det_product(bp: BiorthParams) -> complex:
    """Product of inverse determinant scalars along the q^2 ladder."""
    qp = bp.ctx.qpow
    tp = ThetaProduct(bp.ctx, qp(-bp.N * bp.omega))
    for i in range(bp.N):
        tp.theta(garg(qp(1 + bp.omega - 2 * i) / bp.z))
        tp.theta(garg(qp(1 - bp.omega - 2 * i) / bp.z), inv=True)
    return tp.value()


def _series_parts(bp: BiorthParams, j: int, kl: int, shifted: bool):
    """Series data for one of the two explicit family factors.

    shifted=False: the factor in the original spectral parameter (conjugate
    family member); shifted=True: the factor at the reflected argument.
    The dual relation reuses the same parameterization with the outer and
    summation indices supplied in swapped positions by the caller.
    """
    qp = bp.ctx.qpow
    zouter = complex(bp.z).conjugate()
    zshift = qp(-2 * (bp.N - 2)) / bp.z
    if shifted:
        return tau_series_parts(
            bp.N, j, kl, bp.M + kl, bp.Lam - bp.N, zshift, bp.omega, bp.ctx
        )
    return tau_tilde_series_parts(
        bp.N, j, kl, bp.M + j, bp.Lam - 2 * kl, zouter, bp.omega, bp.ctx
    )


def biorth_lhs_member(bp: BiorthParams, j: int, kl: int, shifted: bool) -> complex:
    """One explicit series factor in its direct form (no merged rewrite)."""
    a1, numer, denom, c, n = _series_parts(bp, j, kl, shifted)
    value, _, _ = vwp_sum(bp.ctx, a1, numer, denom + [c], n)
    return value


def _member_merged(bp: BiorthParams, j: int, kl: int, shifted: bool, J: int) -> complex:
    a1, numer, denom, c, n = _series_parts(bp, j, kl, shifted)
    value, _, _ = vwp_sum(bp.ctx, a1, numer, denom, n, merged=(c, J))
    return value


def biorth_term(bp: BiorthParams, k: int, l: int, j: int) -> complex:
    """The j-th summand of the biorthogonality sum, pole-safe rewrite."""
    return (
        weight_w1(bp, j, k, merged=True)
        * weight_w2(bp, j, l, merged=True)
        * _member_merged(bp, j, l, False, j)
        * _member_merged(bp, j, k, True, j)
    )


def dual_term(bp: BiorthParams, k: int, l: int, j: int) -> complex:
    """The j-th summand of the dual biorthogonality sum."""
    hj = norm_h(bp, j)
    if hj == 0.0:
        raise ZeroDivisionError("norm h vanished at a generic point")
    return (
        weight_w1(bp, l, j, merged=True)
        * weight_w2(bp, k, j, merged=True)
        / hj
        * _member_merged(bp, l, j, True, l)
        * _member_merged(bp, k, j, False, k)
    )


def biorth_oracle_term(bp: BiorthParams, k: int, l: int, j: int, c_d: complex) -> complex:
    """Representation-side value of the j-th biorthogonality summand over h_k."""
    qp = bp.ctx.qpow
    zouter = complex(bp.z).conjugate()
    zshift = qp(-2 * (bp.N - 2)) / bp.z
    t1 = tau_tilde_closed(
        bp.N, j, l, bp.M + j, bp.Lam - 2 * l, zouter, bp.omega, bp.ctx
    )
    t2 = tau_closed(bp.N, j, k, bp.M + k, bp.Lam - bp.N, zshift, bp.omega, bp.ctx)
    g1 = gamma_factor(bp.N, j, bp.Lam - bp.omega + 2 * bp.M + 2 * j - bp.N, bp.ctx)
    g2 = gamma_factor(bp.N, k, bp.Lam - bp.N, bp.ctx)
    if g2 == 0.0:
        raise ZeroDivisionError("gamma factor vanished at a generic point")
    return t1 * g1 / g2 * c_d * t2


def biorth_rep_oracle(bp: BiorthParams, k: int, l: int) -> complex:
    """Oracle sum: expected 1 for k == l and 0 otherwise."""
    c_d = c_det_product(bp)
    return sum(biorth_oracle_term(bp, k, l, j, c_d) for j in range(bp.N + 1))


@dataclass(frozen=True)
class BiorthReport:
    """Residuals of one (k, l) biorthogonality check."""

    sum_residual: float
    termwise_residual: float
    oracle_residual: float
    max_term: float

    @property
    def residual(self) -> float:
        return max(self.sum_residual, self.oracle_residual)


def _scaled_residual(lhs: complex, rhs: complex, scale: float) -> float:
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + scale)


class BiorthCache:
    """Memo for factors shared across a full (k, l) sweep at fixed params."""

    def __init__(self) -> None:
        self._store: dict = {}

    def get(self, key, fn):
        if key not in self._store:
            self._store[key] = fn()
        return self._store[key]


def check_biorth(
    bp: BiorthParams, k: int, l: int, cache: BiorthCache | None = None
) -> BiorthReport:
    """Explicit biorthogonality sum against delta(k, l) * h_k, plus oracles.

    The summand scale enters the residual denominator so that the vanishing
    off-diagonal case measures cancellation quality relative to the largest
    term rather than against zero.
    """
    mc = cache if cache is not None else BiorthCache()
    c_d = mc.get("cd", lambda: c_det_product(bp))
    hk = mc.get(("h", k), lambda: norm_h(bp, k))
    terms = [
        mc.get(("w1", j, k), lambda j=j: weight_w1(bp, j, k, merged=True))
        * mc.get(("w2", j, l), lambda j=j: weight_w2(bp, j, l, merged=True))
        * mc.get(("f1", j, l), lambda j=j: _member_merged(bp, j, l, False, j))
        * mc.get(("f2", j, k), lambda j=j: _member_merged(bp, j, k, True, j))
        for j in range(bp.N + 1)
    ]
    oracle = [
        mc.get(("ot1", j, l), lambda j=j: _oracle_tilde(bp, j, l))
        * mc.get(("og", j), lambda j=j: _oracle_gamma(bp, j))
        / mc.get(("gk", k), lambda: gamma_factor(bp.N, k, bp.Lam - bp.N, bp.ctx))
        * c_d
        * mc.get(("ot2", j, k), lambda j=j: _oracle_tau(bp, j, k))
        for j in range(bp.N + 1)
    ]
    max_term = max(abs(t) for t in terms)
    target = hk if k == l else 0.0
    sum_res = _scaled_residual(sum(terms), target, max_term)
    term_res = max(
        _scaled_residual(t, hk * o, max_term * 1e-16)
        for t, o in zip(terms, oracle)
    )
    oracle_res = _scaled_residual(
        sum(oracle), 1.0 if k == l else 0.0, max(abs(o) for o in oracle)
    )
    return BiorthReport(sum_res, term_res, oracle_res, max_term)


def _oracle_tilde(bp: BiorthParams, j: int, l: int) -> complex:
    zouter = complex(bp.z).conjugate()
    return tau_tilde_closed(
        bp.N, j, l, bp.M + j, bp.Lam - 2 * l, zouter, bp.omega, bp.ctx
    )


def _oracle_tau(bp: BiorthParams, j: int, k: int) -> complex:
    zshift = bp.ctx.qpow(-2 * (bp.N - 2)) / bp.z
    return tau_closed(bp.N, j, k, bp.M + k, bp.Lam - bp.N, zshift, bp.omega, bp.ctx)


def _oracle_gamma(bp: BiorthParams, j: int) -> complex:
    return gamma_factor(
        bp.N, j, bp.Lam - bp.omega + 2 * bp.M + 2 * j - bp.N, bp.ctx
    )


def check_dual_biorth(
    bp: BiorthParams, k: int, l: int, cache: BiorthCache | None = None
) -> BiorthReport:
    """Dual biorthogonality sum against delta(k, l), plus oracle comparisons."""
    mc = cache if cache is not None else BiorthCache()
    c_d = mc.get("cd", lambda: c_det_product(bp))
    terms = [
        mc.get(("w1", l, j), lambda j=j: weight_w1(bp, l, j, merged=True))
        * mc.get(("w2", k, j), lambda j=j: weight_w2(bp, k, j, merged=True))
        / mc.get(("h", j), lambda j=j: norm_h(bp, j))
        * mc.get(("df1", l, j), lambda j=j: _member_merged(bp, l, j, True, l))
        * mc.get(("df2", k, j), lambda j=j: _member_merged(bp, k, j, False, k))
        for j in range(bp.N + 1)
    ]
    oracle = [
        mc.get(("dg", l), lambda: _oracle_gamma_dual(bp, l))
        / mc.get(("gk", j), lambda j=j: gamma_factor(bp.N, j, bp.Lam - bp.N, bp.ctx))
        * mc.get(("dt1", l, j), lambda j=j: _dual_oracle_tau(bp, l, j))
        * mc.get(("dt2", k, j), lambda j=j: _dual_oracle_tilde(bp, k, j))
        * c_d
        for j in range(bp.N + 1)
    ]
    max_term = max(abs(t) for t in terms)
    target = 1.0 if k == l else 0.0
    sum_res = _scaled_residual(sum(terms), target, max_term)
    term_res = max(
        _scaled_residual(t, o, max_term * 1e-16) for t, o in zip(terms, oracle)
    )
    oracle_res = _scaled_residual(sum(oracle), target, max(abs(o) for o in oracle))
    return BiorthReport(sum_res, term_res, oracle_res, max_term)


def _dual_oracle_tau(bp: BiorthParams, l: int, j: int) -> complex:
    zshift = bp.ctx.qpow(-2 * (bp.N - 2)) / bp.z
    return tau_closed(bp.N, l, j, bp.M + j, bp.Lam - bp.N, zshift, bp.omega, bp.ctx)


def _dual_oracle_tilde(bp: BiorthParams, k: int, j: int) -> complex:
    zouter = complex(bp.z).conjugate()
    return tau_tilde_closed(
        bp.N, k, j, bp.M + k, bp.Lam - 2 * j, zouter, bp.omega, bp.ctx
    )


def _oracle_gamma_dual(bp: BiorthParams, l: int) -> complex:
    return gamma_factor(
        bp.N, l, bp.Lam - bp.omega + 2 * bp.M + 2 * l - bp.N, bp.ctx
    )
