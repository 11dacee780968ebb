"""Discrete biorthogonality of the matrix-element series families.

A pair of terminating very well poised series families, differing by a shift
of the spectral parameter, satisfies a weighted biorthogonality relation with
explicit weights w1, w2 and quadratic norm h.  ``check_biorth`` and
``check_dual_biorth`` evaluate the explicit sums and compare them against
delta(k, l) targets, and compare every summand with its value rebuilt from the
representation side (closed tau forms, gamma normalizations, determinant
scalars), which is treated as ground truth for the weight formulas.

Structural zeros for k + j > N are handled by rewriting the finite weight
factor (q^(-2(N-k)); q^2)_j as an explicit sign and power times an ascending
Pochhammer that cancels against the series denominators; the ``merged``
variants of the weights carry the sign-and-power part, and the matching
series are evaluated with the ascending part folded into each term.

A check names the items it needs by cache key: the weights (with their
norms), the merged series members, the norm h, the determinant product, and
the representation-side tau, tau tilde and gamma factors.  Each item is a
plan (see ``theta``) whose theta arguments and scalars all have the form
q^(a Λ + b ω + c) z^d zbar^e, where a, b, c, d and e depend only on the
shape: the level N, the shift M and the item's indices.  So an item is built
once per shape, as a template: the same builders run over exponent records,
with a ``TemplateContext`` and the symbols ``LAM``, ``OMEGA`` and ``Z`` in
place of the sample's numbers.  The templates of a shape are kept at module
level, for at most ``SHAPE_CAP`` shapes (N, M, zero guard).

A ``BiorthCache`` serves one sweep of checks at one sample.  Its first check
binds the template of every item of the full (k, l) sweep to the sample
(``theta.Template``: one matrix-vector product, one ``exp``, one
``theta_vec`` call, one pass over arrays for all its series and one for all
its theta products) and finishes every item once, in one loop
(``Template.finish_all``); an item that fails is recorded, not raised.  The
check layer of each sweep shape, direct or dual, is compiled once, at its
first use, into int32 gathers over the sweep's items (``_Program``): for
every (k, l) row, every summand j and every factor of the summand and of
its representation-side value.  The first check of each kind then computes
the reports of all (N + 1)^2 rows in one pass over split real and imaginary
arrays, with CPython's complex formulas (``theta._c_mul``, ``_c_div``, and
``hypot`` for ``abs``), sums over j added left to right; each report has
the bits the same arithmetic in Python complex numbers gives.  A check with
k or l outside 0..N is refused with ``ValueError``.
Each check returns its row, or raises what that arithmetic raises: the first
failing item in its read order (the determinant product, h_k, the summand
items of j = 0..N, then their oracle items), else the first
``ZeroDivisionError`` or ``OverflowError`` of its own arithmetic
(``_Faults``).  ``norm_h``, ``weight_w1``, ``weight_w2`` and
``c_det_product`` bind their one item alone, to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .corep import gamma_plan, tau_plan, tau_series_parts, tau_tilde_plan, tau_tilde_series_parts
from .residuals import worst
from .series import vwp_plan, vwp_sum
from .theta import (
    LAM,
    OMEGA,
    Z,
    Plan,
    Template,
    TemplateContext,
    ThetaContext,
    ThetaProduct,
    binomial_plan,
    combine,
    garg,
    _c_div,
    _c_mul,
    _i32,
    known,
    qarg,
)

__all__ = [
    "BiorthParams",
    "norm_h",
    "weight_w1",
    "weight_w2",
    "c_det_product",
    "biorth_lhs_member",
    "BiorthCache",
    "BiorthReport",
    "check_biorth",
    "check_dual_biorth",
]

# Most shapes (N, M, zero guard) whose templates are kept.
SHAPE_CAP = 64


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


# The reductions of the joined items.  Module functions, not lambdas: a
# template keeps every item's plan, and a lambda would be one more object each.


def _over(b: complex, power: complex) -> complex:
    return power / b


def _w1_value(t: complex, gauge: complex, first: complex) -> complex:
    return t * gauge / first


def _w2_value(t: complex, gauge: complex, second: complex) -> complex:
    return t / (gauge * second)


def _norm_h(bp: BiorthParams, k: int) -> ThetaProduct:
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
    return tp


def norm_h(bp: BiorthParams, k: int) -> complex:
    """Quadratic norm of the k-th family member."""
    return _item(bp, ("h", k))


def _norm_first(bp: BiorthParams, k: int) -> Plan:
    """Second-index normalization of the first weight.

    Equal to 1 at k = 0.  Pinned, together with ``_norm_second`` and
    ``_norm_gauge``, by requiring every summand of both orthogonality sums to
    coincide with the representation-side oracle; see ``check_biorth``.
    """
    qp = bp.ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    power = known(bp.ctx, qp((M - 2 * N - 2) * k + 1.5 * k * (k - 1)))
    tp = ThetaProduct(bp.ctx, combine(bp.ctx, [binomial_plan(N, k, bp.ctx), power], mul))
    tp.theta(qarg(1), count=k)
    tp.poch(garg(qp(2 * (Lam - k + 1))), k)
    tp.poch(garg(z * qp(2 * (Lam + M - k + 1) - om - 1)), k)
    tp.poch(garg(qp(2 * (Lam - N - k + 1))), k, inv=True)
    tp.poch(garg(z * qp(2 * M - om - 1)), k, inv=True)
    tp.poch(garg(qp(2 * (Lam + M + 2 - k))), k, inv=True)
    return tp


def _norm_second(bp: BiorthParams, l: int) -> Plan:
    """Second-index normalization of the second weight (1 at l = 0)."""
    qp = bp.ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    power = known(bp.ctx, qp((2 * N - M) * l - 1.5 * l * (l - 1)))
    tp = ThetaProduct(
        bp.ctx, combine(bp.ctx, [binomial_plan(N, l, bp.ctx), power], _over)
    )
    tp.theta(qarg(1), count=-l)
    tp.poch(garg(qp(2 * (Lam - N - l + 1))), l)
    tp.poch(garg(z * qp(2 * M - om - 1)), l)
    tp.poch(garg(qp(2 * (Lam + M + 2 - l))), l)
    tp.poch(garg(qp(2 * (Lam + 2 - l))), l, inv=True)
    tp.poch(garg(z * qp(2 * (Lam + M - l + 1) - om - 1)), l, inv=True)
    return tp


def _norm_gauge(bp: BiorthParams, k: int) -> Plan:
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
    return tp


def _weight_w1(bp: BiorthParams, i1: int, i2: int, merged: bool) -> Plan:
    ctx = bp.ctx
    qp = ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    a = qp(2 * (Lam - om + 2 * M - N + 1))
    scalar = qp(2 * i1 - 2 * i2)
    if merged:
        scalar = scalar * _merged_sign_power(qp, N, i1, i2)
    tp = ThetaProduct(ctx, scalar)
    tp.theta(garg(a * qp(4 * i1)))
    tp.theta(garg(a), inv=True)
    tp.poch(garg(a), i1)
    tp.poch(garg(qp(2 * (Lam - om + 2 * M + 2))), i1, inv=True)
    tp.poch(garg(z * qp(2 * (Lam - i2 + M) - om - 1)), i1)
    tp.poch(garg(qp(-2 * (N - 2 - M - i2) - om + 1) / z), i1, inv=True)
    tp.poch(qarg(M + i2 + 1), i1)
    if not merged:
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
    parts = [tp, _norm_gauge(bp, i1), _norm_first(bp, i2)]
    return combine(ctx, parts, _w1_value)


def _merged_sign_power(qp, N: int, i1: int, i2: int):
    """The sign and power the merged rewrite takes out of (q^(-2(N-i2)); q^2)_i1."""
    return (-1.0) ** i1 * qp(-2 * i1 * (N - i2) + i1 * (i1 - 1))


def weight_w1(bp: BiorthParams, i1: int, i2: int, merged: bool = False) -> complex:
    """First weight factor; ``merged`` replaces the finite block by its rewrite."""
    return _item(bp, ("w1", i1, i2, merged))


def _weight_w2(bp: BiorthParams, i1: int, i2: int, merged: bool) -> Plan:
    ctx = bp.ctx
    qp = ctx.qpow
    Lam, M, om, z, N = bp.Lam, bp.M, bp.omega, bp.z, bp.N
    tp = ThetaProduct(ctx, _merged_sign_power(qp, N, i1, i2) if merged else 1.0)
    tp.poch(qarg(M + i2 + 1), i1)
    if not merged:
        tp.poch(qarg(-(N - i2)), i1)
    tp.poch(garg(qp(-2 * (Lam - i2 + 1))), i1)
    tp.poch(garg(qp(-2 * (om - M - i2))), i1)
    tp.poch(garg(qp(-2 * (Lam - 2 * i2 + 1))), i1, inv=True)
    tp.poch(garg(qp(-2 * (N - 3 - Lam + i2 - M) - om - 1) / z), i1)
    tp.poch(garg(z * qp(2 * (M + i2) - om - 1)), i1, inv=True)
    parts = [tp, _norm_gauge(bp, i1), _norm_second(bp, i2)]
    return combine(ctx, parts, _w2_value)


def weight_w2(bp: BiorthParams, i1: int, i2: int, merged: bool = False) -> complex:
    """Second weight factor; ``merged`` as in weight_w1."""
    return _item(bp, ("w2", i1, i2, merged))


def _c_det(bp: BiorthParams) -> ThetaProduct:
    qp = bp.ctx.qpow
    tp = ThetaProduct(bp.ctx, qp(-bp.N * bp.omega))
    for i in range(bp.N):
        tp.theta(garg(qp(1 + bp.omega - 2 * i) / bp.z))
        tp.theta(garg(qp(1 - bp.omega - 2 * i) / bp.z), inv=True)
    return tp


def c_det_product(bp: BiorthParams) -> complex:
    """Product of inverse determinant scalars along the q^2 ladder."""
    return _item(bp, ("cd",))


def _spectral_points(bp: BiorthParams) -> tuple[complex, complex]:
    """(zouter, zshift): the conjugate point and the reflected point."""
    return bp.ctx.conj(bp.z), bp.ctx.qpow(-2 * (bp.N - 2)) / bp.z


def _series_parts(bp: BiorthParams, j: int, kl: int, shifted: bool):
    """Series data for one of the two explicit family factors.

    shifted=False: the factor in the original spectral parameter (conjugate
    family member); shifted=True: the factor at the reflected argument.
    The dual relation reuses the same parameterization with the outer and
    summation indices supplied in swapped positions by the caller.
    """
    zouter, zshift = _spectral_points(bp)
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


def _member(bp: BiorthParams, j: int, kl: int, shifted: bool) -> Plan:
    """One explicit series factor with its merged rewrite over j factors."""
    a1, numer, denom, c, n = _series_parts(bp, j, kl, shifted)
    return combine(bp.ctx, [vwp_plan(bp.ctx, a1, numer, denom, n, merged=(c, j))], _value_of)


def _value_of(series: tuple[complex, float, int]) -> complex:
    return series[0]


def _tilde(bp: BiorthParams, j: int, l: int) -> Plan:
    """Representation-side conjugate factor of summand j of the (., l) sums."""
    zouter, _ = _spectral_points(bp)
    return tau_tilde_plan(bp.N, j, l, bp.M + j, bp.Lam - 2 * l, zouter, bp.omega, bp.ctx)


def _tau(bp: BiorthParams, j: int, k: int) -> Plan:
    """Representation-side reflected factor of summand j of the (k, .) sums."""
    _, zshift = _spectral_points(bp)
    return tau_plan(bp.N, j, k, bp.M + k, bp.Lam - bp.N, zshift, bp.omega, bp.ctx)


def _gamma_outer(bp: BiorthParams, j: int) -> Plan:
    return gamma_plan(bp.N, j, bp.Lam - bp.omega + 2 * bp.M + 2 * j - bp.N, bp.ctx)


def _gamma_inner(bp: BiorthParams, k: int) -> Plan:
    return gamma_plan(bp.N, k, bp.Lam - bp.N, bp.ctx)


# The items of a check, by the first entry of their cache key.
_ITEMS = {
    "cd": _c_det,
    "h": _norm_h,
    "w1": lambda bp, i1, i2, merged=True: _weight_w1(bp, i1, i2, merged),
    "w2": lambda bp, i1, i2, merged=True: _weight_w2(bp, i1, i2, merged),
    "f": _member,
    "tilde": _tilde,
    "tau": _tau,
    "g1": _gamma_outer,
    "g2": _gamma_inner,
}


def _sweep_keys(N: int) -> list:
    """The keys of every item of the (k, l) sweep at level N, direct or dual."""
    ks = range(N + 1)
    keys = [("cd",)] + [(name, k) for name in ("h", "g1", "g2") for k in ks]
    for a in ks:
        for b in ks:
            keys += [("w1", a, b), ("w2", a, b), ("f", a, b, False), ("f", a, b, True)]
            keys += [("tilde", a, b), ("tau", a, b)]
    return keys


def _symbols(bp: BiorthParams) -> BiorthParams:
    """``bp`` with the symbols in place of its numbers: what templates are built on."""
    return BiorthParams(bp.N, LAM, bp.M, OMEGA, Z, TemplateContext(bp.ctx.zero_guard))


_SWEEPS: dict = {}


class _Sweep:
    """The template of every item of the sweep of one shape, and the check
    programs of its direct and its dual sums (``_Program``), each compiled
    at its first use."""

    def __init__(self, template: Template, N: int):
        self.template = template
        self.N = N
        self._programs: dict = {}

    def program(self, dual: bool) -> "_Program":
        got = self._programs.get(dual)
        if got is None:
            got = self._programs[dual] = _Program(self.template.plans, self.N, dual)
        return got


def _sweep(bp: BiorthParams) -> _Sweep:
    """The sweep of the shape (N, M, zero guard) of ``bp``.  The sweeps of
    up to ``SHAPE_CAP`` shapes are kept."""
    shape = (bp.N, bp.M, bp.ctx.zero_guard)
    got = _SWEEPS.get(shape)
    if got is None:
        symbols = _symbols(bp)
        items = ((key, _ITEMS[key[0]](symbols, *key[1:])) for key in _sweep_keys(bp.N))
        got = _Sweep(Template(items), bp.N)
        if len(_SWEEPS) < SHAPE_CAP:
            _SWEEPS[shape] = got
    return got


def _bind(template: Template, bp: BiorthParams) -> list:
    return template.bind(bp.ctx, bp.Lam, bp.omega, bp.z)


def _item(bp: BiorthParams, key: tuple) -> complex:
    """The value of one item, its template built and bound to ``bp`` alone."""
    alone = Template([(key, _ITEMS[key[0]](_symbols(bp), *key[1:]))])
    return alone.finish(key, _bind(alone, bp))


def _summand_keys(k: int, l: int, j: int, dual: bool) -> tuple:
    """Item keys of summand j of the explicit (dual) sum, in evaluation order."""
    if dual:
        return ("w1", l, j), ("w2", k, j), ("h", j), ("f", l, j, True), ("f", k, j, False)
    return ("w1", j, k), ("w2", j, l), ("f", j, l, False), ("f", j, k, True)


def _oracle_keys(k: int, l: int, j: int, dual: bool) -> tuple:
    """Item keys of the representation-side value of summand j."""
    if dual:
        return ("g1", l), ("g2", j), ("tau", l, j), ("tilde", k, j)
    return ("tilde", j, l), ("g1", j), ("g2", k), ("tau", j, k)


@dataclass(frozen=True)
class BiorthReport:
    """Residuals of one (k, l) biorthogonality check."""

    sum_residual: float
    termwise_residual: float
    oracle_residual: float
    max_term: float

    @property
    def residual(self) -> float:
        return worst((self.sum_residual, self.oracle_residual))


class _Program:
    """The checks of one sweep shape, direct or dual, as int32 gathers.

    Row r = k (N + 1) + l is the (k, l) check.  ``summand[f, j, r]`` is the
    position, among the sweep's items, of factor f of summand j of row r
    (``_summand_keys``), ``oracle[f, j, r]`` that of its representation-side
    value (``_oracle_keys``), and ``head[:, r]`` those of the determinant
    product and, for the direct sum, h_k.  A check reads its items in that
    order: the head, the summands of j = 0..N, their oracles.
    """

    def __init__(self, at: dict, N: int, dual: bool):
        rows = [(k, l) for k in range(N + 1) for l in range(N + 1)]

        def gather(keys) -> np.ndarray:
            got = [[[at[key] for key in keys(k, l, j, dual)] for j in range(N + 1)] for k, l in rows]
            return _i32(got).transpose(2, 1, 0).copy()

        self.dual = dual
        self.summand = gather(_summand_keys)
        self.oracle = gather(_oracle_keys)
        self.head = _i32([[at["cd",]] * len(rows)] + ([] if dual else [[at["h", k] for k, _ in rows]]))
        self.diag = np.array([k == l for k, l in rows], dtype=bool)

    def read_order(self) -> np.ndarray:
        """The positions of the items each row reads, in the order it reads them."""
        rows = len(self.diag)
        return np.concatenate(
            [self.head.T]
            + [g.transpose(2, 1, 0).reshape(rows, -1) for g in (self.summand, self.oracle)],
            axis=1,
        )

    def reports(self, re: np.ndarray, im: np.ndarray, failed: dict) -> tuple[list, dict]:
        """The residuals of every row, and the error of each row whose check
        raises: the first failing item it reads (``failed`` holds them by
        position), else the first operation of its arithmetic that raises."""
        faults = _Faults(len(self.diag))
        with np.errstate(all="ignore"):
            residuals = _residuals(self, re, im, faults)
        errors = {}
        if failed:
            read = self.read_order()
            bad = np.isin(read, list(failed))
            for r in np.flatnonzero(bad.any(axis=1)):
                errors[int(r)] = failed[int(read[r, bad[r].argmax()])]
        errors.update(faults.first(skip=errors))
        return list(zip(*(a.tolist() for a in residuals))), errors


def _residuals(p: _Program, re: np.ndarray, im: np.ndarray, faults: "_Faults") -> tuple:
    """The four residual arrays of ``BiorthReport``, over rows, by the
    formulas of ``check_biorth`` and ``check_dual_biorth`` on split arrays,
    rounded as Python's complex arithmetic rounds them.  The operations at
    which Python would raise are listed in ``faults``, in the order the
    check evaluates them."""
    terms = _terms(p, re, im, faults)
    oracle = _oracle_terms(p, re, im, faults)
    if p.dual:
        target = _delta(p)
        reference = oracle
    else:
        hk = re[p.head[1]], im[p.head[1]]
        target = np.where(p.diag, hk[0], 0.0), np.where(p.diag, hk[1], 0.0)
        reference = _mul(hk, oracle)
    max_term = _peak(terms, faults)
    sum_res = _scaled(_total(terms), target, max_term, faults)
    term_res = _worst(_scaled(terms, reference, max_term * 1e-16, faults))
    total = _total(oracle)
    oracle_res = _scaled(total, _delta(p), _peak(oracle, faults), faults)
    return sum_res, term_res, oracle_res, max_term


def _terms(p: _Program, re: np.ndarray, im: np.ndarray, faults: "_Faults") -> tuple:
    """Every summand of every row, over j and rows: w1 w2 f f~ (direct sum),
    w1 w2 / h f~ f (dual sum), multiplied left to right."""
    factors = list(zip(re[p.summand], im[p.summand]))
    if p.dual:
        w1, w2, h, f1, f2 = factors
        faults.add(h[0] != 0, (_complex_quotient, *h))
        return _mul(_mul(_div(_mul(w1, w2), h), f1), f2)
    w1, w2, f1, f2 = factors
    return _mul(_mul(_mul(w1, w2), f1), f2)


def _oracle_terms(p: _Program, re: np.ndarray, im: np.ndarray, faults: "_Faults") -> tuple:
    """The representation-side value of every summand, over j and rows,
    multiplied left to right: tilde g1 / g2 c_d tau (direct sum, over h_k),
    g1 / g2 tau tilde c_d (dual sum)."""
    factors = list(zip(re[p.oracle], im[p.oracle]))
    cd = re[p.head[0]], im[p.head[0]]
    if p.dual:
        g1, g2, tau, tilde = factors
        faults.add(g2[0] != 0, (_complex_quotient, *g2))
        return _mul(_mul(_mul(_div(g1, g2), tau), tilde), cd)
    tilde, g1, g2, tau = factors
    faults.add(g2[0] != 0, (_complex_quotient, *g2))
    return _mul(_mul(_div(_mul(tilde, g1), g2), cd), tau)


def _mul(a: tuple, b: tuple) -> tuple:
    return _c_mul(a[0], a[1], b[0], b[1])


def _div(a: tuple, b: tuple) -> tuple:
    return _c_div(a[0], a[1], b[0], b[1])


def _delta(p: _Program) -> tuple:
    """delta(k, l) over rows, as (real, imaginary) parts."""
    return np.where(p.diag, 1.0, 0.0), np.zeros(len(p.diag))


def _total(v: tuple) -> tuple:
    """The sum over j, added left to right from 0.0, as ``sum`` adds."""
    re = im = 0.0
    for a, b in zip(*v):
        re, im = re + a, im + b
    return re, im


def _peak(v: tuple, faults: "_Faults") -> np.ndarray:
    """The largest modulus over j, as ``max`` of ``abs`` gives it: a later
    value replaces the largest so far only if it is larger."""
    mag = np.hypot(*v)
    top = mag[0]
    for m in mag[1:]:
        top = np.where(m > top, m, top)
    # A modulus beyond range leaves the peak inf or NaN.
    faults.add(np.isfinite(top), (_abs_of, *v))
    return top


def _worst(res: np.ndarray) -> np.ndarray:
    """``residuals.worst`` over j: the largest and 0.0, or +inf where any is
    NaN (a maximum picks one of its values, so any order gives its bits)."""
    top = np.maximum(res.max(axis=0), 0.0)
    top[np.isnan(top)] = math.inf
    return top


def _scaled(lhs: tuple, rhs: tuple, scale, faults: "_Faults") -> np.ndarray:
    """``residuals.scaled`` on split arrays."""
    diff = lhs[0] - rhs[0], lhs[1] - rhs[1]
    num, a, b = np.hypot(*diff), np.hypot(*lhs), np.hypot(*rhs)
    den = a + b + scale
    res = num / den
    # A modulus beyond range leaves den or res inf, and den = 0 leaves res
    # inf or NaN: den * res is finite wherever neither happened.
    faults.add(
        np.isfinite(den * res),
        (_abs_of, *diff),
        (_abs_of, *lhs),
        (_abs_of, *rhs),
        (_float_quotient, den),
    )
    return res


# The Python operations a check's arithmetic may raise at.


def _abs_of(re: float, im: float):
    return abs(complex(re, im))


def _complex_quotient(re: float, im: float):
    return 1.0 / complex(re, im)


def _float_quotient(den: float):
    return 1.0 / den


class _Faults:
    """Where a pass may have gone on past an operation at which Python raises.

    Python raises ``ZeroDivisionError`` at a division by zero and
    ``OverflowError`` at ``abs`` of finite parts whose modulus is beyond
    range; the arrays give inf or NaN there instead.  Each entry holds a
    mask, over j and rows, of where a cheap test clears the operations it
    covers, and those operations, each with its operands: the check
    evaluates them for j = 0..N in turn (or once), in the listed order
    within each j.  Only the rows a test does not clear are looked at
    operation by operation, in Python.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self.entries: list = []

    def add(self, clear: np.ndarray, *ops) -> None:
        self.entries.append((clear, ops))

    def first(self, skip) -> dict:
        """{row: the error of the first operation that raises on it}, for
        the rows not in ``skip``."""
        if all(clear.all() for clear, _ in self.entries):
            return {}
        rows = set()
        for clear, _ in self.entries:
            rows.update(np.flatnonzero(~clear.reshape(-1, self.rows).all(axis=0)).tolist())
        errors = {}
        for r in sorted(rows.difference(skip)):
            exc = self._first_at(r)
            if exc is not None:
                errors[r] = exc
        return errors

    def _first_at(self, r: int) -> ArithmeticError | None:
        for clear, ops in self.entries:
            operands = [[x.reshape(-1, self.rows)[:, r] for x in args] for _, *args in ops]
            for j in range(clear.reshape(-1, self.rows).shape[0]):
                for (op, *_), args in zip(ops, operands):
                    try:
                        op(*(float(x[j]) for x in args))
                    except ArithmeticError as exc:
                        return exc
        return None


class BiorthCache:
    """The reports of one (k, l) sweep at fixed params.

    A cache serves one ``BiorthParams``.  Its first check binds the template
    of every item of the sweep to those params (``theta.Template.bind``: one
    ``theta_vec`` call, one pass over arrays for all its series and one for
    all its theta products) and finishes every item once
    (``Template.finish_all``); an item that fails is recorded, not raised.
    The first check of each kind, direct or dual, computes the reports of
    all (N + 1)^2 checks of that kind in one pass over arrays
    (``_Program.reports``), and each check returns its row, or raises the
    error recorded for it.

    ``get`` keeps values by key in ``_store``.  The checks do not use it; the
    benchmark's tracer counts cache hits through it, so it stays.
    """

    def __init__(self) -> None:
        self._store: dict = {}
        self._items: tuple | None = None
        self._rows: dict = {}

    def get(self, key, fn):
        if key not in self._store:
            self._store[key] = fn()
        return self._store[key]

    def items(self, bp: BiorthParams) -> tuple:
        """(sweep, finished values by position, failures by position) of the
        sweep's items at ``bp``: bound and finished once, at the first call."""
        if self._items is None:
            sweep = _sweep(bp)
            values, failed = sweep.template.finish_all(_bind(sweep.template, bp))
            self._items = (sweep, values, failed)
        return self._items

    def report(self, bp: BiorthParams, k: int, l: int, dual: bool) -> BiorthReport:
        """The report of the (dual) (k, l) check at ``bp``, from its row."""
        N = bp.N
        if not (0 <= k <= N and 0 <= l <= N):
            raise ValueError(f"(k, l) = ({k}, {l}) lies outside the sweep 0..{N}")
        got = self._rows.get(dual)
        if got is None:
            sweep, values, failed = self.items(bp)
            v = np.array(values, dtype=complex)
            got = self._rows[dual] = sweep.program(dual).reports(v.real, v.imag, failed)
        rows, errors = got
        r = k * (N + 1) + l
        if r in errors:
            raise errors[r].with_traceback(None)
        return BiorthReport(*rows[r])


def check_biorth(
    bp: BiorthParams, k: int, l: int, cache: BiorthCache | None = None
) -> BiorthReport:
    """Explicit biorthogonality sum against delta(k, l) * h_k, plus oracles.

    Summand j is w1(j, k) w2(j, l) f(j, l) f~(j, k); its representation-side
    value, over h_k, is tilde(j, l) g1(j) / g2(k) c_d tau(j, k).  The
    residuals: the sum against delta(k, l) h_k, scaled by the largest
    summand; each summand against h_k times its oracle, scaled by 1e-16 of
    the largest summand (worst over j); the oracle sum against delta(k, l),
    scaled by the largest oracle value.  The summand scale keeps the
    vanishing off-diagonal case measuring cancellation quality relative to
    the largest term rather than against zero.  k and l lie in 0..N.
    """
    return (cache if cache is not None else BiorthCache()).report(bp, k, l, False)


def check_dual_biorth(
    bp: BiorthParams, k: int, l: int, cache: BiorthCache | None = None
) -> BiorthReport:
    """Dual biorthogonality sum against delta(k, l), plus oracle comparisons.

    Summand j is w1(l, j) w2(k, j) / h_j f~(l, j) f(k, j); its oracle is
    g1(l) / g2(j) tau(l, j) tilde(k, j) c_d.  The residuals are those of
    ``check_biorth`` with delta(k, l) for target and the oracle itself for
    each summand's reference.
    """
    return (cache if cache is not None else BiorthCache()).report(bp, k, l, True)
