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
place of the sample's numbers.  The sweep templates of up to
``theta.SHAPE_CAP`` shapes (N, M, zero guard) are kept, in ``_SWEEPS``.

The sweeps are bound in one way, ``_reports``: for the params of one shape
together, a batch of the suites' draws (``sweep_rows``), or for one
check's params alone, as a batch of one (``check_biorth``, kept by
``BiorthCache``).  The template of every item of the full (k, l) sweep is
bound to all the samples at once, and every item of every sample is
finished in the same pass over arrays (``theta.Template.bind_all``), an
item that fails recorded, not raised: one array of item values by sample
and position, read as it is by the checks.  The check layer of each sweep
shape, direct or dual, is compiled once, at its first use, into gathers of
item positions (``_Program``): for every (k, l) row, every summand j and
every factor of the summand and of its representation-side value.  The
reports of all (N + 1)^2 rows of every sample are computed in one pass, the
samples' rows end to end, over split real and imaginary arrays, with
CPython's complex formulas (``theta._c_mul``, ``_c_div``) and the array
forms of the residuals and their folds over j (``residuals.scaled_split``,
``sum_along``, ``max_along``, ``worst_along``).  Each report has the bits the
same arithmetic in Python complex numbers gives at its sample alone.  A
check with k or l outside 0..N is refused with ``ValueError``.
Each check returns its row, or raises what that arithmetic raises: the first
failing item in its read order (the determinant product, h_k, the summand
items of j = 0..N, then their oracle items), else the first
``ZeroDivisionError`` or ``OverflowError`` of its own arithmetic
(``_raises``), each named by its failure code (``theta.ERRORS``).
``norm_h``, ``weight_w1``, ``weight_w2`` and ``c_det_product`` bind a
template of their one item the same way, as a batch of one, to the same
bits, and raise the error of a failing item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

import numpy as np

from .corep import gamma_plan, tau_plan, tau_series_parts, tau_tilde_plan, tau_tilde_series_parts
from .residuals import max_along, scaled_split, sum_along, worst, worst_along
from .series import vwp_plan
from .theta import (
    ABS_RANGE,
    COMPLEX_BY_ZERO,
    FLOAT_BY_ZERO,
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
    _c_abs,
    _c_div,
    _c_mul,
    _failing,
    _either,
    _indices,
    array_form,
    error,
    kept_shape,
    known,
    qarg,
)

__all__ = [
    "BiorthParams",
    "norm_h",
    "weight_w1",
    "weight_w2",
    "c_det_product",
    "BiorthCache",
    "BiorthReport",
    "sweep_rows",
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


# The reductions of the joined items.  Module functions, not lambdas: a
# template keeps every item's plan, and a lambda would be one more object
# each.  Each is its own array form (``theta.array_form``).


@array_form
def _over(b: complex, power: complex) -> complex:
    return power / b


@array_form
def _w1_value(t: complex, gauge: complex, first: complex) -> complex:
    return t * gauge / first


@array_form
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
    _shared_blocks(tp, bp, i1, i2, merged)
    tp.poch(qarg(1), i1, inv=True)
    tp.poch(garg(qp(2 * (Lam - N + M + 2))), i1, inv=True)
    tp.poch(qarg(M + 1), i1, inv=True)
    tp.poch(garg(qp(-2 * (Lam - 2 * i2 + 1))), i1, inv=True)
    tp.poch(qarg(-N), i1, inv=True)
    tp.poch(garg(qp(-2 * (om - M))), i1, inv=True)
    tp.poch(garg(qp(2 * (Lam - N - om + M + 1))), i1, inv=True)
    parts = [tp, _norm_gauge(bp, i1), _norm_first(bp, i2)]
    return combine(ctx, parts, _w1_value)


def _shared_blocks(tp: ThetaProduct, bp: BiorthParams, i1: int, i2: int, merged: bool) -> None:
    """Multiply ``tp`` by the Pochhammer factors both weights take, in their
    order: the finite block (q^(-2(N-i2)); q^2)_i1 left out where ``merged``
    takes its sign and power out."""
    qp = bp.ctx.qpow
    tp.poch(qarg(bp.M + i2 + 1), i1)
    if not merged:
        tp.poch(qarg(-(bp.N - i2)), i1)
    tp.poch(garg(qp(-2 * (bp.Lam - i2 + 1))), i1)
    tp.poch(garg(qp(-2 * (bp.omega - bp.M - i2))), i1)


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
    _shared_blocks(tp, bp, i1, i2, merged)
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


def _member(bp: BiorthParams, j: int, kl: int, shifted: bool) -> Plan:
    """One explicit series factor with its merged rewrite over j factors."""
    a1, numer, denom, c, n = _series_parts(bp, j, kl, shifted)
    return combine(bp.ctx, [vwp_plan(bp.ctx, a1, numer, denom, n, merged=(c, j))], _value_of)


@array_form
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


def _shape(bp: BiorthParams) -> tuple:
    return bp.N, bp.M, bp.ctx.zero_guard


def _sweep(bp: BiorthParams) -> _Sweep:
    """The sweep of the shape (N, M, zero guard) of ``bp``, kept in
    ``_SWEEPS`` (``theta.kept_shape``)."""

    def build() -> _Sweep:
        symbols = _symbols(bp)
        items = ((key, _ITEMS[key[0]](symbols, *key[1:])) for key in _sweep_keys(bp.N))
        return _Sweep(Template(items), bp.N)

    return kept_shape(_SWEEPS, _shape(bp), build)


def _draw(bp: BiorthParams) -> tuple:
    """``bp`` as a draw of ``Template.bind_all``."""
    return bp.ctx, bp.Lam, bp.omega, bp.z


def _item(bp: BiorthParams, key: tuple) -> complex:
    """The value of one item, its template built and bound to ``bp`` alone;
    an item that fails raises its error."""
    alone = Template([(key, _ITEMS[key[0]](_symbols(bp), *key[1:]))])
    values, codes = alone.bind_all([_draw(bp)])
    if codes[0, 0]:
        raise error(codes[0, 0])
    return complex(values[0, 0])


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
    """The checks of one sweep shape, direct or dual, as gathers of item
    positions (int16 where they fit, ``theta._indices``).

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
            return _indices(got, len(at)).transpose(2, 1, 0).copy()

        self.dual = dual
        self.summand = gather(_summand_keys)
        self.oracle = gather(_oracle_keys)
        head = [[at["cd",]] * len(rows)] + ([] if dual else [[at["h", k] for k, _ in rows]])
        self.head = _indices(head, len(at))
        self.diag = np.array([k == l for k, l in rows], dtype=bool)

    def stacked(self, draws: int, items: int) -> "_Program":
        """This program over ``draws`` draws whose item values lie end to
        end, ``items`` each: row d R + r is row r of draw d, R rows a draw."""
        out = object.__new__(_Program)
        shift = items * np.arange(draws, dtype=np.int32)[:, None]

        def each(g: np.ndarray) -> np.ndarray:
            return (g[..., None, :] + shift).reshape(*g.shape[:-1], -1)

        out.dual = self.dual
        out.summand, out.oracle, out.head = each(self.summand), each(self.oracle), each(self.head)
        out.diag = np.tile(self.diag, draws)
        return out

    def reports(self, values: np.ndarray, codes: np.ndarray) -> list[tuple[list, dict]]:
        """(rows, errors) at each draw, from ``values`` and ``codes``, the
        finished item values and failure codes by draw and position
        (``Template.bind_all``): the residuals of every row, and the failure
        code of each row whose check raises, the first failing item it
        reads, else the first operation of its arithmetic that raises.

        All draws are one pass, their rows end to end (``stacked``); each
        row's residuals and error are those of its draw alone, bit for bit.
        """
        (draws, items), rows = values.shape, len(self.diag)
        p = self.stacked(draws, items)
        v, stacked = values.ravel(), len(p.diag)
        faults: list = []
        code = np.zeros(stacked, dtype=np.int8)
        with np.errstate(all="ignore"):
            residuals = _residuals(p, v.real, v.imag, faults)
            for clear, ops in faults:
                if not clear.all():
                    code = _either(code, _raises(ops(), stacked))
        if codes.any():
            # The codes of the items of each row, in the order it reads them.
            c = codes.ravel()
            read = [c[g].transpose(1, 0, 2).reshape(-1, stacked) for g in (p.summand, p.oracle)]
            code = _either(_first_code(np.concatenate([c[p.head], *read])), code)
        reports = list(zip(*(a.tolist() for a in residuals)))
        out = [(reports[d * rows : (d + 1) * rows], {}) for d in range(draws)]
        for r in np.flatnonzero(code).tolist():
            out[r // rows][1][r % rows] = int(code[r])
        return out


def _residuals(p: _Program, re: np.ndarray, im: np.ndarray, faults: list) -> tuple:
    """The four residual arrays of ``BiorthReport``, over rows, by the
    formulas of ``check_biorth`` and ``check_dual_biorth`` on split arrays,
    rounded as Python's complex arithmetic rounds them.  The operations at
    which Python would raise are listed in ``faults``, in the order the
    check evaluates them (``_raises``)."""
    terms = _terms(p, re, im, faults)
    oracle = _oracle_terms(p, re, im, faults)
    if p.dual:
        target = _delta(p)
        reference = oracle
    else:
        hk = re[p.head[1]], im[p.head[1]]
        target = np.where(p.diag, hk[0], 0.0), np.where(p.diag, hk[1], 0.0)
        reference = _c_mul(*hk, *oracle)
    max_term = _peak(terms, faults)
    sum_res = _scaled(sum_along(terms), target, max_term, faults)
    term_res = worst_along(_scaled(terms, reference, max_term * 1e-16, faults))
    oracle_res = _scaled(sum_along(oracle), _delta(p), _peak(oracle, faults), faults)
    return sum_res, term_res, oracle_res, max_term


def _terms(p: _Program, re: np.ndarray, im: np.ndarray, faults: list) -> tuple:
    """Every summand of every row, over j and rows: w1 w2 f f~ (direct sum),
    w1 w2 / h f~ f (dual sum), multiplied left to right."""
    factors = list(zip(re[p.summand], im[p.summand]))
    if p.dual:
        w1, w2, h, f1, f2 = factors
        faults.append((h[0] != 0, lambda: [(COMPLEX_BY_ZERO, _is_zero(h))]))
        return _c_mul(*_c_mul(*_c_div(*_c_mul(*w1, *w2), *h), *f1), *f2)
    w1, w2, f1, f2 = factors
    return _c_mul(*_c_mul(*_c_mul(*w1, *w2), *f1), *f2)


def _oracle_terms(p: _Program, re: np.ndarray, im: np.ndarray, faults: list) -> tuple:
    """The representation-side value of every summand, over j and rows,
    multiplied left to right: tilde g1 / g2 c_d tau (direct sum, over h_k),
    g1 / g2 tau tilde c_d (dual sum)."""
    factors = list(zip(re[p.oracle], im[p.oracle]))
    cd = re[p.head[0]], im[p.head[0]]
    if p.dual:
        g1, g2, tau, tilde = factors
        faults.append((g2[0] != 0, lambda: [(COMPLEX_BY_ZERO, _is_zero(g2))]))
        return _c_mul(*_c_mul(*_c_mul(*_c_div(*g1, *g2), *tau), *tilde), *cd)
    tilde, g1, g2, tau = factors
    faults.append((g2[0] != 0, lambda: [(COMPLEX_BY_ZERO, _is_zero(g2))]))
    return _c_mul(*_c_mul(*_c_div(*_c_mul(*tilde, *g1), *g2), *cd), *tau)


def _delta(p: _Program) -> tuple:
    """delta(k, l) over rows, as (real, imaginary) parts."""
    return np.where(p.diag, 1.0, 0.0), np.zeros(len(p.diag))


def _peak(v: tuple, faults: list) -> np.ndarray:
    """The largest modulus over j, as ``max`` of ``abs`` gives it."""
    mag, beyond = _c_abs(*v)
    top = max_along(mag)
    # A modulus beyond range leaves the peak inf or NaN.
    faults.append((np.isfinite(top), lambda: [(ABS_RANGE, beyond)]))
    return top


def _scaled(lhs: tuple, rhs: tuple, scale, faults: list) -> np.ndarray:
    """``residuals.scaled_split``, its faults listed."""
    res = scaled_split(lhs, rhs, scale)

    def ops() -> list:
        diff = lhs[0] - rhs[0], lhs[1] - rhs[1]
        zero = _is_zero(lhs) & _is_zero(rhs) & (scale == 0)
        return [*((ABS_RANGE, _c_abs(*x)[1]) for x in (diff, lhs, rhs)), (FLOAT_BY_ZERO, zero)]

    # Where Python raises, the residual is 0, inf or NaN: a modulus beyond
    # range leaves the numerator inf or the denominator inf, and a zero
    # denominator (both sides and ``scale`` 0) gives 0 / 0.
    faults.append(((res > 0) & (res < math.inf), ops))
    return res


def _is_zero(v: tuple) -> np.ndarray:
    return (v[0] == 0) & (v[1] == 0)


# The operations at which Python raises where the arrays go on with inf or
# NaN: a division by zero, ``abs`` of finite parts beyond range.  Each entry
# of ``faults`` holds a mask where a cheap test clears its operations, and
# gives them, each as (message, where it raises), in the order a check meets
# them for each j = 0..N (or once).


def _raises(ops: list, rows: int) -> np.ndarray:
    """The code of the first of ``ops`` that raises on each of ``rows``
    rows, j after j and, within each j, operation after operation."""
    got = np.stack([_failing(0, at, message).reshape(-1, rows) for message, at in ops], axis=1)
    return _first_code(got.reshape(-1, rows))


def _first_code(got: np.ndarray) -> np.ndarray:
    """The first nonzero code of each column of ``got``, else 0."""
    return got[(got != 0).argmax(axis=0), np.arange(got.shape[1])]


def _reports(bps: Sequence[BiorthParams], dual: bool) -> list[tuple[list, dict]]:
    """(rows, errors) of the (dual) checks at each of ``bps``, params of one
    shape, all bound together (``_Program.reports``)."""
    sweep = _sweep(bps[0])
    if any(_shape(bp) != _shape(bps[0]) for bp in bps):
        raise ValueError("the params of one batch share one shape (N, M, zero guard)")
    values, codes = sweep.template.bind_all(list(map(_draw, bps)))
    return sweep.program(dual).reports(values, codes)


def sweep_rows(bps: Sequence[BiorthParams], dual: bool) -> list:
    """The outcome of the (dual) sweep at each of ``bps``, params of one
    shape bound together: the residuals of every (k, l) check, row r =
    k (N + 1) + l a tuple of the fields of its ``BiorthReport``, or, where
    a row fails, the error of the first failing row, what the checks made
    in row order raise first, not raised."""
    return [error(errors[min(errors)]) if errors else rows for rows, errors in _reports(bps, dual)]


class BiorthCache:
    """The reports of the (k, l) checks, by (params, dual): ``get`` keeps
    each value by key in ``_store``, computing it at its first read.  The
    benchmark's tracer counts cache hits through ``get``."""

    def __init__(self) -> None:
        self._store: dict = {}

    def get(self, key, fn):
        if key not in self._store:
            self._store[key] = fn()
        return self._store[key]


def _check(
    bp: BiorthParams, k: int, l: int, cache: BiorthCache | None, dual: bool
) -> BiorthReport:
    """The report of the (dual) (k, l) check at ``bp``, from its sweep's
    (rows, errors), bound afresh or read from ``cache``."""
    N = bp.N
    if not (0 <= k <= N and 0 <= l <= N):
        raise ValueError(f"(k, l) = ({k}, {l}) lies outside the sweep 0..{N}")
    cache = cache if cache is not None else BiorthCache()
    rows, errors = cache.get((bp, dual), lambda: _reports([bp], dual)[0])
    r = k * (N + 1) + l
    if r in errors:
        raise error(errors[r])
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
    The whole sweep at ``bp`` is bound, as a batch of one; ``cache`` keeps
    its reports, so the other checks at ``bp`` of the same kind read them.
    """
    return _check(bp, k, l, cache, False)


def check_dual_biorth(
    bp: BiorthParams, k: int, l: int, cache: BiorthCache | None = None
) -> BiorthReport:
    """Dual biorthogonality sum against delta(k, l), plus oracle comparisons.

    Summand j is w1(l, j) w2(k, j) / h_j f~(l, j) f(k, j); its oracle is
    g1(l) / g2(j) tau(l, j) tilde(k, j) c_d.  The residuals are those of
    ``check_biorth`` with delta(k, l) for target and the oracle itself for
    each summand's reference.
    """
    return _check(bp, k, l, cache, True)
