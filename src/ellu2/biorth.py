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
its theta products).  Each item is finished from those values the first
time a check reads it, and only then, and a check reads the finished values
by position.  ``norm_h``, ``weight_w1``, ``weight_w2`` and
``c_det_product`` bind their one item alone, to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .corep import gamma_plan, tau_plan, tau_series_parts, tau_tilde_plan, tau_tilde_series_parts
from .residuals import scaled, worst
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


def _sweep(bp: BiorthParams) -> Template:
    """The template of the sweep of the shape (N, M, zero guard) of ``bp``.

    It holds every item of the sweep that builds; an item whose build raises
    is left out, and raises again when a check asks for it.  The templates
    of up to ``SHAPE_CAP`` shapes are kept.
    """
    shape = (bp.N, bp.M, bp.ctx.zero_guard)
    got = _SWEEPS.get(shape)
    if got is None:
        symbols = _symbols(bp)

        def built():
            for key in _sweep_keys(bp.N):
                try:
                    plan = _ITEMS[key[0]](symbols, *key[1:])
                except (ArithmeticError, ValueError):
                    continue
                yield key, plan

        got = Template(built())
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


def _summand(vals: list[complex], dual: bool) -> complex:
    if dual:
        w1, w2, h, f1, f2 = vals
        return w1 * w2 / h * f1 * f2
    w1, w2, f1, f2 = vals
    return w1 * w2 * f1 * f2


def _oracle_keys(k: int, l: int, j: int, dual: bool) -> tuple:
    """Item keys of the representation-side value of summand j."""
    if dual:
        return ("g1", l), ("g2", j), ("tau", l, j), ("tilde", k, j)
    return ("tilde", j, l), ("g1", j), ("g2", k), ("tau", j, k)


def _oracle_summand(vals: list[complex], c_d: complex, dual: bool) -> complex:
    if dual:
        g1, g2, t1, t2 = vals
        return g1 / g2 * t1 * t2 * c_d
    t1, g1, g2, t2 = vals
    return t1 * g1 / g2 * c_d * t2


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


class BiorthCache:
    """The values of the items of one (k, l) sweep at fixed params.

    A cache serves one ``BiorthParams``: its first ``resolve`` binds the
    template of every item of the sweep to those params, and each item is
    finished from those values the first time a check reads it, and only
    then.  Items outside the sweep are kept by key (``get``).
    """

    def __init__(self) -> None:
        self._store: dict = {}
        self._bound: tuple[Template, list, list] | None = None

    def get(self, key, fn):
        if key not in self._store:
            self._store[key] = fn()
        return self._store[key]

    def resolve(self, bp: BiorthParams, keys) -> list:
        """The values of the items ``keys``, in key order.

        The first call binds the template of every item of the sweep to
        ``bp`` (``theta.Template.bind``: one ``theta_vec`` call, one pass
        over arrays for all its series and one for all its theta products).
        Items are finished in key order, each the first time it is read, so
        the first error is the one evaluating them one by one would raise.
        An item outside the sweep is built and bound alone.
        """
        if self._bound is None:
            sweep = _sweep(bp)
            self._bound = (sweep, _bind(sweep, bp), [_UNSET] * len(sweep.plans))
        sweep, vals, done = self._bound
        at = sweep.plans
        out = []
        for key in keys:
            i = at.get(key)
            if i is None:
                out.append(self.get(key, lambda: _item(bp, key)))
                continue
            value = done[i]
            if value is _UNSET:
                value = done[i] = sweep.finish(key, vals)
            out.append(value)
        return out


_UNSET = object()


def _sums(bp: BiorthParams, k: int, l: int, cache: BiorthCache | None, dual: bool):
    """h_k (None for the dual sum), summands and oracle summands of one
    (k, l) check.  Its items are read in one ``resolve``, in evaluation
    order: the determinant product, h_k, the summand keys of j = 0..N, then
    the oracle keys of j = 0..N."""
    js = range(bp.N + 1)
    summands = [_summand_keys(k, l, j, dual) for j in js]
    oracles = [_oracle_keys(k, l, j, dual) for j in js]
    head = [("cd",)] + ([] if dual else [("h", k)])
    keys = head + [key for ks in summands for key in ks] + [key for ks in oracles for key in ks]
    v = iter((cache if cache is not None else BiorthCache()).resolve(bp, keys))
    c_d = next(v)
    hk = None if dual else next(v)
    terms = [_summand([next(v) for _ in ks], dual) for ks in summands]
    oracle = [_oracle_summand([next(v) for _ in ks], c_d, dual) for ks in oracles]
    return hk, terms, oracle


def check_biorth(
    bp: BiorthParams, k: int, l: int, cache: BiorthCache | None = None
) -> BiorthReport:
    """Explicit biorthogonality sum against delta(k, l) * h_k, plus oracles.

    The summand scale enters the residual denominator so that the vanishing
    off-diagonal case measures cancellation quality relative to the largest
    term rather than against zero.  The items come from the cache's bound
    sweep (``BiorthCache.resolve``).
    """
    hk, terms, oracle = _sums(bp, k, l, cache, False)
    max_term = max(abs(t) for t in terms)
    target = hk if k == l else 0.0
    sum_res = scaled(sum(terms), target, max_term)
    term_res = worst([scaled(t, hk * o, max_term * 1e-16) for t, o in zip(terms, oracle)])
    oracle_res = scaled(sum(oracle), 1.0 if k == l else 0.0, max(abs(o) for o in oracle))
    return BiorthReport(sum_res, term_res, oracle_res, max_term)


def check_dual_biorth(
    bp: BiorthParams, k: int, l: int, cache: BiorthCache | None = None
) -> BiorthReport:
    """Dual biorthogonality sum against delta(k, l), plus oracle comparisons."""
    _, terms, oracle = _sums(bp, k, l, cache, True)
    max_term = max(abs(t) for t in terms)
    target = 1.0 if k == l else 0.0
    sum_res = scaled(sum(terms), target, max_term)
    term_res = worst([scaled(t, o, max_term * 1e-16) for t, o in zip(terms, oracle)])
    oracle_res = scaled(sum(oracle), target, max(abs(o) for o in oracle))
    return BiorthReport(sum_res, term_res, oracle_res, max_term)
