"""Matrix elements of the symmetric-power corepresentations.

``t_word`` builds the (k, j) matrix element of the N-th symmetric power as an
explicit sum of generator words with dynamical coefficients.  ``tau_plan``
and ``tau_tilde_plan`` give the action of these elements (and their
conjugates) on basis vectors in closed form: a theta-product prefactor times
a terminating very well poised balanced series.  ``tau_product`` is an
independent oracle built by composing the raw single-letter actions.  The
towers of the suites check the closed forms against both.  Their word
action and closed side are compiled once per level over records, into one
template, and bound once per batch of samples (``closed_towers``); the
word side is laid out, and its items fail, as ``rep.Compiled`` lays out and
fails a check (``rep.word_plans``, ``rep.item_errors``).  ``tau_product`` is the one side they evaluate
over numbers, by one reader per sample and level (``product_tower``) that
evaluates each shared prefactor, elliptic binomial and letter coefficient
once, and that shares its four Pochhammer blocks with the ``t_word``
coefficients (``_t_blocks``).  ``tau_closed`` and ``rep.apply_word``
evaluate one element over numbers.  The tensor checks
(``check_coproduct``, ``check_tensor_relation``) evaluate each leg once per
call and point (``_leg``).
``gamma_factor`` supplies the diagonal normalization appearing in the
inversion identity, checked word by word in ``check_unitarity`` and
``check_inversion_words``: their words are compiled once per level over
records (``rep.Compiled``), and each call binds its level's family at its
one sample (the suites bind a family at a batch of samples, through
``rep.bind_rows``).  Both sides of that identity take their reflected point
and inverse-determinant word from ``_reflection``.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Iterable

import numpy as np

from .rep import (
    RepContext,
    _rows_at,
    apply_word,
    apply_word_states,
    coef_a,
    coef_b,
    coef_c,
    coef_d,
    guard_plans,
    guard_rows,
    item_errors,
    word_plans,
)
from .residuals import residual_between, worst
from .series import vwp_plan
from .theta import (
    LAM,
    OMEGA,
    Z,
    Joined,
    Plan,
    Template,
    TemplateContext,
    ThetaContext,
    ThetaProduct,
    TrackedArg,
    _Split,
    array_form,
    binomial_plan,
    combine,
    elliptic_binomial,
    error,
    garg,
    kept_shape,
    known,
    qarg,
    reciprocal,
)
from .words import (
    AlgebraElement,
    CoefficientFn,
    L_alpha,
    L_beta,
    L_delta,
    L_detinv,
    L_fl,
    L_fr,
    L_gamma,
    antipode,
    cf_from,
    coproduct,
    counit,
    star,
    unit,
    word,
)

__all__ = [
    "t_word",
    "tau_series_parts",
    "tau_tilde_series_parts",
    "tau_plan",
    "tau_closed",
    "tau_tilde_plan",
    "tau_product",
    "product_tower",
    "closed_towers",
    "gamma_plan",
    "gamma_factor",
    "inv_gamma_factor",
    "eval_tensor",
    "check_coproduct",
    "check_tensor_relation",
    "counit_structure",
    "check_counit_exact",
    "unitarity_words",
    "inversion_elements",
    "check_unitarity",
    "check_inversion_words",
    "linear_independence_ratio",
]


def _t_coefficient(N: int, k: int, j: int, l: int, ctx: ThetaContext) -> CoefficientFn | None:
    """Dynamical coefficient of the l-th summand, or None when exactly one."""
    r1_one = l == 0 or l == k
    r2_one = j - l == 0 or l == k + j - N
    if r1_one and r2_one:
        return None

    def fn(x: complex) -> complex:
        return ctx.evaluate(_t_blocks(ThetaProduct(ctx), N, k, j, l, x))

    return cf_from(fn, f"tcoef[{N};{k},{j};{l}]")


def _t_blocks(tp: ThetaProduct, N: int, k: int, j: int, l: int, x: complex) -> ThetaProduct:
    """``tp`` times the four Pochhammer blocks of the l-th summand of the
    (k, j) matrix element at level N, at the dynamical point x."""
    qp = tp.ctx.qpow
    tp.poch(garg(qp(2 * (x + N - k - 2 * j + l + 2))), l)
    tp.poch(garg(qp(2 * (x + N - 2 * j + 2))), l, inv=True)
    tp.poch(garg(qp(2 * (x + l - j + 2))), j - l)
    tp.poch(garg(qp(2 * (x + N - 2 * j - k + 2 * l + 2))), j - l, inv=True)
    return tp


def _in_level(N: int, k: int, j: int, m: int = 0) -> None:
    """Raise ``ValueError`` unless (k, j) is a matrix element of level N
    and m a basis index."""
    if not (0 <= k <= N and 0 <= j <= N):
        raise ValueError("need 0 <= k, j <= N")
    if m < 0:
        raise ValueError("basis index must be >= 0")


def t_word(N: int, k: int, j: int, z: complex, ctx: ThetaContext) -> AlgebraElement:
    """Matrix element (k, j) of the N-th symmetric power as a sum of words.

    Each summand carries an elliptic binomial pair, a dynamical coefficient in
    the right variable, and four blocks of generator letters on a q^2 ladder.
    The coefficient letter is omitted whenever it is identically one, so the
    diagonal elements have exactly one bare word surviving the counit.
    """
    _in_level(N, k, j)
    q2 = lambda t: ctx.qpow(2 * t) * z
    out = AlgebraElement(())
    for l in range(max(0, k + j - N), min(k, j) + 1):
        scalar = elliptic_binomial(k, l, ctx) * elliptic_binomial(N - k, j - l, ctx)
        letters = []
        cfn = _t_coefficient(N, k, j, l, ctx)
        if cfn is not None:
            letters.append(L_fr(cfn))
        letters += [L_gamma(q2(t)) for t in range(N - k - 1, N - j - k + l - 1, -1)]
        letters += [L_delta(q2(t)) for t in range(N - j - k + l - 1, -1, -1)]
        letters += [L_alpha(q2(t)) for t in range(N - 1, N - l - 1, -1)]
        letters += [L_beta(q2(t)) for t in range(N - l - 1, N - k - 1, -1)]
        out = out + word(scalar, letters)
    return out


def tau_series_parts(
    N: int, k: int, j: int, m: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext
) -> tuple[TrackedArg, list[TrackedArg], list[TrackedArg], TrackedArg, int]:
    """Series data (a1, numerators, denominators, merged base, order) for tau."""
    qp = ctx.qpow
    a1 = garg(qp(2 * (lam + N - 2 * j - k + 1)))
    numer = [
        qarg(-k),
        qarg(-j),
        garg(qp(2 * (lam - j + 1))),
        garg(qp(2 * (lam + N - 2 * j - omega + m + 1))),
        garg(qp(2 * (lam + N + 2 + m - 2 * j))),
        garg(z * qp(2 * (N - m - k) + omega + 1)),
        garg(qp(-2 * (m + k - 1) + omega - 1) / z),
    ]
    denom = [
        garg(qp(2 * (lam + N - 2 * j + 2))),
        garg(qp(2 * (lam + N - j - k + 2))),
        garg(qp(2 * (omega - m - k + 1))),
        qarg(-(m + k)),
        garg(qp(2 * (lam - 2 * j + m + 1) - omega + 1) / z),
        garg(z * qp(2 * (lam + N - 2 * j + m + 2) - omega - 1)),
    ]
    return a1, numer, denom, qarg(N - j - k + 1), min(k, j)


class _HeadTimesSeries(Joined):
    """The plan of head * (series value); a head of 0 gives 0 without the series."""

    __slots__ = ()

    def __init__(self, head: ThetaProduct, series: Plan):
        super().__init__(head.ctx, [head, series], None)

    def finish(self, vals: list[complex]) -> complex:
        head, series = self.parts
        cut = self.cuts[1]
        h = head.finish(vals[:cut])
        if h == 0.0:
            return 0.0 + 0.0j
        return h * series.finish(vals[cut:])[0]


def _head_times_series(head: _Split, series: tuple) -> _Split:
    """``_HeadTimesSeries.finish`` on split values (``theta.array_form``):
    0 where the head is 0, and the series, its failure too, not read there."""
    (value,) = series
    out = head * value
    zero = (head.re == 0) & (head.im == 0)
    code = np.where(zero, head.code, out.code)
    return _Split(np.where(zero, 0.0, out.re), np.where(zero, 0.0, out.im), code)


array_form(_HeadTimesSeries, _head_times_series)


def tau_plan(
    N: int, k: int, j: int, m: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext
) -> Plan:
    """Plan of ``tau_closed``.  A head with an exact zero builds no series."""
    _in_level(N, k, j, m)
    if m + k - j < 0:
        return known(ctx, 0.0 + 0.0j)
    qp = ctx.qpow
    expo = (
        1.5 * k * (k - 1)
        + N * (N + 1)
        + 2.5 * j * (j + 1)
        + 2 * N * (lam - k - 2 * j)
        + m * (k - j)
        + 3 * j * k
        - 2 * k * lam
    )
    pref = ThetaProduct(ctx, (-1.0) ** (N - k) * qp(expo))
    pref.theta(qarg(1), count=k - j)
    pref.poch(garg(qp(-2 * (lam + 1))), j)
    pref.poch(qarg(m + k - j + 1), j)
    pref.poch(garg(qp(2 * (omega - m - k + 1))), j)
    pref.poch(garg(z * qp(2 * (lam + N - 2 * j + m + 2) - omega - 1)), j)
    pref.poch(qarg(1), j, inv=True)
    pref.poch(garg(qp(2 * (lam + N - k - 2 * j + 2))), j, inv=True)
    pref.poch(garg(qp(2 * (lam - j + 2))), j, inv=True)
    pref.poch(garg(z * qp(-2 * (lam - 2 * j + m + k) + omega - 1)), k)
    pref.poch(garg(qp(-2 * (lam + N - 2 * j))), k, inv=True)
    pref.poch(garg(qp(-2 * (lam + N - 2 * j - omega + m))), N - k - j)
    pref.poch(garg(z * qp(2 * (m + k) - omega + 1)), N - k - j)
    pref.poch(garg(qp(2 * (lam - j + 1))), N - k - j, inv=True)
    pref.poch(garg(z * qp(omega + 1)), N, inv=True)
    if pref.zeros > 0:
        return pref
    a1, numer, denom, c, n = tau_series_parts(N, k, j, m, lam, z, omega, ctx)
    return _HeadTimesSeries(pref, vwp_plan(ctx, a1, numer, denom, n, merged=(c, j)))


def tau_closed(
    N: int, k: int, j: int, m: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext
) -> complex:
    """Coefficient of e_(m+k-j) in the action of the (k, j) matrix element on e_m."""
    return tau_plan(N, k, j, m, lam, z, omega, ctx).value()


def tau_tilde_series_parts(
    N: int, k: int, j: int, m: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext
) -> tuple[TrackedArg, list[TrackedArg], list[TrackedArg], TrackedArg, int]:
    """Series data for the conjugated matrix element action."""
    qp = ctx.qpow
    zb = ctx.conj(z)
    a1 = garg(qp(2 * (lam - k + 1)))
    numer = [
        qarg(-k),
        qarg(-j),
        garg(qp(2 * (lam + j - N + 1))),
        garg(qp(2 * (lam - k - omega + m + j + 1))),
        garg(qp(2 * (lam + j + m - k + 2))),
        garg(zb * qp(2 * (N - m - j) + omega - 1)),
        garg(qp(-2 * (m + j - 1) + omega + 1) / zb),
    ]
    denom = [
        garg(qp(2 * (lam + 2))),
        garg(qp(2 * (lam - k + j + 2))),
        garg(qp(2 * (omega - m - j + 1))),
        qarg(-(m + j)),
        garg(qp(2 * (lam - k - N + m + j + 2) - omega + 1) / zb),
        garg(zb * qp(2 * (lam - k + m + j + 1) - omega - 1)),
    ]
    return a1, numer, denom, qarg(N - k - j + 1), min(k, j)


def tau_tilde_plan(
    N: int, k: int, j: int, m: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext
) -> Plan:
    """Coefficient of e_(m+j-k) in the action of the conjugated (k, j)
    element.  A head with an exact zero builds no series."""
    _in_level(N, k, j, m)
    if m + j - k < 0:
        return known(ctx, 0.0 + 0.0j)
    qp = ctx.qpow
    zb = ctx.conj(z)
    expo = (
        2 * j * j
        + 0.5 * k * (k - 1)
        - 0.5 * j * (j - 1)
        + k * (1 - m - j)
        + 2 * m * (N - j - k)
        + m * j
        + 2 * (N - k) * (lam - k + 1)
        - (N - k - j) * (N - k - j - 1)
    )
    pref = ThetaProduct(ctx, (-1.0) ** (N - j) * qp(expo))
    pref.theta(qarg(1), count=j - k)
    pref.poch(garg(qp(-2 * (lam - N + 2 * j + 1))), j)
    pref.poch(garg(qp(-2 * (lam + 2 * j - k + m) + omega + 1) / zb), j)
    pref.poch(qarg(1), j, inv=True)
    pref.poch(garg(qp(2 * (lam - k + 2))), j, inv=True)
    pref.poch(garg(qp(-2 * (lam + 2 * j - N))), j, inv=True)
    pref.poch(garg(qp(-2 * (N - k - 1) + omega + 1) / zb), j, inv=True)
    pref.poch(qarg(m + j - k + 1), k)
    pref.poch(garg(qp(2 * (omega - m - j + 1))), k)
    pref.poch(garg(qp(-2 * (N - 3 - lam + k - m - j) - omega - 1) / zb), k)
    pref.poch(garg(qp(2 * (lam - k + 2))), k, inv=True)
    pref.poch(garg(qp(-2 * (N - 1) + omega + 1) / zb), k, inv=True)
    pref.poch(garg(qp(-2 * (lam + j + m + 1 - k))), N - j - k)
    pref.poch(garg(qp(-2 * (N - k + m - 1) + omega + 1) / zb), N - j - k)
    pref.poch(garg(qp(2 * (lam + 2 - N + j))), N - j - k, inv=True)
    # The word-level oracle fixes the exponent in the last denominator slot
    # as -2(N-j-k-1); see the cross-check suite for the residual evidence.
    pref.poch(garg(qp(-2 * (N - j - k - 1) + omega + 1) / zb), N - j - k, inv=True)
    if pref.zeros > 0:
        return pref
    a1, numer, denom, c, n = tau_tilde_series_parts(N, k, j, m, lam, z, omega, ctx)
    return _HeadTimesSeries(pref, vwp_plan(ctx, a1, numer, denom, n, merged=(c, j)))


def tau_product(
    N: int, k: int, j: int, m: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext
) -> complex:
    """Oracle for tau_closed built from products of single-letter coefficients:
    one read of a fresh ``product_tower``."""
    return product_tower(N, lam, z, omega, ctx)(k, j, m)


def product_tower(
    N: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext
) -> Callable[[int, int, int], complex]:
    """The reader of ``tau_product(N, k, j, m, lam, z, omega, ctx)`` by (k, j, m).

    Each summand l of (k, j) is an m-independent prefactor (the two elliptic
    binomials times four Pochhammer blocks) times a product of single-letter
    coefficients, each at a letter, an index, a dynamical argument and the
    point q^(2s) z.  The reader evaluates each prefactor once per (k, j, l),
    each elliptic binomial once per pair of its arguments, each coefficient
    once per (letter, index, dynamical argument, s) and each point once per
    s, by the same expressions in the same order as a reader of one element,
    so every value keeps its bits.  A failure is not kept: an element that
    raised raises again where it is read.  A (k, j) outside 0 <= k, j <= N
    raises ``ValueError``, as ``t_word`` does.  Like
    ``_leg``, this sharing lives as long as the reader, which a caller keeps
    for one check at one sample.
    """
    qp = ctx.qpow
    heads: dict = {}
    binomials: dict = {}
    letters: dict = {}
    points: dict = {}

    def binomial(a: int, b: int) -> complex:
        got = binomials.get((a, b))
        if got is None:
            got = binomials[(a, b)] = elliptic_binomial(a, b, ctx)
        return got

    def head(k: int, j: int, l: int) -> complex:
        got = heads.get((k, j, l))
        if got is None:
            tp = ThetaProduct(ctx, binomial(k, l) * binomial(N - k, j - l))
            got = heads[(k, j, l)] = _t_blocks(tp, N, k, j, l, lam).value()
        return got

    def letter(coef, index: int, x: complex, s: int) -> complex:
        key = (coef, index, x, s)
        got = letters.get(key)
        if got is None:
            point = points.get(s)
            if point is None:
                point = points[s] = qp(2 * s) * z
            got = letters[key] = coef(index, x, point, omega, ctx)
        return got

    def read(k: int, j: int, m: int) -> complex:
        _in_level(N, k, j, m)
        if m + k - j < 0:
            return 0.0 + 0.0j
        total = 0.0 + 0.0j
        for l in range(max(0, k + j - N), min(k, j) + 1):
            coeff = head(k, j, l)
            for n in range(j - l):
                coeff *= letter(coef_c, m + k - l - n, lam - j + l + 1 + n, n + N - k - j + l)
            for n in range(N - j - k + l):
                coeff *= letter(coef_d, m + k - l, lam + N - k - 2 * j + 2 * l - 1 - n, n)
            for n in range(l):
                coeff *= letter(coef_a, m + k - l, lam + n + N - k - 2 * j + l + 1, N - l + n)
            for n in range(k - l):
                coeff *= letter(coef_b, m + n, lam + N - 2 * j - 1 - n, n + N - k)
            total += coeff
        return total

    return read


# The basis indices m < TOWER_M of the corepresentation towers.
TOWER_M = 4
# The compiled towers of up to ``theta.SHAPE_CAP`` (plan, level, zero guard).
_TOWERS: dict = {}


def _conjugate_word(N: int, k: int, j: int, z: complex, ctx: ThetaContext) -> AlgebraElement:
    """The conjugate of the (k, j) matrix element, whose action ``tau_tilde_plan`` closes."""
    return star(t_word(N, k, j, z, ctx), ctx)


# The word each closed form is the action of, and the sign of its index
# displacement: on e_m the word of (k, j) gives e_(m + sign * (k - j)).
_TOWER_WORDS = {tau_plan: (t_word, 1), tau_tilde_plan: (_conjugate_word, -1)}


class _Tower:
    """Both compiled sides of a corepresentation tower at level N, in one
    ``Template``: for each (k, j) and m < ``TOWER_M``, the closed item
    ``plan(N, k, j, m, LAM, Z, OMEGA, ctx)`` under the key (k, j, m), then
    the word item, the paths of the word's action on e_m and its guards not
    listed before (``rep.word_plans``, ``rep.guard_plans``).

    ``words`` holds, for each (k, j, m), the word item's guards (template
    position and message) in the order of ``rep.word_plans``, the positions
    of its paths, and of those at its index, which its value sums.  The
    paths and guards are bound with no zero guard; a word item's error at a
    sample follows ``rep.item_errors``.
    """

    __slots__ = ("template", "words", "guard_rows")

    def __init__(self, plan, N: int, guard: float):
        word, sign = _TOWER_WORDS[plan]
        ctx = TemplateContext(guard)
        keys: dict = {}
        words: dict = {}

        def plans():
            for k in range(N + 1):
                for j in range(N + 1):
                    el = word(N, k, j, Z, ctx)
                    for m in range(TOWER_M):
                        yield (k, j, m), plan(N, k, j, m, LAM, Z, OMEGA, ctx)
                        paths, checks = word_plans(el, m, ctx)
                        named = [("path", k, j, m, i) for i in range(len(paths))]
                        yield from zip(named, (p for _, p in paths))
                        yield from guard_plans(checks, keys)
                        summed = [key for key, (index, _) in zip(named, paths) if index == m + sign * (k - j)]
                        words[(k, j, m)] = ([(keys[g], g[3]) for g in checks], named, summed)

        self.template = Template(plans())
        at = self.template.plans.__getitem__
        self.words = {
            key: ([(at(g), message) for g, message in checks], [*map(at, paths)], [*map(at, sums)])
            for key, (checks, paths, sums) in words.items()
        }
        self.guard_rows = guard_rows(self.template, keys)

    def bind(self, samples: list[tuple[RepContext, complex]]) -> list[Callable[..., complex]]:
        """The reader of (k, j, m, side) at each sample (rc, z), all bound in
        one ``Template.bind_all``; see ``closed_towers``."""
        values, codes = self.template.bind_all([(rc.ctx, rc.lam0, rc.omega, z) for rc, z in samples])
        return [self._reader(rc.ctx, v, c) for (rc, _), v, c in zip(samples, values, codes)]

    def _reader(self, ctx: ThetaContext, values: np.ndarray, codes: np.ndarray) -> Callable[..., complex]:
        """The reader of one sample's bound ``values`` and ``codes``."""
        item_error = item_errors(self.guard_rows, values, codes, ctx.zero_guard)
        row, code = values.tolist(), codes.tolist()
        plans, words = self.template.plans, self.words

        def read(k: int, j: int, m: int, side: str = "closed") -> complex:
            if side == "word":
                checks, paths, summed = words[(k, j, m)]
                failure = item_error(checks, paths)
                if failure is not None:
                    raise failure
                # Path after path, from 0: as ``apply_word`` adds.
                total = 0.0 + 0.0j
                for i in summed:
                    total += row[i]
                return total
            i = plans[(k, j, m)]
            if code[i]:
                raise error(code[i])
            return row[i]

        return read


def closed_towers(plan, N: int, samples: list[tuple[RepContext, complex]]) -> list[Callable[..., complex]]:
    """A corepresentation tower at level N, bound at each sample (rc, z) of
    ``samples``: for each, the reader of (k, j, m) and a side, for
    0 <= k, j <= N and m < ``TOWER_M``.  ``plan`` is ``tau_plan`` or
    ``tau_tilde_plan``.  On the side "closed" (the default) a reader gives
    ``plan(N, k, j, m, rc.lam0, z, rc.omega, ctx)``'s value; on the side
    "word" the coefficient of e_(m + k - j) (for ``tau_tilde_plan``, of
    e_(m + j - k)) in the action on e_m of ``t_word(N, k, j, z, ctx)`` (its
    ``words.star``), as ``apply_word`` gives it; or it raises the item's
    error, a fresh one at each read.

    Both sides are compiled into one ``Template`` per (plan, N, zero guard)
    (``_Tower``), kept in ``_TOWERS`` (``theta.kept_shape``), and bound at
    every sample in one ``Template.bind_all``, which gives each sample the
    bits it gets bound alone.  The samples share one zero guard.  The
    values are those of the numeric evaluation up to rounding: a bound
    record is one ``exp``, the finish runs on arrays, and each path is one
    theta product.  A word item raises the error ``rep.item_errors`` gives
    it: the first of its guards below the zero guard, in the numeric order;
    then a path that failed, where the numeric sum would carry an inf or a
    NaN.  At a sample whose theta argument underflowed to 0, every read
    raises ``PoleError(THETA_RANGE)`` (``Template.bind_all``); the bind
    itself raises for no sample."""
    guards = {rc.ctx.zero_guard for rc, _ in samples}
    if len(guards) != 1:
        raise ValueError("the samples of one tower bind need one zero guard")
    (guard,) = guards
    return kept_shape(_TOWERS, (plan, N, guard), lambda: _Tower(plan, N, guard)).bind(samples)


def gamma_plan(N: int, k: int, x: complex, ctx: ThetaContext) -> ThetaProduct:
    """Plan of ``gamma_factor``."""
    if not 0 <= k <= N:
        raise ValueError("need 0 <= k <= N")
    qp = ctx.qpow
    # The scalar is the elliptic binomial times q to the sum of the
    # exponents of the single factors below.
    expo = 0
    for i in range(N - k):
        expo -= x + N - 2 * k - i
    for i in range(k):
        expo -= x - k + i
    tp = ThetaProduct(ctx, combine(ctx, [binomial_plan(N, k, ctx), known(ctx, qp(expo))], mul))
    tp.poch(garg(qp(2 * (x - k + 2))), k)
    tp.poch(garg(qp(2 * (x + N - 2 * k + 2))), k, inv=True)
    for i in range(N - k):
        tp.theta(garg(qp(-2 * (x + N - 2 * k - i + 1))), inv=True)
    for i in range(k):
        tp.theta(garg(qp(-2 * (x - k + i + 1))), inv=True)
    return tp


def gamma_factor(N: int, k: int, x: complex, ctx: ThetaContext) -> complex:
    """Diagonal normalization in the inversion identity for level N."""
    return ctx.evaluate(gamma_plan(N, k, x, ctx))


def inv_gamma_factor(N: int, k: int, ctx: ThetaContext) -> CoefficientFn:
    """Reciprocal of gamma_factor as a coefficient function with pole guard."""
    return cf_from(
        lambda x: reciprocal(gamma_factor(N, k, x, ctx), ctx, "gamma factor below zero guard"),
        f"1/Gamma[{N};{k}]",
    )


def gamma_cf(N: int, k: int, ctx: ThetaContext) -> CoefficientFn:
    return cf_from(lambda x: gamma_factor(N, k, x, ctx), f"Gamma[{N};{k}]")


def eval_tensor(
    pairs: list[tuple[complex, tuple, tuple]],
    m: int,
    n: int,
    rc1: RepContext,
    rc2: RepContext,
    legs: tuple[dict, dict],
) -> dict[tuple[int, int], complex]:
    """Evaluate two-leg word pairs on e_m (x) e_n.

    The first leg sees the dynamical variable shifted by the weight of the
    second leg's output state; both contexts must share the base and the
    evaluation point.  ``legs`` keeps the legs of each side (the first
    side's, the second's; ``_leg``) across the calls of one check, which
    passes the same pair of dicts to each: within a check a word recurs in
    many pairs, on the same basis vector and context.  Sharing them keeps
    every value's bits: the sums are formed term by term in the same order.
    """
    left, right = legs
    return _tensor(
        [(scalar, _leg(left, w1, m, rc1), _leg(right, w2, n, rc2)) for scalar, w1, w2 in pairs],
        rc1,
        rc2,
    )


def _tensor(pairs: list, rc1: RepContext, rc2: RepContext) -> dict[tuple[int, int], complex]:
    """``eval_tensor`` over pairs (scalar, left leg, right leg) of ``_Leg``."""
    lam0 = rc1.lam0
    out: dict[tuple[int, int], complex] = {}
    for scalar, leg1, leg2 in pairs:
        for n2, f2 in leg2.at(lam0):
            shift = lam0 - rc2.omega + 2 * n2
            for n1, f1 in leg1.at(shift):
                key = (n1, n2)
                out[key] = out.get(key, 0.0 + 0.0j) + scalar * f1 * f2
    return out


class _Leg:
    """A word on e_m in one context: its states (``apply_word_states``),
    built at its first point, and its paths' values by point."""

    __slots__ = ("word", "m", "rc", "states", "values")

    def __init__(self, w: tuple, m: int, rc: RepContext):
        self.word, self.m, self.rc, self.states, self.values = w, m, rc, None, {}

    def at(self, point: complex) -> list[tuple[int, complex]]:
        """(index, value at ``point``) of each path, evaluated once per point."""
        got = self.values.get(point)
        if got is None:
            if self.states is None:
                self.states = apply_word_states(word(1.0, self.word), self.m, self.rc)
            got = self.values[point] = [(k, f(point)) for k, f in self.states]
        return got


def _leg(legs: dict, w: tuple, m: int, rc: RepContext) -> _Leg:
    """The leg of ``w`` in ``legs`` (one basis index and context), by one
    hash of its letters, which runs in Python: a caller looks a word up once."""
    return legs.setdefault(w, _Leg(w, m, rc))


def check_coproduct(
    N: int, z: complex, m: int, n: int, rc1: RepContext, rc2: RepContext
) -> float:
    """Worst residual of the matrix-element coproduct rule over all (k, j);
    each leg is built and evaluated once in the call (``_leg``)."""
    ctx = rc1.ctx
    res = []
    legs = ({}, {})
    tws = {(a, b): t_word(N, a, b, z, ctx) for a in range(N + 1) for b in range(N + 1)}
    # Each term's legs, looked up once: the right sides pair them many times.
    lefts = {key: [(s, _leg(legs[0], w, m, rc1)) for s, w in tw.terms] for key, tw in tws.items()}
    rights = {key: [(s, _leg(legs[1], w, n, rc2)) for s, w in tw.terms] for key, tw in tws.items()}
    for k in range(N + 1):
        for j in range(N + 1):
            lhs = eval_tensor(coproduct(tws[(k, j)]), m, n, rc1, rc2, legs)
            rhs: dict[tuple[int, int], complex] = {}
            for s in range(N + 1):
                pairs = [
                    (s1 * s2, leg1, leg2)
                    for s1, leg1 in lefts[(k, s)]
                    for s2, leg2 in rights[(s, j)]
                ]
                for key, val in _tensor(pairs, rc1, rc2).items():
                    rhs[key] = rhs.get(key, 0.0 + 0.0j) + val
            res.append(residual_between(lhs, rhs))
    return worst(res)


def check_tensor_relation(
    lhs: AlgebraElement,
    rhs: AlgebraElement,
    m: int,
    n: int,
    rc1: RepContext,
    rc2: RepContext,
) -> float:
    """Residual of a defining relation evaluated in a tensor of two actions;
    the two sides share their legs (``_leg``)."""
    legs = ({}, {})
    return residual_between(
        eval_tensor(coproduct(lhs), m, n, rc1, rc2, legs),
        eval_tensor(coproduct(rhs), m, n, rc1, rc2, legs),
    )


def counit_structure(el: AlgebraElement) -> list[tuple[complex, bool, int]]:
    """Counit entries reduced to (scalar, coefficient-is-one, shift)."""
    return [(scalar, fn.is_one, shift) for scalar, fn, shift in counit(el)]


def check_counit_exact(N: int, z: complex, ctx: ThetaContext) -> list[str]:
    """Structural counit check for all matrix elements at level N.

    Off-diagonal elements must vanish identically; diagonal ones must reduce
    to exactly the shift by N - 2k with unit coefficient.  Returns a list of
    failure descriptions, empty on success.
    """
    bad: list[str] = []
    for k in range(N + 1):
        for j in range(N + 1):
            entries = counit_structure(t_word(N, k, j, z, ctx))
            if k != j:
                if entries:
                    bad.append(f"t[{N};{k},{j}] has surviving counit terms")
                continue
            if len(entries) != 1:
                bad.append(f"t[{N};{k},{k}] has {len(entries)} counit terms")
                continue
            scalar, is_one, shift = entries[0]
            if scalar != 1.0 or not is_one or shift != N - 2 * k:
                bad.append(
                    f"t[{N};{k},{k}] counit is {scalar} * T[{shift}] (is_one={is_one})"
                )
    return bad


def _reflection(N: int, z: complex, ctx: ThetaContext) -> tuple[complex, AlgebraElement]:
    """The reflected point q^(-2(N-2))/conj(z) of the inversion identity, and
    its inverse-determinant word, the letters at q^(-2i)/conj(z) for i < N."""
    zb = ctx.conj(z)
    dets = word(1.0, tuple(L_detinv(ctx.qpow(-2 * i) / zb) for i in range(N)))
    return ctx.qpow(-2 * (N - 2)) / zb, dets


def unitarity_words(
    N: int, k: int, j: int, z: complex, ctx: ThetaContext
) -> tuple[AlgebraElement, AlgebraElement]:
    """Both sides of the inversion identity for a single matrix element."""
    zr, dets = _reflection(N, z, ctx)
    lhs = word(1.0, (L_fr(gamma_cf(N, k, ctx)),)) * star(
        antipode(t_word(N, k, j, z, ctx), ctx), ctx
    )
    rhs = word(1.0, (L_fl(gamma_cf(N, j, ctx)),)) * t_word(N, j, k, zr, ctx) * dets
    return lhs, rhs


def inversion_elements(N: int, k: int, l: int, z: complex, ctx: ThetaContext) -> list[AlgebraElement]:
    """The conjugate pairs summed over j = 0..N in ``check_inversion_words``."""
    zr, dets = _reflection(N, z, ctx)
    return [
        star(t_word(N, j, l, z, ctx), ctx)
        * word(1.0, (L_fl(gamma_cf(N, j, ctx)), L_fr(inv_gamma_factor(N, k, ctx))))
        * t_word(N, j, k, zr, ctx)
        * dets
        for j in range(N + 1)
    ]


# The basis indices a unitarity or inversion check compiles at once; asking
# for a larger m compiles up to it.
UNITARITY_MMAX = 2


def _unitarity_rows(ctx: TemplateContext, N: int, mmax: int) -> Iterable:
    for k in range(N + 1):
        for j in range(N + 1):
            lhs, rhs = unitarity_words(N, k, j, Z, ctx)
            for m in range(mmax + 1):
                yield (k, j, m), [([(1, word_plans(lhs, m, ctx)), (-1, word_plans(rhs, m, ctx))], False)]


def _inversion_rows(ctx: TemplateContext, N: int, mmax: int) -> Iterable:
    for k in range(N + 1):
        for l in range(N + 1):
            elements = inversion_elements(N, k, l, Z, ctx)
            for m in range(mmax + 1):
                sides = [(1, word_plans(el, m, ctx)) for el in elements]
                if k == l:
                    sides.append((-1, word_plans(unit(), m, ctx)))
                yield (k, l, m), [(sides, False)]


def _element_residual(build, N: int, a: int, b: int, z: complex, m: int, rc: RepContext) -> float:
    """The residual of (a, b) on e_m from the compiled check ``build`` at level N."""
    _in_level(N, a, b, m)
    return _rows_at(rc, build, (N, max(m, UNITARITY_MMAX)), z=z)[(a, b, m)]


def check_unitarity(N: int, k: int, j: int, z: complex, m: int, rc: RepContext) -> float:
    """The inversion identity of one matrix element, applied to e_m.

    ``residual_between`` of the two sides of ``unitarity_words``.  Each call
    binds every (k, j) of the level and every m up to ``UNITARITY_MMAX``
    (at least m) at the sample, in one ``rep.bind_rows``, and reads one of
    them; ``rc`` keeps nothing.  The suites bind the whole family at a batch
    of samples and read every residual, never calling this.
    """
    return _element_residual(_unitarity_rows, N, k, j, z, m, rc)


def check_inversion_words(
    N: int, k: int, l: int, z: complex, m: int, rc: RepContext
) -> float:
    """Word-level biorthogonality: summed conjugate pairs give delta(k, l) on e_m.

    The largest difference from the target over the indices, relative to the
    largest coefficient of any one pair (and to 1 when k == l).  Bound as in
    ``check_unitarity``.
    """
    return _element_residual(_inversion_rows, N, k, l, z, m, rc)


def linear_independence_ratio(
    N: int,
    lam: complex,
    omega: complex,
    ctx: ThetaContext,
    points: list[tuple[complex, int]],
) -> float:
    """Smallest over largest singular value of a sampled coefficient matrix.

    Rows are (spectral point, basis index) samples, columns are the N + 1
    highest-row matrix elements evaluated on that sample; a ratio bounded away
    from zero certifies linear independence of the column functions.  Columns
    and then rows are scaled to unit 2-norm first (``_scaled_ratio``).
    """
    return _scaled_ratio(_top_row_samples(N, lam, omega, ctx, points))


def _top_row_samples(
    N: int, lam: complex, omega: complex, ctx: ThetaContext, points: list[tuple[complex, int]]
) -> np.ndarray:
    """The matrix of ``linear_independence_ratio``: one row per point."""
    rc = RepContext(omega, lam, ctx)
    rows = []
    for z, m in points:
        row = []
        for j in range(N + 1):
            got = apply_word(t_word(N, N, j, z, ctx), m, rc)
            row.append(got.get(m + N - j, 0.0 + 0.0j))
        rows.append(row)
    return np.array(rows, dtype=complex)


def _scaled_ratio(mat: np.ndarray) -> float:
    """Smallest over largest singular value of ``mat`` with its columns, then
    its rows, scaled to unit 2-norm.

    Scaling changes no rank.  The column functions differ in size by many
    orders, and the ratio of the raw matrix measures those sizes as much as
    independence; scaling the columns first makes the ratio independent of
    them.  The rows differ by orders too, with the basis index of their
    point, and are scaled next.  A zero column gives 0; a zero row is dropped.
    """
    cols = np.linalg.norm(mat, axis=0)
    if not np.all(cols > 0.0):
        return 0.0
    mat = mat / cols
    rows = np.linalg.norm(mat, axis=1)
    mat = mat[rows > 0.0] / rows[rows > 0.0, None]
    if mat.shape[0] < mat.shape[1]:
        return 0.0
    svals = np.linalg.svd(mat, compute_uv=False)
    return float(svals[-1] / svals[0])
