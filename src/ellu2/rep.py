"""Weighted shift representation of the generator letters and relation checks.

For a weight parameter omega, the generators act on basis vectors e_k,
k >= 0, tensored with functions of the dynamical variable: each letter
multiplies by a theta-quotient coefficient depending on (k, lam, z), shifts
lam by +-1 inside the accumulated function, and moves the index k by the
letter weight (beta raises, gamma lowers and kills e_0, alpha and delta keep).
Function letters fl / fr multiply by f(lam - omega + 2k) and f(lam); the
inverse determinant letter is a lam-independent scalar.  The coefficient
functions are memoized per context (``theta.memo_per_context``): the paths
of a word ask for the same (k, lam, z) again most of the time.

``relation_inventory`` builds the defining exchange relations as pairs of
algebra elements; ``check_relations`` evaluates both sides on basis vectors
at a random dynamical point and reports relative residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .residuals import residual_between, worst
from .rmatrix import r_entries
from .theta import PoleError, ThetaContext, memo_per_context, theta
from .words import (
    AlgebraElement,
    CoefficientFn,
    L_alpha,
    L_beta,
    L_delta,
    L_fl,
    L_fr,
    L_gamma,
    antipode,
    cf_f_factor,
    cf_from,
    cf_inv_f_factor,
    cf_shift,
    det_element,
    unit,
    word,
)

__all__ = [
    "RepContext",
    "coef_a",
    "coef_b",
    "coef_c",
    "coef_d",
    "det_scalar",
    "apply_word_states",
    "apply_word",
    "apply_word_scaled",
    "relation_inventory",
    "residual_inventory",
    "reverse_relation",
    "det_form_elements",
    "check_det_forms",
    "antipode_inverse_identities",
    "check_relations",
    "residual_between",
]


@dataclass(frozen=True)
class RepContext:
    """Weight parameter, evaluation point for the dynamical variable, and base.

    Like a ``ThetaContext``, it keeps a value memo for ``memo_per_context``:
    the checks that take one memoize there the words they apply to several
    basis vectors (see ``corep.check_unitarity``).
    """

    omega: complex
    lam0: complex
    ctx: ThetaContext

    def __post_init__(self) -> None:
        object.__setattr__(self, "_values", {})


def _den(lam: complex, z: complex, omega: complex, ctx: ThetaContext) -> complex:
    d = theta(ctx.qpow(-2 * (lam + 1)), ctx) * theta(z * ctx.qpow(omega + 1), ctx)
    if abs(d) < ctx.zero_guard:
        raise PoleError("representation coefficient denominator below zero guard")
    return d


@memo_per_context
def coef_a(k: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext) -> complex:
    num = theta(ctx.qpow(-2 * (lam + 1) - 2 * k), ctx) * theta(
        z * ctx.qpow(omega - 2 * k + 1), ctx
    )
    return ctx.qpow(2 * k) * num / _den(lam, z, omega, ctx)


@memo_per_context
def coef_b(k: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext) -> complex:
    num = theta(ctx.qpow(2), ctx) * theta(
        z * ctx.qpow(-2 * (lam + 1) + omega - 2 * k - 1), ctx
    )
    return ctx.qpow(k) * num / _den(lam, z, omega, ctx)


@memo_per_context
def coef_c(k: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext) -> complex:
    if k == 0:
        return 0.0 + 0.0j
    den = (
        theta(ctx.qpow(2), ctx)
        * theta(ctx.qpow(2 * (lam + 1)), ctx)
        * theta(z * ctx.qpow(omega + 1), ctx)
    )
    if abs(den) < ctx.zero_guard:
        raise PoleError("representation coefficient denominator below zero guard")
    num = (
        theta(ctx.qpow(2 * k), ctx)
        * theta(ctx.qpow(2 * (omega - k + 1)), ctx)
        * theta(z * ctx.qpow(2 * (lam + 1) - omega + 2 * k - 1), ctx)
    )
    return ctx.qpow(-(k - 1)) * num / den


@memo_per_context
def coef_d(k: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext) -> complex:
    num = theta(ctx.qpow(-2 * (lam + 1 - omega + k)), ctx) * theta(
        z * ctx.qpow(-omega + 2 * k + 1), ctx
    )
    return num / _den(lam, z, omega, ctx)


@memo_per_context
def det_scalar(z: complex, omega: complex, ctx: ThetaContext) -> complex:
    """Scalar by which the determinant element acts, independent of lam and k."""
    den = theta(z * ctx.qpow(1 + omega), ctx)
    if abs(den) < ctx.zero_guard:
        raise PoleError("determinant scalar denominator below zero guard")
    return ctx.qpow(omega) * theta(z * ctx.qpow(1 - omega), ctx) / den


State = tuple[int, Callable[[complex], complex]]


def apply_word_states(el: AlgebraElement, m: int, rc: RepContext) -> list[State]:
    """Apply an element to e_m, returning (index, coefficient function) pairs.

    Letters act right to left; the returned functions take the dynamical
    variable and evaluate all letter coefficients at their shifted positions.
    Words killed by gamma on e_0 are dropped.  The index displacement of each
    word, (number of beta) - (number of gamma), is asserted as a consistency
    check.
    """
    if m < 0:
        raise ValueError("basis index must be >= 0")
    omega, ctx = rc.omega, rc.ctx
    out: list[State] = []
    for scalar, w in el.terms:
        k = m
        fn: Callable[[complex], complex] = lambda lam: 1.0 + 0.0j
        dead = False
        for l in reversed(w):
            if l.kind == "alpha":
                fn = lambda lam, k=k, z=l.arg, f=fn: coef_a(k, lam, z, omega, ctx) * f(lam - 1)
            elif l.kind == "beta":
                fn = lambda lam, k=k, z=l.arg, f=fn: coef_b(k, lam, z, omega, ctx) * f(lam + 1)
                k += 1
            elif l.kind == "gamma":
                if k == 0:
                    dead = True
                    break
                fn = lambda lam, k=k, z=l.arg, f=fn: coef_c(k, lam, z, omega, ctx) * f(lam - 1)
                k -= 1
            elif l.kind == "delta":
                fn = lambda lam, k=k, z=l.arg, f=fn: coef_d(k, lam, z, omega, ctx) * f(lam + 1)
            elif l.kind == "detinv":
                fn = lambda lam, z=l.arg, f=fn: f(lam) / det_scalar(z, omega, ctx)
            elif l.kind == "fl":
                fn = lambda lam, g=l.fn, k=k, f=fn: g(lam - omega + 2 * k) * f(lam)
            else:  # fr
                fn = lambda lam, g=l.fn, f=fn: g(lam) * f(lam)
        if dead:
            continue
        nbeta = sum(1 for l in w if l.kind == "beta")
        ngamma = sum(1 for l in w if l.kind == "gamma")
        assert k - m == nbeta - ngamma, "index displacement mismatch"
        out.append((k, lambda lam, s=scalar, f=fn: s * f(lam)))
    return out


def apply_word(el: AlgebraElement, m: int, rc: RepContext) -> dict[int, complex]:
    """Evaluate the action on e_m at the context's dynamical point."""
    out: dict[int, complex] = {}
    for k, fn in apply_word_states(el, m, rc):
        out[k] = out.get(k, 0.0 + 0.0j) + fn(rc.lam0)
    return out


def apply_word_scaled(
    el: AlgebraElement, m: int, rc: RepContext
) -> tuple[dict[int, complex], float]:
    """Like apply_word, also returning the largest single path contribution.

    The peak bounds the cancellation inside each aggregated coefficient and
    therefore the precision any comparison of the result can achieve.
    """
    out: dict[int, complex] = {}
    peak = 0.0
    for k, fn in apply_word_states(el, m, rc):
        v = fn(rc.lam0)
        peak = max(peak, abs(v))
        out[k] = out.get(k, 0.0 + 0.0j) + v
    return out, peak


def _cf_entry(which: int, z12: complex, ctx: ThetaContext, tag: str) -> CoefficientFn:
    return cf_from(lambda x: r_entries(x, z12, ctx)[which], f"{tag}({_short(z12)})")


def _short(z: complex) -> str:
    return f"{z.real:.3g}{z.imag:+.3g}i"


def relation_inventory(
    z1: complex, z2: complex, ctx: ThetaContext, shift: complex = 0.37
) -> list[tuple[str, AlgebraElement, AlgebraElement]]:
    """The defining exchange relations at generic spectral points z1, z2.

    Returns (name, lhs, rhs) triples.  Relations with dynamical coefficients
    carry them as fl letters (left variable) or fr letters (right variable)
    standing to the left of the generator words.  ``shift`` seeds the sample
    function used in the moment-map commutation family.
    """
    z12 = z1 / z2
    A = lambda z: word(1.0, (L_alpha(z),))
    B = lambda z: word(1.0, (L_beta(z),))
    G = lambda z: word(1.0, (L_gamma(z),))
    D = lambda z: word(1.0, (L_delta(z),))
    aL = word(1.0, (L_fl(_cf_entry(0, z12, ctx, "ra")),))
    bL = word(1.0, (L_fl(_cf_entry(1, z12, ctx, "rb")),))
    cL = word(1.0, (L_fl(_cf_entry(2, z12, ctx, "rc")),))
    dL = word(1.0, (L_fl(_cf_entry(3, z12, ctx, "rd")),))
    aR = word(1.0, (L_fr(_cf_entry(0, z12, ctx, "ra")),))
    bR = word(1.0, (L_fr(_cf_entry(1, z12, ctx, "rb")),))
    cR = word(1.0, (L_fr(_cf_entry(2, z12, ctx, "rc")),))
    dR = word(1.0, (L_fr(_cf_entry(3, z12, ctx, "rd")),))

    rels: list[tuple[str, AlgebraElement, AlgebraElement]] = []
    for name, gen in (("alpha", A), ("beta", B), ("gamma", G), ("delta", D)):
        rels.append((f"commute {name}", gen(z1) * gen(z2), gen(z2) * gen(z1)))

    rels.append(("exchange ab 1", A(z1) * B(z2), aR * B(z2) * A(z1) + cR * A(z2) * B(z1)))
    rels.append(("exchange ab 2", B(z1) * A(z2), bR * B(z2) * A(z1) + dR * A(z2) * B(z1)))
    rels.append(("exchange ac 1", aL * A(z1) * G(z2) + bL * G(z1) * A(z2), G(z2) * A(z1)))
    rels.append(("exchange ac 2", cL * A(z1) * G(z2) + dL * G(z1) * A(z2), A(z2) * G(z1)))
    rels.append(("exchange cd 1", G(z1) * D(z2), aR * D(z2) * G(z1) + cR * G(z2) * D(z1)))
    rels.append(("exchange cd 2", D(z1) * G(z2), bR * D(z2) * G(z1) + dR * G(z2) * D(z1)))
    rels.append(("exchange bd 1", aL * B(z1) * D(z2) + bL * D(z1) * B(z2), D(z2) * B(z1)))
    rels.append(("exchange bd 2", cL * B(z1) * D(z2) + dL * D(z1) * B(z2), B(z2) * D(z1)))
    rels.append(
        (
            "exchange adbc 1",
            aL * A(z1) * D(z2) + bL * G(z1) * B(z2),
            aR * D(z2) * A(z1) + cR * G(z2) * B(z1),
        )
    )
    rels.append(
        (
            "exchange adbc 2",
            cL * A(z1) * D(z2) + dL * G(z1) * B(z2),
            aR * B(z2) * G(z1) + cR * A(z2) * D(z1),
        )
    )
    rels.append(
        (
            "exchange adbc 3",
            aL * B(z1) * G(z2) + bL * D(z1) * A(z2),
            bR * D(z2) * A(z1) + dR * G(z2) * B(z1),
        )
    )
    rels.append(
        (
            "exchange adbc 4",
            cL * B(z1) * G(z2) + dL * D(z1) * A(z2),
            bR * B(z2) * G(z1) + dR * A(z2) * D(z1),
        )
    )

    f = cf_from(
        lambda x: theta(ctx.qpow(2 * (x + shift)), ctx), f"th(2x{shift.real:+.3g})"
    )
    fl = lambda g: word(1.0, (L_fl(g),))
    fr = lambda g: word(1.0, (L_fr(g),))
    for name, gen, dl, dr in (
        ("alpha", A, +1, +1),
        ("beta", B, +1, -1),
        ("gamma", G, -1, +1),
        ("delta", D, -1, -1),
    ):
        rels.append((f"moment left {name}", fl(f) * gen(z1), gen(z1) * fl(cf_shift(f, dl))))
        rels.append((f"moment right {name}", fr(f) * gen(z1), gen(z1) * fr(cf_shift(f, dr))))
    rels.append(("moment maps commute", fl(f) * fr(f), fr(f) * fl(f)))

    return rels


def residual_inventory(
    z: complex, ctx: ThetaContext
) -> list[tuple[str, AlgebraElement, AlgebraElement]]:
    """Degenerate exchange relations at spectral ratio q^2."""
    q2 = ctx.qpow(2)
    A = lambda w: word(1.0, (L_alpha(w),))
    B = lambda w: word(1.0, (L_beta(w),))
    G = lambda w: word(1.0, (L_gamma(w),))
    D = lambda w: word(1.0, (L_delta(w),))
    thm = word(1.0, (L_fr(cf_from(lambda x: theta(ctx.qpow(-2 * x), ctx), "th(-2mu)")),))
    thm2 = word(
        1.0,
        (L_fr(cf_from(lambda x: theta(ctx.qpow(-2 * (x + 2)), ctx), "th(-2mu-4)")),),
    )
    aLq = word(1.0, (L_fl(_cf_entry(0, q2, ctx, "ra")),))
    bLq = word(1.0, (L_fl(_cf_entry(1, q2, ctx, "rb")),))
    aRq = word(1.0, (L_fr(_cf_entry(0, q2, ctx, "ra")),))
    bRq = word(1.0, (L_fr(_cf_entry(1, q2, ctx, "rb")),))

    rels = [
        ("residual ab", thm * A(q2 * z) * B(z), (q2) * thm2 * B(q2 * z) * A(z)),
        ("residual ac", G(z) * A(q2 * z), A(z) * G(q2 * z)),
        ("residual cd", thm * G(q2 * z) * D(z), (q2) * thm2 * D(q2 * z) * G(z)),
        ("residual bd", D(z) * B(q2 * z), B(z) * D(q2 * z)),
    ]
    cross = G(z) * B(q2 * z) + D(z) * A(q2 * z)
    rels.append(
        ("residual adbc 1", aLq * A(q2 * z) * D(z) + bLq * G(q2 * z) * B(z), aRq * cross)
    )
    rels.append(
        ("residual adbc 2", aLq * B(q2 * z) * G(z) + bLq * D(q2 * z) * A(z), bRq * cross)
    )
    rels.append(
        (
            "residual adbc 3",
            A(z) * D(q2 * z) + B(z) * G(q2 * z),
            G(z) * B(q2 * z) + D(z) * A(q2 * z),
        )
    )
    rels.append(
        (
            "residual det swap",
            bRq * G(q2 * z) * B(z) - aRq * D(q2 * z) * A(z),
            aLq * (G(z) * B(q2 * z) - A(z) * D(q2 * z)),
        )
    )
    return rels


def reverse_relation(
    k: int, l: int, z: complex, ctx: ThetaContext
) -> tuple[str, AlgebraElement, AlgebraElement]:
    """Reordering of alpha past an ascending beta chain, for 1 <= l <= k.

    Left side: alpha(q^(2k) z) beta(q^(2(l-1)) z) ... beta(z).  Right side:
    the fully reversed word plus a sum over single alpha substitutions, with
    theta-quotient coefficients in the right dynamical variable.
    """
    if not 1 <= l <= k:
        raise ValueError("need 1 <= l <= k")
    q2 = lambda i: ctx.qpow(2 * i)
    lhs_letters = [L_alpha(q2(k) * z)] + [L_beta(q2(i) * z) for i in range(l - 1, -1, -1)]
    lhs = word(1.0, lhs_letters)

    def coef_main(x: complex) -> complex:
        num = theta(ctx.qpow(2 * (k - l + 1)), ctx) * theta(ctx.qpow(2 * (x + l + 1)), ctx)
        den = theta(ctx.qpow(2 * (k + 1)), ctx) * theta(ctx.qpow(2 * (x + 1)), ctx)
        if abs(den) < ctx.zero_guard:
            raise PoleError("reverse relation coefficient below zero guard")
        return num / den

    def coef_sub(x: complex) -> complex:
        num = theta(ctx.qpow(2), ctx) * theta(ctx.qpow(2 * (x + k + 1)), ctx)
        den = theta(ctx.qpow(2 * (k + 1)), ctx) * theta(ctx.qpow(2 * (x + 1)), ctx)
        if abs(den) < ctx.zero_guard:
            raise PoleError("reverse relation coefficient below zero guard")
        return num / den

    main_word = [L_beta(q2(i) * z) for i in range(l)] + [L_alpha(q2(k) * z)]
    rhs = word(1.0, (L_fr(cf_from(coef_main, "revmain")),) + tuple(main_word))
    sub_cf = cf_from(coef_sub, "revsub")
    for i in range(l):
        letters = [
            L_alpha(q2(t) * z) if t == i else L_beta(q2(t) * z) for t in range(l)
        ]
        letters.append(L_beta(q2(k) * z))
        rhs = rhs + word(1.0, (L_fr(sub_cf),) + tuple(letters))
    return f"reverse k={k} l={l}", lhs, rhs


def det_form_elements(z: complex, ctx: ThetaContext) -> list[tuple[str, AlgebraElement]]:
    """Four word expansions of the determinant element."""
    q2z = ctx.qpow(2) * z
    forms: list[tuple[str, AlgebraElement]] = []
    forms.append(("det form ad", det_element(z, ctx)))
    head12 = (L_fr(cf_f_factor(ctx)), L_fl(cf_inv_f_factor(ctx)))
    forms.append(
        (
            "det form da",
            word(1.0, head12 + (L_delta(z), L_alpha(q2z)))
            + word(-1.0, head12 + (L_beta(z), L_gamma(q2z))),
        )
    )

    def mu_num(c: int) -> CoefficientFn:
        return cf_from(
            lambda x: ctx.qpow(x) * theta(ctx.qpow(-2 * (x + c)), ctx), f"qx*th(-2x-{2*c})"
        )

    def lam_den(c: int) -> CoefficientFn:
        def fn(x: complex) -> complex:
            v = ctx.qpow(x) * theta(ctx.qpow(-2 * (x + c)), ctx)
            if abs(v) < ctx.zero_guard:
                raise PoleError("determinant form coefficient below zero guard")
            return 1.0 / v

        return cf_from(fn, f"1/(qx*th(-2x-{2*c}))")

    forms.append(
        (
            "det form reversed da",
            word(1.0, (L_fr(mu_num(2)), L_fl(lam_den(2)), L_delta(q2z), L_alpha(z)))
            + word(
                -1.0 / ctx.qpow(2),
                (L_fr(mu_num(0)), L_fl(lam_den(2)), L_gamma(q2z), L_beta(z)),
            ),
        )
    )
    forms.append(
        (
            "det form reversed ad",
            word(1.0, (L_fr(mu_num(0)), L_fl(lam_den(0)), L_alpha(q2z), L_delta(z)))
            + word(
                -ctx.qpow(2),
                (L_fr(mu_num(2)), L_fl(lam_den(0)), L_beta(q2z), L_gamma(z)),
            ),
        )
    )
    return forms


def check_det_forms(rc: RepContext, z: complex, mmax: int = 4) -> list[tuple[str, float]]:
    """Compare each determinant word expansion against its scalar action."""
    target = det_scalar(z, rc.omega, rc.ctx)
    rows: list[tuple[str, float]] = []
    for name, el in det_form_elements(z, rc.ctx):
        res = (residual_between(apply_word(el, m, rc), {m: target}) for m in range(mmax + 1))
        rows.append((name, worst(res)))
    return rows


def antipode_inverse_identities(
    z: complex, ctx: ThetaContext
) -> list[tuple[str, AlgebraElement, AlgebraElement]]:
    """The eight entries of S(L) L = 1 = L S(L) at a common spectral point."""
    A = word(1.0, (L_alpha(z),))
    B = word(1.0, (L_beta(z),))
    G = word(1.0, (L_gamma(z),))
    D = word(1.0, (L_delta(z),))
    sA = antipode(A, ctx)
    sB = antipode(B, ctx)
    sG = antipode(G, ctx)
    sD = antipode(D, ctx)
    one = unit()
    # Off-diagonal entries cancel to zero; comparing the two summands against
    # each other keeps a meaningful scale in the relative residual.
    return [
        ("antipode left (1,1)", sA * A + sB * G, one),
        ("antipode left (1,2)", sA * B, -1.0 * (sB * D)),
        ("antipode left (2,1)", sG * A, -1.0 * (sD * G)),
        ("antipode left (2,2)", sG * B + sD * D, one),
        ("antipode right (1,1)", A * sA + B * sG, one),
        ("antipode right (1,2)", A * sB, -1.0 * (B * sD)),
        ("antipode right (2,1)", G * sA, -1.0 * (D * sG)),
        ("antipode right (2,2)", G * sB + D * sD, one),
    ]


def check_relations(
    rc: RepContext,
    z1: complex,
    z2: complex,
    z: complex,
    mmax: int = 6,
    kmax_reverse: int = 4,
) -> list[tuple[str, float]]:
    """Evaluate every relation pair on e_0..e_mmax; returns (name, residual)."""
    rows: list[tuple[str, float]] = []
    pairs = relation_inventory(z1, z2, rc.ctx)
    pairs += residual_inventory(z, rc.ctx)
    for k in range(1, kmax_reverse + 1):
        for l in range(1, k + 1):
            pairs.append(reverse_relation(k, l, z, rc.ctx))
    pairs += antipode_inverse_identities(z, rc.ctx)
    for name, lhs, rhs in pairs:
        res = []
        for m in range(mmax + 1):
            lmap, lpeak = apply_word_scaled(lhs, m, rc)
            rmap, rpeak = apply_word_scaled(rhs, m, rc)
            res.append(residual_between(lmap, rmap, max(lpeak, rpeak)))
        rows.append((name, worst(res)))
    return rows
