"""Weighted shift representation of the generator letters and relation checks.

For a weight parameter omega, the generators act on basis vectors e_k,
k >= 0, tensored with functions of the dynamical variable: each letter
multiplies by a theta-quotient coefficient depending on (k, lam, z), shifts
lam by +-1 inside the accumulated function, and moves the index k by the
letter weight (beta raises, gamma lowers and kills e_0, alpha and delta keep).
Function letters fl / fr multiply by f(lam - omega + 2k) and f(lam); the
inverse determinant letter is a lam-independent scalar.

Each coefficient formula (``coef_a`` ... ``coef_d``, ``det_scalar``, and
the function letters) is written once, on ``ctx.quotient``, and has two
instances.  Over numbers, ``apply_word_states`` and ``apply_word`` evaluate
a word at a sample, each coefficient afresh on every path; the theta values
repeat from path to path and come from the context's scalar memo.  That
instance serves the tensor checks, the independence ratio, ``ellu2 eval``
and the tests' references.  Over records, the same ``apply_word_states``
runs once per shape with the symbols ``LAM``, ``OMEGA``, ``Z``, ``Z1`` and
``Z2``, and gives each path as one factor.  ``word_plans`` lays out the
action of an element on e_m as template plans, one theta product per path,
and lists its distinct pole guards in the order a numeric evaluation meets
them; ``guard_plans`` makes one plan of each guard a template has not
listed, and ``item_errors`` is the one rule for the error of such an item
at a draw.  ``Compiled`` compiles a whole family of checks into one
``theta.Template`` through them, and ``corep.closed_tower`` the word side
of the corepresentation towers beside their closed side.

``relation_inventory`` builds the defining exchange relations as pairs of
algebra elements; ``check_relations`` evaluates both sides on basis vectors
at a random dynamical point and reports relative residuals, from the
compiled check bound to the sample.  ``bind_rows`` binds a check at many
samples in one ``Template.bind_all`` and returns each sample's rows, or its
error, keeping nothing; the one-sample checks bind their family at their
one sample (``_rows_at``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .residuals import TINY, residual_between
from .rmatrix import r_entries
from .theta import (
    _ONE,
    LAM,
    OMEGA,
    Z,
    Z1,
    Z2,
    Factor,
    PoleError,
    Rec,
    Template,
    TemplateContext,
    ThetaContext,
    ThetaProduct,
    error,
    garg,
    kept_shape,
    reciprocal,
)
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
    weight_factor,
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
    "relation_pairs",
    "check_relations",
    "Compiled",
    "compiled",
    "bind_rows",
    "rows_of",
    "residual_between",
]


@dataclass(frozen=True)
class RepContext:
    """Weight parameter, evaluation point for the dynamical variable, and base."""

    omega: complex
    lam0: complex
    ctx: ThetaContext


REP_GUARD = "representation coefficient denominator below zero guard"


def _den(lam, z, omega, ctx) -> tuple:
    """The denominator arguments shared by the four generator coefficients."""
    return ctx.qpow(-2 * (lam + 1)), z * ctx.qpow(omega + 1)


def coef_a(k: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext) -> complex:
    nums = (ctx.qpow(-2 * (lam + 1) - 2 * k), z * ctx.qpow(omega - 2 * k + 1))
    return ctx.quotient(ctx.qpow(2 * k), nums, _den(lam, z, omega, ctx), REP_GUARD)


def coef_b(k: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext) -> complex:
    nums = (ctx.qpow(2), z * ctx.qpow(-2 * (lam + 1) + omega - 2 * k - 1))
    return ctx.quotient(ctx.qpow(k), nums, _den(lam, z, omega, ctx), REP_GUARD)


def coef_c(k: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext) -> complex:
    if k == 0:
        return 0.0 + 0.0j
    dens = (ctx.qpow(2), ctx.qpow(2 * (lam + 1)), z * ctx.qpow(omega + 1))
    nums = (
        ctx.qpow(2 * k),
        ctx.qpow(2 * (omega - k + 1)),
        z * ctx.qpow(2 * (lam + 1) - omega + 2 * k - 1),
    )
    return ctx.quotient(ctx.qpow(-(k - 1)), nums, dens, REP_GUARD)


def coef_d(k: int, lam: complex, z: complex, omega: complex, ctx: ThetaContext) -> complex:
    nums = (ctx.qpow(-2 * (lam + 1 - omega + k)), z * ctx.qpow(-omega + 2 * k + 1))
    return ctx.quotient(None, nums, _den(lam, z, omega, ctx), REP_GUARD)


def det_scalar(z: complex, omega: complex, ctx: ThetaContext) -> complex:
    """Scalar by which the determinant element acts, independent of lam and k."""
    return ctx.quotient(
        ctx.qpow(omega),
        (z * ctx.qpow(1 - omega),),
        (z * ctx.qpow(1 + omega),),
        "determinant scalar denominator below zero guard",
    )


State = tuple[int, Callable[[complex], complex]]


def apply_word_states(el: AlgebraElement, m: int, rc: RepContext) -> list[State]:
    """Apply an element to e_m, returning (index, coefficient function) pairs.

    Letters act right to left; the returned functions take the dynamical
    variable and evaluate all letter coefficients at their shifted positions.
    Words killed by gamma on e_0 are dropped.  The index displacement of each
    word, (number of beta) - (number of gamma), is asserted as a consistency
    check.  On a context of symbols (``word_plans``) each function, called
    at ``LAM``, gives its path as one ``Factor`` over records.
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
    if type(z) is Rec:
        return repr(z)
    return f"{z.real:.3g}{z.imag:+.3g}i"


def _theta_fn(arg, ctx):
    """theta(arg) as a coefficient: the number, or over records its factor."""
    return ctx.quotient(None, (arg,), ())


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
        lambda x: _theta_fn(ctx.qpow(2 * (x + shift)), ctx), f"th(2x{shift.real:+.3g})"
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
    thm = word(1.0, (L_fr(cf_from(lambda x: _theta_fn(ctx.qpow(-2 * x), ctx), "th(-2mu)")),))
    thm2 = word(
        1.0,
        (L_fr(cf_from(lambda x: _theta_fn(ctx.qpow(-2 * (x + 2)), ctx), "th(-2mu-4)")),),
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

    def coef(first: int, shift: int):
        def fn(x: complex) -> complex:
            nums = (ctx.qpow(2 * first), ctx.qpow(2 * (x + shift + 1)))
            dens = (ctx.qpow(2 * (k + 1)), ctx.qpow(2 * (x + 1)))
            guard = "reverse relation coefficient below zero guard"
            return ctx.quotient(None, nums, dens, guard)

        return fn

    coef_main, coef_sub = coef(k - l + 1, l), coef(1, k)

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
        return cf_from(lambda x: weight_factor(x, c, ctx), f"qx*th(-2x-{2*c})")

    def lam_den(c: int) -> CoefficientFn:
        guard = "determinant form coefficient below zero guard"
        return cf_from(
            lambda x: reciprocal(weight_factor(x, c, ctx), ctx, guard), f"1/(qx*th(-2x-{2*c}))"
        )

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


def relation_pairs(
    z1: complex, z2: complex, z: complex, kmax_reverse: int, ctx: ThetaContext
) -> list[tuple[str, AlgebraElement, AlgebraElement]]:
    """Every relation pair ``check_relations`` evaluates, in its row order."""
    pairs = relation_inventory(z1, z2, ctx)
    pairs += residual_inventory(z, ctx)
    for k in range(1, kmax_reverse + 1):
        for l in range(1, k + 1):
            pairs.append(reverse_relation(k, l, z, ctx))
    pairs += antipode_inverse_identities(z, ctx)
    return pairs


# (mmax, kmax_reverse) of the relation checks and mmax of the determinant
# forms, as the relations suite and table run them.
RELATIONS_SHAPE = (6, 4)
DET_FORMS_SHAPE = (4,)


def check_relations(
    rc: RepContext,
    z1: complex,
    z2: complex,
    z: complex,
    mmax: int = RELATIONS_SHAPE[0],
    kmax_reverse: int = RELATIONS_SHAPE[1],
) -> list[tuple[str, float]]:
    """Evaluate every relation pair on e_0..e_mmax; returns (name, residual).

    Each residual is ``residual_between`` of the two sides' actions, with the
    largest single path of either side as its floor, worst over m.
    """
    rows = _rows_at(rc, _relation_rows, (mmax, kmax_reverse), z=z, z1=z1, z2=z2)
    return list(rows.items())


def check_det_forms(rc: RepContext, z: complex, mmax: int = DET_FORMS_SHAPE[0]) -> list[tuple[str, float]]:
    """Compare each determinant word expansion against its scalar action."""
    return list(_rows_at(rc, _det_form_rows, (mmax,), z=z).items())


# -- the checks compiled once per shape ----------------------------------------
#
# A check's rows are built once per shape, over records: the elements with
# the symbols ``Z``, ``Z1``, ``Z2`` for their spectral points, acted on by
# ``apply_word_states`` with ``LAM`` and ``OMEGA`` for the sample's point
# and weight.  Every path of every side is then one ``Factor``, compiled
# into one theta product (``word_plans``).  ``corep._Tower`` lays out the
# word side of the corepresentation towers the same way.

# The compiled checks of up to ``theta.SHAPE_CAP`` shapes.
_SHAPES: dict = {}
# The context of the path and guard plans: they are bound with no zero
# guard, and each guard is compared with the sample's apart (``item_errors``).
_PLAIN = TemplateContext(0.0)


def _factor(value) -> Factor:
    return value if type(value) is Factor else Factor(_ONE * value)


def word_plans(el: AlgebraElement, m: int, ctx: TemplateContext) -> tuple[list[tuple[int, ThetaProduct]], tuple]:
    """The action of ``el`` on e_m over records, at the symbols ``LAM`` and
    ``OMEGA``, compiled: the (index, theta product) of every path, and the
    distinct guards (scalar, nums, dens, message) of the action in the order
    a numeric evaluation meets them.  That is every term scalar's guards,
    dead term or not, as building the element computes each scalar, then
    each path's, its letters left to right, as ``apply_word`` evaluates
    them."""
    guards = dict.fromkeys(g for s, _ in el.terms for g in _factor(s).all_guards())
    paths = []
    for index, fn in apply_word_states(el, m, RepContext(OMEGA, LAM, ctx)):
        factor = _factor(fn(LAM))
        guards.update(dict.fromkeys(factor.all_guards()))
        paths.append((index, _product(_PLAIN, factor.scalar, factor.nums, factor.dens)))
    return paths, tuple(guards)


def guard_plans(guards: Iterable, keys: dict) -> Iterator[tuple]:
    """The (template key, plan) of each of ``guards`` not in ``keys`` yet,
    which enters it there under the key ("guard", n): a template lists each
    distinct guard once."""
    for guard in guards:
        if guard not in keys:
            keys[guard] = ("guard", len(keys))
            yield keys[guard], _product(_PLAIN, *guard[:3])


def guard_rows(template: Template, keys: dict) -> np.ndarray:
    """The positions in ``template`` of the guard plans of ``keys``."""
    return _indices([*map(template.plans.__getitem__, keys.values())])


def item_errors(rows: np.ndarray, values: np.ndarray, codes: np.ndarray, zero_guard: float):
    """The one rule for the error of a compiled word item at a draw, from
    the draw's bound ``values`` and failure ``codes`` (``Template.bind_all``)
    and the template's guard positions ``rows`` (``guard_rows``): the
    function of an item's guards, (position, message) pairs in the order of
    ``word_plans``, and its paths' positions that gives the item's error, or
    None.  An item fails at the first of its guards whose plan failed or
    whose modulus is below ``zero_guard``, as the numeric evaluation raises;
    else at the first of its paths whose plan failed, where the numeric sum
    would carry an inf or a NaN.  Where no plan failed and no guard is low,
    every item passes at once."""
    low = set(rows[_modulus(values[rows]) < zero_guard].tolist())
    code = codes.tolist() if low or codes.any() else None

    def item_error(guards: list, paths: Iterable) -> ArithmeticError | None:
        if code is None:
            return None
        for i, message in guards:
            if code[i]:
                return error(code[i])
            if i in low:
                return PoleError(message)
        for i in paths:
            if code[i]:
                return error(code[i])
        return None

    return item_error


def _relation_rows(ctx: TemplateContext, mmax: int, kmax_reverse: int) -> Iterable:
    for name, lhs, rhs in relation_pairs(Z1, Z2, Z, kmax_reverse, ctx):
        yield name, [([(1, word_plans(lhs, m, ctx)), (-1, word_plans(rhs, m, ctx))], True) for m in range(mmax + 1)]


def _det_form_rows(ctx: TemplateContext, mmax: int) -> Iterable:
    # The determinant element acts on each e_m as its scalar.
    target = word(det_scalar(Z, OMEGA, ctx), ())
    for name, el in det_form_elements(Z, ctx):
        yield name, [([(1, word_plans(el, m, ctx)), (-1, word_plans(target, m, ctx))], False) for m in range(mmax + 1)]


class Compiled:
    """The residuals of a family of checks, compiled once per shape.

    ``rows`` gives (key, groups): a row's residual is the worst of its
    groups', one group per basis index m = 0, 1, ...  A group is (sides,
    peak): each side (sign, ``word_plans`` of an element on e_m), entering
    with a sign of +1 or -1.  A group's residual is

        max_i |sum_s sign_s S_s,i| / max(max_s,i |S_s,i|, peak, TINY),

    with S_s,i the sum of the paths of side s at index i, and peak the
    largest single path of the group where ``peak`` is set, else 0: the
    formula of ``residual_between`` for two sides.  A constant side, a
    target, is the action of a scalar times the unit.

    Every path is one theta product in one ``Template``, and so is every
    distinct guard of the family, after them.  Binding it to samples
    (``bind_rows``) is one ``Template.bind_all``; each row is one item of
    ``item_errors``, its guards those of its sides in order (``outcomes``),
    and the fold of the groups, at every sample of the bind at once, is a
    few array operations over index arrays laid out here, each sorted by
    group.
    """

    def __init__(self, rows: Iterable):
        self.keys: list = []
        path_cell, cell_entry, cell_sign, cell_group = [], [], [], []
        entry_group, group_row, path_m, peak_paths = [], [], [], []
        items: list = []  # each row's guards and paths
        keys: dict = {}  # each guard's plan key (``guard_plans``)

        def plans():
            # One pass: each row is laid out and its paths handed to the
            # template as they come, so that no more than a row's plans
            # are alive at once.
            for r, (key, groups) in enumerate(rows):
                self.keys.append(key)
                start, checks = len(path_cell), {}
                for m, (sides, peak) in enumerate(groups):
                    g = len(group_row)
                    group_row.append(r)
                    entries: dict = {}
                    for sign, (paths, guards) in sides:
                        checks.update(dict.fromkeys(guards))
                        cells: dict = {}
                        for index, plan in paths:
                            if index not in cells:
                                cells[index] = len(cell_sign)
                                if index not in entries:
                                    entries[index] = len(entry_group)
                                    entry_group.append(g)
                                cell_entry.append(entries[index])
                                cell_sign.append(float(sign))
                                cell_group.append(g)
                            if peak:
                                peak_paths.append(len(path_cell))
                            yield len(path_cell), plan
                            path_cell.append(cells[index])
                            path_m.append(m)
                items.append((checks, range(start, len(path_cell))))
            yield from guard_plans((g for checks, _ in items for g in checks), keys)

        self.template = Template(plans())
        at = self.template.plans.__getitem__
        pairs = {g: (at(key), g[3]) for g, key in keys.items()}
        self.items = [([*map(pairs.__getitem__, checks)], paths) for checks, paths in items]
        self.guard_rows = guard_rows(self.template, keys)
        self.paths = len(path_cell)
        self.path_cell, self.cell_entry = _indices(path_cell), _indices(cell_entry)
        self.cell_group, self.entry_group = _indices(cell_group), _indices(entry_group)
        self.group_row, self.peak_paths = _indices(group_row), _indices(peak_paths)
        self.peak_group = self.cell_group[self.path_cell[self.peak_paths]]
        self.cell_sign = np.array(cell_sign)
        self.path_m = _indices(path_m)
        # Where each run of equal values of each sorted group index array
        # starts, and its value.
        groups = (self.entry_group, self.cell_group, self.peak_group, self.group_row)
        self.runs = [(at, g[at]) for g in groups for at in [np.flatnonzero(np.diff(g, prepend=-1))]]

    def outcomes(self, values: np.ndarray, codes: np.ndarray, zero_guards: list) -> list[dict | ArithmeticError]:
        """Each draw's residual of each row by key, from the draws' values
        and failure codes (``Template.bind_all``) and their zero guards; or
        the error of the draw's first row that fails (``item_errors``),
        never raised.  All draws are folded together (``fold``); only a
        draw with a failed plan or a guard below its zero guard looks for
        its error, row by row."""
        out: list = [dict(zip(self.keys, rows)) for rows in self.fold(values[:, : self.paths]).tolist()]
        low = _modulus(values[:, self.guard_rows]) < np.array(zero_guards)[:, None]
        for d in np.flatnonzero(low.any(axis=1) | codes.any(axis=1)).tolist():
            item_error = item_errors(self.guard_rows, values[d], codes[d], zero_guards[d])
            out[d] = next((e for e in (item_error(*item) for item in self.items) if e is not None), out[d])
        return out

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Each draw's row residuals from its paths' values, a draws x paths
        array, as a draws x rows array; a NaN anywhere in a row makes it
        +inf, as ``residuals.worst`` folds it.

        The draws are laid end to end: each sum is one ``bincount`` with
        each draw's bins offset past the last draw's, which adds every bin's
        terms in path order, as one draw's ``bincount`` does.  Each maximum
        over a group is one ``np.maximum.reduceat`` over the runs of a
        sorted group index array (``runs``); a maximum is one of its
        values, whatever the order, and a NaN in it stays NaN."""
        groups, cells, entries = len(self.group_row), len(self.cell_sign), len(self.entry_group)
        sr = _sums(self.path_cell, values.real, cells)
        si = _sums(self.path_cell, values.imag, cells)
        dr = _sums(self.cell_entry, sr * self.cell_sign, entries)
        di = _sums(self.cell_entry, si * self.cell_sign, entries)
        # A failed draw's values may be inf or NaN; its rows are not read.
        with np.errstate(all="ignore"):
            diff = _group_max(self.runs[0], np.hypot(dr, di), groups, 0.0)
            scale = _group_max(self.runs[1], np.hypot(sr, si), groups, TINY)
            scale = np.maximum(scale, _group_max(self.runs[2], _modulus(values[:, self.peak_paths]), groups, TINY))
            out = _group_max(self.runs[3], diff / scale, len(self.keys), 0.0)
        out[np.isnan(out)] = np.inf
        return out


def _sums(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount(index, w, size)`` of each row w of the draws x
    len(index) array ``weights``, as a draws x size array."""
    draws = len(weights)
    at = (index + size * np.arange(draws)[:, None]).ravel()
    return np.bincount(at, weights.ravel(), size * draws).reshape(draws, size)


def _group_max(runs: tuple, values: np.ndarray, size: int, start: float) -> np.ndarray:
    """``np.maximum.at(out, groups, v)`` into an ``out`` of ``size``
    elements ``start``, for each row v of the draws x len(groups) array
    ``values``, as a draws x size array; ``runs`` holds where each run of
    the sorted ``groups`` starts, and its group."""
    at, ids = runs
    out = np.full((len(values), size), start)
    if len(at):
        out[:, ids] = np.maximum(start, np.maximum.reduceat(values, at, axis=1))
    return out


def _modulus(values: np.ndarray) -> np.ndarray:
    """|v| of each element, rounded as Python's ``abs`` rounds it: the hypot
    of the parts, as ``theta._c_abs`` takes it (``np.abs`` of a complex
    array may take a SIMD path that differs in the last bit)."""
    return np.hypot(values.real, values.imag)


def _indices(values: list) -> np.ndarray:
    return np.array(values, dtype=np.intp)


def _product(ctx: TemplateContext, scalar, nums: tuple, dens: tuple) -> ThetaProduct:
    tp = ThetaProduct(ctx, _ONE if scalar is None else scalar)
    for a in nums:
        tp.theta(garg(a))
    for a in dens:
        tp.theta(garg(a), inv=True)
    return tp


def compiled(build, params: tuple, zero_guard: float) -> Compiled:
    """The check ``build(ctx, *params)`` builds over records, compiled once
    per shape (``build``, ``params``, zero guard) and kept in ``_SHAPES``
    (``theta.kept_shape``).  Nothing is compiled before a check asks for it."""
    return kept_shape(
        _SHAPES,
        (build, *params, zero_guard),
        lambda: Compiled(build(TemplateContext(zero_guard), *params)),
    )


def bind_rows(build, params: tuple, drawn: Sequence[tuple[RepContext, dict]]) -> list[dict | ArithmeticError]:
    """The outcome (``Compiled.outcomes``: the rows, or the error, not raised)
    of the check ``compiled(build, params, ...)`` at each (rc, symbols) of
    ``drawn`` (the spectral points ``z`` and maybe ``z1``, ``z2``; one zero
    guard), all bound in one ``Template.bind_all``."""
    check = compiled(build, params, drawn[0][0].ctx.zero_guard)
    points = [
        (rc.ctx, rc.lam0, rc.omega, symbols["z"], symbols.get("z1"), symbols.get("z2"))
        for rc, symbols in drawn
    ]
    values, codes = check.template.bind_all(points)
    return check.outcomes(values, codes, [rc.ctx.zero_guard for rc, _ in drawn])


def rows_of(outcome):
    """The rows of an outcome of ``bind_rows`` (or any result of a batch
    that gives a draw's error, not raised: ``suites._DrawAhead``), or a
    fresh error of the outcome's type and message raised.  Raising the
    outcome itself would put the frames that hold it on its own traceback:
    a reference cycle that keeps them, and the sample they hold, until a
    collection."""
    if isinstance(outcome, ArithmeticError):
        raise type(outcome)(*outcome.args)
    return outcome


def _rows_at(rc: RepContext, build, params: tuple, **symbols) -> dict:
    """The rows of a compiled check at the one sample of ``rc`` and the
    spectral points ``symbols``, bound afresh, or its error raised."""
    return rows_of(bind_rows(build, params, [(rc, symbols)])[0])
