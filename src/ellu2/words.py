"""Word algebra over the generator letters of the dynamical function algebra.

Elements are finite sums of scalar-weighted words.  A word is a tuple of
letters: the four generators alpha, beta, gamma, delta (each carrying a
spectral argument), the inverse determinant letter, and two function letters
fl / fr for the left and right moment-map images of a function of the
dynamical variable.  Structural operations implemented here:

  * multiplication (concatenation, bilinear),
  * the star structure (antilinear antimultiplicative involution),
  * the antipode (linear antimultiplicative),
  * the coproduct into two tensor legs,
  * the counit into difference operators f T_shift,
  * the bigrading by moment-map weights.

Functions of the dynamical variable are carried as ``CoefficientFn`` objects,
plain callables with a printable name and an ``is_one`` flag that lets exact
identities (such as the counit of corepresentation words) come out exactly.

The builders run over numbers (a ``ThetaContext``) and over exponent records
(a ``theta.TemplateContext``).  Over records a spectral argument or a scalar
is a ``theta.Rec`` or a ``theta.Factor``, and a function letter, called at an
exponent (``theta.Expo``), gives the ``Factor`` of its value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .theta import Expo, Factor, Rec, ThetaContext, reciprocal

__all__ = [
    "CoefficientFn",
    "ONE_FN",
    "cf_shift",
    "cf_mul",
    "cf_from",
    "cf_f_factor",
    "cf_inv_f_factor",
    "Letter",
    "L_alpha",
    "L_beta",
    "L_gamma",
    "L_delta",
    "L_detinv",
    "L_fl",
    "L_fr",
    "AlgebraElement",
    "unit",
    "zero",
    "word",
    "GRADES",
    "bigrade",
    "star",
    "antipode",
    "coproduct",
    "counit",
]


class CoefficientFn:
    """A function of the dynamical variable with a name and exactness flag."""

    __slots__ = ("fn", "name", "is_one")

    def __init__(self, fn: Callable[[complex], complex], name: str, is_one: bool = False):
        self.fn = fn
        self.name = name
        self.is_one = is_one

    def __call__(self, x: complex) -> complex:
        if self.is_one:
            return 1.0 + 0.0j
        return self.fn(x)

    def __repr__(self) -> str:
        return f"CoefficientFn({self.name})"

    def conjugated(self) -> "CoefficientFn":
        """The bar involution: conjugate values at the conjugate point.

        Over records that is the starred factor (``Factor.starred``): exact
        for a function whose own formula has no ω, as every letter built
        here has, since p and q are real.
        """
        if self.is_one:
            return self
        base = self.fn

        def bar(x):
            if type(x) is Expo:
                return base(x).starred()
            return complex(base(complex(x).conjugate())).conjugate()

        return CoefficientFn(bar, f"bar({self.name})")


ONE_FN = CoefficientFn(lambda x: 1.0 + 0.0j, "1", is_one=True)


def cf_from(fn: Callable[[complex], complex], name: str) -> CoefficientFn:
    return CoefficientFn(fn, name)


def cf_shift(f: CoefficientFn, a: int) -> CoefficientFn:
    """The translate x -> f(x + a)."""
    if f.is_one or a == 0:
        return f
    return CoefficientFn(lambda x, g=f, a=a: g(x + a), f"T{a:+d}[{f.name}]")


def cf_mul(f: CoefficientFn, g: CoefficientFn) -> CoefficientFn:
    if f.is_one:
        return g
    if g.is_one:
        return f
    return CoefficientFn(lambda x, a=f, b=g: a(x) * b(x), f"{f.name}*{g.name}")


def weight_factor(x, c: int, ctx: ThetaContext):
    """q^x theta(q^(-2(x+c))): the antipode's weight factor at c = 1, and the
    determinant forms' coefficients at c = 0 and 2."""
    return ctx.quotient(ctx.qpow(x), (ctx.qpow(-2 * (x + c)),), ())


def cf_f_factor(ctx: ThetaContext) -> CoefficientFn:
    """The weight factor q^x theta(q^(-2(x+1))) used by the antipode."""
    return CoefficientFn(lambda x: weight_factor(x, 1, ctx), "F")


def cf_inv_f_factor(ctx: ThetaContext) -> CoefficientFn:
    return CoefficientFn(
        lambda x: reciprocal(weight_factor(x, 1, ctx), ctx, "weight factor below zero guard"),
        "1/F",
    )


GENERATOR_KINDS = ("alpha", "beta", "gamma", "delta")
ALL_KINDS = GENERATOR_KINDS + ("detinv", "fl", "fr")


@dataclass(frozen=True)
class Letter:
    kind: str
    arg: complex = 0.0 + 0.0j
    fn: Optional[CoefficientFn] = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown letter kind {self.kind!r}")
        if self.kind in ("fl", "fr") and self.fn is None:
            raise ValueError("function letters need a CoefficientFn")


def _value(x):
    """A spectral argument or a scalar: a number as a complex, a record or a
    factor as it is."""
    return x if type(x) in (Rec, Factor) else complex(x)


def L_alpha(z: complex) -> Letter:
    return Letter("alpha", _value(z))


def L_beta(z: complex) -> Letter:
    return Letter("beta", _value(z))


def L_gamma(z: complex) -> Letter:
    return Letter("gamma", _value(z))


def L_delta(z: complex) -> Letter:
    return Letter("delta", _value(z))


def L_detinv(z: complex) -> Letter:
    return Letter("detinv", _value(z))


def L_fl(fn: CoefficientFn) -> Letter:
    return Letter("fl", 0.0 + 0.0j, fn)


def L_fr(fn: CoefficientFn) -> Letter:
    return Letter("fr", 0.0 + 0.0j, fn)


Word = tuple[Letter, ...]
Term = tuple[complex, Word]


@dataclass(frozen=True)
class AlgebraElement:
    """Finite sum of scalar-weighted words, immutable."""

    terms: tuple[Term, ...]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.terms + other.terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = []
        for s1, w1 in self.terms:
            for s2, w2 in other.terms:
                out.append((s1 * s2, w1 + w2))
        return AlgebraElement(tuple(out))

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(tuple((scalar * s, w) for s, w in self.terms))

    def __len__(self) -> int:
        return len(self.terms)


def unit() -> AlgebraElement:
    return AlgebraElement(((1.0 + 0.0j, ()),))


def zero() -> AlgebraElement:
    return AlgebraElement(())


def word(scalar: complex, letters: Iterable[Letter]) -> AlgebraElement:
    return AlgebraElement(((_value(scalar), tuple(letters)),))


GRADES = {
    "alpha": (1, 1),
    "beta": (1, -1),
    "gamma": (-1, 1),
    "delta": (-1, -1),
    "detinv": (0, 0),
    "fl": (0, 0),
    "fr": (0, 0),
}


def bigrade(el: AlgebraElement) -> tuple[int, int]:
    """Common moment-map bigrade of all words; raises on mixed grades."""
    grades = set()
    for _, w in el.terms:
        a = sum(GRADES[l.kind][0] for l in w)
        b = sum(GRADES[l.kind][1] for l in w)
        grades.add((a, b))
    if len(grades) > 1:
        raise ValueError(f"element is not homogeneous: grades {sorted(grades)}")
    return grades.pop() if grades else (0, 0)


def _star_letter(l: Letter, ctx: ThetaContext) -> tuple[complex, Letter]:
    if l.kind == "alpha":
        return 1.0, L_delta(1.0 / ctx.conj(l.arg))
    if l.kind == "beta":
        return -1.0, L_gamma(1.0 / ctx.conj(l.arg))
    if l.kind == "gamma":
        return -1.0, L_beta(1.0 / ctx.conj(l.arg))
    if l.kind == "delta":
        return 1.0, L_alpha(1.0 / ctx.conj(l.arg))
    if l.kind == "detinv":
        return 1.0, L_detinv(ctx.qpow(-2) / ctx.conj(l.arg))
    return 1.0, Letter(l.kind, l.arg, l.fn.conjugated())


def star(el: AlgebraElement, ctx: ThetaContext) -> AlgebraElement:
    """Antilinear antimultiplicative involution."""
    out = []
    for s, w in el.terms:
        sign = 1.0 + 0.0j
        letters = []
        for l in reversed(w):
            sg, nl = _star_letter(l, ctx)
            sign *= sg
            letters.append(nl)
        out.append((ctx.conj(s) * sign, tuple(letters)))
    return AlgebraElement(tuple(out))


def det_element(z: complex, ctx: ThetaContext) -> AlgebraElement:
    """The determinant group-like element, expanded in generator words."""
    ff = cf_f_factor(ctx)
    finv = cf_inv_f_factor(ctx)
    q2z = ctx.qpow(2) * z
    head = (L_fr(ff), L_fl(finv))
    return word(1.0, head + (L_alpha(z), L_delta(q2z))) + word(
        -1.0, head + (L_gamma(z), L_beta(q2z))
    )


def _antipode_letter(l: Letter, ctx: ThetaContext) -> AlgebraElement:
    if l.kind == "fl":
        return word(1.0, (L_fr(l.fn),))
    if l.kind == "fr":
        return word(1.0, (L_fl(l.fn),))
    if l.kind == "detinv":
        return det_element(l.arg, ctx)
    zq = ctx.qpow(-2) * l.arg
    head = (L_fr(cf_f_factor(ctx)), L_fl(cf_inv_f_factor(ctx)), L_detinv(zq))
    image = {
        "alpha": (1.0, L_delta(zq)),
        "beta": (-1.0, L_beta(zq)),
        "gamma": (-1.0, L_gamma(zq)),
        "delta": (1.0, L_alpha(zq)),
    }[l.kind]
    return word(image[0], head + (image[1],))


def antipode(el: AlgebraElement, ctx: ThetaContext) -> AlgebraElement:
    """Linear antimultiplicative antipode."""
    out = zero()
    for s, w in el.terms:
        acc = unit()
        for l in reversed(w):
            acc = acc * _antipode_letter(l, ctx)
        out = out + s * acc
    return out


_COPRODUCT = {
    "alpha": ((1.0, "alpha", "alpha"), (1.0, "beta", "gamma")),
    "beta": ((1.0, "alpha", "beta"), (1.0, "beta", "delta")),
    "gamma": ((1.0, "gamma", "alpha"), (1.0, "delta", "gamma")),
    "delta": ((1.0, "gamma", "beta"), (1.0, "delta", "delta")),
}

TensorTerm = tuple[complex, Word, Word]


def coproduct(el: AlgebraElement) -> list[TensorTerm]:
    """Expand into tensor terms (scalar, left-leg word, right-leg word)."""
    out: list[TensorTerm] = []
    for s, w in el.terms:
        partial: list[TensorTerm] = [(s, (), ())]
        for l in w:
            if l.kind == "fl":
                partial = [(c, w1 + (l,), w2) for c, w1, w2 in partial]
            elif l.kind == "fr":
                partial = [(c, w1, w2 + (l,)) for c, w1, w2 in partial]
            elif l.kind == "detinv":
                partial = [(c, w1 + (l,), w2 + (l,)) for c, w1, w2 in partial]
            else:
                nxt = []
                for coef, k1, k2 in _COPRODUCT[l.kind]:
                    nxt.extend(
                        (c * coef, w1 + (Letter(k1, l.arg),), w2 + (Letter(k2, l.arg),))
                        for c, w1, w2 in partial
                    )
                partial = nxt
        out.extend(partial)
    return out


DifferenceOp = tuple[complex, CoefficientFn, int]


def counit(el: AlgebraElement) -> list[DifferenceOp]:
    """Counit into difference operators, one (scalar, fn, shift) per word.

    Words containing beta or gamma letters are annihilated and dropped; for
    the rest, alpha contributes a shift by -1, delta by +1, the inverse
    determinant nothing, and function letters multiply by their function at
    the running shift.
    """
    out: list[DifferenceOp] = []
    for s, w in el.terms:
        fn = ONE_FN
        shift = 0
        dead = False
        for l in w:
            if l.kind in ("beta", "gamma"):
                dead = True
                break
            if l.kind == "alpha":
                shift -= 1
            elif l.kind == "delta":
                shift += 1
            elif l.kind in ("fl", "fr"):
                fn = cf_mul(fn, cf_shift(l.fn, shift))
        if not dead:
            out.append((s, fn, shift))
    return out
