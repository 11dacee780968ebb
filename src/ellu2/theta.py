"""Normalized theta products, elliptic Pochhammer symbols, and exact zero tracking.

Everything downstream (series evaluation, R-matrix entries, representation
coefficients, biorthogonality sums) reduces to products and quotients of the
normalized theta function

    theta(z) = prod_{j>=0} (1 - z p^j) (1 - p^(j+1) / z),    0 < p < 1,

evaluated at arguments of the form q^(2s) * g, where s is an integer and g is
a generic factor built from continuous parameters.  For generic p, q the value
theta(q^(2s) * g) vanishes exactly only when g == 1 and s == 0, so carrying
the pair (s, g) decides vanishing without any floating-point comparison.
``TrackedArg`` stores that pair, and ``ThetaProduct`` accumulates products of
theta values while counting exact zero factors separately from the finite
part: a product with surviving numerator zeros is exactly 0, while an exact or
near-exact zero in denominator position raises ``PoleError`` instead of
propagating garbage.

Each context keeps two caches of theta values, one per kernel, and one memo
of the coefficient functions built on them:

* the scalar memo (``theta``) maps an argument to the scalar kernel's value;
* the vector cache (``theta_vec_cached``) maps an argument to the element
  ``theta_vec`` computed for it.  ``ThetaProduct.value``, the series of
  ``series.vwp_sum`` and ``theta_multi`` look their arguments up there and
  send only the misses to ``theta_vec``, in one call per lookup; the lookup
  returns a list of Python complex numbers;
* the value memo (``memo_per_context``) maps ``(fn, args)`` to what
  ``fn(*args, ctx)`` returned, for the pure functions whose last argument is
  the context: the representation coefficients ``rep.coef_a`` ... ``coef_d``
  and ``det_scalar``, ``rmatrix.r_entries`` and ``corep.gamma_factor``.
  Word evaluation over numbers asks for the same coefficient many times
  over.  A call that raises stores nothing, so it raises again when
  repeated.  On a ``TemplateContext`` the memo is passed by.

The coefficient formulas of the representation are each written once, on
``ctx.quotient`` (a scalar times a quotient of theta values, with its pole
guard): a ``ThetaContext`` gives the value with the scalar kernel, in the
order the formula is written, and a ``TemplateContext`` gives a ``Factor``,
the same quotient over records.  ``ctx.evaluate`` does the same for a plan.

Building a value and evaluating it are two steps.  A ``Plan`` (of which
``ThetaProduct`` is one) lists the theta arguments its value needs, and its
``finish`` reduces their values; ``combine`` joins plans into one.  The
public functions (``pochhammer``, ``elliptic_binomial`` and the formulas of
the other modules) build their plan over numbers and take its value, in one
lookup of the vector cache.  Integer powers q^(2n) of the tracked arguments
come from a per-context memo (``ThetaContext.q2n``), which holds the number
``qpow(2 * n)`` returns.

The same builders also run over exponent records, to build a plan once for
many samples: a template.  A ``Rec`` stands for q^(a Λ + b ω + c) z^d zbar^e
(-1)^s, with Λ, ω and z the symbols ``LAM``, ``OMEGA`` and ``Z`` of a
sample's dynamical variable, weight and spectral point; a
``TemplateContext`` stands in for the ``ThetaContext`` and gives records
where the context gives numbers (``qpow``, ``q2n``, ``conj``).  A plan built
so lists records, for theta arguments, and ``Scalar`` records, for the
scalars it multiplies by; whether a tracked argument vanishes exactly is
derived from its record (``Rec.tracked``).  A ``Template`` compiles such
plans: it lays out the distinct records as the rows of a matrix of
exponents, and keeps of each plan only its skeleton (``Plan.skeleton``), a
plan that finishes the same way and holds no record, shared among the equal
ones of the template.  Binding a template to a sample evaluates all its
records with one matrix-vector product and one ``exp``, and all its theta
arguments with one ``theta_vec`` call, without the vector cache.  Then it
reduces all its series plans together, in one pass over arrays
(``series._Batch``), and all its theta products in another (``_Products``),
and each plan is finished on its slice of the values and batch results.
``biorth`` keeps the templates of its items.  A template whose plans are all
theta products with record scalars, as the compiled checks of ``rep`` are,
is finished on arrays instead, in one call (``Template.bind_products``).
A record may also hold the spectral points z1 and z2 (``Z1``, ``Z2``) of a
relation check, and their conjugates.

The caches hold exactly what was computed, so a cached value is
bit-identical to a fresh one: a ``theta_vec`` element does not depend on the
rest of its batch, and a memoized function's value depends only on its
arguments and its context.  The same holds for a bound template: a record's
value depends only on its own row.  The two theta caches are kept apart
because the scalar and vector kernels round differently in the last bit.
``theta_vec`` itself stays uncached: on batches of fresh arguments the
lookup costs more than it saves.
The scalar memo and the value memo stop growing at ``MEMO_CAP`` entries;
the vector cache starts over when a lookup would take it past that.

The products and quotients of cached values (``ThetaProduct.value``,
``theta_multi`` and the series in ``series.vwp_sum``) are reduced with plain
Python complex arithmetic.  Each reduction works on a few dozen numbers, so
building numpy arrays for it costs far more than the arithmetic.  Python
rounds some products and quotients differently from numpy in the last bit,
and it raises where numpy returns inf or nan: ``abs`` of a finite value
beyond the double range raises ``OverflowError`` and division by zero raises
``ZeroDivisionError``.  The reductions report both as ``PoleError``.  A
theta product with no surviving exact zero (and a scalar other than 0) that
comes out as 0 has underflowed partway; it raises the same ``PoleError`` as
one that leaves the range, rather than pass for an exact zero.  The
series and theta products of a bound template, hundreds at once, are the
exception: their passes over arrays keep the real and imaginary parts apart
and write out CPython's formulas (``_c_mul``, ``_c_div``, ``_c_abs``), and
each elementwise float64 operation rounds as the C operation does, so they
round as the Python loops do; a failure there becomes the message of the
``PoleError`` the loop raises, raised when the plan is finished.  The loops
(``ThetaProduct.finish``, ``series._vwp_reduce``) stay for plans over
numbers, and are the oracles the passes are tested against.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "PoleError",
    "ThetaContext",
    "TrackedArg",
    "Plan",
    "Joined",
    "ThetaProduct",
    "LAM",
    "OMEGA",
    "Z",
    "Z1",
    "Z2",
    "Rec",
    "Factor",
    "reciprocal",
    "Scalar",
    "Template",
    "TemplateContext",
    "shared_skeleton",
    "binomial_plan",
    "combine",
    "known",
    "qarg",
    "garg",
    "memo_per_context",
    "theta",
    "theta_vec",
    "theta_vec_cached",
    "theta_multi",
    "theta_condition",
    "pochhammer",
    "pochhammer_ratio",
    "elliptic_binomial",
]

MAX_THETA_FACTORS = 2000
# Entry cap of each per-context cache.
MEMO_CAP = 1 << 20
THETA_RANGE = "theta value exceeds double precision range"
PRODUCT_RANGE = "theta product exceeds double precision range"
DEN_GUARD = "denominator theta factor below zero guard"
# What ``Template.finish_all`` puts in place of a plan whose finish raised.
_FAILED = complex(math.nan, math.nan)


class PoleError(ArithmeticError):
    """A theta factor in denominator position vanished, exactly or numerically."""


@dataclass(frozen=True)
class ThetaContext:
    """Fixed nome/base pair with truncation and genericity-guard policy.

    ``truncation_floor`` stops the theta product once p^j drops below it
    (capped at ``MAX_THETA_FACTORS`` factors); ``zero_guard`` is the magnitude
    below which an untracked denominator theta value is treated as a pole.
    """

    p: float
    q: float
    truncation_floor: float = 1e-17
    zero_guard: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p!r}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q!r}")
        nfac = int(math.ceil(math.log(self.truncation_floor) / math.log(self.p)))
        nfac = min(max(nfac, 1), MAX_THETA_FACTORS)
        ppow = self.p ** np.arange(nfac)
        object.__setattr__(self, "_ppow", ppow)
        object.__setattr__(self, "_ppow1", self.p * ppow)
        object.__setattr__(
            self, "_pairs", tuple(zip(ppow.tolist(), (self.p * ppow).tolist()))
        )
        object.__setattr__(self, "_lnq", math.log(self.q))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_vec_cache", {})
        object.__setattr__(self, "_q2n", {})
        object.__setattr__(self, "_values", {})

    def qpow(self, x: complex) -> complex:
        """q**x for arbitrary complex exponent x (principal branch)."""
        return cmath.exp(self._lnq * x)

    def q2n(self, n: int) -> complex:
        """q**(2n) for an integer n, memoized; the same number as ``qpow(2 * n)``."""
        got = self._q2n.get(n)
        if got is None:
            got = self._q2n[n] = cmath.exp(self._lnq * (2 * n))
        return got

    @staticmethod
    def conj(z: complex) -> complex:
        """The complex conjugate of a number."""
        return complex(z).conjugate()

    def quotient(self, scalar, nums: tuple, dens: tuple, guard: str | None = None) -> complex:
        """scalar * theta(nums[0]) * ... / (theta(dens[0]) * ...), with the
        scalar kernel: num and den are multiplied out from the left, then
        ``scalar * num / den``; a scalar of None is 1.  ``guard`` is the
        message of the ``PoleError`` raised where |den| is below the zero
        guard.  A coefficient formula is written once on this method; over
        records (``TemplateContext.quotient``) it gives the ``Factor``."""
        den = None
        for a in dens:
            t = theta(a, self)
            den = t if den is None else den * t
        if guard is not None and abs(den) < self.zero_guard:
            raise PoleError(guard)
        num = None
        for a in nums:
            t = theta(a, self)
            num = t if num is None else num * t
        if num is None:
            out = 1.0 + 0.0j if scalar is None else scalar
        else:
            out = num if scalar is None else scalar * num
        return out if den is None else out / den

    def check(self, guards) -> None:
        """Raise ``PoleError(message)`` at the first guard (scalar, nums,
        dens, message) whose ``quotient`` is below the zero guard."""
        for scalar, nums, dens, message in guards:
            if abs(self.quotient(scalar, nums, dens)) < self.zero_guard:
                raise PoleError(message)

    def evaluate(self, plan: "Plan") -> complex:
        """The number of a plan built over this context, by its ``value``;
        over records (``TemplateContext.evaluate``) the plan as a ``Factor``."""
        return plan.value()


def theta(z: complex, ctx: ThetaContext) -> complex:
    """Normalized theta value at a single nonzero argument.

    Arguments far from the unit circle are first reduced into the annulus
    sqrt(p) <= |z| < 1/sqrt(p) by quasi-periodicity; truncating the product
    at raw arguments would cost relative accuracy proportional to |z|.
    Scalar calls are memoized per context; word evaluation re-requests the
    same shifted arguments many times over.  A value beyond the double range
    raises ``PoleError``.
    """
    memo = ctx._memo
    got = memo.get(z)
    if got is not None:
        return got
    if z == 0:
        raise ValueError("theta argument must be nonzero")
    m = round(math.log(abs(z)) / math.log(ctx.p))
    w = z
    pref = 1.0 + 0.0j
    if m != 0:
        w = z * ctx.p ** (-m)
        try:
            pref = (-1 if m % 2 else 1) * w ** (-m) * ctx.p ** (-m * (m - 1) // 2)
        except OverflowError:
            raise PoleError(THETA_RANGE) from None
    acc = 1.0 + 0.0j
    for pj, pj1 in ctx._pairs:
        acc *= (1.0 - w * pj) * (1.0 - pj1 / w)
    acc *= pref
    if not cmath.isfinite(acc):
        raise PoleError(THETA_RANGE)
    if len(memo) < MEMO_CAP:
        memo[z] = acc
    return acc


def theta_vec(zs: Sequence[complex], ctx: ThetaContext) -> np.ndarray:
    """Vectorized theta over a batch of nonzero arguments.

    Same annulus reduction as the scalar path, applied only when some entry
    needs it so moderate batches stay on the fast path.
    """
    arr = np.asarray(zs, dtype=complex)
    if arr.size and np.any(arr == 0):
        raise ValueError("theta argument must be nonzero")
    m = np.rint(np.log(np.abs(arr)) / math.log(ctx.p)).astype(np.int64)
    if np.any(m != 0):
        arr = arr * ctx.p ** (-m.astype(float))
        pref = (
            np.where(m % 2 == 0, 1.0, -1.0)
            * arr ** (-m.astype(float))
            * ctx.p ** (-(m * (m - 1) // 2).astype(float))
        )
    else:
        pref = None
    zc = arr[..., None]
    out = np.prod((1.0 - zc * ctx._ppow) * (1.0 - ctx._ppow1 / zc), axis=-1)
    return out if pref is None else out * pref


def theta_vec_cached(zs: Sequence[complex], ctx: ThetaContext) -> list[complex]:
    """``theta_vec`` values through the context's vector cache, as a list.

    Only the arguments not seen before on ``ctx`` are evaluated, in one
    ``theta_vec`` call; every value equals the element ``theta_vec`` gives for
    the same argument, bit for bit.
    """
    keys = zs.tolist() if isinstance(zs, np.ndarray) else zs
    cache = ctx._vec_cache
    miss = [z for z in keys if z not in cache]
    if len(cache) + len(miss) > MEMO_CAP:
        cache.clear()
        miss = keys
    if miss:
        miss = list(dict.fromkeys(miss))
        cache.update(zip(miss, theta_vec(miss, ctx).tolist()))
    return [cache[z] for z in keys]


def theta_multi(args: Sequence[complex], ctx: ThetaContext) -> complex:
    """Product of theta values, the usual shorthand theta(a_1, ..., a_n)."""
    return math.prod(theta_vec_cached(args, ctx), start=1.0 + 0.0j)


def theta_condition(z: complex, p: float) -> float:
    """Largest |x| / |1 - x| over the long-product factors 1 - x of theta(z).

    Near a zero of theta, forming 1 - x loses that many ulps in any
    evaluation, so a relative error of this times the unit roundoff is the
    best any evaluation can promise.  Factors with |x| < 1/2 stay below 1 and
    are skipped; an exact zero factor reads as 1e300 times |x|.
    """
    cond = 1.0
    for x in (z, p / z):
        while abs(x) >= 0.5:
            cond = max(cond, abs(x) / max(abs(1.0 - x), 1e-300))
            x *= p
    return cond


_MISSING = object()


def memo_per_context(fn):
    """Memoize ``fn(*args, ctx)`` on the context passed last, keyed by ``(fn, args)``.

    ``fn`` must be pure on its context: the memo returns exactly the value the
    first call returned.  Keys compare like the scalar memo's, by value.  A
    call that raises stores nothing.  The memo of a context stops growing at
    ``MEMO_CAP`` entries.  Arguments are passed positionally.
    """

    @functools.wraps(fn)
    def memoized(*args):
        try:
            memo = args[-1]._values
        except AttributeError:  # a TemplateContext: the formula over records
            return fn(*args)
        key = (fn, args[:-1])
        got = memo.get(key, _MISSING)
        if got is _MISSING:
            got = fn(*args)
            if len(memo) < MEMO_CAP:
                memo[key] = got
        return got

    return memoized


class TrackedArg(NamedTuple):
    """Argument q^(2s) * generic with exact bookkeeping of the integer part.

    ``is_one`` asserts the generic part is the constant 1 by construction, so
    theta of the argument vanishes exactly iff ``is_one`` and ``s == 0``.
    An immutable tuple, equal and hashed by value; plans build many of them,
    and a tuple costs far less to make than a frozen dataclass.
    """

    s: int
    generic: complex = 1.0 + 0.0j
    is_one: bool = False

    def shifted(self, i: int) -> "TrackedArg":
        """Multiply by q^(2i)."""
        return _new_arg(TrackedArg, (self.s + i, self.generic, self.is_one))

    def value(self, ctx: ThetaContext, i: int = 0) -> complex:
        """The argument times q^(2i), as a number."""
        return ctx.q2n(self.s + i) * self.generic

    def theta_is_zero(self, i: int = 0) -> bool:
        """Exact vanishing of theta(self * q^(2i))."""
        return self.is_one and self.s + i == 0


# Builds a TrackedArg from a ready tuple, skipping the argument handling of
# the generated constructor.
_new_arg = tuple.__new__


def qarg(s: int) -> TrackedArg:
    """Tracked pure power q^(2s)."""
    return _new_arg(TrackedArg, (s, 1.0 + 0.0j, True))


def garg(value: complex | Rec) -> TrackedArg:
    """Generic (untracked) argument; assumed to never vanish exactly.

    A record decides for itself whether it is an exact power of q^2
    (``Rec.tracked``).
    """
    if isinstance(value, Rec):
        return value.tracked()
    return _new_arg(TrackedArg, (0, complex(value), False))


# -- templates: plans built over exponent records ---------------------------


class Expo:
    """A q-exponent lam * Λ + om * ω + c, linear in the symbols Λ and ω.

    The exponent arithmetic of a builder run over records: sums and
    differences of exponents and real numbers, and products with real numbers.
    """

    __slots__ = ("lam", "om", "c")

    def __init__(self, lam: float = 0, om: float = 0, c: float = 0):
        self.lam, self.om, self.c = lam, om, c

    def __add__(self, other) -> "Expo":
        o = _expo(other)
        return Expo(self.lam + o.lam, self.om + o.om, self.c + o.c)

    __radd__ = __add__

    def __neg__(self) -> "Expo":
        return Expo(-self.lam, -self.om, -self.c)

    def __sub__(self, other) -> "Expo":
        return self + -_expo(other)

    def __rsub__(self, other) -> "Expo":
        return _expo(other) + -self

    def __mul__(self, k) -> "Expo":
        k = _real(k)
        return Expo(self.lam * k, self.om * k, self.c * k)

    __rmul__ = __mul__


def _real(x) -> float:
    if type(x) in (int, float) or isinstance(x, numbers.Real):
        return x
    raise TypeError(f"a template exponent takes real numbers only, not {x!r}")


def _expo(x) -> Expo:
    return x if type(x) is Expo else Expo(0, 0, _real(x))


class Rec(NamedTuple):
    """The exponent record of q^(lam Λ + om ω + c) * z^zp * zbar^zbp * (-1)^neg,
    times z1^z1p * z1bar^z1bp * z2^z2p * z2bar^z2bp.

    Λ and ω stand for a sample's dynamical variable and weight (``LAM``,
    ``OMEGA``); z, z1 and z2 for its spectral points (``Z``, ``Z1``, ``Z2``),
    and zbar, z1bar and z2bar for their conjugates.  Records multiply and
    divide by adding and subtracting their fields, so a builder run over
    records (``TemplateContext``) lists, instead of numbers, the records of
    its theta arguments and of its scalars.
    """

    lam: float = 0
    om: float = 0
    c: float = 0
    zp: int = 0
    zbp: int = 0
    neg: int = 0
    z1p: int = 0
    z1bp: int = 0
    z2p: int = 0
    z2bp: int = 0

    def __mul__(self, other) -> "Rec":
        if type(other) is Rec:
            return _signed(map(operator.add, self, other))
        if not isinstance(other, numbers.Number):
            return NotImplemented
        if other == 1:
            return self
        if other == -1:
            return _signed((*self[:5], self.neg + 1, *self[6:]))
        # Raising here, not returning NotImplemented, keeps Python from
        # falling back to tuple repetition.
        raise TypeError(f"a record scales by records and by +-1 only, not {other!r}")

    __rmul__ = __mul__

    def __neg__(self) -> "Rec":
        return self * -1

    def __truediv__(self, other) -> "Rec":
        return self * (other**-1 if type(other) is Rec else other)

    def __rtruediv__(self, other) -> "Rec":
        return self**-1 * other

    def __pow__(self, n: int) -> "Rec":
        if type(n) is not int:
            raise TypeError(f"a record takes integer powers only, not {n!r}")
        return _signed(x * n for x in self)

    def conjugate(self) -> "Rec":
        """Each spectral symbol swapped with its conjugate; only records free
        of Λ and ω have one."""
        if self.lam or self.om:
            raise TypeError("the conjugate of a record with Λ or ω is not a record")
        return self.starred()

    def starred(self) -> "Rec":
        """Each spectral symbol swapped with its conjugate, Λ and ω kept: the
        record of conj f(conj x) for f(x) this record, when x stands for
        whatever Λ and ω are part of (p and q are real)."""
        lam, om, c, zp, zbp, neg, z1p, z1bp, z2p, z2bp = self
        return _new_arg(Rec, (lam, om, c, zbp, zp, neg, z1bp, z1p, z2bp, z2p))

    def tracked(self) -> TrackedArg:
        """The tracked argument of this record, with the exact-zero rule
        derived from it: an exact power q^(2s) (every symbol coefficient 0,
        no sign, even constant exponent) is tracked as q^(2s), so theta of
        it times q^(2i) vanishes exactly when c + 2i is 0; anything else is
        generic."""
        if self.c % 2 == 0 and not any(self[:2]) and not any(self[3:]):
            return qarg(int(self.c) // 2)
        return _new_arg(TrackedArg, (0, self, False))


def _signed(fields) -> Rec:
    """The record of ``fields``, its sign exponent taken mod 2."""
    fields = tuple(fields)
    return _new_arg(Rec, (*fields[:5], fields[5] & 1, *fields[6:]))


class Scalar(NamedTuple):
    """A plan argument that stands for the value of a record, not theta of it."""

    rec: Rec


# The fields of a record after c, all 0: no spectral symbol and no sign.
_NO_SPECTRAL = (0,) * 7
LAM = Expo(1, 0, 0)
OMEGA = Expo(0, 1, 0)
Z = Rec(zp=1)
Z1 = Rec(z1p=1)
Z2 = Rec(z2p=1)
_ONE = Rec()


@dataclass(frozen=True)
class TemplateContext:
    """Stands in for a ``ThetaContext`` while a plan is built over records.

    ``qpow``, ``q2n`` and ``conj`` are the record versions of the context's
    number arithmetic.  The zero guard is that of the contexts the template
    will be bound to; it is read when a bound plan is finished.
    """

    zero_guard: float = 1e-12

    def qpow(self, x: Expo | float) -> Rec:
        e = _expo(x)
        return _new_arg(Rec, (e.lam, e.om, e.c, *_NO_SPECTRAL))

    def q2n(self, n: int) -> Rec:
        return _new_arg(Rec, (0, 0, 2 * n, *_NO_SPECTRAL))

    @staticmethod
    def conj(z: "Rec | Factor") -> "Rec | Factor":
        return z.conjugate()

    @staticmethod
    def quotient(scalar, nums: tuple, dens: tuple, guard: str | None = None) -> "Factor":
        return Factor(scalar, nums, dens, guard)

    @staticmethod
    def check(guards) -> "Factor":
        """The guards as a factor of value 1, for the factors that need them."""
        return Factor(guards=guards)

    @staticmethod
    def evaluate(plan: "Plan") -> "Factor":
        """A plan built over records, as one ``Factor``."""
        return _factor_of(plan)


class Factor:
    """The coefficient scalar * theta(nums[0]) * ... / (theta(dens[0]) * ...),
    over records, with the guards its value needs.

    A coefficient formula of the representation (``rep.coef_a`` ...,
    ``rmatrix.r_entries``, the function letters of ``words``) is written
    once, on ``ctx.quotient``: over numbers that is the value
    (``ThetaContext.quotient``), over records this factor.  Factors multiply
    by joining their arguments and guards, so every path of a word is one
    factor, compiled into one ``ThetaProduct`` (``rep.Compiled``).
    ``guard`` is the message raised where the product of the denominators is
    below the zero guard; each of ``guards`` is (scalar, nums, dens,
    message), raising where that quotient is below it (``ThetaContext.check``).
    """

    __slots__ = ("scalar", "nums", "dens", "guard", "guards")

    def __init__(self, scalar=None, nums=(), dens=(), guard: str | None = None, guards=()):
        self.scalar = scalar
        self.nums = tuple(nums)
        self.dens = tuple(dens)
        self.guard = guard
        self.guards = tuple(guards)

    def all_guards(self) -> tuple:
        """Every guard of the factor, ``guard`` written as one of ``guards``."""
        if self.guard is None:
            return self.guards
        return (*self.guards, (None, self.dens, (), self.guard))

    def __mul__(self, other) -> "Factor":
        if type(other) is Factor:
            return Factor(
                _times(self.scalar, other.scalar),
                self.nums + other.nums,
                self.dens + other.dens,
                guards=self.all_guards() + other.all_guards(),
            )
        if type(other) is Rec or isinstance(other, numbers.Number):
            return Factor(_times(self.scalar, other), self.nums, self.dens, self.guard, self.guards)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "Factor":
        return self * -1

    def inverse(self, message: str | None = None) -> "Factor":
        """1 / self, keeping the guards; ``message`` adds the guard on |self|."""
        guards = self.all_guards()
        if message is not None:
            guards = (*guards, (self.scalar, self.nums, self.dens, message))
        scalar = None if self.scalar is None else self.scalar**-1
        return Factor(scalar, self.dens, self.nums, guards=guards)

    def __truediv__(self, other) -> "Factor":
        return self * (other.inverse() if type(other) is Factor else other**-1)

    def __rtruediv__(self, other) -> "Factor":
        return self.inverse() * other

    def starred(self) -> "Factor":
        """conj f(conj x) for f(x) this factor: every record starred (``Rec.starred``)."""
        return self._map(Rec.starred)

    def conjugate(self) -> "Factor":
        """The conjugate of a factor whose records are free of Λ and ω."""
        return self._map(Rec.conjugate)

    def _map(self, fn) -> "Factor":
        def each(recs):
            return tuple(map(fn, recs))

        def one(rec):
            return None if rec is None else fn(rec)

        guards = tuple((one(s), each(n), each(d), m) for s, n, d, m in self.guards)
        return Factor(one(self.scalar), each(self.nums), each(self.dens), self.guard, guards)


def _times(a, b) -> Rec:
    """The product of two record scalars, None standing for 1."""
    return (_ONE if a is None else a) * (_ONE if b is None else b)


def reciprocal(value, ctx, message: str):
    """1 / value, raising ``PoleError(message)`` where |value| is below the zero
    guard; over records, the inverse factor with that guard."""
    if type(value) is Factor:
        return value.inverse(message)
    if abs(value) < ctx.zero_guard:
        raise PoleError(message)
    return 1.0 / value


def _factor_of(coefficient) -> Factor:
    """A coefficient built over records as one factor.

    A theta product gives its factors, an exact zero as theta(1), and a guard
    on each denominator (``DEN_GUARD``, as ``ThetaProduct.finish`` checks it),
    after those of its scalar; a joined plan of products (``operator.mul``)
    the product of its parts; a record or +-1 a scalar.
    """
    if type(coefficient) is Factor:
        return coefficient
    if isinstance(coefficient, ThetaProduct):
        scalar = coefficient.scalar
        head = _factor_of(scalar) if isinstance(scalar, Plan) else Factor(_times(None, scalar))
        own = Factor(
            None,
            coefficient._num + [_ONE] * coefficient.zeros,
            coefficient._den,
            guards=[(None, (d,), (), DEN_GUARD) for d in coefficient._den],
        )
        return head * own
    if isinstance(coefficient, Joined) and coefficient.fn is operator.mul:
        return functools.reduce(operator.mul, map(_factor_of, coefficient.parts))
    if type(coefficient) is Known:
        return Factor(_times(None, coefficient.number))
    if isinstance(coefficient, Plan) and coefficient.finish is _first:
        return Factor(coefficient.args[0].rec)
    raise TypeError(f"not a product over records: {coefficient!r}")


class Template:
    """Plans built over records, compiled to be bound to one sample at a time.

    ``plans`` gives (key, plan) pairs, each plan built with a
    ``TemplateContext``; the arguments of each are records (theta of the
    record) and ``Scalar`` entries (the record's value).  Compiling collects
    the distinct records of all the plans as the rows of a small matrix of
    exponents, and lists, plan after plan, where each argument's value will
    be (``Plan.template_args``).  A series plan or a theta product, wherever
    it sits in an item (a part of a joined plan, the scalar of a theta
    product), takes one entry there, for its result: the template collects
    the series and the products and compiles each kind into one program of
    int32 indices (``series._Batch``, ``_Products``).  Then it keeps only
    the plan's skeleton (``Plan.skeleton``), so a template holds no plan's
    records.  Equal skeletons are one object, shared through a pool that
    lives while the template is compiled.  This is what keeps templates
    small: the 15 sweeps of N = 1..5, M = 0..2 take 1.04 MB (tracemalloc),
    series and product programs included, and the 3 sweeps of N = 6..8,
    M = 1 take 0.79 MB; keeping the plans as built took eight to ten times
    that (8.5 and 8.3 MB, measured before the programs).  ``plans`` maps a
    key to the position of its skeleton and of the slice of that list it
    owns.  ``bind`` evaluates every record of a sample with one
    matrix-vector product and one ``exp``, makes one ``theta_vec`` call on
    the distinct theta arguments, reduces every series and every theta
    product in one pass over arrays each, and gathers the values of every
    plan's arguments and the results of its series and products;
    ``finish`` hands a plan its slice, and ``finish_all`` finishes every
    plan in one loop.

    The product is written out column by column, so each record's value
    depends on its own row only, and each series or product result depends
    on its own values only: a plan bound alone gets the same bits as the
    same plan bound with many others.
    """

    def __init__(self, plans: Iterable[tuple]):
        rows: dict = {}
        thetas: dict = {}

        def record(rec: Rec) -> int:
            return rows.setdefault(rec, len(rows))

        def theta_of(rec: Rec) -> int:
            return thetas.setdefault(record(rec), len(thetas))

        # The gathered-from list holds the values of the records and theta
        # arguments the plans list (keyed by record row and theta index),
        # then the results of each batch; a batched plan's own values stay
        # out of it.
        listed_rows: dict = {}
        listed_thetas: dict = {}
        refs = array("i")
        # A batch, and the positions in ``refs`` of its plans' entries, by
        # the batch's maker (``type(plan).batch``).
        batches: dict = {}
        self.plans: dict = {}
        self._skeletons: list[Plan] = []
        self._cuts = array("i", [0])
        pool: dict = {}
        for key, plan in plans:
            for a in plan.template_args():
                if type(a) is Scalar:
                    refs.append(listed_rows.setdefault(record(a.rec), len(listed_rows)))
                elif type(a) is Rec:
                    refs.append(~listed_thetas.setdefault(theta_of(a), len(listed_thetas)))
                elif isinstance(a, Plan):
                    make = type(a).batch
                    if make not in batches:
                        batches[make] = (make(record, theta_of), array("i"))
                    batch, slots = batches[make]
                    batch.add(a)
                    slots.append(len(refs))
                    refs.append(0)  # set once the batch is compiled
                else:
                    raise TypeError(f"a template argument must be a record, not {a!r}")
            self.plans[key] = len(self._skeletons)
            self._skeletons.append(plan.skeleton(pool))
            self._cuts.append(len(refs))
        n = len(listed_rows)
        gather = array("i", [r if r >= 0 else n + ~r for r in refs])
        start = n + len(listed_thetas)
        for batch, slots in batches.values():
            batch.close()
            for s, pos in enumerate(slots):
                gather[pos] = start + batch.rank[s]
            start += len(slots)
        self._batches = [batch for batch, _ in batches.values()]
        self._gather = gather
        self._listed_rows = np.array(list(listed_rows), dtype=np.intp)
        self._listed_thetas = np.array(list(listed_thetas), dtype=np.intp)
        n = len(rows)
        cols = np.array(list(rows), dtype=float).reshape(n, len(Rec._fields)).T
        self._lam, self._om, self._c = cols[0].copy(), cols[1].copy(), cols[2].copy()
        self._re_z, self._im_z = cols[3] + cols[4], cols[3] - cols[4]
        self._neg = np.flatnonzero(cols[5])
        # The exponents of z1 and z2 (real and imaginary part of the log),
        # kept only for a symbol some record has: a template without them
        # adds no term, so it keeps the bits it had before they existed.
        self._spectral = [
            (name, cols[i] + cols[i + 1], cols[i] - cols[i + 1])
            for name, i in (("z1", 6), ("z2", 8))
            if cols[i].any() or cols[i + 1].any()
        ]
        self._theta = np.array(list(thetas), dtype=np.intp)
        self._layout = None  # set by the first ``bind_products``

    def _records(self, ctx: ThetaContext, lam, omega, z, spectral: dict) -> np.ndarray:
        """The value of every record at one sample, with one ``exp``."""
        lnq = ctx._lnq
        lam, omega, logz = complex(lam), complex(omega), cmath.log(z)
        e = np.empty(len(self._c), dtype=complex)
        re = (
            self._lam * (lnq * lam.real)
            + self._om * (lnq * omega.real)
            + self._c * lnq
            + self._re_z * logz.real
        )
        im = self._lam * (lnq * lam.imag) + self._om * (lnq * omega.imag) + self._im_z * logz.imag
        for name, re_w, im_w in self._spectral:
            logw = cmath.log(spectral[name])
            re = re + re_w * logw.real
            im = im + im_w * logw.imag
        e.real, e.imag = re, im
        np.exp(e, out=e)
        e[self._neg] = -e[self._neg]
        return e

    def _thetas(self, ctx: ThetaContext, e: np.ndarray) -> np.ndarray:
        return theta_vec(e[self._theta], ctx) if len(self._theta) else np.empty(0, dtype=complex)

    def bind(
        self, ctx: ThetaContext, lam: complex, omega: complex, z: complex, z1=None, z2=None
    ) -> list:
        """The values of every plan's arguments at one sample, plan after plan.

        ``z1`` and ``z2`` are needed only by a template whose records have them.
        """
        e = self._records(ctx, lam, omega, z, {"z1": z1, "z2": z2})
        vals = e[self._listed_rows].tolist()
        th = self._thetas(ctx, e)
        vals += th[self._listed_thetas].tolist()
        if self._batches:
            bound = Bound.of(e, th)
            for batch in self._batches:
                vals += batch.reduce(bound)
        return list(map(vals.__getitem__, self._gather))

    def finish(self, key, vals: list):
        """Finish the plan of ``key`` with its slice of ``bind``'s list."""
        i = self.plans[key]
        return self._skeletons[i].finish(vals[self._cuts[i] : self._cuts[i + 1]])

    def finish_all(self, vals: list) -> tuple[list, dict]:
        """Every plan finished with its slice of ``bind``'s list, in plan order.

        A plan whose finish raises an ``ArithmeticError`` gets a complex NaN
        in its place, and the error, the one ``finish`` raises for it, is
        returned under its position: ``(values, {position: error})``.
        """
        out: list = []
        failed: dict = {}
        cuts = self._cuts
        for i, (skeleton, a, b) in enumerate(zip(self._skeletons, cuts, cuts[1:])):
            try:
                out.append(skeleton.finish(vals[a:b]))
            except ArithmeticError as exc:
                out.append(_FAILED)
                failed[i] = exc
        return out, failed

    def bind_products(
        self, ctx: ThetaContext, lam: complex, omega: complex, z: complex, z1=None, z2=None
    ) -> np.ndarray:
        """The value of every plan at one sample, in plan order, as one array.

        For a template whose plans are all theta products with a record for
        scalar: each value is what ``finish`` gives the plan after ``bind``,
        bit for bit, with the products' scalars multiplied in on split arrays
        (``_c_mul``) instead of one by one.  Where some plan's finish would
        raise, this raises the ``PoleError`` of the first such plan.
        """
        e = self._records(ctx, lam, omega, z, {"z1": z1, "z2": z2})
        bound = Bound.of(e, self._thetas(ctx, e))
        rows, ranks, zero = self._product_layout()
        products = self._batches[0]
        pr, pi = products.running(bound)
        failed = products.failures(bound)
        if failed:
            first = np.flatnonzero(np.isin(ranks, list(failed)))[0]
            raise PoleError(failed[int(ranks[first])])
        sr, si = e.real[rows], e.imag[rows]
        with np.errstate(all="ignore"):
            vr, vi = _c_mul(sr, si, pr[ranks], pi[ranks])
        vr[zero] = vi[zero] = 0.0
        lost = (vr == 0) & (vi == 0) & ~zero & ((sr != 0) | (si != 0))
        if lost.any() or not (np.isfinite(vr).all() and np.isfinite(vi).all()):
            raise PoleError(PRODUCT_RANGE)
        out = np.empty(len(vr), dtype=complex)
        out.real, out.imag = vr, vi
        return out

    def _product_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(scalar record row, product rank, exact zero) of each plan, for
        ``bind_products``: every plan lists its scalar's record, then its
        product."""
        got = self._layout
        if got is None:
            cuts = np.array(self._cuts)
            gather = np.array(self._gather)
            n, start = len(self._listed_rows), len(self._listed_rows) + len(self._listed_thetas)
            scalars, products = gather[cuts[:-1]], gather[cuts[:-1] + 1]
            simple = (
                len(self._batches) == 1
                and isinstance(self._batches[0], _Products)
                and (np.diff(cuts) == 2).all()
                and (scalars < n).all()
                and (products >= start).all()
            )
            if not simple:
                raise TypeError("bind_products needs theta products with record scalars only")
            zero = np.array([sk.zero for sk in self._skeletons], dtype=bool)
            got = self._layout = (self._listed_rows[scalars], products - start, zero)
        return got


class Bound(NamedTuple):
    """What the batches of a bound template read: the record values ``e``,
    and the theta values on split arrays with 1.0 appended (index -1), with
    their moduli as ``abs`` gives them and where ``abs`` raises."""

    e: np.ndarray
    re: np.ndarray
    im: np.ndarray
    mag: np.ndarray
    over: np.ndarray

    @staticmethod
    def of(e: np.ndarray, th: np.ndarray) -> "Bound":
        ext = np.empty(len(th) + 1, dtype=complex)
        ext[:-1] = th
        ext[-1] = 1.0
        re, im = ext.real.copy(), ext.imag.copy()
        with np.errstate(all="ignore"):
            return Bound(e, re, im, *_c_abs(re, im))


# -- CPython's complex arithmetic on split arrays -------------------------------
#
# Float64 array arithmetic rounds each elementwise operation as C does, so
# writing out CPython's formulas for complex ``*``, ``/`` and ``abs`` on the
# real and imaginary parts gives Python's bits; numpy's own complex
# arithmetic may round differently in the last bit.


def _c_mul(ar, ai, br, bi):
    """(ar + ai i) (br + bi i) on split arrays, by CPython's formula for ``*``."""
    return ar * br - ai * bi, ar * bi + ai * br


def _c_div(ar, ai, br, bi):
    """(ar + ai i) / (br + bi i) on split arrays, by CPython's formula for ``/``.

    That is Smith's quotient: divide through by the larger of |br| and |bi|,
    by br when they tie.  Both branches are written with the operands in
    CPython's order where it matters; addition commutes bit for bit, and a
    difference is written out in each branch, since a - b and -(b - a)
    differ in the sign of a zero.  A divisor with a nan part gives nan, as
    CPython does; an exact 0j divisor, where Python raises
    ``ZeroDivisionError``, gives nan (0 / 0 in the ratio).
    """
    first = np.abs(br) >= np.abs(bi)
    big, small = np.where(first, br, bi), np.where(first, bi, br)
    x, y = np.where(first, ar, ai), np.where(first, ai, ar)
    ratio = small / big
    denom = big + small * ratio
    u = x * ratio
    return (x + y * ratio) / denom, np.where(first, y - u, u - y) / denom


def _c_abs(re, im):
    """|re + im i| on split arrays, as ``abs`` computes it, and where ``abs``
    raises ``OverflowError``: finite parts whose modulus is beyond range."""
    mag = np.hypot(re, im)
    return mag, np.isinf(mag) & np.isfinite(re) & np.isfinite(im)


def _i32(values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


ArgLike = Union[TrackedArg, complex, float, int]


def _as_arg(a: ArgLike) -> TrackedArg:
    return a if isinstance(a, TrackedArg) else garg(a)


class Plan:
    """A value reduced from theta values that have not been looked up yet.

    ``args`` lists the theta arguments the reduction reads, in order, and
    ``finish(vals)`` reduces their ``theta_vec`` values, given in the same
    order.  Building a plan looks nothing up, so the plans of a whole check
    can be built first and their arguments looked up together (``combine``).
    """

    __slots__ = ("ctx", "args", "finish")

    def __init__(self, ctx: ThetaContext, args: list[complex], finish):
        self.ctx = ctx
        self.args = args
        self.finish = finish

    def value(self):
        """Look the arguments up in one ``theta_vec_cached`` call and reduce them."""
        return self.finish(theta_vec_cached(self.args, self.ctx))

    def template_args(self) -> list:
        """The entries a template lists for this plan: its arguments, except
        that a series plan or a theta product stands in one entry for all of
        its own (after the entries of a product's plan scalar), and a
        template reduces its series and its products together
        (``series._Batch``, ``_Products``)."""
        return self.args

    def skeleton(self, pool: dict) -> "Plan":
        """A plan that finishes as this one does and holds no argument.

        A template keeps skeletons once it has listed its plans' arguments;
        equal skeletons are one object, kept in the template's ``pool``
        (``shared_skeleton``).  An argument list is kept only as
        placeholders of the same length, which a plan that holds this one as
        its scalar reads.
        """
        n = len(self.args)
        key = (Plan, self.ctx, self.finish, n)
        return shared_skeleton(
            pool, key, lambda: Plan(self.ctx, _placeholders(pool, n), self.finish)
        )


def _placeholders(pool: dict, n: int) -> list:
    """A list of n Nones, one per length, shared by the skeletons: never changed."""
    return shared_skeleton(pool, (list, n), lambda: [None] * n)


def shared_skeleton(pool: dict, key: tuple, make):
    """The skeleton kept in ``pool`` under ``key``, made by ``make()`` the first time."""
    got = pool.get(key)
    if got is None:
        got = pool[key] = make()
    return got


def known(ctx: ThetaContext, value) -> Plan:
    """A plan that needs no theta value.

    A record, or a list of records, is a value bound per sample: its plan
    lists ``Scalar`` arguments, and finishing it returns their values.
    """
    if isinstance(value, Rec):
        return Plan(ctx, [Scalar(value)], _first)
    if isinstance(value, list) and value and isinstance(value[0], Rec):
        return Plan(ctx, [Scalar(r) for r in value], _same)
    return Known(ctx, value)


class Known(Plan):
    """The plan of a number: no arguments, and ``finish`` returns the number."""

    __slots__ = ("number",)

    def __init__(self, ctx: ThetaContext, number):
        self.ctx = ctx
        self.args = []
        self.number = number

    def finish(self, vals: list):
        return self.number

    def skeleton(self, pool: dict) -> Plan:
        return self


_first = operator.itemgetter(0)


def _same(vals: list) -> list:
    return vals


def combine(ctx: ThetaContext, parts: Sequence[Plan], fn) -> Plan:
    """The plan of fn(v_1, ..., v_n) over the values of ``parts``.

    Its arguments are those of the parts, joined in order; the parts are
    finished in order, so the first error is the one evaluating them one by
    one would raise.
    """
    return Joined(ctx, parts, fn)


class Joined(Plan):
    """``combine``'s plan.  It keeps its parts and the cuts between their
    arguments, and joins the arguments only when asked for them: a template
    holds many joined plans, and each would otherwise keep a copy."""

    __slots__ = ("parts", "cuts", "fn")

    def __init__(self, ctx: ThetaContext, parts: Sequence[Plan], fn):
        self.ctx = ctx
        self.parts = tuple(parts)
        self.fn = fn
        cuts = [0]
        for part in self.parts:
            cuts.append(cuts[-1] + len(part.args))
        self.cuts = tuple(cuts)

    @property
    def args(self) -> list[complex]:
        out: list[complex] = []
        for part in self.parts:
            out += part.args
        return out

    def template_args(self) -> list:
        out: list = []
        for part in self.parts:
            out += part.template_args()
        return out

    def finish(self, vals: list[complex]):
        cuts = self.cuts
        return self.fn(*[part.finish(vals[a:b]) for part, a, b in zip(self.parts, cuts, cuts[1:])])

    def skeleton(self, pool: dict) -> Plan:
        parts = tuple(part.skeleton(pool) for part in self.parts)
        # The cuts of the skeleton's arguments: a series takes one entry there.
        cuts = (0, *accumulate(len(part.args) for part in parts))

        def make() -> Joined:
            out = object.__new__(type(self))
            out.ctx, out.parts, out.cuts, out.fn = self.ctx, parts, cuts, self.fn
            return out

        return shared_skeleton(pool, (type(self), self.ctx, self.fn, cuts, parts), make)


class ThetaProduct(Plan):
    """Deferred product of theta factors and plain scalars.

    ``args`` lists the factors' arguments, and ``value()`` evaluates them in
    one lookup of the context's vector cache.
    Numerator factors that vanish exactly are counted instead of multiplied,
    so ``value()`` returns exactly 0 when any survive; denominator factors
    that vanish exactly, or whose magnitude falls below the zero guard, raise
    ``PoleError``.  The scalar may itself be a plan (an elliptic binomial,
    say), built in full before it is passed: its arguments then come first,
    and it is finished first.
    """

    __slots__ = ("scalar", "zeros", "_num", "_den", "_cut")

    def __init__(self, ctx: ThetaContext, scalar: complex | Plan | Rec = 1.0 + 0.0j):
        self.ctx = ctx
        if isinstance(scalar, Rec):
            scalar = known(ctx, scalar)
        self.scalar = scalar if isinstance(scalar, Plan) else complex(scalar)
        self._cut = len(scalar.args) if isinstance(scalar, Plan) else 0
        self.zeros = 0
        self._num: list[complex] = []
        self._den: list[complex] = []

    def theta(self, arg: ArgLike, inv: bool = False, count: int = 1) -> "ThetaProduct":
        """Multiply by theta(arg)^count, or divide when ``inv``."""
        if count < 0:
            inv, count = not inv, -count
        return self._block(_as_arg(arg), (0,) * count, inv)

    def poch(self, arg: ArgLike, n: int, inv: bool = False) -> "ThetaProduct":
        """Multiply by the length-n Pochhammer product of theta(arg * q^(2i)).

        Negative n uses the reflection convention, a length -n product of
        inverse factors at arguments arg * q^(-2i), i = 1..-n.
        """
        if n >= 0:
            return self._block(_as_arg(arg), range(n), inv)
        return self._block(_as_arg(arg), range(-1, n - 1, -1), not inv)

    def _block(self, ta: TrackedArg, shifts: Sequence[int], inv: bool) -> "ThetaProduct":
        """Take in theta(ta * q^(2i)) for i in shifts: count exact zeros, queue the rest."""
        if ta.is_one and -ta.s in shifts:
            if inv:
                raise PoleError("exact zero theta factor in denominator")
            self.zeros += shifts.count(-ta.s)
            shifts = [i for i in shifts if not ta.theta_is_zero(i)]
        q2n, s, g = self.ctx.q2n, ta.s, ta.generic
        queue = self._den if inv else self._num
        for i in shifts:
            queue.append(q2n(s + i) * g)
        return self

    @property
    def args(self) -> list[complex]:
        """The arguments ``value()`` looks up: a plan scalar's, the
        denominators, and the numerators unless a numerator zero already
        decides the result."""
        return self.scalar.args + self._own() if isinstance(self.scalar, Plan) else self._own()

    def _own(self) -> list[complex]:
        return self._den if self.zeros > 0 else self._den + self._num

    def finish(self, vals: list[complex]) -> complex:
        scalar = self.scalar
        if isinstance(scalar, Plan):
            cut = self._cut
            scalar, vals = scalar.finish(vals[:cut]), vals[cut:]
        dlen = len(self._den)
        dens, nums = vals[:dlen], vals[dlen:]
        guard = self.ctx.zero_guard
        try:
            for den in dens:
                if abs(den) < guard:
                    raise PoleError(DEN_GUARD)
            if self.zeros > 0:
                return 0.0 + 0.0j
            # Pair numerator and denominator factors before reducing so the
            # partial products stay near the scale of the quotient; separate
            # products can overflow even when the result is representable.
            prod = 1.0 + 0.0j
            for num, den in zip(nums, dens):
                prod *= num / den
            for num in nums[dlen:]:
                prod *= num
            for den in dens[len(nums):]:
                prod *= 1.0 / den
        except (OverflowError, ZeroDivisionError):
            raise PoleError(PRODUCT_RANGE) from None
        return _in_range(scalar * prod, scalar)

    def template_args(self) -> list:
        """The product is one entry, for its batch result (``_Products``),
        after the entries of a plan scalar."""
        if isinstance(self.scalar, Plan):
            return self.scalar.template_args() + [self]
        return [self]

    def skeleton(self, pool: dict) -> Plan:
        scalar, zero = self.scalar, self.zeros > 0
        if isinstance(scalar, Plan):
            scalar = scalar.skeleton(pool)
            key = (_Scaled, scalar, zero)
        else:
            # A number keys by its bits: 0j and -0j are equal, not the same.
            key = (_Scaled, scalar.real.hex(), scalar.imag.hex(), zero)
        return shared_skeleton(pool, key, lambda: _Scaled(scalar, zero))

    @staticmethod
    def batch(record, theta) -> "_Products":
        """The program that reduces the theta products of a template together."""
        return _Products(theta)


class _Scaled(Plan):
    """A bound template's theta product: its arguments are those of its
    scalar's skeleton, when the scalar is a plan, then the batch result of
    the product's own factors.  It finishes as ``ThetaProduct.finish``
    does: the scalar first, then the guard, the exact zeros, the product
    and its range check."""

    __slots__ = ("scalar", "zero")

    def __init__(self, scalar: complex | Plan, zero: bool):
        self.ctx, self.scalar, self.zero = None, scalar, zero
        self.args = [None] * (len(scalar.args) + 1 if isinstance(scalar, Plan) else 1)

    def finish(self, vals: list) -> complex:
        scalar, got = self.scalar, vals[-1]
        if isinstance(scalar, Plan):
            scalar = scalar.finish(vals[:-1])
        if type(got) is str:
            raise PoleError(got)
        if self.zero:
            return 0.0 + 0.0j
        return _in_range(scalar * got, scalar)


def _in_range(out: complex, scalar: complex) -> complex:
    """The value of a theta product with no surviving exact zero, which is
    finite and, unless its scalar is 0, not 0: a 0 there is a partial
    product that underflowed, and raises as leaving the range does."""
    if not cmath.isfinite(out) or (out == 0 and scalar != 0):
        raise PoleError(PRODUCT_RANGE)
    return out


class _Products:
    """The theta products of one template, reduced together on split arrays.

    ``reduce`` gives each product, from the template's bound values, what
    ``ThetaProduct.finish`` computes on the same values before it multiplies
    by the scalar, bit for bit; or the message of the ``PoleError`` it
    raises there.  It follows the scalar loop step by step, with CPython's
    complex formulas (``_c_mul``, ``_c_div``, ``_c_abs``): the guard on each
    denominator, in order; no numerator when exact zeros survive (the
    skeleton, ``_Scaled``, returns 0 then); then the factors num/den of the
    pairs, the numerators left, and 1/den of the denominators left,
    multiplied into 1 + 0j one by one.  The quotients are independent of
    one another, so each distinct one is taken once, all in one call; the
    running products take one step per factor position.

    A template compiles its products one by one (``add``), and ``close``
    lays out the program, all int32 indices: ``rank`` orders the products
    by decreasing factor count, and the factors are laid out position by
    position (``widths``), so each step multiplies a prefix of the running
    products.  ``factor`` indexes, for each factor, the distinct quotients
    (theta indices ``num`` over ``div``), then the theta values; an index -1
    reads the 1.0 appended to the theta values.
    """

    __slots__ = ("rank", "guard", "widths", "num", "div", "factor", "den", "den_cuts", "_pending")

    def __init__(self, theta):
        self.guard = None
        self._pending = ([], theta)

    def add(self, node: ThetaProduct) -> None:
        """Compile one more product: the theta indices of its denominators
        and of its numerators (none when exact zeros survive)."""
        if self.guard not in (None, node.ctx.zero_guard):
            raise ValueError("the products of one template share one zero guard")
        self.guard = node.ctx.zero_guard
        compiled, theta = self._pending
        dens = array("i", map(theta, node._den))
        nums = array("i", () if node.zeros > 0 else map(theta, node._num))
        compiled.append((dens, nums))

    def close(self) -> None:
        """Lay out the program of the products added.  Factor s of a product
        is nums[s] / dens[s] while both run, then nums[s], or 1 / dens[s]."""
        compiled, _ = self._pending
        self._pending = None
        counts = [max(len(dens), len(nums)) for dens, nums in compiled]
        order = sorted(range(len(compiled)), key=counts.__getitem__, reverse=True)
        self.rank = array("i", [0] * len(compiled))
        for i, p in enumerate(order):
            self.rank[p] = i
        ranked = [compiled[p] for p in order]
        self.widths = array("i", [sum(n > s for n in counts) for s in range(max(counts, default=0))])
        # The factors, position by position: each distinct quotient is taken
        # once, and a factor indexes the quotients, then the theta values.
        quotients: dict = {}
        factor = array("i")
        for s, w in enumerate(self.widths):
            for dens, nums in ranked[:w]:
                a = nums[s] if s < len(nums) else -1
                if s < len(dens):
                    factor.append(quotients.setdefault((a, dens[s]), len(quotients)))
                else:
                    factor.append(~a)  # a theta value; set below
        self.num = _i32([a for a, _ in quotients])
        self.div = _i32([b for _, b in quotients])
        self.factor = _i32(factor)
        plain = self.factor < 0
        self.factor[plain] = len(quotients) + ~self.factor[plain]
        self.den = _i32([d for dens, _ in ranked for d in dens])
        self.den_cuts = _i32([0, *accumulate(len(dens) for dens, _ in ranked)])

    def reduce(self, b: "Bound") -> list:
        """Each product's result, in ``rank`` order."""
        pr, pi = self.running(b)
        value = np.empty(len(pr), dtype=complex)
        value.real, value.imag = pr, pi
        out = value.tolist()
        for r, message in self.failures(b).items():
            out[r] = message
        return out

    def running(self, b: "Bound") -> tuple[np.ndarray, np.ndarray]:
        """Each product's value, real and imaginary parts, in ``rank`` order;
        a product whose guard fails (``failures``) gets a meaningless one."""
        with np.errstate(all="ignore"):
            num, div = self.num, self.div
            qr, qi = _c_div(b.re[num], b.im[num], b.re[div], b.im[div])
            fr = np.concatenate((qr, b.re))[self.factor]
            fi = np.concatenate((qi, b.im))[self.factor]
            n = len(self.rank)
            pr, pi = np.ones(n), np.zeros(n)
            a = 0
            for w in self.widths:
                c = a + w
                pr[:w], pi[:w] = _c_mul(pr[:w], pi[:w], fr[a:c], fi[a:c])
                a = c
        return pr, pi

    def failures(self, b: "Bound") -> dict:
        """The guard failures, by rank: the first denominator of each product,
        in order, whose modulus is below the guard (or overflows, as ``abs``
        raises there), and the message ``ThetaProduct.finish`` raises at it."""
        events = b.over | (b.mag < self.guard)
        if not events.any():
            return {}
        at = np.flatnonzero(events[self.den])
        if not at.size:
            return {}
        owner = np.searchsorted(self.den_cuts, at, side="right") - 1
        owner, first = np.unique(owner, return_index=True)
        mag = b.mag
        return {
            r: DEN_GUARD if mag[i] < self.guard else PRODUCT_RANGE
            for r, i in zip(owner.tolist(), self.den[at[first]].tolist())
        }


def pochhammer(a: ArgLike, n: int, ctx: ThetaContext) -> complex:
    """Elliptic Pochhammer symbol of length n in base q^2 (n may be negative)."""
    tp = ThetaProduct(ctx)
    tp.poch(a, n)
    return tp.value()


def pochhammer_ratio(a: TrackedArg, num_len: int, den_len: int, ctx: ThetaContext) -> complex:
    """Ratio of Pochhammer symbols (a)_num_len / (a)_den_len, den_len <= num_len.

    Evaluated as the partial product over i = den_len..num_len-1, so the
    shared leading factors, including any exact zero among them, cancel
    structurally and are never formed as 0/0.  The result may be exactly 0
    when the remaining window still contains an exact zero.
    """
    if den_len > num_len:
        raise ValueError("pochhammer_ratio requires den_len <= num_len")
    tp = ThetaProduct(ctx)
    for i in range(den_len, num_len):
        tp.theta(a.shifted(i))
    return tp.value()


def binomial_plan(k: int, l: int, ctx: ThetaContext) -> Plan:
    """Plan of ``elliptic_binomial(k, l, ctx)``."""
    if l <= 0 or l >= k:
        return known(ctx, elliptic_binomial(k, l, ctx))
    tp = ThetaProduct(ctx)
    for i in range(1, l + 1):
        tp.theta(qarg(k - l + i))
        tp.theta(qarg(i), inv=True)
    return tp


def elliptic_binomial(k: int, l: int, ctx: ThetaContext) -> complex:
    """Elliptic binomial coefficient, the theta analogue of k choose l.

    Zero outside 0 <= l <= k; exactly 1 at the endpoints.
    """
    if l < 0 or l > k:
        return 0.0 + 0.0j
    if l == 0 or l == k:
        return 1.0 + 0.0j
    return ctx.evaluate(binomial_plan(k, l, ctx))
