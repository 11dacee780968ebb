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
  Word evaluation asks for the same coefficient many times over.  A call
  that raises stores nothing, so it raises again when repeated.

Building a value and evaluating it are two steps.  A ``Plan`` (of which
``ThetaProduct`` is one) lists the theta arguments its value needs, and its
``finish`` reduces their values; ``combine`` joins plans into one.  A caller
that needs many values builds all of their plans first and looks the joined
arguments up once: a biorthogonality check (``biorth.BiorthCache.resolve``)
makes one lookup, and so at most one ``theta_vec`` call, for everything it
evaluates.  The public functions (``pochhammer``, ``elliptic_binomial`` and
the formulas of the other modules) build their plan and take its value.
Integer powers q^(2n) of the tracked arguments come from a per-context memo
(``ThetaContext.q2n``), which holds the number ``qpow(2 * n)`` returns.

All three hold exactly what was computed, so a cached value is
bit-identical to a fresh one: a ``theta_vec`` element does not depend on the
rest of its batch, and a memoized function's value depends only on its
arguments and its context.  The two theta caches are kept apart because the
scalar and vector kernels round differently in the last bit.  ``theta_vec``
itself stays uncached: on batches of fresh arguments the lookup costs more
than it saves.
The scalar memo and the value memo stop growing at ``MEMO_CAP`` entries;
the vector cache starts over when a lookup would take it past that.

The products and quotients of cached values (``ThetaProduct.value``,
``theta_multi`` and the series in ``series.vwp_sum``) are reduced with plain
Python complex arithmetic.  Each reduction works on a few dozen numbers, so
building numpy arrays for it costs far more than the arithmetic.  Python
rounds some products and quotients differently from numpy in the last bit,
and it raises where numpy returns inf or nan: ``abs`` of a finite value
beyond the double range raises ``OverflowError`` and division by zero raises
``ZeroDivisionError``.  The reductions report both as ``PoleError``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "PoleError",
    "ThetaContext",
    "TrackedArg",
    "Plan",
    "ThetaProduct",
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
        memo = args[-1]._values
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


def garg(value: complex) -> TrackedArg:
    """Generic (untracked) argument; assumed to never vanish exactly."""
    return _new_arg(TrackedArg, (0, complex(value), False))


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

    def __init__(self, ctx: ThetaContext, args: list[complex], finish):
        self.ctx = ctx
        self.args = args
        self.finish = finish

    def value(self):
        """Look the arguments up in one ``theta_vec_cached`` call and reduce them."""
        return self.finish(theta_vec_cached(self.args, self.ctx))


def known(ctx: ThetaContext, value) -> Plan:
    """A plan that needs no theta value."""
    return Plan(ctx, [], lambda vals: value)


def combine(ctx: ThetaContext, parts: Sequence[Plan], fn) -> Plan:
    """The plan of fn(v_1, ..., v_n) over the values of ``parts``.

    Its arguments are those of the parts, joined in order; the parts are
    finished in order, so the first error is the one evaluating them one by
    one would raise.
    """
    args: list[complex] = []
    cuts = [0]
    for part in parts:
        args += part.args
        cuts.append(len(args))

    def finish(vals: list[complex]):
        return fn(*[part.finish(vals[a:b]) for part, a, b in zip(parts, cuts, cuts[1:])])

    return Plan(ctx, args, finish)


class ThetaProduct(Plan):
    """Deferred product of theta factors and plain scalars.

    ``args`` lists the factors' arguments, and ``value()`` evaluates them in
    one lookup of the context's vector cache.
    Numerator factors that vanish exactly are counted instead of multiplied,
    so ``value()`` returns exactly 0 when any survive; denominator factors
    that vanish exactly, or whose magnitude falls below the zero guard, raise
    ``PoleError``.  The scalar may itself be a plan (an elliptic binomial,
    say): its arguments then come first, and it is finished first.
    """

    def __init__(self, ctx: ThetaContext, scalar: complex | Plan = 1.0 + 0.0j):
        self.ctx = ctx
        self.scalar = scalar if isinstance(scalar, Plan) else complex(scalar)
        self.zeros = 0
        self._num: list[complex] = []
        self._den: list[complex] = []

    def mul_scalar(self, c: complex) -> "ThetaProduct":
        self.scalar *= c
        return self

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
        own = self._den if self.zeros > 0 else self._den + self._num
        return self.scalar.args + own if isinstance(self.scalar, Plan) else own

    def finish(self, vals: list[complex]) -> complex:
        scalar = self.scalar
        if isinstance(scalar, Plan):
            cut = len(scalar.args)
            scalar, vals = scalar.finish(vals[:cut]), vals[cut:]
        dlen = len(self._den)
        dens, nums = vals[:dlen], vals[dlen:]
        guard = self.ctx.zero_guard
        try:
            for den in dens:
                if abs(den) < guard:
                    raise PoleError("denominator theta factor below zero guard")
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
            raise PoleError("theta product exceeds double precision range") from None
        out = scalar * prod
        if not cmath.isfinite(out):
            raise PoleError("theta product exceeds double precision range")
        return out


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
    return binomial_plan(k, l, ctx).value()
