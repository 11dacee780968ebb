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

A context holds its parameters (p, q and the zero guard), one factor table
of the powers p^j and p^(j+1) its products run over, one cache per theta
kernel and a memo of powers of q.  The factor table is kept in the types the
kernels compute in: pairs of Python complex numbers for ``theta`` and two
complex128 rows for ``theta_vec``.  Python and numpy both promote a float
factor to x + 0j before they multiply, so a complex table gives the same
bits as a float one, without the promotion on every factor.  The caches:

* the scalar memo (``theta``) maps an argument to the scalar kernel's value;
* the vector cache (``theta_vec_cached``) maps an argument to the element
  ``theta_vec`` computed for it.  ``ThetaProduct.value`` and the series of
  ``series.vwp_sum`` look their arguments up there and send only the misses
  to ``theta_vec``, in one call per lookup; the lookup returns a list of
  Python complex numbers;
* the power memo (``ThetaContext.q2n``) maps an integer n to q^(2n).

Nothing built on the kernels is memoized: the coefficient functions of
``rep``, ``rmatrix`` and ``corep`` evaluate their formula afresh on every
call, and read the theta values it needs from these caches.

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
come from the power memo, which holds the number ``qpow(2 * n)`` returns.

The same builders also run over exponent records, to build a plan once for
many samples: a template.  A ``Rec`` stands for q^(a Λ + b ω + c) z^d zbar^e
(-1)^s, with Λ, ω and z the symbols ``LAM``, ``OMEGA`` and ``Z`` of a
sample's dynamical variable, weight and spectral point; a
``TemplateContext`` stands in for the ``ThetaContext`` and gives records
where the context gives numbers (``qpow``, ``q2n``, ``conj``).  A plan built
so lists records, for theta arguments, and ``Scalar`` records, for the
scalars it multiplies by; whether a tracked argument vanishes exactly is
derived from its record (``Rec.tracked``).  A record may also hold the
spectral points z1 and z2 (``Z1``, ``Z2``) of a relation check, and their
conjugates.  A ``Template`` compiles such plans once, in one walk of each
plan, into programs of indices (a batch of its series, one of its theta
products, and the finish program of its plans), and keeps no plan.  It
binds them to many draws at once (``Template.bind_all``, its one entry: a
single draw is a batch of one), with one ``theta_columns`` call per
batch and without the vector cache, and finishes every plan at every draw
in one pass over arrays (its docstring has the steps).  ``biorth`` and ``rep`` keep the
templates of up to ``SHAPE_CAP`` shapes each (``kept_shape``).

The caches hold exactly what was computed, so a cached value is
bit-identical to a fresh one: a ``theta_vec`` element does not depend on the
rest of its batch.  The same holds for a bound template: a record's
value depends only on its own row.  The two theta caches are kept apart
because the scalar and vector kernels round differently in the last bit:
numpy's complex multiply is fused, Python's is not, and the layout of
``theta_vec`` is pinned by that (its docstring has the measured facts).
``theta_vec`` itself stays uncached: on batches of fresh arguments the
lookup costs more than it saves.
The scalar memo stops growing at ``MEMO_CAP`` entries; the vector cache
starts over when a lookup would take it past that.

The products and quotients of cached values (``ThetaProduct.value`` and
the series in ``series.vwp_sum``) are reduced with plain
Python complex arithmetic.  Each reduction works on a few dozen numbers, so
building numpy arrays for it costs far more than the arithmetic.  Python
rounds some products and quotients differently from numpy in the last bit,
and it raises where numpy returns inf or nan: ``abs`` of a finite value
beyond the double range raises ``OverflowError`` and division by zero raises
``ZeroDivisionError``.  The reductions report both as ``PoleError``.  A
theta product with no surviving exact zero (and a scalar other than 0) that
comes out as 0 has underflowed partway; it raises the same ``PoleError`` as
one that leaves the range, rather than pass for an exact zero.  The one
exception is a numerator theta value that is itself exactly 0j, as theta(1)
is at an argument 1 not tracked as q^0: the product is then that zero.  The
series and theta products of a bound template, hundreds at once, are the
exception, and so are the plans that a bound template finishes from them
(``_Finish``): their passes over arrays keep the real and imaginary parts
apart and write out CPython's formulas (``_c_mul``, ``_c_div``, ``_c_abs``),
and each elementwise float64 operation rounds as the C operation does, so
they round as the Python loops do.  The running products of the theta
products are the one complex pass: numpy's ``reduceat`` over the first axis
multiplies as CPython does (``theta_vec`` has the measured facts).  Where a
loop would raise, the pass carries a small failure code instead
(``ERRORS``): which guard, which range check, a division by 0j, an ``abs``
beyond range, the first the loop meets.  A caller raises a fresh error from
it (``error``).  The loops
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
from dataclasses import InitVar, dataclass
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "PoleError",
    "ERRORS",
    "CODE",
    "error",
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
    "kept_shape",
    "binomial_plan",
    "combine",
    "known",
    "qarg",
    "garg",
    "theta",
    "theta_vec",
    "theta_columns",
    "theta_vec_cached",
    "theta_condition",
    "theta_factors",
    "pochhammer",
    "elliptic_binomial",
]

# Most factor pairs a theta product takes (``theta_factors``).
MAX_THETA_FACTORS = 2000
# A theta product stops once p^j drops below this.
TRUNCATION_FLOOR = 1e-17
# Entry cap of each per-context cache.
MEMO_CAP = 1 << 20
# Most shapes whose compiled templates a module keeps (``kept_shape``).
SHAPE_CAP = 64
THETA_RANGE = "theta value exceeds double precision range"
POWER_RANGE = "power of q exceeds double precision range"
PRODUCT_RANGE = "theta product exceeds double precision range"
DEN_GUARD = "denominator theta factor below zero guard"
OUT_OF_RANGE = "series term magnitude exceeds double precision range"
A1_GUARD = "theta(a1) below zero guard"
DEN_ZERO = "denominator Pochhammer factor hits an exact zero"
# Python's own messages.
COMPLEX_BY_ZERO = "complex division by zero"
FLOAT_BY_ZERO = "float division by zero"
ABS_RANGE = "absolute value too large"


class PoleError(ArithmeticError):
    """A theta factor in denominator position vanished, exactly or numerically."""


# The error of each failure code of a bound template's plans
# (``Template.bind_all``; 0 is none): what its scalar finish raises, or,
# for every plan of a draw whose theta argument underflowed to 0, what
# ``theta_vec`` raises there.
ERRORS = (
    None,
    (PoleError, DEN_GUARD),
    (PoleError, PRODUCT_RANGE),
    (PoleError, OUT_OF_RANGE),
    (PoleError, A1_GUARD),
    (PoleError, DEN_ZERO),
    (ZeroDivisionError, COMPLEX_BY_ZERO),
    (ZeroDivisionError, FLOAT_BY_ZERO),
    (OverflowError, ABS_RANGE),
    (PoleError, THETA_RANGE),
)
CODE = {message: code for code, (_, message) in enumerate(ERRORS[1:], 1)}
# A theta product's batch result where a numerator theta value is exactly
# 0j (``_Products.reduce``): no failure, and a 0 there is no underflow.
_EXACT = -1


def error(code: int) -> ArithmeticError:
    """A fresh error for the failure code ``code`` (``ERRORS``)."""
    kind, message = ERRORS[code]
    return kind(message)


def theta_factors(p: float) -> int:
    """How many factor pairs a theta product at nome p takes: the powers p^j
    down to ``TRUNCATION_FLOOR``, at least one.  A nome that needs more than
    ``MAX_THETA_FACTORS``, p above about 0.98062, raises ``ValueError``
    rather than cut the product short of the floor."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    nfac = max(math.ceil(math.log(TRUNCATION_FLOOR) / math.log(p)), 1)
    if nfac > MAX_THETA_FACTORS:
        raise ValueError(
            f"p = {p!r} needs {nfac} theta factors to reach the truncation floor "
            f"{TRUNCATION_FLOOR:g}, more than the {MAX_THETA_FACTORS} taken; "
            f"p must be at most {TRUNCATION_FLOOR ** (1 / MAX_THETA_FACTORS):.6f}"
        )
    return nfac


@dataclass(frozen=True)
class ThetaContext:
    """Fixed nome/base pair with its genericity guard and theta caches.

    The theta product runs over the powers p^j down to ``TRUNCATION_FLOOR``
    (``theta_factors``, which refuses a nome that would need more than
    ``MAX_THETA_FACTORS``), fixed when the context is made; ``zero_guard``
    is the magnitude below which an untracked denominator theta value is
    treated as a pole.

    The context keeps one factor table, the powers p^j and p^(j+1) as
    complex numbers, in the form each kernel reads it: ``_rows``, two
    complex128 rows, for ``theta_vec``, and ``_pairs``, the same numbers as
    a tuple of (p^j, p^(j+1)) Python complex pairs, for ``theta``.  With
    ``pairs`` false, ``_pairs`` is None until ``theta`` first reads it: the
    suites' draws (``sampling.draw_batch``) never call ``theta``.  Made
    lazily for every context, it raised the kernels benchmark's peak RSS
    by about 14%, though it allocates less.  It also keeps ln p (``_lnp``),
    by which both kernels find an argument's annulus, and ln q (``_lnq``),
    by which it takes powers of q.
    """

    p: float
    q: float
    zero_guard: float = 1e-12
    pairs: InitVar[bool] = True

    def __post_init__(self, pairs: bool) -> None:
        nfac = theta_factors(self.p)
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q!r}")
        ppow = self.p ** np.arange(nfac)
        rows = (ppow.astype(complex), (self.p * ppow).astype(complex))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_pairs", _factor_pairs(rows) if pairs else None)
        object.__setattr__(self, "_lnp", math.log(self.p))
        object.__setattr__(self, "_lnq", math.log(self.q))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_vec_cache", {})
        object.__setattr__(self, "_q2n", {})

    def qpow(self, x: complex) -> complex:
        """q**x for arbitrary complex exponent x (principal branch); a power
        beyond the double range raises ``PoleError``."""
        try:
            return cmath.exp(self._lnq * x)
        except OverflowError:
            raise PoleError(POWER_RANGE) from None

    def q2n(self, n: int) -> complex:
        """q**(2n) for an integer n, memoized; the same number as ``qpow(2 * n)``."""
        got = self._q2n.get(n)
        if got is None:
            try:
                got = self._q2n[n] = cmath.exp(self._lnq * (2 * n))
            except OverflowError:
                raise PoleError(POWER_RANGE) from None
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


def _factor_pairs(rows: tuple) -> tuple:
    return tuple(zip(rows[0].tolist(), rows[1].tolist()))


def theta(z: complex, ctx: ThetaContext) -> complex:
    """Normalized theta value at a single nonzero argument.

    Arguments far from the unit circle are first reduced into the annulus
    sqrt(p) <= |z| < 1/sqrt(p) by quasi-periodicity; truncating the product
    at raw arguments would cost relative accuracy proportional to |z|.
    Scalar calls are memoized per context; word evaluation re-requests the
    same shifted arguments many times over.  A value beyond the double range
    raises ``PoleError``, and so does an argument 0, an argument that
    underflowed.
    """
    memo = ctx._memo
    got = memo.get(z)
    if got is not None:
        return got
    if z == 0:
        raise PoleError(THETA_RANGE)
    m = round(math.log(abs(z)) / ctx._lnp)
    w = z
    pref = 1.0 + 0.0j
    if m != 0:
        try:
            w = z * ctx.p ** (-m)
            pref = (-1 if m % 2 else 1) * w ** (-m) * ctx.p ** (-m * (m - 1) // 2)
        except OverflowError:
            raise PoleError(THETA_RANGE) from None
    if ctx._pairs is None:
        object.__setattr__(ctx, "_pairs", _factor_pairs(ctx._rows))
    # Every operand is complex, so no factor converts a float first.
    acc = one = 1.0 + 0.0j
    for pj, pj1 in ctx._pairs:
        acc *= (one - w * pj) * (one - pj1 / w)
    acc *= pref
    if not cmath.isfinite(acc):
        raise PoleError(THETA_RANGE)
    if len(memo) < MEMO_CAP:
        memo[z] = acc
    return acc


def theta_vec(zs: Sequence[complex], ctx: ThetaContext) -> np.ndarray:
    """Vectorized theta over a batch of nonzero arguments.

    Same annulus reduction as the scalar path, applied only when some entry
    needs it so moderate batches stay on the fast path.  An argument 0 raises
    ``PoleError``, as in the scalar path.  A far argument whose reduction
    leaves the double range gives inf or nan, without numpy's warnings; a
    theta product over it raises ``PoleError``.  ``theta_columns`` is the
    same kernel over the columns of many contexts at once.

    The layout fixes the bits, as measured with numpy 2.4.6 on x86-64: the
    factors form a factors x arguments array, (1 - p^j z) times
    (1 - p^(j+1) / z) in that order, and the product is taken with
    ``np.multiply.reduceat`` over the first axis.  numpy fuses the multiply
    and add of its contiguous complex multiply (a fused multiply-add), so
    swapping the two factor operands changes the last bit of some imaginary
    parts.  Its complex product reductions: ``reduceat`` over the first axis
    is not fused and rounds as a Python loop does (``_Products.reduce``
    relies on it too), and so is ``np.multiply.reduce`` over the last axis;
    ``reduce`` over the first axis multiplies whole rows, fused, and rounds
    otherwise; and ``accumulate`` over the first axis is fused for some
    shapes and not for others, so no bit-exact pass uses it.  A real factor
    p^j times z rounds alike in either operand order.  The temporaries are
    reused in place, which changes no bit.
    """
    arr = np.asarray(zs, dtype=complex)
    if (arr == 0).any():
        raise PoleError(THETA_RANGE)
    far, w, pref = _annulus(arr, ctx._lnp, ctx.p)
    if far is None:
        return _theta_rows(arr, ctx._rows)
    with np.errstate(all="ignore"):
        return _theta_rows(w, ctx._rows) * pref


def theta_columns(zs: np.ndarray, ctxs: Sequence[ThetaContext]) -> tuple[np.ndarray, list]:
    """(values, failed): ``theta_vec`` over each column of the arguments x
    columns array ``zs`` at its own context of ``ctxs``, in one call; and
    the columns with an argument 0, where ``theta_vec`` raises, whose values
    are left at 1.0.  Every other column holds the bits ``theta_vec`` gives
    for it alone.

    The annulus reduction runs once over every argument, each column's
    p and ln p broadcast along it; then each column takes its own factor
    product, over its own context's factors (their number moves with the
    nome, and no column is padded to another's count: it multiplies the
    factors ``theta_vec`` multiplies, and no more), and, as ``theta_vec``
    does, the prefactor multiply only where some argument of the column is
    far.  The columns are laid out as rows while they are evaluated, so
    each one meets every numpy loop with the strides ``theta_vec`` gives
    it.
    """
    arr = np.ascontiguousarray(np.asarray(zs, dtype=complex).T)
    out = np.ones(arr.shape, dtype=complex)
    zero = (arr == 0).any(axis=1)
    lnp = np.array([[ctx._lnp] for ctx in ctxs])
    p = np.array([[ctx.p] for ctx in ctxs])
    with np.errstate(all="ignore"):
        far, w, pref = _annulus(arr, lnp, p)
        shifted = [False] * len(ctxs) if far is None else far.any(axis=1).tolist()
        for k, (ctx, failed, moved) in enumerate(zip(ctxs, zero.tolist(), shifted)):
            if failed:
                continue
            if moved:
                out[k] = _theta_rows(w[k], ctx._rows) * pref[k]
            else:
                out[k] = _theta_rows(arr[k], ctx._rows)
    return out.T, np.flatnonzero(zero).tolist()


def _annulus(arr: np.ndarray, lnp, p) -> tuple:
    """(far, w, pref): where ``arr`` has arguments outside the annulus
    sqrt(p) <= |z| < 1/sqrt(p), ``far`` marks them, ``w`` holds every
    argument moved into it by quasi-periodicity and ``pref`` the factor
    that carries theta(w) back to theta(z); (None, arr, None) where it has
    none.  ``lnp`` and ``p`` are numbers, or columns of one value per row
    of a 2-d ``arr``."""
    m = np.rint(np.log(np.abs(arr)) / lnp)
    if not m.any():
        return None, arr, None
    with np.errstate(all="ignore"):
        far = m != 0
        m = m.astype(np.int64)
        shift = -m.astype(float)
        w = arr * p**shift
        pref = np.where(m % 2 == 0, 1.0, -1.0) * w**shift * p ** (-(m * (m - 1) // 2).astype(float))
    return far, w, pref


# The one segment of a factor product's ``reduceat``: every factor.
_FIRST = np.zeros(1, dtype=np.intp)


def _theta_rows(arr: np.ndarray, rows: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """prod_j (1 - p^j z) (1 - p^(j+1) / z) for each z of the 1-d ``arr``
    near the unit circle, over the context's factor rows, as a factors x
    arguments array reduced over its first axis."""
    left = rows[0][:, None] * arr
    np.subtract(1.0, left, out=left)
    right = rows[1][:, None] / arr
    np.subtract(1.0, right, out=right)
    left *= right
    return np.multiply.reduceat(left, _FIRST, axis=0)[0]


def theta_vec_cached(zs: Sequence[complex], ctx: ThetaContext) -> list[complex]:
    """``theta_vec`` values through the context's vector cache, as a list.

    Only the arguments not seen before on ``ctx`` are evaluated, in one
    ``theta_vec`` call; every value equals the element ``theta_vec`` gives for
    the same argument, bit for bit.  An empty cache misses every argument
    without looking, and a batch of distinct misses is returned as
    ``theta_vec`` gave it, without reading the cache back.
    """
    keys = zs.tolist() if isinstance(zs, np.ndarray) else zs
    cache = ctx._vec_cache
    miss = [z for z in keys if z not in cache] if cache else keys
    if len(cache) + len(miss) > MEMO_CAP:
        cache.clear()
        miss = keys
    if miss:
        miss = list(dict.fromkeys(miss))
        values = theta_vec(miss, ctx).tolist()
        cache.update(zip(miss, values))
        if len(miss) == len(keys):
            return values
    return [cache[z] for z in keys]


def theta_condition(z, p) -> tuple[np.ndarray, np.ndarray]:
    """(cond, over): at each argument of the array ``z``, the largest
    |x| / |1 - x| over the long-product factors 1 - x of theta(z) at the
    nome ``p`` (a number, or an array that broadcasts against ``z``), and
    where Python's ``abs`` would raise ``OverflowError`` computing it.

    Near a zero of theta, forming 1 - x loses that many ulps in any
    evaluation, so a relative error of this times the unit roundoff is the
    best any evaluation can promise.  Factors with |x| < 1/2 stay below 1 and
    are skipped; an exact zero factor reads as 1e300 times |x|.

    The factors run over x = z p^j, then x = (p / z) p^j, each x the last
    times p, as a Python loop over complex numbers takes them, with
    CPython's quotient (``_c_div``) and modulus (``hypot``): each condition
    has the loop's bits.  Each part of x p is the part times p, where
    Python's complex product adds a zero to it, which moves at most the
    sign of a zero part, and no modulus sees that.  Only the first x of
    each run, the largest, can have a modulus beyond range.  A run whose
    first x is beyond the double range is skipped, where the loop would
    not end.  The runs of all arguments advance together, one factor a
    step, as long as the longest.
    """
    z = np.asarray(z, dtype=complex)
    cond, over = np.ones(z.shape), np.zeros(z.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for xr, xi in ((z.real, z.imag), _c_div(p, 0.0, z.real, z.imag)):
            mag, bad = _c_abs(xr, xi)
            live = (mag >= 0.5) & (mag < math.inf)
            over |= bad | (live & _c_abs(1.0 - xr, xi)[1])
            while live.any():
                # max(|1 - x|, 1e-300), then max(cond, r): a later value
                # wins only where it is larger, as Python's ``max`` takes it.
                den = np.hypot(1.0 - xr, xi)
                r = mag / np.where(1e-300 > den, 1e-300, den)
                cond = np.where(live & (r > cond), r, cond)
                xr, xi = xr * p, xi * p
                mag = np.hypot(xr, xi)
                live &= mag >= 0.5
    return cond, over


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
    """Plans built over records, compiled once and bound to many draws.

    ``plans`` gives (key, plan) pairs, each plan built with a
    ``TemplateContext``.  Compiling walks each plan once, node by node,
    and compiles it into the finish program (``_Finish``) as it goes: a
    ``Known`` number is a constant; a record scalar (``known`` of a record)
    is listed, its record a row of a small matrix of exponents; a series
    plan, or the own factors of a theta product, wherever it sits in a plan
    (a part of a joined plan, the scalar of a theta product), is added to
    the batch of its kind and zero guard, which compiles it into one
    program of indices (``series._Batch``, ``_Products``); and a
    theta product or a joined plan is an operation on the values of its
    parts.  The batches are closed once every plan is walked, and the
    finish program is then laid out.  A plan of any other kind, or a joined
    plan whose reduction has no array form (``array_form``), raises
    ``TypeError``.  ``plans`` maps a key to the position of its plan.

    ``bind_all`` binds draws, all together: one matrix-vector product and
    one ``exp`` evaluate every record, one ``theta_columns`` call the
    distinct theta arguments of every draw, and one pass over arrays each
    reduces every series and every theta product.  The finish program then
    finishes every plan at every draw in one pass, and names the error of
    each plan that fails by its failure code (``ERRORS``).  Every array has
    one column per draw, and lives for the one call.

    Each record's value depends on its own row and draw only, and each
    series or product result, and each plan's value, on its own values
    only: a plan bound alone gets the same bits as the same plan bound with
    many others, at one draw or at many.
    """

    def __init__(self, plans: Iterable[tuple]):
        rows: dict = {}
        thetas: dict = {}

        def record(rec: Rec) -> int:
            return rows.setdefault(rec, len(rows))

        def theta_of(rec: Rec) -> int:
            return thetas.setdefault(record(rec), len(thetas))

        # The entries the operations read, each an int: a record scalar's
        # position among the listed records, ~ the index of a constant, or
        # a slot for a batch result, set once its batch is closed.
        listed: dict = {}
        constants: dict = {}
        entries = array("i")
        # A batch, and the positions in ``entries`` of its results, by the
        # batch's maker (``type(plan).batch``) and zero guard.
        batches: dict = {}
        # The operations by group, (depth, form, series parts): the group's
        # index, its count, and its operands, operation after operation,
        # each an entry (>= 0) or ~ an operation; and each operation's
        # group and place in it.
        groups: dict = {}
        group_of, place, items = array("i"), array("i"), array("i")

        def entry(value: int) -> int:
            entries.append(value)
            return len(entries) - 1

        def constant(number) -> int:
            c = complex(number)
            key = (c.real.hex(), c.imag.hex())
            return entry(~constants.setdefault(key, (len(constants), c))[0])

        def result(plan: Plan) -> int:
            make, guard = type(plan).batch, plan.ctx.zero_guard
            if (make, guard) not in batches:
                batches[make, guard] = (make(record, theta_of, guard), array("i"))
            batch, slots = batches[make, guard]
            batch.add(plan)
            slots.append(len(entries))
            return entry(0)

        def operation(form, series: tuple, depth: int, operands) -> tuple:
            group = groups.setdefault((depth, form, series), [len(groups), 0, array("i")])
            group_of.append(group[0])
            place.append(group[1])
            group[1] += 1
            group[2].extend(operands)
            return ~(len(place) - 1), depth

        def node(plan: Plan) -> tuple:
            """(entry or ~ operation, depth) of ``plan``; the depth is the
            longest path down to an entry."""
            kind = type(plan)
            if kind is Known:
                return constant(plan.number), 0
            if kind is Plan and plan.finish is _first and type(plan.args[0]) is Scalar:
                return entry(listed.setdefault(record(plan.args[0].rec), len(listed))), 0
            if isinstance(plan, ThetaProduct):
                scalar = plan.scalar
                ref, depth = node(scalar) if isinstance(scalar, Plan) else (constant(scalar), 0)
                form = _zeroed if plan.zeros > 0 else _scaled
                return operation(form, (False, False), depth + 1, (ref, result(plan)))
            if isinstance(plan, Joined):
                form = _ARRAY_FORMS.get(plan.fn if kind is Joined else kind)
                if form is None:
                    raise TypeError(f"no array form for the reduction of {plan!r}")
                parts = [node(part) for part in plan.parts]
                # A series part: its batch result, which the form reads as it is.
                series = tuple(hasattr(p, "batch") and not isinstance(p, ThetaProduct) for p in plan.parts)
                depth = max((d for _, d in parts), default=0) + 1
                return operation(form, series, depth, [r for r, _ in parts])
            if hasattr(kind, "batch"):  # a series: its batch result, read as it is
                return result(plan), 0
            raise TypeError(f"a finish program takes no plan {plan!r}")

        self.plans: dict = {}
        for key, plan in plans:
            self.plans[key] = len(items)
            items.append(node(plan)[0])
        del node  # it refers to itself; the compile state goes with this call
        # The sources of the finish program: the listed records, then the
        # results of each batch.
        gather = np.array(entries, dtype=np.intp)
        constant_at = gather < 0
        start = len(listed)
        self._starts = []
        for batch, slots in batches.values():
            batch.close()
            gather[np.asarray(slots)] = start + np.asarray(batch.rank)
            self._starts.append(start)
            start += len(slots)
        gather[constant_at] = start + ~gather[constant_at]
        self._batches = [batch for batch, _ in batches.values()]
        self._listed_rows = np.array(list(listed), dtype=np.intp)
        self._program = _Finish(gather, start, constants, groups, group_of, place, items)
        n = len(rows)
        cols = np.array(list(rows), dtype=float).reshape(n, len(Rec._fields)).T
        self._neg = np.flatnonzero(cols[5])
        # The exponents, as columns against the draws of ``bind_all``.
        cols = cols[:, :, None]
        self._lam, self._om, self._c = cols[0].copy(), cols[1].copy(), cols[2].copy()
        self._re_z, self._im_z = cols[3] + cols[4], cols[3] - cols[4]
        # The exponents of z1 and z2 (real and imaginary part of the log),
        # kept only for a symbol some record has: a template without them
        # adds no term, so it keeps the bits it had before they existed.
        # Each is kept with the position of its point in a draw (``bind_all``).
        self._spectral = [
            (at, cols[i] + cols[i + 1], cols[i] - cols[i + 1])
            for at, i in ((4, 6), (5, 8))
            if cols[i].any() or cols[i + 1].any()
        ]
        self._theta = np.array(list(thetas), dtype=np.intp)

    def _records(self, draws: Sequence[tuple]) -> np.ndarray:
        """The value of every record at each draw, one column per draw, with
        one ``exp``.  Each element is the sum of the same products, in the
        same order, whatever the number of draws."""
        coefficients = []
        for ctx, lam, omega, z, *_ in draws:
            lnq, lam, omega, logz = ctx._lnq, complex(lam), complex(omega), cmath.log(z)
            coefficients.append((
                lnq * lam.real, lnq * omega.real, lnq, logz.real,
                lnq * lam.imag, lnq * omega.imag, logz.imag,
            ))
        lam_re, om_re, lnq, z_re, lam_im, om_im, z_im = np.array(coefficients).T
        # A record beyond the double range comes out inf or 0, and fails as
        # a theta argument or a product there, not as a numpy warning.
        with np.errstate(all="ignore"):
            re = self._lam * lam_re + self._om * om_re + self._c * lnq + self._re_z * z_re
            im = self._lam * lam_im + self._om * om_im + self._im_z * z_im
            for at, re_w, im_w in self._spectral:
                logw = [cmath.log(draw[at]) for draw in draws]
                re = re + re_w * np.array([w.real for w in logw])
                im = im + im_w * np.array([w.imag for w in logw])
            e = np.empty(re.shape, dtype=complex)
            e.real, e.imag = re, im
            np.exp(e, out=e)
        e[self._neg] = -e[self._neg]
        return e

    def _bind(self, draws: Sequence[tuple], size: int) -> tuple:
        """(re, im, code, failed): the sources of the finish program at
        each draw, one column per draw, in the first rows of arrays of
        ``size`` rows: the listed records, then the results of each batch
        (``Reduced``), with their failure codes (0 for a record); and the
        draws whose theta values failed.  One ``theta_columns`` call gives
        the theta values of every draw, one column per draw; a failed
        draw's column, where ``theta_vec`` would raise ``PoleError`` (an
        argument that underflowed to 0), is left at 1.0."""
        e = self._records(draws)
        th, failed = theta_columns(e[self._theta], [draw[0] for draw in draws])
        bound = Bound.of(e, th)
        shape = (size, len(draws))
        re, im, code = np.empty(shape), np.empty(shape), np.zeros(shape, dtype=np.int8)
        rows = self._listed_rows
        re[: len(rows)], im[: len(rows)] = e.real[rows], e.imag[rows]
        for batch, start in zip(self._batches, self._starts):
            got = batch.reduce(bound)
            stop = start + len(got.re)
            re[start:stop], im[start:stop], code[start:stop] = got
        return re, im, code, failed

    def bind_all(self, draws: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Every plan finished at each of ``draws``: (values, codes), both by
        draw and plan position.  ``codes`` (int8) is 0 where the plan
        finished, else the failure code of the error its scalar finish
        raises at the same values (``ERRORS``; ``error`` makes it), and the
        value there is meaningless.  At a draw where a theta argument
        underflowed to 0, every plan has the code of ``theta_vec``'s
        ``PoleError(THETA_RANGE)``, so the bind raises for no draw.  A draw
        is (ctx, lam, omega, z) and, for a template whose records have
        them, the spectral points z1 and z2.

        Every array of the pass has a trailing axis over the draws, and each
        operation is elementwise or gathers along the first axis, so each
        draw's values and codes are what it gets bound alone, bit for bit.
        """
        program = self._program
        re, im, code, failed = self._bind(draws, program.size)
        values, codes = program.run(re, im, code)
        codes[failed] = CODE[THETA_RANGE]
        return values, codes


class Bound(NamedTuple):
    """What the batches of a bound template read: the record values ``e``,
    and the theta values on split arrays with 1.0 appended (index -1), with
    their moduli as ``abs`` gives them and where ``abs`` raises.  Each array
    has one column per draw (``Template.bind_all``)."""

    e: np.ndarray
    re: np.ndarray
    im: np.ndarray
    mag: np.ndarray
    over: np.ndarray

    @staticmethod
    def of(e: np.ndarray, th: np.ndarray) -> "Bound":
        ext = np.empty((len(th) + 1, th.shape[1]), dtype=complex)
        ext[:-1] = th
        ext[-1] = 1.0
        re, im = ext.real.copy(), ext.imag.copy()
        with np.errstate(all="ignore"):
            return Bound(e, re, im, *_c_abs(re, im))


class Reduced(NamedTuple):
    """What a batch (``series._Batch``, ``_Products``) gives a bound
    template: its results by ``rank`` and draw, real and imaginary parts,
    and the failure code of the error its scalar reduction raises there
    (0 where it raises none)."""

    re: np.ndarray
    im: np.ndarray
    code: np.ndarray


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
    raises ``OverflowError``: finite parts whose modulus is beyond range.
    The one modulus of split values; the parts are read again only where a
    modulus is inf."""
    mag = np.hypot(re, im)
    beyond = np.isinf(mag)
    if beyond.any():
        beyond &= np.isfinite(re) & np.isfinite(im)
    return mag, beyond


class _Split:
    """A complex value by row and draw, on split real and imaginary arrays,
    with ``code``, the failure code of the error met computing it (0 where
    none was).  ``*`` and ``/`` are CPython's (``_c_mul``, ``_c_div``), so a
    reduction written with them runs unchanged on split values
    (``array_form``); each keeps the first failure of its operands, and
    ``/`` then fails where the divisor is exactly 0j, where Python raises
    ``ZeroDivisionError``."""

    __slots__ = ("re", "im", "code")

    def __init__(self, re: np.ndarray, im: np.ndarray, code: np.ndarray):
        self.re, self.im, self.code = re, im, code

    def __mul__(self, other: "_Split") -> "_Split":
        return _Split(*_c_mul(self.re, self.im, other.re, other.im), _either(self.code, other.code))

    def __truediv__(self, other: "_Split") -> "_Split":
        zero = (other.re == 0) & (other.im == 0)
        code = _failing(_either(self.code, other.code), zero, COMPLEX_BY_ZERO)
        return _Split(*_c_div(self.re, self.im, other.re, other.im), code)


def _either(code: np.ndarray, later: np.ndarray) -> np.ndarray:
    """``code``, and ``later`` where ``code`` is 0: the first of two failures."""
    return np.where(code != 0, code, later)


def _failing(code: np.ndarray, where: np.ndarray, message: str) -> np.ndarray:
    """``code``, and the code of ``message`` where ``where`` holds and
    ``code`` is 0: a failure after those already met."""
    return np.where(where & (code == 0), CODE[message], code)


def _i32(values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


def _indices(values, count: int) -> np.ndarray:
    """``values``, indices into ``count`` rows, as int16 where that holds
    them, else int32: the programs a template keeps are mostly indices."""
    return np.array(values, dtype=np.int16 if count <= 1 << 15 else np.int32)


ArgLike = Union[TrackedArg, complex, float, int]


def _as_arg(a: ArgLike) -> TrackedArg:
    return a if isinstance(a, TrackedArg) else garg(a)


class Plan:
    """A value reduced from theta values that have not been looked up yet.

    ``args`` lists the theta arguments the reduction reads, in order, and
    ``finish(vals)`` reduces their ``theta_vec`` values, given in the same
    order.  Building a plan looks nothing up, so the plans of a whole check
    can be built first and their arguments looked up together (``combine``).

    A template compiles a plan built over records by its type, not by its
    ``finish`` (``Template``): a record scalar (``known`` of a record), a
    ``Known`` number, a theta product, a joined plan whose reduction has an
    array form, or a series.
    """

    __slots__ = ("ctx", "args", "finish")

    def __init__(self, ctx: ThetaContext, args: list[complex], finish):
        self.ctx = ctx
        self.args = args
        self.finish = finish

    def value(self):
        """Look the arguments up in one ``theta_vec_cached`` call and reduce them."""
        return self.finish(theta_vec_cached(self.args, self.ctx))

def kept_shape(shapes: dict, shape: tuple, build):
    """What ``shapes`` keeps for ``shape``, else ``build()``, kept while
    ``shapes`` holds fewer than ``SHAPE_CAP`` shapes (past that, a shape's
    compiled templates are built for each use)."""
    got = shapes.get(shape)
    if got is None:
        got = build()
        if len(shapes) < SHAPE_CAP:
            shapes[shape] = got
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


_first = operator.itemgetter(0)


def _same(vals: list) -> list:
    return vals


# The array forms of the reductions a joined plan may hold (``array_form``).
_ARRAY_FORMS: dict = {}


def array_form(reduction, form=None):
    """Declare the array form of a joined plan's reduction, or of a
    ``Joined`` subclass, for the finish program of a template (``_Finish``).

    ``form`` takes the values of the parts as ``_Split`` values, a series
    part as the 1-tuple of its value (a reduction reads a series result's
    value only), and gives the plan's.  Without ``form`` the reduction is
    its own array form: products and quotients of its arguments, which run
    on split values as written.  Returns ``reduction``, so that it serves as
    a decorator.
    """
    _ARRAY_FORMS[reduction] = reduction if form is None else form
    return reduction


array_form(operator.mul)


def combine(ctx: ThetaContext, parts: Sequence[Plan], fn) -> Plan:
    """The plan of fn(v_1, ..., v_n) over the values of ``parts``.

    Its arguments are those of the parts, joined in order; the parts are
    finished in order, so the first error is the one evaluating them one by
    one would raise.
    """
    return Joined(ctx, parts, fn)


class Joined(Plan):
    """``combine``'s plan.  It keeps its parts and the cuts between their
    arguments, and joins the arguments only when asked for them: a shape's
    template is built from many joined plans, and each would otherwise keep
    a copy."""

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

    def finish(self, vals: list[complex]):
        cuts = self.cuts
        return self.fn(*[part.finish(vals[a:b]) for part, a, b in zip(self.parts, cuts, cuts[1:])])

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
        out = scalar * prod
        if out == 0 and 0 in nums:
            return out  # a numerator theta value is exactly 0j
        # Else it is finite and, unless its scalar is 0, not 0: a 0 there is
        # a partial product that underflowed, and fails as leaving the range.
        if not cmath.isfinite(out) or (out == 0 and scalar != 0):
            raise PoleError(PRODUCT_RANGE)
        return out

    @staticmethod
    def batch(record, theta, guard: float) -> "_Products":
        """The program that reduces the theta products of a template together."""
        return _Products(theta, guard)


class _Finish:
    """The finish program of a template: every plan of it finished at every
    draw at once, on split arrays, from the program's sources.

    ``Template`` compiles it as it walks its plans: a record scalar reads
    its entry, a ``Known`` number is a constant, a series reads its batch
    result, and a theta product and a joined plan are each an operation on
    the values of their parts, a theta product through ``_scaled`` or
    ``_zeroed`` on its scalar and its batch result, a joined plan through
    the array form of its reduction (``array_form``).

    The values are the rows of three arrays (real and imaginary parts, and
    failure codes), by row and draw: the ``sources`` (``Template._bind``),
    the constants, then the results of the operations.  The operations of
    one kind at one depth (the longest path down to an entry) are one
    group; it gathers its operands with one row of indices per part
    (``operands``), and writes one run of rows.  ``items`` holds the row of
    each plan's value.

    Each value carries the failure code of the error its scalar finish
    raises (``_Split.code``), as that finish meets them: a theta product
    fails at its scalar, then at its batch result (a guard, or a range
    failure), then where it leaves the range (``_scaled``); a joined plan
    at its first failing part, in part order, among the parts its
    reduction reads, then at a division by exactly 0j in its reduction.
    ``run`` returns the plans' values and codes.
    """

    __slots__ = ("size", "sources", "constants", "groups", "operands", "items")

    def __init__(self, gather, sources: int, constants: dict, groups: dict, group_of, place, items):
        """Lay out the program ``Template`` compiled: ``gather`` maps each
        entry to its row, and an operation's row is its group's first row
        plus its ``place`` in the group (``Template.__init__`` has the rest)."""
        # The groups by depth, in order of first use within a depth; each
        # reads rows of lower depths only.  A group: its first row, its
        # count, its number of parts, its form and series parts, and where
        # its operands start, part after part.
        start, at, refs, self.groups = sources + len(constants), 0, [], []
        first = np.empty(len(groups), dtype=np.intp)
        for (_, form, series), (g, count, ops) in sorted(groups.items(), key=lambda kv: kv[0][0]):
            first[g] = start
            self.groups.append((start, count, len(series), form, series, at))
            refs.append(np.asarray(ops).reshape(count, len(series)).T.ravel())
            start += count
            at += len(ops)
        op_rows = first[np.asarray(group_of)] + np.asarray(place)

        def rows(refs) -> np.ndarray:
            out = np.array(refs, dtype=np.intp)
            op = out < 0
            out[~op] = gather[out[~op]]
            out[op] = op_rows[~out[op]]
            return out

        self.size = start
        self.sources = sources
        self.constants = np.array([c for _, c in constants.values()], dtype=complex)
        self.operands = _indices(rows(np.concatenate(refs)) if refs else [], start)
        self.items = _indices(rows(items), start)

    def run(self, re: np.ndarray, im: np.ndarray, code: np.ndarray) -> tuple:
        """(values, codes), both by draw and plan, from the entries' sources
        (``Template._bind``), whose arrays have ``size`` rows.

        A form keeps the failures of the parts it reads; where it fails,
        the operation takes its first failing part, else its own failure."""
        at = slice(self.sources, self.sources + len(self.constants))
        re[at], im[at] = self.constants.real[:, None], self.constants.imag[:, None]
        with np.errstate(all="ignore"):
            for start, count, width, form, series, at in self.groups:
                rows = self.operands[at : at + width * count].reshape(width, count)
                parts = [_Split(re[i], im[i], code[i]) for i in rows]
                out = form(*[(p,) if s else p for p, s in zip(parts, series)])
                stop = start + count
                re[start:stop], im[start:stop], code[start:stop] = out.re, out.im, out.code
                fails = code[start:stop] != 0
                if fails.any():
                    first = functools.reduce(_either, [p.code for p in parts])
                    code[start:stop] = np.where(fails & (first != 0), first, code[start:stop])
        values = np.empty((re.shape[1], len(self.items)), dtype=complex)
        values.real, values.imag = re[self.items].T, im[self.items].T
        return values, code[self.items].T


def _scaled(scalar: _Split, product: _Split) -> _Split:
    """``ThetaProduct.finish`` of products with no surviving exact zero,
    from its scalar and its batch result: the scalar times the product,
    failing where it is not finite or is 0 while the scalar is not, as the
    loop does; a 0 passes where a numerator theta value of the product is
    exactly 0j (``_EXACT``)."""
    exact = product.code == _EXACT
    re, im = _c_mul(scalar.re, scalar.im, product.re, product.im)
    lost = (re == 0) & (im == 0) & ((scalar.re != 0) | (scalar.im != 0)) & ~exact
    out_of_range = lost | ~(np.isfinite(re) & np.isfinite(im))
    code = _either(scalar.code, np.maximum(product.code, 0))
    return _Split(re, im, _failing(code, out_of_range, PRODUCT_RANGE))


def _zeroed(scalar: _Split, product: _Split) -> _Split:
    """``ThetaProduct.finish`` of products with surviving exact zeros: 0,
    once the scalar and the product's guards have passed."""
    return _Split(0.0, 0.0, _either(scalar.code, product.code))


class _Products:
    """The theta products of one template, reduced together on arrays.

    ``reduce`` gives each product, from the template's bound values, what
    ``ThetaProduct.finish`` computes on the same values before it multiplies
    by the scalar, bit for bit, and the failure code of the ``PoleError`` it
    raises there.  It follows the scalar loop: the guard on each
    denominator, in order; no numerator when exact zeros survive (the
    finish program gives 0 then, ``_zeroed``); then the factors num/den of
    the pairs, the numerators left, and 1/den of the denominators left,
    multiplied into 1 + 0j one by one.  The quotients are independent of
    one another, so each distinct one is taken once, all in one call, with
    CPython's formula (``_c_div``).

    A template compiles its products one by one (``add``), and ``close``
    lays out the program, all indices, in the order the products were added
    (``rank``).  Each product is one chain of factors, product after
    product (``starts``), and each chain starts with the 1.0 appended to the
    theta values (index -1).  ``chain`` indexes, for each factor, the
    distinct quotients (theta indices ``num`` over ``div``), then the theta
    values; its factors' numerators are the quotients' numerators (-1 for
    1 / den), and the theta values.  ``reduce`` gathers the chains as
    complex values and takes every running product with one
    ``np.multiply.reduceat`` over the first axis, which is not fused and
    multiplies as CPython's ``*`` does (``theta_vec`` has the measured
    facts, and takes its factor products the same way); the exact-zero
    flags of the numerators are reduced the same way with
    ``np.logical_or.reduceat``.  It gathers and reduces a run of whole
    chains at a time, so that no gathered block exceeds ``BLOCK_BYTES``
    (unless one chain does): a freed temporary above 128 KiB moves glibc's
    mmap threshold, and with it the speed of whatever runs next.

    No caller binds more than ``suites.AHEAD`` (10) draws at once; most
    bind 1 or 2, where the fixed cost per call is what counts.  A block
    holds 8,192 chain entries at one draw and 819 at ten, so a bind takes
    a few blocks: the products of the N = 8 biorth sweep have 15,325.  On
    those products (2-core x86-64, numpy 2.4.6) this pass takes 0.42 ms at
    2 draws, 1.95 ms at 10 and 55 ms at 160, where a loop of one
    ``_c_mul`` step per factor position took 1.14, 2.17 and 59 ms; so no
    draw count calls for another path.
    """

    __slots__ = ("rank", "guard", "num", "div", "chain", "starts", "den", "den_cuts", "_pending")

    def __init__(self, theta, guard: float):
        self.guard = guard
        self._pending = ([], theta)

    def add(self, node: ThetaProduct) -> None:
        """Compile one more product: the theta indices of its denominators
        and of its numerators (none when exact zeros survive)."""
        compiled, theta = self._pending
        dens = array("i", map(theta, node._den))
        nums = array("i", () if node.zeros > 0 else map(theta, node._num))
        compiled.append((dens, nums))

    def close(self) -> None:
        """Lay out the program of the products added.  Factor s of a product
        is nums[s] / dens[s] while both run, then nums[s], or 1 / dens[s]."""
        compiled, _ = self._pending
        self._pending = None
        self.rank = range(len(compiled))

        def pairs(dens, nums):
            return ((nums[s] if s < len(nums) else -1, d) for s, d in enumerate(dens))

        quotients: dict = {}
        for dens, nums in compiled:
            for pair in pairs(dens, nums):
                quotients.setdefault(pair, len(quotients))
        # A theta value's factor index: its theta index after the quotients;
        # -1, the appended 1.0, leads each chain.
        plain = len(quotients)
        chain, starts = array("i"), array("i")
        for dens, nums in compiled:
            starts.append(len(chain))
            chain.append(-1)
            chain.extend(quotients[pair] for pair in pairs(dens, nums))
            chain.extend(plain + a for a in nums[len(dens) :])
        starts.append(len(chain))
        self.num = _i32([a for a, _ in quotients])
        self.div = _i32([b for _, b in quotients])
        self.chain = _indices(chain, max(chain) + 1)
        self.starts = np.array(starts, dtype=np.intp)
        self.den = _i32([d for dens, _ in compiled for d in dens])
        self.den_cuts = _i32([0, *accumulate(len(dens) for dens, _ in compiled)])

    def reduce(self, b: "Bound") -> Reduced:
        """Each product's result and code at each draw, by ``rank`` and draw.

        A product fails at the first denominator, in order, whose modulus is
        below the guard (or overflows, as ``abs`` raises there), with the
        code of what ``ThetaProduct.finish`` raises at it; its value is then
        meaningless.  Where a numerator theta value is exactly 0j and the
        product does not fail, its code is ``_EXACT``."""
        draws = b.re.shape[1]
        shape = (len(self.rank), draws)
        pr, pi = np.empty(shape), np.empty(shape)
        code = np.zeros(shape, dtype=np.int8)
        zero = (b.re == 0) & (b.im == 0)
        # A factor's numerator: that of its quotient (-1, the appended 1.0,
        # for 1 / den), or the theta value itself.
        zeros = np.concatenate((zero[self.num], zero)) if zero.any() else None
        with np.errstate(all="ignore"):
            num, div = self.num, self.div
            qr, qi = _c_div(b.re[num], b.im[num], b.re[div], b.im[div])
            fr, fi = np.concatenate((qr, b.re)), np.concatenate((qi, b.im))
            for first, stop in _blocks(self.starts, draws):
                s0, s1 = self.starts[first], self.starts[stop]
                at = self.chain[s0:s1]
                cuts = self.starts[first:stop] - s0
                g = np.empty((s1 - s0, draws), dtype=complex)
                np.take(fr, at, axis=0, out=g.real, mode="wrap")
                np.take(fi, at, axis=0, out=g.imag, mode="wrap")
                got = np.multiply.reduceat(g, cuts, axis=0)
                pr[first:stop], pi[first:stop] = got.real, got.imag
                if zeros is not None:
                    exact = np.logical_or.reduceat(np.take(zeros, at, axis=0, mode="wrap"), cuts, axis=0)
                    code[first:stop][exact] = _EXACT
        r, k, i = _first_events(b.over | (b.mag < self.guard), self.den, self.den_cuts)
        code[r, k] = np.where(b.mag[i, k] < self.guard, CODE[DEN_GUARD], CODE[PRODUCT_RANGE])
        return Reduced(pr, pi, code)


# Most bytes of one block of gathered chains (``_Products.reduce``).
BLOCK_BYTES = 128 << 10


def _blocks(starts: np.ndarray, draws: int):
    """(first, stop) of each run of whole chains, chains ``first`` to
    ``stop`` - 1, whose complex values at ``draws`` draws fill at most
    ``BLOCK_BYTES``, or of one chain that alone fills more; ``starts``
    holds each chain's first entry, then the total."""
    width = BLOCK_BYTES // (16 * draws)
    first, count = 0, len(starts) - 1
    while first < count:
        stop = int(np.searchsorted(starts, starts[first] + width, side="right")) - 1
        stop = max(stop, first + 1)
        yield first, stop
        first = stop


def _ranked(counts: Sequence[int]) -> tuple[list, array, array]:
    """(order, rank, widths) of a program over items of ``counts`` steps:
    the items by decreasing count, item i's place in that order, and for
    each step s the number of items with more than s steps."""
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    rank = array("i", [0] * len(counts))
    for i, p in enumerate(order):
        rank[p] = i
    widths = array("i", [sum(n > s for n in counts) for s in range(max(counts, default=0))])
    return order, rank, widths


def _steps(widths: Sequence[int]):
    """(w, slice) of each step: its entries, one for each of the first w
    ranked items, lie after those of the steps before it."""
    a = 0
    for w in widths:
        yield w, slice(a, a + w)
        a += w


_NONE = np.zeros(0, dtype=np.intp)


def _first_events(events: np.ndarray, den: np.ndarray, cuts: np.ndarray) -> tuple:
    """(groups, draws, theta indices), as index arrays, of the first guard
    event of each group of denominators, ``den[cuts[g]:cuts[g + 1]]`` in
    that order, at each draw that has one; ``events`` marks, by theta index
    and draw, a modulus below the zero guard or beyond range."""
    if not events.any():
        return _NONE, _NONE, _NONE
    at, draw = np.nonzero(events[den])
    group = np.searchsorted(cuts, at, side="right") - 1
    # ``at`` ascends, so the first entry of each (group, draw) is its first event.
    _, first = np.unique(group * events.shape[1] + draw, return_index=True)
    return group[first], draw[first], den[at[first]]


def pochhammer(a: ArgLike, n: int, ctx: ThetaContext) -> complex:
    """Elliptic Pochhammer symbol of length n in base q^2 (n may be negative)."""
    tp = ThetaProduct(ctx)
    tp.poch(a, n)
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
