"""Terminating very-well-poised balanced series in base (q^2, p).

A series of level r is determined by the leading parameter a1 and the upper
parameters a4, ..., a_{r+1}; term k carries

    theta(a1 q^(4k)) / theta(a1) * q^(2k)
        * (a1)_k prod_i (a_i)_k / [ (q^2)_k prod_i (a1 q^2 / a_i)_k ].

One designated upper parameter must be an exact negative power q^(-2n), which
terminates the sum at k = n.  The balancing constraint, the square of the
product of upper parameters equal to a1^(r-3) q^(2(r-5)), is checked in an
advisory way: exactly when every parameter is tracked, otherwise numerically
up to an integer power of the nome.

The core evaluator accumulates running products column by column (never
recomputing full Pochhammer symbols per term) and supports a merged slot: one
denominator Pochhammer replaced by the partial-product ratio against a
numerator Pochhammer of fixed length.  That is how prefactor zeros cancel
series poles at integer specializations without ever forming 0/0.

A series is built, then evaluated (``vwp_plan``): the build lists the
arguments of its numerator rows, denominator rows, head theta(a1 q^(4k)) and
merged row, and the evaluation takes their values from the context's vector
cache in one lookup per series.  Running products, exact-zero bookkeeping
and the term sum are plain Python loops over those few dozen numbers (see
``theta`` for why).
A term that leaves the double range, whether numpy-style as inf or nan or by
a Python ``OverflowError`` or ``ZeroDivisionError``, raises one ``PoleError``,
from a frame that holds none of the rows: callers that keep the exception
keep its traceback's frames.

Built over records, as part of a template (see ``theta``), a series lists
the term scalars q^(2k) as well, and the template reduces all its series
together when it is bound (``_Batch``): the running products of every row,
every live term and every term sum, in numpy, on split real and imaginary
float64 arrays.  Its bits are the loop's.  It does each operation of
``_vwp_reduce`` in the same order, with CPython's formulas for complex
``*``, ``/`` and ``abs`` (``theta._c_mul``, ``_c_div``, ``_c_abs``, which the
template's theta products use too), and an elementwise float64 operation
rounds as the C operation does.  Where the loop raises, the pass gives the
failure code of the loop's ``PoleError`` (``theta.ERRORS``).
Plans over numbers (``vwp_sum``, corep's ``tau_closed``, the series and
bailey checks) stay on the loop.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import accumulate
from functools import reduce
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .residuals import TINY, scaled
from .theta import (
    A1_GUARD,
    CODE,
    DEN_GUARD,
    DEN_ZERO,
    OUT_OF_RANGE,
    Bound,
    Plan,
    PoleError,
    Reduced,
    ThetaContext,
    ThetaProduct,
    TrackedArg,
    _c_abs,
    _c_div,
    _c_mul,
    _first_events,
    _i32,
    _ranked,
    _steps,
    combine,
    garg,
    known,
    qarg,
    theta_condition,
)

__all__ = [
    "SeriesSpec",
    "SeriesValue",
    "BaileyReport",
    "vwp_plan",
    "vwp_sum",
    "eval_omega",
    "eval_omega_termwise",
    "omega_plan",
    "termwise_plan",
    "bailey_g",
    "bailey_theta_condition",
    "check_bailey",
]


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of one terminating very-well-poised balanced series.

    ``upper`` holds a4, ..., a_{r+1}; ``termination_slot`` indexes the entry
    that must be an exact q^(-2n) power.
    """

    a1: TrackedArg
    upper: tuple[TrackedArg, ...]
    termination_slot: int
    ctx: ThetaContext

    def __post_init__(self) -> None:
        if len(self.upper) < 1:
            raise ValueError("need at least one upper parameter")
        if not 0 <= self.termination_slot < len(self.upper):
            raise ValueError("termination_slot out of range")
        t = self.upper[self.termination_slot]
        if not (t.is_one and t.s <= 0):
            raise ValueError("termination slot must be an exact q^(-2n) power, n >= 0")

    @property
    def termination_index(self) -> int:
        return -self.upper[self.termination_slot].s

    @property
    def level(self) -> int:
        """r in the r+1-on-r counting: upper parameters are a4..a_{r+1}."""
        return len(self.upper) + 2

    def balancing_warning(self) -> Optional[str]:
        """None when balanced; otherwise a description of the defect.

        Exact additive check when all parameters are tracked powers; numeric
        check up to an integer power of p otherwise.
        """
        r = self.level
        if self.a1.is_one and all(u.is_one for u in self.upper):
            lhs = 2 * sum(u.s for u in self.upper)
            rhs = (r - 3) * self.a1.s + (r - 5)
            if lhs != rhs:
                return f"unbalanced: exact exponent defect {lhs - rhs}"
            return None
        ctx = self.ctx
        unchecked = "balance not checked: parameter product beyond double precision range"
        prod = np.prod([u.value(ctx) for u in self.upper])
        try:
            target = self.a1.value(ctx) ** (r - 3) * ctx.qpow(2 * (r - 5))
        except OverflowError:  # Python's complex power raises where numpy gives inf
            return unchecked
        if target == 0:
            return "unbalanced: degenerate target"
        ratio = prod * prod / target
        mag = abs(ratio)
        if not np.isfinite(mag):
            return unchecked
        if mag == 0:
            return "unbalanced: vanishing parameter product"
        tshift = round(-np.log(mag) / np.log(ctx.p))
        defect = abs(ratio * ctx.p**tshift - 1.0)
        if defect > 1e-8:
            return f"unbalanced: defect {defect:.3e} after nome shift {tshift}"
        return None


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    terms: int
    max_term_magnitude: float
    warnings: tuple[str, ...] = ()


def _poch_args(
    ctx: ThetaContext, params: Sequence[TrackedArg], length: int, q2pow: list[complex]
) -> list[complex]:
    """The factor arguments of (params[r])_length for each row r, in row order.

    ``q2pow`` holds q^(2i) for at least i = 0..length-1.
    """
    ladder = q2pow[:length]
    return [g * w for g in [ta.value(ctx) for ta in params] for w in ladder]


def _poch_columns(
    raw: list[complex], params: Sequence[TrackedArg], length: int
) -> tuple[list[list[complex]], list[int], list[complex]]:
    """Running Pochhammer products for each parameter over lengths 0..length.

    ``raw`` holds the theta values of the ``_poch_args`` arguments and is
    changed in place.  Returns (rows, zero_at, raw): rows[r][i] is the
    product of the nonzero factors of (params[r])_i, zero_at[r] the index of
    the exact zero factor of row r (``length`` when there is none below it),
    raw the factor values of all rows in row order, with exact zeros
    replaced by 1.
    """
    zero_at = [-ta.s if ta.is_one and 0 <= -ta.s < length else length for ta in params]
    rows = []
    for r, z in enumerate(zero_at):
        if z < length:
            raw[r * length + z] = 1.0 + 0.0j
        rows.append([1.0 + 0.0j, *accumulate(raw[r * length : (r + 1) * length], mul)])
    return rows, zero_at, raw


def _vwp_reduce(
    ctx: ThetaContext,
    a1: TrackedArg,
    nums: list[TrackedArg],
    dens: list[TrackedArg],
    merged: Optional[tuple[TrackedArg, int]],
    n: int,
    q2pow: list[complex],
    vals: list[complex],
) -> Optional[tuple[complex, float, int]]:
    """The reduction of ``vwp_sum`` from the values of its arguments; None
    when a live term is not finite.

    Division by an underflowed running product raises ZeroDivisionError and
    ``abs`` of a finite term beyond double range raises OverflowError, where
    array arithmetic would give inf or nan; the caller maps all three cases
    to the same ``PoleError``.
    """
    cut = len(nums) * n
    ncum, nzero, _ = _poch_columns(vals[:cut], nums, n)
    dcum, dzero, draw = _poch_columns(vals[cut : cut + len(dens) * n], dens, n)
    if min(dzero) < n:
        raise PoleError(DEN_ZERO)
    cut += len(dens) * n
    head, th_a1 = vals[cut : cut + n + 1], vals[cut + n + 1]
    if any(abs(v) < ctx.zero_guard for v in draw):
        raise PoleError(DEN_GUARD)
    if abs(th_a1) < ctx.zero_guard:
        raise PoleError(A1_GUARD)

    # Term k is live when no exact zero survives in it: none among the
    # first k factors of a numerator row, none in the head theta(a1 q^(4k)),
    # and, with a merged slot (c, J), none among the factors k..J-1 of (c)_J.
    last = min(nzero)
    mzero = -1
    if merged is not None:
        big_j = merged[1]
        (mrow,), (mz,), _ = _poch_columns(vals[cut + n + 2 :], [merged[0]], big_j)
        if mz < big_j:
            mzero = mz
    live = [k for k in range(mzero + 1, last + 1) if not a1.theta_is_zero(2 * k)]

    # Interleave numerator and denominator rows so the running product stays
    # near the scale of the final term; separate products can overflow even
    # when every term is representable.
    terms = [head[k] / th_a1 * q2pow[k] for k in live]
    if merged is not None:
        terms = [t * (mrow[big_j] / mrow[k]) for t, k in zip(terms, live)]
    for i in range(max(len(ncum), len(dcum))):
        if i < len(ncum):
            row = ncum[i]
            terms = [t * row[k] for t, k in zip(terms, live)]
        if i < len(dcum):
            row = dcum[i]
            terms = [t / row[k] for t, k in zip(terms, live)]
    value = 0.0 + 0.0j
    max_term = 0.0
    for t in terms:
        if not cmath.isfinite(t):
            return None
        value += t
        max_term = max(max_term, abs(t))
    return value, max_term, live[-1] + 1 if live else 0


class _Series(Plan):
    """The plan of ``vwp_sum``.

    Its arguments are the term scalars q^(2k) when they are records, the
    numerator rows, the denominator rows, the head theta(a1 q^(4k)) for
    k = 0..n followed by theta(a1), and the merged row; they are listed when
    asked for, from the parameters the plan keeps.  ``finish`` raises
    ``PoleError`` where the reduction raises or a term is out of range.
    """

    __slots__ = ("a1", "nums", "dens", "merged", "n", "q2pow", "ladder")

    def __init__(
        self,
        ctx: ThetaContext,
        a1: TrackedArg,
        numer: Sequence[TrackedArg],
        denom: Sequence[TrackedArg],
        n: int,
        merged: Optional[tuple[TrackedArg, int]],
    ):
        if n < 0:
            raise ValueError("termination index must be >= 0")
        if a1.theta_is_zero():
            raise PoleError("leading series parameter hits an exact zero")
        big_j = n if merged is None else merged[1]
        if big_j < n:
            raise ValueError("merged numerator length must cover the sum range")
        self.ctx, self.a1, self.merged, self.n = ctx, a1, merged, n
        self.nums, self.dens = (a1, *numer), (qarg(1), *denom)
        q2 = ctx.qpow(2)
        self.q2pow = [q2**i for i in range(max(2 * n + 1, big_j))]
        # The term scalars: numbers, or records bound per sample.
        self.ladder = known(ctx, self.q2pow[: n + 1])

    @property
    def args(self) -> list:
        ctx, n, q2pow = self.ctx, self.n, self.q2pow
        g = self.a1.value(ctx)
        args = self.ladder.args + _poch_args(ctx, self.nums, n, q2pow)
        args += _poch_args(ctx, self.dens, n, q2pow)
        args += [g * q2pow[2 * k] for k in range(n + 1)] + [g]
        if self.merged is not None:
            args += _poch_args(ctx, [self.merged[0]], self.merged[1], q2pow)
        return args

    def finish(self, vals: list[complex]) -> tuple[complex, float, int]:
        cut = len(self.ladder.args)
        try:
            out = _vwp_reduce(
                self.ctx, self.a1, self.nums, self.dens, self.merged, self.n,
                self.ladder.finish(vals[:cut]), vals[cut:] if cut else vals,
            )
        except (OverflowError, ZeroDivisionError):
            out = None
        # Raised here, once the rows' frame is gone and outside the handler:
        # a kept exception keeps every frame of its traceback (and of its
        # context) alive, and callers may keep many.
        if out is None:
            raise PoleError(OUT_OF_RANGE)
        return out

    @staticmethod
    def batch(record, theta, guard: float) -> "_Batch":
        """The program that reduces the series of a template together."""
        return _Batch(record, theta, guard)


class _Batch:
    """The series plans of one template, reduced together on split arrays.

    ``reduce`` takes the template's record values and theta values and gives
    each series the value ``_Series.finish`` gives it on the same values,
    bit for bit, and the failure code of the ``PoleError`` its ``finish``
    raises there.  It
    follows ``_vwp_reduce`` step by step: each value is formed by the same
    operations, in the same order, as in the scalar loop, with CPython's
    complex formulas (``_c_mul``, ``_c_div``, ``_c_abs``), and float64 array
    arithmetic rounds each operation as C does.  What differs is bookkeeping:
    the live terms and exact zeros are decided at compile time, equal rows
    share their running products, and a term that fails (a nan or inf part,
    an exact 0j divisor, a modulus beyond range) fails its series, as a
    raise or a non-finite term fails the scalar reduction.

    A template compiles its series one by one (``add``), as it walks its
    plans, and ``close`` lays out the program, all int32 indices: ``rank``
    orders the series by decreasing live-term count; terms are laid out
    count position by count position (``widths``), so each term sum is a
    run of slice additions.  ``factors`` (length by row) indexes each
    deduplicated row's theta factors, -1 the 1 an exact zero factor is
    replaced by (and padding); the term steps index the running products
    flat, k * rows + row.
    """

    __slots__ = (
        "rank", "guard", "den_zero", "widths", "factors", "head", "a1", "q2",
        "merged", "steps", "den", "den_cuts", "series_a1", "_pending",
    )

    def __init__(self, record, theta, guard: float):
        # While compiling: the series compiled so far, their rows, and the
        # template's indexing of records and theta arguments.
        self.guard = guard
        self._pending = ([], {}, record, theta)

    def add(self, node: _Series) -> None:
        """Compile one more series; ``close`` ends compiling."""
        compiled, rows, record, theta = self._pending
        compiled.append(_compile(node, rows, record, theta))

    def close(self) -> None:
        """Lay out the program of the series added, in int32 arrays."""
        compiled, rows, _, _ = self._pending
        self._pending = None
        order, self.rank, self.widths = _ranked([len(c.live) for c in compiled])
        # The guards, series by series in ``rank`` order.
        ranked = [compiled[s] for s in order]
        self.den_zero = _i32([r for r, c in enumerate(ranked) if c.den_zero])
        self.den = _i32([i for c in ranked for i in c.den])
        self.den_cuts = _i32([0, *accumulate(len(c.den) for c in ranked)])
        self.series_a1 = _i32([c.a1 for c in ranked])

        # The terms, position by position: term j of each series that has one.
        # A running product is indexed flat, k * nrows + row.
        nrows = len(rows)
        terms = [(compiled[s], j) for j, width in enumerate(self.widths) for s in order[:width]]
        self.head = _i32([c.head[j] for c, j in terms])
        self.a1 = _i32([c.a1 for c, _ in terms])
        self.q2 = _i32([c.q2[j] for c, j in terms])
        merged = _select(
            c.merged and (c.merged[1] * nrows + c.merged[0], c.live[j] * nrows + c.merged[0])
            for c, j in terms
        )
        self.merged = merged and (merged[0], *map(_i32, zip(*merged[1])))
        self.steps = []
        for p in range(max((len(c.ops) for c in compiled), default=0)):
            for is_div in (False, True):
                step = _select(
                    c.live[j] * nrows + c.ops[p][1] if p < len(c.ops) and c.ops[p][0] == is_div else None
                    for c, j in terms
                )
                if step is not None:
                    self.steps.append((is_div, step[0], _i32(step[1])))
        length = max(map(len, rows), default=0)
        self.factors = np.full((length, nrows), -1, dtype=np.int32)
        for row, r in rows.items():
            self.factors[: len(row), r] = row

    def reduce(self, b: Bound) -> Reduced:
        """Each series' value and code at each draw, by ``rank`` and draw,
        from the template's bound values.  A series fails, as the scalar
        reduction raises, at an exact zero among its denominator factors,
        else at the first denominator factor, in row order, else at theta(a1),
        whose modulus is below the guard (or overflows, as ``abs`` raises
        there), else at a term that is not finite."""
        tr, ti, mag = b.re, b.im, b.mag
        draws = tr.shape[1]
        events = b.over | (mag < self.guard)
        with np.errstate(all="ignore"):
            # Running products of the rows: P[0] = 1, P[1] the first factor.
            f = self.factors
            nrows = f.shape[1]
            pr = np.empty((len(f) + 1, nrows, draws))
            pi = np.empty_like(pr)
            pr[0], pi[0] = 1.0, 0.0
            if len(f):
                pr[1], pi[1] = tr[f[0]], ti[f[0]]
            for i in range(1, len(f)):
                pr[i + 1], pi[i + 1] = _c_mul(pr[i], pi[i], tr[f[i]], ti[f[i]])
            pr, pi = pr.reshape(-1, draws), pi.reshape(-1, draws)
            # The terms: head / theta(a1) * q^(2k), times the merged ratio,
            # then the rows, numerators and denominators interleaved.
            ar, ai = _c_div(tr[self.head], ti[self.head], tr[self.a1], ti[self.a1])
            ar, ai = _c_mul(ar, ai, b.e.real[self.q2], b.e.imag[self.q2])
            if self.merged is not None:
                sel, num, den = self.merged
                ar, ai = _apply(_c_mul, ar, ai, sel, *_c_div(pr[num], pi[num], pr[den], pi[den]))
            for is_div, sel, idx in self.steps:
                ar, ai = _apply(_c_div if is_div else _c_mul, ar, ai, sel, pr[idx], pi[idx])
            finite = np.isfinite(np.hypot(ar, ai))
            # The sums over each series' live terms, left to right.
            shape = (len(self.rank), draws)
            vr, vi = np.zeros(shape), np.zeros(shape)
            failed = np.zeros(shape, dtype=bool)
            for w, at in _steps(self.widths):
                vr[:w] += ar[at]
                vi[:w] += ai[at]
                failed[:w] |= ~finite[at]
        code = np.where(failed, CODE[OUT_OF_RANGE], 0).astype(np.int8)
        a1 = events[self.series_a1]
        r, k, i = _first_events(events, self.den, self.den_cuts)
        a1[r, k] = False
        code[r, k] = np.where(mag[i, k] < self.guard, CODE[DEN_GUARD], CODE[OUT_OF_RANGE])
        r, k = np.nonzero(a1)
        i = self.series_a1[r]
        code[r, k] = np.where(mag[i, k] < self.guard, CODE[A1_GUARD], CODE[OUT_OF_RANGE])
        code[self.den_zero] = CODE[DEN_ZERO]
        return Reduced(vr, vi, code)


class _Compiled(NamedTuple):
    """One series as ``_Batch`` takes it in.

    ``den_zero``: whether every reduction of the series raises at an exact
    zero among its denominator factors (``DEN_ZERO``); ``a1`` indexes
    theta(a1), ``den`` the denominator factors in row order, for the
    guards.  ``live`` lists the live terms k, ``head`` and ``q2`` index
    theta(a1 q^(4k)) and q^(2k) for each; ``merged`` is the merged row and
    its length, or None; ``ops`` the (divide?, row) operations of a term, in
    order.
    """

    den_zero: bool
    a1: int
    den: Sequence[int]
    live: Sequence[int] = ()
    head: Sequence[int] = ()
    q2: Sequence[int] = ()
    merged: Optional[tuple[int, int]] = None
    ops: Sequence[tuple[bool, int]] = ()


def _compile(node: _Series, rows: dict, record, theta) -> _Compiled:
    """Compile one series: ``record`` and ``theta`` index its records and
    theta arguments in the template, ``rows`` its rows' factors, shared
    among the series."""
    n, args = node.n, node.args

    # The layout of the arguments: term scalars, numerator rows, denominator
    # rows, head, theta(a1), merged row.
    def rows_at(cut: int, params: tuple) -> list:
        return [args[cut + r * n : cut + (r + 1) * n] for r in range(len(params))]

    cut = n + 1
    nums = rows_at(cut, node.nums)
    cut += len(node.nums) * n
    dens = rows_at(cut, node.dens)
    cut += len(node.dens) * n
    head, a1 = args[cut : cut + n + 1], theta(args[cut + n + 1])

    def zero_at(ta, length):
        return -ta.s if ta.is_one and 0 <= -ta.s < length else length

    if min(zero_at(ta, n) for ta in node.dens) < n:
        return _Compiled(True, a1, [])
    den = [theta(rec) for row in dens for rec in row]
    # Term k is live as in ``_vwp_reduce``: no exact zero among the first k
    # factors of a numerator row, in the head, or among the merged factors
    # k..J-1.
    last = min(zero_at(ta, n) for ta in node.nums)
    first = 0
    if node.merged is not None:
        mlen = node.merged[1]
        mzero = zero_at(node.merged[0], mlen)
        first = mzero + 1 if mzero < mlen else 0
    live = [k for k in range(first, last + 1) if not node.a1.theta_is_zero(2 * k)]
    if not live:
        return _Compiled(False, a1, den)

    def row_id(factors) -> int:
        return rows.setdefault(tuple(factors), len(rows))

    merged = None
    if node.merged is not None:
        merged_factors = (-1 if i == mzero else theta(rec) for i, rec in enumerate(args[cut + n + 2 :]))
        merged = (row_id(merged_factors), mlen)
    num_rows = [row_id(map(theta, row[:last])) for row in nums]
    den_rows = [row_id(map(theta, row)) for row in dens]
    ops = []
    for i in range(max(len(num_rows), len(den_rows))):
        if i < len(num_rows):
            ops.append((False, num_rows[i]))
        if i < len(den_rows):
            ops.append((True, den_rows[i]))
    heads = [theta(head[k]) for k in live]
    q2 = [record(args[k].rec) for k in live]
    return _Compiled(False, a1, den, live, heads, q2, merged, ops)


def _apply(op, ar, ai, sel, br, bi):
    """``op`` on the terms ``sel`` selects (a full slice: every term)."""
    if type(sel) is slice:
        return op(ar, ai, br, bi)
    ar[sel], ai[sel] = op(ar[sel], ai[sel], br, bi)
    return ar, ai


def _select(entries) -> Optional[tuple]:
    """(sel, present): the entries that are not None, and the indices that
    select them, a full slice when they all are; None when none is."""
    entries = list(entries)
    present = [x for x in entries if x is not None]
    if not present:
        return None
    if len(present) == len(entries):
        return slice(None), present
    return _i32([i for i, x in enumerate(entries) if x is not None]), present


def vwp_plan(
    ctx: ThetaContext,
    a1: TrackedArg,
    numer: Sequence[TrackedArg],
    denom: Sequence[TrackedArg],
    n: int,
    merged: Optional[tuple[TrackedArg, int]] = None,
) -> Plan:
    """The plan of ``vwp_sum(ctx, a1, numer, denom, n, merged)``."""
    return _Series(ctx, a1, numer, denom, n, merged)


def vwp_sum(
    ctx: ThetaContext,
    a1: TrackedArg,
    numer: Sequence[TrackedArg],
    denom: Sequence[TrackedArg],
    n: int,
    merged: Optional[tuple[TrackedArg, int]] = None,
) -> tuple[complex, float, int]:
    """Sum of terms k = 0..n of the very-well-poised structure.

    ``numer`` holds the upper parameters (without a1, which is included
    automatically), ``denom`` the explicit denominator parameters (without
    q^2, also automatic).  ``merged``, when given, is a pair (c, J): the
    denominator Pochhammer (c)_k is evaluated as the ratio (c)_J / (c)_k,
    i.e. multiplied in numerator position as the partial product over
    i = k..J-1; J >= n is required.  Returns (value, max term magnitude,
    index of last contributing term + 1).  All theta values of the series
    come from one lookup.
    """
    return _Series(ctx, a1, numer, denom, n, merged).value()


def _denominators(spec: SeriesSpec) -> list[TrackedArg]:
    """The slots a1 q^2 / a_i derived by tracked division."""
    a1, ctx = spec.a1, spec.ctx
    out = []
    for u in spec.upper:
        out.append(
            TrackedArg(
                a1.s + 1 - u.s,
                a1.generic / u.generic,
                a1.is_one and u.is_one,
            )
        )
    return out


def eval_omega(spec: SeriesSpec) -> SeriesValue:
    """Evaluate a terminating series by running-product accumulation."""
    warnings = ()
    w = spec.balancing_warning()
    if w is not None:
        warnings = (w,)
    dens = _denominators(spec)
    value, max_term, terms = vwp_sum(spec.ctx, spec.a1, spec.upper, dens, spec.termination_index)
    return SeriesValue(value, terms, max_term, warnings)


def omega_plan(spec: SeriesSpec) -> Plan:
    """The plan of the series ``eval_omega`` sums: (value, max term
    magnitude, index of last contributing term + 1)."""
    return vwp_plan(spec.ctx, spec.a1, spec.upper, _denominators(spec), spec.termination_index)


def termwise_plan(spec: SeriesSpec) -> Plan:
    """The plan of ``eval_omega_termwise``: each term a fresh theta product
    of full Pochhammer symbols, the terms added left to right.

    Slow path used to cross-check the accumulating evaluator; identical
    semantics including exact zero and pole handling.  Every term is built
    before any is finished, so an exact zero in a denominator raises at the
    build; the terms are then finished in order, and the first that fails
    raises.
    """
    ctx = spec.ctx
    dens = _denominators(spec)
    terms = []
    for k in range(spec.termination_index + 1):
        tp = ThetaProduct(ctx, ctx.qpow(2 * k))
        tp.theta(spec.a1.shifted(2 * k))
        tp.theta(spec.a1, inv=True)
        tp.poch(spec.a1, k)
        for u in spec.upper:
            tp.poch(u, k)
        tp.poch(qarg(1), k, inv=True)
        for d in dens:
            tp.poch(d, k, inv=True)
        terms.append(tp)
    return combine(ctx, terms, lambda *values: reduce(add, values, 0.0 + 0.0j))


def eval_omega_termwise(spec: SeriesSpec) -> complex:
    """Naive per-term evaluation (``termwise_plan``), in one lookup."""
    return termwise_plan(spec).value()


def bailey_g(a: complex, b: complex, c: complex, d: complex, e: complex, f: complex, n: int, ctx: ThetaContext) -> complex:
    """The last upper parameter forced by b c d e f g = a^3 q^(2(n+2))."""
    return a**3 * ctx.qpow(2 * (n + 2)) / (b * c * d * e * f)


@dataclass(frozen=True)
class BaileyReport:
    """Two-sided comparison with the largest-term conditioning estimate.

    ``condition`` bounds how much cancellation the two sums hide; the
    achievable residual at double precision is roughly 1e-16 * condition.
    """

    lhs: complex
    rhs: complex
    residual: float
    condition: float


def _bailey_sides(
    a: complex, b: complex, c: complex, d: complex, e: complex, f: complex, n: int,
    ctx: ThetaContext,
) -> tuple[SeriesSpec, SeriesSpec, tuple[complex, ...], tuple[complex, ...]]:
    """The two series of the transformation, and the numerator and denominator
    parameters of the right side's Pochhammer prefactor."""
    g = bailey_g(a, b, c, d, e, f, n, ctx)
    lam = a * a * ctx.qpow(2) / (b * c * d)
    lhs_spec = SeriesSpec(
        garg(a),
        (garg(b), garg(c), garg(d), garg(e), garg(f), garg(g), qarg(-n)),
        termination_slot=6,
        ctx=ctx,
    )
    rhs_spec = SeriesSpec(
        garg(lam),
        (
            garg(lam * b / a),
            garg(lam * c / a),
            garg(lam * d / a),
            garg(e),
            garg(f),
            garg(g),
            qarg(-n),
        ),
        termination_slot=6,
        ctx=ctx,
    )
    q2 = ctx.qpow(2)
    nums = (a * q2, a * q2 / (e * f), lam * q2 / e, lam * q2 / f)
    dens = (a * q2 / e, a * q2 / f, lam * q2 / (e * f), lam * q2)
    return lhs_spec, rhs_spec, nums, dens


def check_bailey(
    a: complex,
    b: complex,
    c: complex,
    d: complex,
    e: complex,
    f: complex,
    n: int,
    ctx: ThetaContext,
) -> BaileyReport:
    """Two-term transformation between terminating series of level nine.

    The left series has uppers (b, c, d, e, f, g, q^(-2n)) with g determined
    by the product constraint; the right series replaces (b, c, d) by their
    reflections through lam = a^2 q^2 / (b c d) and carries an explicit
    four-by-four Pochhammer prefactor.
    """
    lhs_spec, rhs_spec, nums, dens = _bailey_sides(a, b, c, d, e, f, n, ctx)
    pref = ThetaProduct(ctx)
    for num in nums:
        pref.poch(garg(num), n)
    for den in dens:
        pref.poch(garg(den), n, inv=True)
    lhs_eval = eval_omega(lhs_spec)
    rhs_eval = eval_omega(rhs_spec)
    pref_value = pref.value()
    lhs = lhs_eval.value
    rhs = pref_value * rhs_eval.value
    denom = abs(lhs) + abs(rhs) + TINY
    peak = max(lhs_eval.max_term_magnitude, abs(pref_value) * rhs_eval.max_term_magnitude)
    return BaileyReport(lhs, rhs, scaled(lhs, rhs, TINY), (peak + denom) / denom)


def _series_factor_args(spec: SeriesSpec) -> list[complex]:
    """The arguments of the theta factors of the series' terms, exact zeros left out."""
    ctx, n = spec.ctx, spec.termination_index
    rows = [spec.a1, *spec.upper, qarg(1), *_denominators(spec)]
    args = [ta.value(ctx, i) for ta in rows for i in range(n) if not ta.theta_is_zero(i)]
    return args + [spec.a1.value(ctx, 2 * k) for k in range(n + 1)]


def bailey_theta_condition(
    a: complex, b: complex, c: complex, d: complex, e: complex, f: complex, n: int,
    ctx: ThetaContext,
) -> float:
    """The largest ``theta_condition`` over the theta factors of both sides' terms.

    ``BaileyReport.condition`` counts the cancellation between terms; a
    factor near a zero of theta (in the terminating row when p lies close to
    a power of q^2) multiplies the rounding of every term it enters by this.
    """
    lhs_spec, rhs_spec, nums, dens = _bailey_sides(a, b, c, d, e, f, n, ctx)
    q2 = ctx.qpow(2)
    args = [x * q2**i for x in nums + dens for i in range(n)]
    args += _series_factor_args(lhs_spec) + _series_factor_args(rhs_spec)
    return max(theta_condition(z, ctx.p) for z in args)
