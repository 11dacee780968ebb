"""The series of a bound template, reduced together, against the scalar reduction.

Binding a template reduces every series of it in one pass over split
real and imaginary float64 arrays (``series._Batch``), with CPython's own
formulas for complex ``*``, ``/`` and ``abs``.  Each series' value, bound
as a plan of a template (``Template.bind_all``), must equal, bit for bit,
what ``_Series.finish`` gives on the same bound values, and each failure
must carry the ``PoleError`` message the scalar path raises.
"""

import math

import numpy as np
import pytest

from ellu2 import suites
from ellu2.biorth import BiorthParams
from ellu2.sampling import draw_context, draw_lambda, draw_z
from ellu2.series import (
    A1_GUARD,
    DEN_GUARD,
    DEN_ZERO,
    OUT_OF_RANGE,
    _c_abs,
    _c_div,
    _c_mul,
    _Series,
    vwp_plan,
)
from ellu2.theta import (
    LAM,
    OMEGA,
    Joined,
    Plan,
    PoleError,
    Template,
    TemplateContext,
    ThetaContext,
    ThetaProduct,
    error,
    garg,
    qarg,
)

# -- the arithmetic twin --------------------------------------------------------


def split(values):
    arr = np.array(values, dtype=complex)
    return arr.real.copy(), arr.imag.copy()


def assert_bits(got, want):
    """Equal bit for bit, signed zeros included; a nan matches any nan."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def python_results(a, b):
    """Python's a * b, a / b, a + b and abs(a), element by element; a raise
    is recorded as None."""
    out = {"mul": [], "div": [], "add": [], "abs": []}
    for x, y in zip(a, b):
        out["mul"].append(x * y)
        out["add"].append(x + y)
        try:
            out["div"].append(x / y)
        except ZeroDivisionError:
            out["div"].append(None)
        try:
            out["abs"].append(abs(x))
        except OverflowError:
            out["abs"].append(None)
    return out


def assert_twin_matches(a, b):
    with np.errstate(all="ignore"):
        return _assert_twin_matches(a, b)


def _assert_twin_matches(a, b):
    ar, ai = split(a)
    br, bi = split(b)
    want = python_results(a, b)
    for name, twin in (("mul", _c_mul(ar, ai, br, bi)), ("add", (ar + br, ai + bi))):
        wr, wi = split(want[name])
        assert_bits(twin[0], wr)
        assert_bits(twin[1], wi)
    # An exact 0j divisor: Python raises, the twin gives nan in both parts.
    qr, qi = _c_div(ar, ai, br, bi)
    raised = np.array([w is None for w in want["div"]])
    assert np.array_equal(raised, (br == 0) & (bi == 0))
    assert np.isnan(qr[raised]).all() and np.isnan(qi[raised]).all()
    wr, wi = split([w for w in want["div"] if w is not None])
    assert_bits(qr[~raised], wr)
    assert_bits(qi[~raised], wi)
    # abs raises OverflowError exactly where the twin flags an overflow.
    mag, over = _c_abs(ar, ai)
    raised = np.array([w is None for w in want["abs"]])
    assert np.array_equal(raised, over)
    assert_bits(mag[~raised], [w for w in want["abs"] if w is not None])
    return raised


def test_twin_equals_python_on_random_pairs():
    rng = np.random.default_rng(20240)
    n = 40_000

    def wide(size):
        # Magnitudes over the whole double range, with random signs.
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-307, 307, size)

    parts = [
        rng.standard_normal((4, n)),
        np.stack([wide(n) for _ in range(4)]),
        np.stack([rng.standard_normal(n), wide(n), wide(n), rng.standard_normal(n)]),
    ]
    re_a, im_a, re_b, im_b = np.concatenate(parts, axis=1)
    a = (re_a + 1j * im_a).tolist()
    b = (re_b + 1j * im_b).tolist()
    assert len(a) >= 100_000
    assert_twin_matches(a, b)


def test_twin_equals_python_on_edge_cases():
    tiny = 5e-324
    specials = [
        0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 3.0,
        tiny, -tiny, 1e-310, 2.2250738585072014e-308, 1e-300,
        1e300, 1e308, -1.7976931348623157e308,
        math.inf, -math.inf, math.nan,
    ]
    values = [complex(x, y) for x in specials for y in specials]
    a = [x for x in values for _ in values]
    b = [y for _ in values for y in values]
    raised = assert_twin_matches(a, b)
    # The cases the list is meant to hold.
    br, bi = split(b)
    assert np.any(np.abs(br) == np.abs(bi)) and np.any(np.abs(br) < np.abs(bi))
    assert np.any((br == 0) & (bi == 0) & (np.signbit(br) | np.signbit(bi)))
    assert raised.any()  # abs beyond range
    with np.errstate(all="ignore"):
        qr, qi = _c_div(*split(a), br, bi)
    assert np.any(np.isinf(qr) & np.isfinite(split(a)[0]) & np.isfinite(br) & np.isfinite(bi))


# -- every series of the sweep templates ------------------------------------------


def batched(plan, kind):
    """Every plan of ``kind`` in ``plan``, in the order a template walks
    them: those in a theta product's plan scalar, and the parts of a joined
    plan in order."""
    if isinstance(plan, kind):
        yield plan
    elif isinstance(plan, ThetaProduct) and isinstance(plan.scalar, Plan):
        yield from batched(plan.scalar, kind)
    elif isinstance(plan, Joined):
        for part in plan.parts:
            yield from batched(part, kind)


def hexes(result):
    """The bits of a series' value, or the message of its failure."""
    if isinstance(result, str):
        return result
    value = result[0] if isinstance(result, tuple) else result
    return value.real.hex(), value.imag.hex()


class BoundSeries:
    """The series of plans built over records, in plan order, each a plan
    of a template of their own, bound on arrays and reduced by their scalar
    ``finish`` (``scalar_finish``)."""

    def __init__(self, plans, scalar_finish):
        nodes = [node for _, plan in plans for node in batched(plan, _Series)]
        self.nodes = list(enumerate(nodes))
        self.template = Template(self.nodes)
        self.scalar_finish = scalar_finish

    def batch(self, sample):
        """Each series' value on arrays at ``sample``, or the message of its failure."""
        (values,), (codes,) = self.template.bind_all([sample])
        return [str(error(c)) if c else v for v, c in zip(values.tolist(), codes.tolist())]

    def scalar(self, sample):
        """What ``_Series.finish`` gives each series, (value, max term,
        count), or the message its ``finish`` raises."""
        [(values, failed)] = self.scalar_finish(self.nodes, [sample])
        return [str(failed[i]) if i in failed else v for i, v in enumerate(values)]

    def compare(self, sample) -> list:
        batch, scalar = self.batch(sample), self.scalar(sample)
        assert list(map(hexes, batch)) == list(map(hexes, scalar))
        return scalar


def sweep_series(bp, plans, scalar_finish):
    """The series of the sweep of the shape of ``bp``, from the shared sweep
    plans ``plans`` (the ``sweep_plans`` fixture)."""
    return BoundSeries(plans(bp.N, bp.M, bp.ctx.zero_guard), scalar_finish)


def sample(bp):
    return bp.ctx, bp.Lam, bp.omega, bp.z


@pytest.mark.parametrize("N", range(1, 9))
def test_every_series_of_every_sweep_equals_the_scalar_reduction(N, sweep_plans, scalar_finish):
    # One sweep holds the items of the direct and the dual checks.
    rng = np.random.default_rng([31337, N])
    for M in range(3):
        series = None
        for _ in range(3):
            bp = BiorthParams(N, draw_lambda(rng), M, draw_lambda(rng), draw_z(rng), draw_context(rng))
            series = series or sweep_series(bp, sweep_plans, scalar_finish)
            results = series.compare(sample(bp))
            assert any(not isinstance(r, str) and r[2] > 1 for r in results)


def test_the_pinned_overflow_draws_fail_as_the_scalar_path(monkeypatch, sweep_plans, scalar_finish):
    # The level-8 table at seed 20240 redraws twice on a series overflow.
    failed = []

    rows = suites.sweep_rows

    def recording(bps, dual):
        got = rows(bps, dual)
        failed.extend((bp, str(out)) for bp, out in zip(bps, got) if isinstance(out, PoleError))
        return got

    monkeypatch.setattr(suites, "sweep_rows", recording)
    table = suites.biorth_table(suites.RunConfig(seed=20240), 8, 1, 2, False)
    assert (table["samples"], table["rejected"]) == (2, 0)
    assert [msg for _, msg in failed] == [OUT_OF_RANGE] * 2
    series = sweep_series(failed[0][0], sweep_plans, scalar_finish)
    for bp, _ in failed:
        assert OUT_OF_RANGE in series.compare(sample(bp))


def test_a_draw_on_theta_zeros_trips_the_guards_as_the_scalar_path(sweep_plans, scalar_finish):
    # q^(2 Λ) = p: theta(a1) and denominator factors of some series vanish.
    ctx = ThetaContext(0.2, 0.7)
    lam = math.log(ctx.p) / (2 * math.log(ctx.q))
    for N in (2, 4):
        bp = BiorthParams(N, complex(lam, 0.0), 1, 0.3 - 0.2j, 1.2 + 0.5j, ctx)
        results = sweep_series(bp, sweep_plans, scalar_finish).compare(sample(bp))
        assert DEN_GUARD in results and A1_GUARD in results


def test_a_denominator_factor_trips_its_guard_before_theta_a1(scalar_finish):
    # Series over records, bound where q^(2 Λ) = p, a zero of theta: the
    # first trips both guards, a denominator factor first; the second only
    # the theta(a1) guard; the third only a denominator guard.  The fourth
    # has an exact zero among its denominator factors, which fails it before
    # any guard.
    ctx = TemplateContext()
    zero = garg(ctx.qpow(2 * LAM))
    other = garg(ctx.qpow(OMEGA + 1))
    numer = [qarg(-2), garg(ctx.qpow(OMEGA))]
    plans = [
        ("both", vwp_plan(ctx, zero, numer, [other, zero], 2)),
        ("a1", vwp_plan(ctx, zero, numer, [other], 2, merged=(other, 3))),
        ("den", vwp_plan(ctx, other, numer, [zero], 2)),
        ("exact", vwp_plan(ctx, zero, numer, [qarg(-1)], 2)),
        ("none", vwp_plan(ctx, other, numer, [other], 2)),
    ]
    bound = ThetaContext(0.2, 0.7)
    lam = math.log(bound.p) / (2 * math.log(bound.q))
    series = BoundSeries(plans, scalar_finish)
    results = series.compare((bound, complex(lam, 0.0), 0.3 - 0.2j, 1.2 + 0.5j))
    assert results[:4] == [DEN_GUARD, A1_GUARD, DEN_GUARD, DEN_ZERO]
    assert not isinstance(results[4], str)
