"""Terminating very-well-poised series: evaluators, balance, transformation."""

import cmath
import gc
import importlib
import tracemalloc
import warnings

import numpy as np
import pytest

from ellu2.series import (
    SeriesSpec,
    bailey_g,
    check_bailey,
    eval_omega,
    eval_omega_termwise,
    vwp_sum,
)
from ellu2.theta import PoleError, ThetaContext, ThetaProduct, garg, qarg, theta_vec_cached

series_mod = importlib.import_module("ellu2.series")
theta_mod = importlib.import_module("ellu2.theta")


def balanced_spec(ctx, rng, n):
    """Random balanced level-nine spec: five free uppers plus a forced sixth."""
    a1 = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    uppers = [complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)) for _ in range(5)]
    sixth = a1**3 * ctx.qpow(4 + 2 * n) / np.prod(uppers)
    free = tuple(garg(u) for u in uppers) + (garg(complex(sixth)),)
    return SeriesSpec(garg(a1), free + (qarg(-n),), 6, ctx)


def test_spec_validation(ctx):
    with pytest.raises(ValueError, match="^need at least one upper parameter$"):
        SeriesSpec(garg(1.1), (), 0, ctx)
    with pytest.raises(ValueError, match="^termination_slot out of range$"):
        SeriesSpec(garg(1.1), (qarg(-2),), 1, ctx)
    exact = r"^termination slot must be an exact q\^\(-2n\) power, n >= 0$"
    with pytest.raises(ValueError, match=exact):
        SeriesSpec(garg(1.1), (garg(0.5), qarg(-2)), 0, ctx)
    with pytest.raises(ValueError, match=exact):
        SeriesSpec(garg(1.1), (garg(0.5), qarg(2)), 1, ctx)
    spec = SeriesSpec(garg(1.1), (garg(0.5), qarg(-2)), 1, ctx)
    assert spec.termination_index == 2
    assert spec.level == 4


def test_zero_order_series_is_one(ctx, rng):
    spec = balanced_spec(ctx, rng, 0)
    assert abs(eval_omega(spec).value - 1.0) <= 1e-14


def test_ratio_matches_termwise_oracle(ctx, rng):
    for _ in range(6):
        spec = balanced_spec(ctx, rng, 4)
        got = eval_omega(spec)
        assert got.warnings == ()
        assert got.terms == 5
        assert got.max_term_magnitude >= 1.0
        brute = eval_omega_termwise(spec)
        scale = got.max_term_magnitude + abs(brute)
        assert abs(got.value - brute) <= 1e-11 * scale


def test_upper_permutation_invariance(ctx, rng):
    spec = balanced_spec(ctx, rng, 5)
    base = eval_omega(spec).value
    free = spec.upper[:6]
    for perm in ([1, 0, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [2, 0, 5, 1, 3, 4]):
        shuffled = tuple(free[i] for i in perm) + (spec.upper[6],)
        got = eval_omega(SeriesSpec(spec.a1, shuffled, 6, ctx)).value
        assert abs(got - base) <= 1e-12 * max(abs(base), 1.0)


def test_balance_warning_numeric(ctx, rng):
    spec = balanced_spec(ctx, rng, 3)
    skew = (garg(spec.upper[0].generic * 1.01),) + spec.upper[1:]
    warned = eval_omega(SeriesSpec(spec.a1, skew, 6, ctx))
    assert warned.warnings and "unbalanced" in warned.warnings[0]


def test_balance_check_exact_for_tracked_powers(ctx):
    free = (qarg(2), qarg(1), qarg(1), qarg(1), qarg(0), qarg(1))
    spec = SeriesSpec(qarg(1), free + (qarg(-1),), 6, ctx)
    assert spec.balancing_warning() is None
    bad = SeriesSpec(qarg(1), (qarg(3),) + free[1:] + (qarg(-1),), 6, ctx)
    warning = bad.balancing_warning()
    assert warning is not None and "exact exponent defect" in warning


def test_balance_check_beyond_the_double_range():
    # The parameter product overflows, so the balance ratio is not finite.
    ctx = ThetaContext(0.1, 0.7)
    spec = SeriesSpec(garg(0.3), (garg(1e200), garg(1e200), qarg(-2)), 2, ctx)
    with np.errstate(all="ignore"):
        warning = spec.balancing_warning()
        assert warning is not None and "beyond double precision range" in warning
        with pytest.raises(PoleError, match="double precision range"):
            eval_omega(spec)


def test_pole_in_denominator_raises(ctx, rng):
    spec = balanced_spec(ctx, rng, 3)
    a1 = spec.a1.generic
    poisoned = (garg(a1 * ctx.qpow(2)),) + spec.upper[1:]
    with pytest.raises(PoleError):
        eval_omega(SeriesSpec(spec.a1, poisoned, 6, ctx))


def test_bailey_g_product_constraint(ctx):
    a, b, c, d, e, f = 1.1, 0.9 + 0.2j, 1.3, 0.7 - 0.1j, 1.2, 0.8
    n = 3
    g = bailey_g(a, b, c, d, e, f, n, ctx)
    assert abs(b * c * d * e * f * g - a**3 * ctx.qpow(2 * (n + 2))) <= 1e-13


def test_bailey_transformation_small_orders(ctx, rng):
    seen = 0
    for n in range(5):
        while True:
            vals = [complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4)) for _ in range(6)]
            try:
                report = check_bailey(*vals, n, ctx)
            except PoleError:
                continue
            if report.condition <= 1e6:
                break
        seen += 1
        assert report.residual <= 1e-9
        direct = abs(report.lhs - report.rhs) / (abs(report.lhs) + abs(report.rhs))
        assert abs(report.residual - direct) <= 1e-12
    assert seen == 5


def test_bailey_order_zero_trivial(ctx):
    report = check_bailey(1.1, 0.9, 1.2, 0.8, 1.3, 0.7, 0, ctx)
    assert abs(report.lhs - 1.0) <= 1e-14
    assert report.residual <= 1e-13


CONTEXTS = [ThetaContext(0.05, 0.88), ThetaContext(0.17, 0.8), ThetaContext(0.29, 0.92)]


def annulus(rng, k):
    return [complex(r * np.cos(f), r * np.sin(f)) for r, f in zip(rng.uniform(0.5, 2.0, k), rng.uniform(0, 6.3, k))]


def termwise(ctx, a1, numer, denom, n, merged):
    """Each term of ``vwp_sum`` as its own ThetaProduct, merged slot included."""
    total = 0.0 + 0.0j
    for k in range(n + 1):
        tp = ThetaProduct(ctx, ctx.qpow(2 * k))
        tp.theta(a1.shifted(2 * k))
        tp.theta(a1, inv=True)
        for u in (a1, *numer):
            tp.poch(u, k)
        for d in (qarg(1), *denom):
            tp.poch(d, k, inv=True)
        if merged is not None:
            c, big_j = merged
            for i in range(k, big_j):
                tp.theta(c.shifted(i))
        total += tp.value()
    return total


def termwise_specs(count):
    """``count`` seeded specs at n = 0..8, of four kinds in turn: generic; an
    upper q^(-2m), m <= n, whose row vanishes exactly from term m + 1 on; a1
    = q^4 with an upper q^(2(3 + j)), whose denominator row hits an exact
    zero from term j + 1 on; an upper a relative 1e-14 off a1 q^(2(1 + j)),
    whose denominator row falls below the zero guard from term j + 1 on."""
    rng = np.random.default_rng(20240)
    for i in range(count):
        ctx, n, kind = CONTEXTS[i % 3], i % 9, i % 4
        a1, *free = annulus(rng, 5)
        m, j = int(rng.integers(0, n + 1)), int(rng.integers(0, max(n, 1)))
        lead, uppers = garg(a1), [garg(u) for u in free]
        if kind == 1:
            uppers[0] = qarg(-m)
        elif kind == 2:
            lead, uppers[0] = qarg(2), qarg(3 + j)
        elif kind == 3:
            uppers[0] = garg(a1 * ctx.qpow(2 * (1 + j)) * (1 + 1e-14))
        yield SeriesSpec(lead, (*uppers, qarg(-n)), 4, ctx)


def outcome(fn, *args):
    """``fn(*args)`` as the ``float.hex`` of its parts, or the error it raised."""
    try:
        value = fn(*args)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    return value.real.hex(), value.imag.hex()


def test_termwise_plan_equals_the_per_term_loop():
    # ``eval_omega_termwise`` finishes every term from one lookup; each of
    # 200 seeded specs gives the bits, or the error, of the loop that built
    # and evaluated one term at a time (``termwise`` without a merged slot).
    raised = set()
    for spec in termwise_specs(200):
        dens = series_mod._denominators(spec)
        want = outcome(termwise, spec.ctx, spec.a1, spec.upper, dens, spec.termination_index, None)
        assert outcome(eval_omega_termwise, spec) == want
        raised.add(want[1] if want[0] == "PoleError" else None)
    assert raised >= {None, theta_mod.DEN_GUARD, "exact zero theta factor in denominator"}


@pytest.mark.parametrize("ctx", CONTEXTS, ids=["p05", "p17", "p29"])
def test_vwp_sum_matches_termwise_evaluation(ctx, rng):
    checked = 0
    for n in (0, 1, 3, 6, 9, 12):
        b, c, d, a1 = annulus(rng, 4)
        e = a1 * a1 * ctx.qpow(2 * (n + 1)) / (b * c * d)
        plain = (garg(b), garg(c), garg(d), garg(e), qarg(-n))
        # A numerator row with an exact zero from term 3 on.
        for upper in (plain, (qarg(-2),) + plain[1:]):
            spec = SeriesSpec(garg(a1), upper, 4, ctx)
            got = eval_omega(spec)
            brute = eval_omega_termwise(spec)
            assert abs(got.value - brute) <= 1e-11 * (got.max_term_magnitude + abs(brute))
            checked += 1
        # Merged slots (c, J), generic and with an exact zero at factor 2,
        # and a leading q^(-4), whose head theta vanishes at term 1 and whose
        # own Pochhammer row vanishes from term 3 on.
        numer = [garg(b), garg(c), garg(e)]
        denom = [garg(a1 * ctx.qpow(2) / x) for x in (b, c)]
        for lead in (garg(a1), qarg(-2)):
            for merged in (None, (garg(d), n + 2), (qarg(-2), n + 3)):
                value, peak, _ = vwp_sum(ctx, lead, numer, denom, n, merged=merged)
                brute = termwise(ctx, lead, numer, denom, n, merged)
                assert abs(value - brute) <= 1e-11 * (peak + abs(brute))
                checked += 1
    assert checked == 48


def test_vwp_sum_makes_one_kernel_call_per_series(monkeypatch, rng):
    calls = []
    kernel = theta_mod.theta_vec

    def counted(zs, ctx):
        calls.append(len(zs))
        return kernel(zs, ctx)

    monkeypatch.setattr(theta_mod, "theta_vec", counted)
    for n in (0, 1, 3, 6, 9, 12):
        b, c, d, a1 = annulus(rng, 4)
        for merged in (None, (garg(d), n + 2), (qarg(-2), n + 3)):
            fresh = ThetaContext(0.17, 0.8)
            calls.clear()
            vwp_sum(fresh, garg(a1), [garg(b), qarg(-2), garg(c)], [garg(d)], n, merged=merged)
            assert len(calls) == 1
            # Numerator rows, denominator rows, head and theta(a1), merged row.
            rows = 4 * n + 2 * n + n + 2 + (0 if merged is None else merged[1])
            assert calls[0] <= rows


def test_exact_zeros_end_the_series(ctx, rng):
    b, c, d, e = annulus(rng, 4)
    spec = SeriesSpec(garg(1.1 + 0.2j), (garg(b), qarg(-2), garg(d), garg(e), qarg(-6)), 4, ctx)
    assert eval_omega(spec).terms == 3
    _, _, last = vwp_sum(ctx, garg(0.9), [garg(b)], [garg(c)], 5, merged=(qarg(-2), 6))
    assert last == 6
    assert vwp_sum(ctx, garg(0.9), [garg(b)], [garg(c)], 5, merged=(qarg(-5), 6)) == (0, 0, 0)
    # theta(a1 q^(4k)) vanishes exactly at k = 1 for a1 = q^(-4).
    assert vwp_sum(ctx, qarg(-2), [garg(b)], [garg(c)], 1)[2] == 1
    with pytest.raises(PoleError, match="exact zero"):
        vwp_sum(ctx, garg(0.9), [garg(b)], [qarg(-1)], 3)


def synthetic_rows(monkeypatch, num_row, den_row):
    """Make vwp_sum see the given running products for its two rows."""

    def fake(raw, params, length):
        row = den_row if params[0].is_one else num_row
        return [row], [length], [1.0 + 0.0j] * length

    monkeypatch.setattr(series_mod, "_poch_columns", fake)


def test_arithmetic_errors_come_out_as_pole_error(monkeypatch):
    ctx = ThetaContext(0.2, 0.7)
    a1 = garg(0.8 + 0.3j)
    g, q2 = a1.value(ctx), ctx.qpow(2)
    head, th_a1 = theta_vec_cached([g * q2**2, g], ctx)
    base = head / th_a1 * q2**1
    # A running denominator product that underflowed to 0: Python division
    # raises ZeroDivisionError where arrays gave inf.
    synthetic_rows(monkeypatch, [1.0 + 0.0j, 1.0 + 0.0j], [1.0 + 0.0j, 0.0j])
    with pytest.raises(ZeroDivisionError):
        base / 0j
    with pytest.raises(PoleError, match="double precision range"):
        vwp_sum(ctx, a1, [], [], 1)
    # A finite term whose modulus passes the double range: abs() raises
    # OverflowError where arrays gave inf.
    tiny = (0.5 - 0.5j) / 1.5e308
    synthetic_rows(monkeypatch, [1.0 + 0.0j, 1.0 / base], [1.0 + 0.0j, tiny])
    term = base * (1.0 / base) / tiny
    assert cmath.isfinite(term)
    with pytest.raises(OverflowError):
        abs(term)
    with pytest.raises(PoleError, match="double precision range"):
        vwp_sum(ctx, a1, [], [], 1)
    # The same rows with a representable term still sum.
    synthetic_rows(monkeypatch, [1.0 + 0.0j, 2.0 / base], [1.0 + 0.0j, 1.0 + 0.0j])
    value, peak, last = vwp_sum(ctx, a1, [], [], 1)
    assert abs(value - 3.0) <= 1e-15 and abs(peak - 2.0) <= 1e-15 and last == 2


def test_kept_overflow_errors_hold_no_rows():
    # An order-32 series whose running products leave double range.  Every
    # caught PoleError keeps the frames of its traceback; the rows of the
    # series (about 25 kB here) must not be among them.  Measured per kept
    # exception: 2.5 kB with the rows dropped, 28 kB with them retained.
    ctx = ThetaContext(0.206, 0.838)
    a, b, c, d = 1.66 + 0.05j, 0.36 - 0.76j, 0.27 - 0.91j, -1.77 + 0.36j
    e = a * a * ctx.qpow(66) / (b * c * d)
    spec = SeriesSpec(garg(a), (garg(b), garg(c), garg(d), garg(e), qarg(-32)), 4, ctx)

    def keep(count):
        kept = []
        for _ in range(count):
            try:
                eval_omega(spec)
            except PoleError as err:
                kept.append(err)
        return kept

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert "double precision range" in str(keep(1)[0])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = keep(200)
            gc.collect()
            growth = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
    assert growth < 10_000
