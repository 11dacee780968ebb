"""Theta evaluation, Pochhammer products, and tracked-argument bookkeeping."""

import importlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellu2 import suites
from ellu2.theta import (
    MAX_THETA_FACTORS,
    THETA_RANGE,
    PoleError,
    ThetaContext,
    ThetaProduct,
    TrackedArg,
    elliptic_binomial,
    garg,
    pochhammer,
    qarg,
    theta,
    theta_factors,
    theta_vec,
    theta_vec_cached,
)


def theta_product(args, ctx):
    """Product of theta values, the usual shorthand theta(a_1, ..., a_n),
    factor by factor over ``theta_vec`` values."""
    return math.prod(theta_vec(args, ctx).tolist(), start=1.0 + 0.0j)


def brute_theta(z, p, factors=500):
    """Direct partial product, the independent reference for theta values."""
    acc = 1.0 + 0.0j
    for j in range(factors):
        acc *= (1.0 - z * p**j) * (1.0 - p ** (j + 1) / z)
    return acc


def theta_condition(z, p, factors=500):
    """Largest |x| / |1 - x| over the long-product factors 1 - x of theta(z).

    Near a zero of theta, forming 1 - x loses that many ulps in any
    evaluation; an exact zero factor reads as 1e300 times |x|.
    """
    cond = 1.0
    for j in range(factors):
        for x in (z * p**j, p ** (j + 1) / z):
            cond = max(cond, abs(x) / max(abs(1.0 - x), 1e-300))
    return cond


nonzero_z = st.complex_numbers(
    min_magnitude=0.2, max_magnitude=5.0, allow_nan=False, allow_infinity=False
)


def test_theta_matches_long_product():
    ctx = ThetaContext(0.1, 0.7)
    ref = brute_theta(2.0 + 0.0j, 0.1)
    assert abs(theta(2.0 + 0.0j, ctx) - ref) <= 1e-14 * abs(ref)


def mp_theta(z, p):
    """theta(z) to 30 digits, by the long product down to p^j < 1e-40."""
    with mpmath.workdps(30):
        z, p = mpmath.mpc(z), mpmath.mpf(p)
        out, pj = mpmath.mpc(1), mpmath.mpf(1)
        while pj > mpmath.mpf(10) ** -40:
            out *= (1 - z * pj) * (1 - pj * p / z)
            pj *= p
        return complex(out)


@pytest.mark.parametrize("p", [0.9, 0.98, 0.9806])
def test_theta_reaches_its_floor_up_to_the_factor_cap(p):
    # 0.9806^2000 is just below the floor 1e-17, so every factor the floor
    # asks for is taken.
    assert theta_factors(p) <= MAX_THETA_FACTORS
    z = 0.9 + 0.3j
    ref = mp_theta(z, p)
    assert abs(theta(z, ThetaContext(p, 0.5)) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("p", [0.9807, 0.99, 0.995])
def test_a_nome_past_the_factor_cap_is_refused(p):
    # Cut at 2000 factors, theta(0.9 + 0.3j) would be off by 3.5e-7
    # (relative) at p = 0.99 and by 1.7e-2 at p = 0.995.
    with pytest.raises(ValueError, match="theta factors to reach the truncation floor"):
        theta_factors(p)
    with pytest.raises(ValueError, match="theta factors to reach the truncation floor"):
        ThetaContext(p, 0.5)


@pytest.mark.parametrize("mag", [1e-8, 1e-4, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("p", [0.05, 0.12, 0.3])
def test_theta_accurate_across_magnitudes(mag, p):
    ctx = ThetaContext(p, 0.7)
    z = mag * (0.83 + 0.41j)
    ref = brute_theta(z, p)
    assert abs(theta(z, ctx) - ref) <= 1e-13 * abs(ref)


def test_theta_exact_zeros(ctx):
    assert theta(1.0 + 0.0j, ctx) == 0
    for k in (1, 2, 5):
        assert theta(complex(ctx.p**k), ctx) == 0
        assert theta(complex(ctx.p**-k), ctx) == 0


@settings(max_examples=40, deadline=None)
@given(nonzero_z)
def test_theta_quasi_periodicity(z):
    ctx = ThetaContext(0.15, 0.7)
    base = theta(z, ctx)
    shifted = -base / z
    scale = max(abs(base), abs(shifted), 1e-300)
    assert abs(theta(ctx.p * z, ctx) - shifted) <= 1e-12 * scale
    assert abs(theta(1.0 / z, ctx) - shifted) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(nonzero_z, nonzero_z, nonzero_z, nonzero_z)
# Reported from a failing run; y / w evaluates to exactly 1 here, so every
# term is exactly 0.
@example(1 + 0j, 1.1 + 1.9e-235j, 1.1 + 1.9e-235j, 1.1 + 1.9e-235j)
# y / w rounds to 1 + delta, so every term carries theta near its zero.
@example(1 + 0j, 1.609375 + 1j, 1.609375 + 1j, 1.609375 + 1j)
# theta(z / w) is exactly 0; the other two terms sit 7e-6 from a zero.
@example(1 + 0j, 0.99999 + 1j, 1 + 1j, 1 + 1j)
def test_theta_three_term_relation(x, y, z, w):
    # Each term is measured at its own conditioning: a theta factor near a
    # zero turns the rounding of its argument into that much relative error.
    p = 0.18
    ctx = ThetaContext(p, 0.7)
    terms = [
        (1.0, (x * y, x / y, z * w, z / w)),
        (1.0, (x * w, x / w, z * y, z / y)),
        (z / y, (x * z, x / z, y * w, y / w)),
    ]
    t1, t2, t3 = (c * theta_product(args, ctx) for c, args in terms)
    scale = max(
        abs(t) * max(theta_condition(a, p) for a in args)
        for t, (_, args) in zip((t1, t2, t3), terms)
    )
    assert abs(t1 - t2 - t3) <= 1e-11 * max(scale, 1e-300)


def test_theta_vec_matches_scalar(ctx, rng):
    zs = [complex(a, b) for a, b in rng.uniform(0.3, 2.0, size=(8, 2))]
    vec = theta_vec(zs, ctx)
    for zi, vi in zip(zs, vec):
        ref = theta(zi, ctx)
        assert abs(vi - ref) <= 1e-14 * abs(ref)


def test_theta_multi_is_factorwise():
    ctx = ThetaContext(0.2, 0.7)
    got = theta_product((0.3, 1.7), ctx)
    ref = theta(0.3 + 0.0j, ctx) * theta(1.7 + 0.0j, ctx)
    assert abs(got - ref) <= 1e-14 * abs(ref)
    assert theta_product((), ctx) == 1


def test_theta_multi_out_of_range_raises_as_theta_does():
    # At p = 0.9 theta(1e-300j) leaves the double range: the scalar kernel
    # raises, and a theta suite draw at z = 1e-300j raises the same error
    # instead of returning nan+nanj, so the suite redraws the sample.
    with pytest.raises(PoleError, match=THETA_RANGE):
        theta(1e-300j, ThetaContext(0.9, 0.5))
    ctx = ThetaContext(0.9, 0.5)
    with pytest.raises(PoleError, match=THETA_RANGE):
        suites._theta_draw(ctx, 1e-300j, 0.5, 0.7 + 0.2j, 1.1 - 0.3j)
    # A product of finite values beyond the range raises the same error.
    with pytest.raises(PoleError, match=THETA_RANGE):
        suites._theta_identity_residual([(1.0, (0.5,)), (1.0, (0.5, 0.5))], [1.0, 1e200, 1e200], ctx)


def test_pochhammer_empty_and_splitting(ctx):
    a = garg(0.7 + 0.3j)
    assert pochhammer(a, 0, ctx) == 1
    for n, m in [(1, 1), (2, 3), (4, 2)]:
        whole = pochhammer(a, n + m, ctx)
        split = pochhammer(a, n, ctx) * pochhammer(a.shifted(n), m, ctx)
        assert abs(whole - split) <= 1e-13 * abs(whole)


def test_pochhammer_negative_length_reflection(ctx):
    a = garg(1.3 - 0.4j)
    lhs = pochhammer(a, -2, ctx)
    rhs = 1.0 / (theta(a.value(ctx) * ctx.qpow(-2), ctx) * theta(a.value(ctx) * ctx.qpow(-4), ctx))
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_pochhammer_exact_zero_detection(ctx):
    assert pochhammer(qarg(0), 1, ctx) == 0
    assert pochhammer(qarg(0), 4, ctx) == 0
    assert pochhammer(qarg(-3), 4, ctx) == 0
    assert pochhammer(qarg(-3), 3, ctx) != 0


def test_an_untracked_zero_value_is_a_zero_not_an_underflow():
    # garg(1) is not tracked as a zero, but theta(1) comes out exactly 0j
    # (its long product has the factor 1 - 1): a product with it among its
    # numerators is that 0, as theta(1) itself is.  Thirty factors of
    # about 1e-14 still take a product below the least double: that 0 is
    # an underflow, and raises.
    ctx = ThetaContext(0.2, 0.7)
    assert theta_vec_cached([1.0], ctx) == [0j]
    assert pochhammer(1, 1, ctx) == 0
    assert pochhammer(1, 3, ctx) == 0
    assert ThetaProduct(ctx, 2.5).theta(garg(1.0)).theta(garg(0.4), inv=True).value() == 0
    with pytest.raises(PoleError, match="double precision range"):
        ThetaProduct(ctx).theta(garg(ctx.qpow(1e-13)), count=30).value()


def test_elliptic_binomial_endpoints_and_ratio(ctx):
    assert elliptic_binomial(4, 0, ctx) == 1
    assert elliptic_binomial(4, 4, ctx) == 1
    assert elliptic_binomial(3, 5, ctx) == 0
    assert elliptic_binomial(3, -1, ctx) == 0
    for k, l in [(4, 2), (5, 1), (6, 3)]:
        ref = pochhammer(qarg(k - l + 1), l, ctx) / pochhammer(qarg(1), l, ctx)
        got = elliptic_binomial(k, l, ctx)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_elliptic_binomial_symmetry(ctx):
    for k in range(2, 7):
        for l in range(k + 1):
            lhs = elliptic_binomial(k, l, ctx)
            rhs = elliptic_binomial(k, k - l, ctx)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_theta_product_zero_guard(ctx):
    tp = ThetaProduct(ctx)
    tp.theta(garg(1.0 + 1e-14), inv=True)
    with pytest.raises(PoleError):
        tp.value()
    tp2 = ThetaProduct(ctx)
    tp2.theta(qarg(0), inv=False)
    tp2.theta(garg(0.5), inv=True)
    assert tp2.value() == 0
    with pytest.raises(PoleError):
        ThetaProduct(ctx).theta(qarg(0), inv=True)


def test_theta_product_interleaves_large_rows():
    # Forty numerator thetas at huge arguments overflow on their own; pairing
    # them against comparable denominators must keep the quotient finite.
    ctx = ThetaContext(0.1, 0.7)
    tp = ThetaProduct(ctx)
    big = garg(1e7 + 3e6j)
    for _ in range(40):
        tp.theta(big)
        tp.theta(garg(1.0001 * big.generic), inv=True)
    out = tp.value()
    assert np.isfinite(out.real) and np.isfinite(out.imag)


def test_scalar_and_counts(ctx):
    tp = ThetaProduct(ctx, 6.0)
    tp.theta(garg(0.4), count=2)
    ref = 6.0 * theta(0.4 + 0.0j, ctx) ** 2
    assert abs(tp.value() - ref) <= 1e-13 * abs(ref)
    tp2 = ThetaProduct(ctx)
    tp2.theta(garg(0.4), count=-2)
    ref2 = 1.0 / theta(0.4 + 0.0j, ctx) ** 2
    assert abs(tp2.value() - ref2) <= 1e-13 * abs(ref2)


def far_arguments(rng, n):
    """Arguments with log-uniform modulus in [1e-8, 1e8] and random phase."""
    mag = 10.0 ** rng.uniform(-8.0, 8.0, size=n)
    return mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))


def test_theta_vec_cached_is_bit_identical(rng):
    ctx = ThetaContext(0.21, 0.6)
    near = rng.uniform(0.5, 2.0, size=40) * np.exp(1j * rng.uniform(0, 6.3, size=40))
    pool = np.concatenate([near, far_arguments(rng, 40)])
    seen = pool[:30]
    theta_vec_cached(seen, ctx)
    # Mixed hits, misses, repeats inside one batch, and both input kinds.
    batch = np.concatenate([seen[::3], pool[30:70], pool[40:50], seen[:4]])
    want = theta_vec(batch, ctx)
    for zs in (batch, batch.tolist()):
        got = theta_vec_cached(zs, ctx)
        assert isinstance(got, list) and len(got) == len(want)
        assert np.array_equal(np.array(got).view(np.float64), want.view(np.float64))
    for z in pool[60:75]:
        # A value cached from a mixed batch equals the kernel on its own.
        alone = theta_vec([z], ctx)
        assert np.array_equal(np.array(theta_vec_cached([z], ctx)).view(np.float64), alone.view(np.float64))


def test_theta_vec_cached_starts_over_at_cap(monkeypatch, rng):
    theta_mod = importlib.import_module("ellu2.theta")
    monkeypatch.setattr(theta_mod, "MEMO_CAP", 8)
    ctx = ThetaContext(0.15, 0.7)
    zs = far_arguments(rng, 30)
    for lo in range(0, 24, 3):
        batch = zs[lo : lo + 6]
        got = np.array(theta_vec_cached(batch, ctx))
        assert np.array_equal(got.view(np.float64), theta_vec(batch, ctx).view(np.float64))
        assert len(ctx._vec_cache) <= 8


def test_theta_vec_cached_rejects_zero(ctx):
    # An argument 0, as an underflowed one is, is a range pole: redrawn by
    # the suites, exit 2 at the command line.
    theta_vec_cached([0.5 + 0.1j], ctx)
    with pytest.raises(PoleError, match=THETA_RANGE):
        theta_vec_cached([0.5 + 0.1j, 0.0], ctx)
    # x y underflows to 0j at a theta suite draw.
    with pytest.raises(PoleError, match=THETA_RANGE):
        suites._theta_draw(ctx, 0.5 + 0.1j, 0.7, 1e-200, 1e-200)
    with pytest.raises(PoleError, match=THETA_RANGE):
        theta(0j, ctx)


def test_cached_denominator_still_hits_zero_guard():
    ctx = ThetaContext(0.12, 0.67)
    near_zero = garg(1.0 + 1e-14)
    first = ThetaProduct(ctx).theta(garg(0.4))
    first.theta(near_zero)
    first.value()
    assert complex(near_zero.generic) in ctx._vec_cache
    tp = ThetaProduct(ctx).theta(garg(0.4))
    tp.theta(near_zero, inv=True)
    with pytest.raises(PoleError):
        tp.value()


def test_theta_product_poch_matches_factorwise(ctx):
    a = garg(0.8 - 0.3j)
    for n in (3, -3):
        tp = ThetaProduct(ctx).poch(a, n)
        ref = ThetaProduct(ctx)
        shifts = range(n) if n >= 0 else range(-1, n - 1, -1)
        for i in shifts:
            ref.theta(a.shifted(i), inv=n < 0)
        assert tp.value() == ref.value()
    assert ThetaProduct(ctx).poch(qarg(-2), 3).zeros == 1
    with pytest.raises(PoleError):
        ThetaProduct(ctx).poch(qarg(2), -3)


def test_theta_product_range_errors_are_pole_errors():
    # Python complex arithmetic raises where arrays gave inf: dividing by an
    # exact zero (reachable with the zero guard off) and abs() of a finite
    # value beyond the double range.
    ctx = ThetaContext(0.12, 0.67, zero_guard=0.0)
    assert theta_vec_cached([1.0], ctx) == [0j]
    with pytest.raises(PoleError, match="double precision range"):
        ThetaProduct(ctx).theta(garg(1.0), inv=True).value()
    ctx._vec_cache[0.5 + 0j] = complex(1.5e308, 1.5e308)
    with pytest.raises(PoleError, match="double precision range"):
        ThetaProduct(ctx).theta(garg(0.5), inv=True).value()


def test_scalar_theta_out_of_range_is_pole_error():
    ctx = ThetaContext(0.05, 0.3)
    # 1e-29 has a non-finite annulus prefactor; at 1e-40 and 1e40 forming it
    # raises OverflowError.  Neither value is memoized.
    for z in (1e-29 + 0j, 1e-40 + 0j, 1e40 + 0j):
        with pytest.raises(PoleError, match="^theta value exceeds double precision range$"):
            theta(z, ctx)
        assert z not in ctx._memo
    big = theta(1e-20 + 0j, ctx)
    assert np.isfinite(big) and abs(big) > 1e140
    # At a subnormal argument already the reduction factor p**(-m) overflows.
    with pytest.raises(PoleError, match="^theta value exceeds double precision range$"):
        theta(1e-320 + 0j, ThetaContext(0.1, 0.7))


def test_q2n_is_qpow_of_even_exponents():
    ctx = ThetaContext(0.21, 0.77)
    for n in range(-40, 41):
        first = ctx.q2n(n)
        assert first == ctx.qpow(2 * n) and ctx.q2n(n) is first
    ta = garg(0.3 - 1.2j).shifted(-3)
    assert ta.value(ctx, 5) == ctx.qpow(2 * (ta.s + 5)) * ta.generic


def test_tracked_arg_is_immutable():
    ta = qarg(2)
    for name, value in (("s", 3), ("generic", 2.0 + 0j), ("is_one", False), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(ta, name, value)
    assert ta == qarg(2)


def test_tracked_arg_equality_and_hash_by_value():
    assert TrackedArg(2, 1.0 + 0.0j, True) == qarg(2)
    assert hash(TrackedArg(2, 1.0 + 0.0j, True)) == hash(qarg(2))
    assert garg(0.5 - 0.25j) == TrackedArg(0, 0.5 - 0.25j, False)
    assert hash(garg(0.5 - 0.25j)) == hash(TrackedArg(0, 0.5 - 0.25j, False))
    assert TrackedArg(3) == TrackedArg(3, 1.0 + 0.0j, False)
    assert len({qarg(1), qarg(1), garg(1.0), qarg(-1)}) == 3
    assert qarg(0) != garg(1.0)
    assert qarg(1) != qarg(2)
    assert garg(0.5) != garg(0.5 + 1e-16j)


def test_qarg_and_garg_fields():
    ta = qarg(-3)
    assert (ta.s, ta.generic, ta.is_one) == (-3, 1.0 + 0.0j, True)
    assert type(ta) is TrackedArg and type(ta.generic) is complex
    ga = garg(2)
    assert (ga.s, ga.generic, ga.is_one) == (0, 2.0 + 0.0j, False)
    assert type(ga) is TrackedArg and type(ga.generic) is complex
    assert garg(np.complex128(0.3 - 0.4j)).generic == 0.3 - 0.4j
    assert type(garg(np.complex128(0.3 - 0.4j)).generic) is complex
    default = TrackedArg(4)
    assert (default.generic, default.is_one) == (1.0 + 0.0j, False)


def test_tracked_arg_value_shifted_and_zeros(rng):
    ctx = ThetaContext(0.19, 0.71)
    for _ in range(50):
        s, generic = int(rng.integers(-6, 7)), complex(*rng.normal(size=2))
        ta = TrackedArg(s, generic, bool(rng.integers(2)))
        for i in range(-3, 4):
            want = ctx.q2n(ta.s + i) * ta.generic
            got = ta.value(ctx, i)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
            moved = ta.shifted(i)
            assert type(moved) is TrackedArg
            assert moved == TrackedArg(ta.s + i, ta.generic, ta.is_one)
            assert moved.theta_is_zero() == ta.theta_is_zero(i) == (ta.is_one and ta.s + i == 0)
    assert qarg(0).theta_is_zero() and qarg(-2).theta_is_zero(2)
    assert not qarg(-2).theta_is_zero() and not garg(1.0).theta_is_zero()
    assert qarg(-2).shifted(2) == qarg(0)
    assert theta(qarg(-2).shifted(2).value(ctx), ctx) == 0
