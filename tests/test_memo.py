"""The per-context memo of the representation's coefficient functions.

Every memoized value must be the value the function returns on a fresh
context, bit for bit, whether it comes from a first call or from the memo; a
call that raises must raise again and store nothing; contexts never share
entries; and the memo stops growing at ``MEMO_CAP``.  The residuals the
corepresentation checks keep on their ``RepContext`` must not keep the
``ThetaContext`` alive.
"""

import gc
import importlib
import inspect
import re
import weakref

import numpy as np
import pytest

from ellu2.corep import check_inversion_words, check_unitarity, gamma_factor, t_word, unitarity_words
from ellu2.rep import RepContext, coef_a, coef_b, coef_c, coef_d, det_scalar
from ellu2.rmatrix import r_entries
from ellu2.theta import PoleError, ThetaContext, memo_per_context

theta_module = importlib.import_module("ellu2.theta")

COEFS = (coef_a, coef_b, coef_c, coef_d)


def bits(value):
    """Exact bit pattern of a complex number or a tuple of them."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def cplx(rng, lo=0.3, hi=2.0):
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))


def draws(rng, count):
    """(p, q, calls) with calls a list of (fn, args) on shared arguments."""
    out = []
    for _ in range(count):
        p, q = rng.uniform(0.05, 0.3), rng.uniform(0.3, 0.9)
        lam, z, omega = cplx(rng, 0.1, 1.0), cplx(rng), cplx(rng, 0.1, 1.0)
        k = int(rng.integers(0, 6))
        N = int(rng.integers(0, 5))
        calls = [(fn, (k, lam, z, omega)) for fn in COEFS]
        calls += [(det_scalar, (z, omega)), (r_entries, (lam, z))]
        calls += [(gamma_factor, (N, int(rng.integers(0, N + 1)), lam))]
        out.append((p, q, calls))
    return out


def outcome(fn, args, ctx):
    try:
        return bits(fn(*args, ctx))
    except PoleError as exc:
        return ("PoleError", str(exc))


def test_memoized_functions_keep_their_signatures():
    # coef_a ... coef_d and r_entries are pinned with the benchmark's names.
    assert list(inspect.signature(det_scalar).parameters) == ["z", "omega", "ctx"]
    assert list(inspect.signature(gamma_factor).parameters) == ["N", "k", "x", "ctx"]
    # t_word is pinned with the benchmark's names too.
    for fn in (t_word, unitarity_words):
        assert list(inspect.signature(fn).parameters) == ["N", "k", "j", "z", "ctx"]
    assert r_entries.__name__ == "r_entries" and r_entries.__doc__.startswith("Middle-block")


def test_memo_values_are_bit_identical_to_a_fresh_context(rng):
    for p, q, calls in draws(rng, 40):
        shared = ThetaContext(p, q)
        # The same arguments go to every function first, so a key that
        # ignored the function would hand one function's value to another.
        first = [outcome(fn, args, shared) for fn, args in calls]
        assert len(shared._values) == sum(o[0] != "PoleError" for o in first)
        hits = [outcome(fn, args, shared) for fn, args in calls]
        fresh = [outcome(fn, args, ThetaContext(p, q)) for fn, args in calls]
        unwrapped = [outcome(fn.__wrapped__, args, ThetaContext(p, q)) for fn, args in calls]
        assert first == hits == fresh == unwrapped


def test_memo_keys_tell_close_arguments_apart(rng):
    ctx = ThetaContext(0.17, 0.58)
    lam, z, omega = 0.4 + 0.1j, 1.1 - 0.3j, 0.35 + 0.2j
    near = complex(np.nextafter(z.real, 2.0), z.imag)
    for k in range(4):
        for zz in (z, near):
            for fn in COEFS:
                assert outcome(fn, (k, lam, zz, omega), ctx) == outcome(
                    fn, (k, lam, zz, omega), ThetaContext(0.17, 0.58)
                )
    assert outcome(coef_b, (1, lam, z, omega), ctx) != outcome(coef_b, (1, lam, near, omega), ctx)


def test_a_raising_call_raises_again_and_stores_nothing():
    ctx = ThetaContext(0.2, 0.6)
    message = "theta(q^(2 lam + 2)) below zero guard"
    for _ in range(2):
        with pytest.raises(PoleError, match=re.escape(message)):
            r_entries(-1, 1.3 + 0.2j, ctx)
        assert ctx._values == {}
    with pytest.raises(PoleError, match="representation coefficient denominator"):
        coef_a(1, -1, 1.3 + 0.2j, 0.4, ctx)
    assert ctx._values == {}
    # A good call on the same context is stored as usual.
    r_entries(0.3 + 0.1j, 1.3 + 0.2j, ctx)
    assert len(ctx._values) == 1


def test_contexts_with_different_zero_guards_share_nothing():
    # theta(q^(2 lam + 2)) is about 1e-7 here: above the default guard of
    # 1e-12, below the 1e-4 the relations suite uses.
    lam, z = -1 + 1e-7, 1.3 + 0.2j
    loose = ThetaContext(0.2, 0.6)
    strict = ThetaContext(0.2, 0.6, zero_guard=1e-4)
    assert loose == ThetaContext(0.2, 0.6) and loose != strict
    value = r_entries(lam, z, loose)
    with pytest.raises(PoleError, match="below zero guard"):
        r_entries(lam, z, strict)
    assert strict._values == {}
    assert bits(r_entries(lam, z, loose)) == bits(value)

    other_loose = ThetaContext(0.2, 0.6)
    with pytest.raises(PoleError):
        r_entries(lam, z, ThetaContext(0.2, 0.6, zero_guard=1e-4))
    assert bits(r_entries(lam, z, other_loose)) == bits(value)


def test_memo_stops_growing_at_the_cap(monkeypatch, rng):
    monkeypatch.setattr(theta_module, "MEMO_CAP", 5)
    ctx = ThetaContext(0.15, 0.7)
    points = [(int(k), cplx(rng, 0.1, 1.0), cplx(rng), 0.3 + 0.1j) for k in range(12)]
    for args in points:
        assert bits(coef_d(*args, ctx)) == bits(coef_d.__wrapped__(*args, ThetaContext(0.15, 0.7)))
    assert len(ctx._values) == 5
    # Past the cap, repeated calls still return the function's value.
    for args in points:
        assert bits(coef_d(*args, ctx)) == bits(coef_d.__wrapped__(*args, ThetaContext(0.15, 0.7)))
    assert len(ctx._values) == 5


def test_memo_per_context_on_a_new_function():
    calls = []

    @memo_per_context
    def scaled(x, ctx):
        """x times p."""
        calls.append(x)
        if x == 0:
            raise PoleError("zero")
        return x * ctx.p

    ctx = ThetaContext(0.25, 0.5)
    assert scaled(2.0, ctx) == scaled(2.0, ctx) == 0.5
    assert scaled(3.0, ThetaContext(0.25, 0.5)) == 0.75
    for _ in range(2):
        with pytest.raises(PoleError, match="zero"):
            scaled(0, ctx)
    assert calls == [2.0, 3.0, 0, 0]
    assert scaled.__name__ == "scaled" and scaled.__doc__ == "x times p."
    assert scaled.__wrapped__(2.0, ctx) == 0.5


def test_bound_rows_do_not_keep_the_context_alive():
    # The residuals kept on the representation context are plain floats:
    # dropping the context frees its ThetaContext without a collection.
    gc.disable()
    try:
        rc = RepContext(0.3 + 0.1j, 0.4 - 0.2j, ThetaContext(0.15, 0.6))
        for fn in (check_unitarity, check_inversion_words):
            fn(2, 1, 1, 1.1 + 0.3j, 0, rc)
        assert rc._bound
        gone = weakref.ref(rc.ctx)
        del rc
        assert gone() is None
    finally:
        gc.enable()
