"""The per-context memos under the representation's coefficient functions.

The coefficients read their theta values from the scalar memo of their
``ThetaContext``: a value on a context that has served other calls must be
the value on a fresh context, bit for bit, for arguments one ulp apart too,
and contexts with different zero guards share nothing.  The
corepresentation checks keep nothing on their ``RepContext``, so dropping it
frees its ``ThetaContext``.
"""

import gc
import inspect
import weakref

import numpy as np
import pytest

from ellu2.corep import check_inversion_words, check_unitarity, gamma_factor, t_word, unitarity_words
from ellu2.rep import RepContext, coef_a, coef_b, coef_c, coef_d, det_scalar
from ellu2.rmatrix import r_entries
from ellu2.theta import PoleError, ThetaContext

COEFS = (coef_a, coef_b, coef_c, coef_d)


def bits(value):
    """Exact bit pattern of a complex number or a tuple of them."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    value = complex(value)
    return value.real.hex(), value.imag.hex()


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
    assert bits(r_entries(lam, z, loose)) == bits(value)

    other_loose = ThetaContext(0.2, 0.6)
    with pytest.raises(PoleError):
        r_entries(lam, z, ThetaContext(0.2, 0.6, zero_guard=1e-4))
    assert bits(r_entries(lam, z, other_loose)) == bits(value)


def test_checks_keep_nothing_on_the_context():
    # A check binds its level's family at its sample and keeps nothing: the
    # representation context holds its three fields only, after a draw
    # whose binding failed too, and the error raised holds nothing that
    # refers to itself, so dropping the context frees its ThetaContext
    # without a collection.  theta(q^(-2 (lam + 1))) vanishes at lam = -1,
    # where the second draw's coefficients divide by it.
    gc.disable()
    try:
        for lam0, failed in ((0.4 - 0.2j, False), (-1 + 1e-15 + 0j, True)):
            rc = RepContext(0.3 + 0.1j, lam0, ThetaContext(0.15, 0.6))
            for fn in (check_unitarity, check_inversion_words):
                try:
                    fn(2, 1, 1, 1.1 + 0.3j, 0, rc)
                    raised = False
                except PoleError:
                    raised = True
                assert raised == failed
            assert list(vars(rc)) == ["omega", "lam0", "ctx"]
            gone = weakref.ref(rc.ctx)
            del rc
            assert gone() is None
    finally:
        gc.enable()
