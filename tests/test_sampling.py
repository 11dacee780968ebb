"""Parameter draw policy and pole-rejection plumbing."""

import numpy as np

from ellu2 import suites
from ellu2.sampling import (
    P_RANGE,
    Q_RANGE,
    draw_base,
    draw_context,
    draw_lambda,
    draw_z,
    run_with_redraws,
)
from ellu2.theta import PoleError


def test_draw_ranges(rng):
    for _ in range(50):
        p, q = draw_base(rng)
        assert P_RANGE[0] <= p <= P_RANGE[1]
        assert Q_RANGE[0] <= q <= Q_RANGE[1]
        lam = draw_lambda(rng)
        assert -2 <= lam.real <= 2 and -1 <= lam.imag <= 1
        z = draw_z(rng)
        assert 0.5 <= abs(z) <= 2.0


def test_pinned_bases_do_not_shift_the_stream():
    a = np.random.default_rng(3)
    b = np.random.default_rng(3)
    draw_base(a)
    draw_base(b, p=0.1, q=0.8)
    assert a.uniform() == b.uniform()
    assert draw_base(np.random.default_rng(0), p=0.1)[0] == 0.1
    assert draw_base(np.random.default_rng(0), q=0.8)[1] == 0.8


def test_draw_context_applies_policy(rng):
    ctx = draw_context(rng, p=0.2, q=0.7, zero_guard=1e-6)
    assert ctx.p == 0.2 and ctx.q == 0.7
    assert ctx.zero_guard == 1e-6


def test_run_with_redraws_retries_then_succeeds():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise PoleError("near a theta zero")
        return calls["n"]

    value, rejected = run_with_redraws(flaky, max_redraws=10)
    assert (value, rejected) == (3, False)


def test_run_with_redraws_rejects_after_budget():
    def hopeless():
        raise ZeroDivisionError

    value, rejected = run_with_redraws(hopeless, max_redraws=4)
    assert value is None and rejected is True


def test_a_suite_redraws_a_check_that_overflows(monkeypatch):
    # Python's abs of a finite complex number beyond the double range raises
    # OverflowError inside a biorth check: the same out-of-range draw the
    # kernels report as a pole, so the suite redraws it.
    original = suites.check_biorth
    raised = []

    def overflows_once(*args):
        if not raised:
            raised.append(1)
            raise OverflowError("absolute value too large")
        return original(*args)

    monkeypatch.setattr(suites, "check_biorth", overflows_once)
    rec = suites.run_suite("biorth", suites.RunConfig(seed=1, samples=1))
    assert raised and rec["pass"] and rec["rejected"] == 0
