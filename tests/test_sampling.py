"""Parameter draw policy and pole-rejection plumbing."""

import dataclasses
import itertools

import numpy as np
import pytest

from ellu2 import suites
from ellu2.biorth import BiorthCache, BiorthParams, check_biorth, check_dual_biorth
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


def sequential_biorth(cfg, rng, N, M, samples, dual, fail):
    """The reference sampler: each attempt drawn and evaluated alone, in
    turn; attempt t raises ``fail[t]`` once drawn."""
    checker = check_dual_biorth if dual else check_biorth
    attempts = itertools.count()

    def sample():
        t = next(attempts)
        ctx = cfg.context(rng)
        bp = BiorthParams(N, draw_lambda(rng), M, draw_lambda(rng), draw_z(rng), ctx)
        if t in fail:
            raise fail[t]
        cache = BiorthCache()
        return {(k, l): checker(bp, k, l, cache) for k in range(N + 1) for l in range(N + 1)}

    return suites._sample(samples, cfg.max_redraws, sample)


def prefetched_biorth(monkeypatch, cfg, rng, N, M, samples, dual, fail):
    """The suites' sampler, its batch evaluation patched to fail attempt t
    with ``fail[t]``: the draws reach it in attempt order."""
    evaluate = suites._evaluate
    attempts = itertools.count()

    def failing(drawn, dual):
        return [fail.get(next(attempts), got) for got in evaluate(drawn, dual)]

    monkeypatch.setattr(suites, "_evaluate", failing)
    draws = suites._BiorthDraws(cfg, rng, N, M, check_dual_biorth if dual else check_biorth, dual)
    return suites._sample(samples, cfg.max_redraws, draws.attempt, draws.pending)


def watched(monkeypatch, run):
    """(result, attempts per sample, what each failed attempt raised) of
    ``run()``, seen through the ``run_with_redraws`` the suites module calls."""
    original = suites.run_with_redraws
    attempts, raised = [], []

    def counting(fn, max_redraws=50):
        attempts.append(0)

        def attempt():
            attempts[-1] += 1
            try:
                return fn()
            except ArithmeticError as exc:
                raised.append((type(exc).__name__, str(exc)))
                raise

        return original(attempt, max_redraws)

    monkeypatch.setattr(suites, "run_with_redraws", counting)
    try:
        return run(), attempts, raised
    finally:
        monkeypatch.setattr(suites, "run_with_redraws", original)


def report_bits(values):
    return [
        {kl: [x.hex() for x in dataclasses.astuple(r)] for kl, r in reports.items()}
        for reports in values
    ]


@pytest.mark.parametrize("dual", [False, True])
def test_prefetched_biorth_draws_equal_drawing_one_at_a_time(monkeypatch, dual):
    # Six samples, at most three attempts each.  Attempt 0 fails (the first
    # of the first batch), attempt 3 fails (mid-batch), and attempts 5-7,
    # all of sample 3, fail: it is rejected, and its redraws empty the
    # first batch and start the next two.
    cfg = suites.RunConfig(seed=5, max_redraws=3)
    fail = {
        0: PoleError("first attempt"),
        3: ZeroDivisionError("mid-batch attempt"),
        5: OverflowError("rejected sample, 1"),
        6: PoleError("rejected sample, 2"),
        7: PoleError("rejected sample, 3"),
    }
    runs = {}
    for name, sampler in (("sequential", sequential_biorth), ("prefetched", prefetched_biorth)):
        rng = np.random.default_rng([5, 2])
        args = (cfg, rng, 2, 1, 6, dual, fail)
        if name == "prefetched":
            args = (monkeypatch, *args)
        (values, rejected), attempts, raised = watched(monkeypatch, lambda: sampler(*args))
        runs[name] = (report_bits(values), rejected, attempts, raised, rng.bit_generator.state)
    assert runs["prefetched"] == runs["sequential"]
    _, rejected, attempts, raised, _ = runs["sequential"]
    assert rejected == 1 and attempts == [2, 1, 2, 3, 1, 1]
    assert raised == [(type(e).__name__, str(e)) for e in fail.values()]
