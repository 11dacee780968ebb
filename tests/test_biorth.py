"""Biorthogonality of the matrix-element family against its explicit weights."""

import dataclasses
import importlib

import numpy as np
import pytest

from ellu2 import suites
from ellu2.biorth import (
    BiorthCache,
    BiorthParams,
    BiorthReport,
    check_biorth,
    check_dual_biorth,
    norm_h,
    weight_w1,
    weight_w2,
)
from ellu2.biorth import _draw, _item, _oracle_keys, _reports, _series_parts, _summand_keys
from ellu2.biorth import _sweep, _sweep_keys, sweep_rows
from ellu2.rep import rows_of
from ellu2.residuals import scaled, worst
from ellu2.series import vwp_sum
from ellu2.theta import A1_GUARD, CODE, DEN_GUARD, DEN_ZERO, PoleError, ThetaContext, error
from ellu2.theta import pochhammer
from per_draw import draw_context, draw_lambda, draw_z

theta_mod = importlib.import_module("ellu2.theta")


# -- the scalar reference ------------------------------------------------------
#
# The formulas of the two checks one summand at a time, in Python complex
# arithmetic.  The checks compute every (k, l) report of a sweep at once, on
# arrays; each report must equal this one bit for bit, and each check must
# raise where this raises, the same error.


def summand(vals, dual):
    if dual:
        w1, w2, h, f1, f2 = vals
        return w1 * w2 / h * f1 * f2
    w1, w2, f1, f2 = vals
    return w1 * w2 * f1 * f2


def oracle_summand(vals, c_d, dual):
    if dual:
        g1, g2, t1, t2 = vals
        return g1 / g2 * t1 * t2 * c_d
    t1, g1, g2, t2 = vals
    return t1 * g1 / g2 * c_d * t2


def left_to_right(values):
    total = 0.0
    for v in values:
        total = total + v
    return total


def reference_report(read, N, k, l, dual):
    """The report of the (dual) (k, l) check over the items ``read(key)``
    gives.  The items are read first, in the check's order: the determinant
    product, h_k (direct sum), the summand items of j = 0..N, then the oracle
    items of j = 0..N."""
    js = range(N + 1)
    summands = [_summand_keys(k, l, j, dual) for j in js]
    oracles = [_oracle_keys(k, l, j, dual) for j in js]
    head = [("cd",)] + ([] if dual else [("h", k)])
    keys = head + [key for ks in summands for key in ks] + [key for ks in oracles for key in ks]
    v = iter([read(key) for key in keys])
    c_d = next(v)
    hk = None if dual else next(v)
    terms = [summand([next(v) for _ in ks], dual) for ks in summands]
    oracle = [oracle_summand([next(v) for _ in ks], c_d, dual) for ks in oracles]
    max_term = max(abs(t) for t in terms)
    delta = 1.0 if k == l else 0.0
    if dual:
        sum_res = scaled(left_to_right(terms), delta, max_term)
        term_res = worst([scaled(t, o, max_term * 1e-16) for t, o in zip(terms, oracle)])
    else:
        sum_res = scaled(left_to_right(terms), hk if k == l else 0.0, max_term)
        term_res = worst([scaled(t, hk * o, max_term * 1e-16) for t, o in zip(terms, oracle)])
    oracle_res = scaled(left_to_right(oracle), delta, max(abs(o) for o in oracle))
    return BiorthReport(sum_res, term_res, oracle_res, max_term)


def swept(bp):
    """read(key): the value of an item as the sweep at ``bp`` finished it;
    an item that failed raises its error."""
    template = _sweep(bp).template
    (values,), (codes,) = template.bind_all([_draw(bp)])
    return reader(template.plans, values, codes)


def reader(at, values, codes):
    """read(key): the value of the item at position ``at[key]`` of one
    draw's finished ``values`` and failure ``codes``; an item that failed
    raises its error."""

    def read(key):
        i = at[key]
        if codes[i]:
            raise error(codes[i])
        return complex(values[i])

    return read


def bits(report):
    return [x.hex() for x in dataclasses.astuple(report)]


def outcome(run):
    """The bits of the report ``run()`` returns, or the error it raises."""
    try:
        return bits(run())
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)


CHECKS = {False: check_biorth, True: check_dual_biorth}


def assert_rows_read_as_the_checks(bp, dual, wants):
    """``sweep_rows`` at ``bp`` gives the bits of ``wants``, the outcomes of
    the (k, l) checks in row order, or the error of the first that failed."""
    try:
        got = [bits(BiorthReport(*row)) for row in rows_of(sweep_rows([bp], dual)[0])]
    except ArithmeticError as exc:
        got = type(exc).__name__, str(exc)
    assert got == next((w for w in wants if isinstance(w, tuple)), wants), dual


def assert_reports_equal_the_reference(bp):
    """Every (k, l) report of both sweeps at ``bp``, read from a shared
    cache and as lone calls, equals the reference's, or raises its error;
    so do the rows of each sweep read at once."""
    N = bp.N
    read = swept(bp)
    for dual, check in CHECKS.items():
        cache = BiorthCache()
        wants = []
        for k in range(N + 1):
            for l in range(N + 1):
                want = outcome(lambda: reference_report(read, N, k, l, dual))
                assert outcome(lambda: check(bp, k, l, cache)) == want, (dual, k, l)
                if k + l in (0, N):
                    assert outcome(lambda: check(bp, k, l)) == want, (dual, k, l)
                wants.append(want)
        assert_rows_read_as_the_checks(bp, dual, wants)


# Oracles built from the items of a sweep.


def biorth_term(bp, k, l, j):
    """The j-th summand of the biorthogonality sum, pole-safe rewrite."""
    read = swept(bp)
    return summand([read(key) for key in _summand_keys(k, l, j, False)], False)


def dual_term(bp, k, l, j):
    """The j-th summand of the dual biorthogonality sum."""
    read = swept(bp)
    return summand([read(key) for key in _summand_keys(k, l, j, True)], True)


def biorth_rep_oracle(bp, k, l):
    """Oracle sum: expected 1 for k == l and 0 otherwise."""
    read = swept(bp)
    c_d = read(("cd",))
    return sum(
        oracle_summand([read(key) for key in _oracle_keys(k, l, j, False)], c_d, False)
        for j in range(bp.N + 1)
    )


@pytest.fixture(scope="module")
def bp(ctx):
    return BiorthParams(3, 0.8 + 0.4j, 1, 0.3 - 0.2j, 1.2 + 0.5j, ctx)


def test_sum_hits_delta_times_norm(bp):
    for k in range(bp.N + 1):
        for l in range(bp.N + 1):
            total = sum(biorth_term(bp, k, l, j) for j in range(bp.N + 1))
            target = norm_h(bp, k) if k == l else 0.0
            peak = max(abs(biorth_term(bp, k, l, j)) for j in range(bp.N + 1))
            assert abs(total - target) <= 1e-10 * peak


def test_check_biorth_reports(bp):
    cache = BiorthCache()
    for k in range(bp.N + 1):
        for l in range(bp.N + 1):
            report = check_biorth(bp, k, l, cache)
            assert report.sum_residual <= 1e-9
            assert report.termwise_residual <= 1e-9
            assert report.oracle_residual <= 1e-9
            assert report.residual == max(report.sum_residual, report.oracle_residual)
            assert report.max_term > 0.0


def test_check_dual_biorth_reports(bp):
    cache = BiorthCache()
    for k in range(bp.N + 1):
        for l in range(bp.N + 1):
            report = check_dual_biorth(bp, k, l, cache)
            assert report.sum_residual <= 1e-9
            assert report.termwise_residual <= 1e-9
            assert report.oracle_residual <= 1e-9


def test_dual_sum_hits_delta(bp):
    for k in range(bp.N + 1):
        total = sum(dual_term(bp, k, k, j) for j in range(bp.N + 1))
        off = sum(dual_term(bp, k, (k + 1) % (bp.N + 1), j) for j in range(bp.N + 1))
        peak = max(abs(dual_term(bp, k, k, j)) for j in range(bp.N + 1))
        assert abs(total - 1.0) <= 1e-10 * max(peak, 1.0)
        assert abs(off) <= 1e-10 * peak


def test_representation_oracle_is_delta(bp):
    for k in range(bp.N + 1):
        for l in range(bp.N + 1):
            got = biorth_rep_oracle(bp, k, l)
            assert abs(got - (1.0 if k == l else 0.0)) <= 1e-9


def test_cache_does_not_change_results(bp):
    fresh = check_biorth(bp, 1, 2, None)
    cached = check_biorth(bp, 1, 2, BiorthCache())
    assert fresh == cached


@pytest.mark.parametrize("dual", [False, True])
def test_a_cache_read_at_other_params_gives_their_reports(dual):
    # One cache, read at params of one shape, then at other params of that
    # shape, then at another level: each check reports the bits of a fresh
    # call at its own params.
    first = level_four()
    check = CHECKS[dual]
    cache = BiorthCache()
    for bp in (first, dataclasses.replace(first, z=0.7 - 0.9j), dataclasses.replace(first, N=2)):
        for k, l in ((1, 1), (0, 2)):
            assert bits(check(bp, k, l, cache)) == bits(check(bp, k, l)), (bp, k, l)


def biorth_lhs_member(bp, j, kl, shifted):
    """One explicit series factor in its direct form (no merged rewrite)."""
    a1, numer, denom, c, n = _series_parts(bp, j, kl, shifted)
    value, _, _ = vwp_sum(bp.ctx, a1, numer, denom + [c], n)
    return value


def test_merged_rewrite_matches_direct_member(bp):
    # The pole-safe rewrite multiplies each series by a finite Pochhammer
    # prefactor; wherever the direct form avoids its exact poles, both forms
    # must agree after unscaling.
    compared = 0
    for j in range(bp.N + 1):
        for kl in range(bp.N + 1):
            for shifted in (False, True):
                try:
                    direct = biorth_lhs_member(bp, j, kl, shifted)
                except PoleError:
                    continue
                a1, numer, denom, c, n = _series_parts(bp, j, kl, shifted)
                merged, _, _ = vwp_sum(bp.ctx, a1, numer, denom, n, merged=(c, j))
                prefactor = pochhammer(c, j, bp.ctx)
                assert abs(merged - prefactor * direct) <= 1e-9 * max(abs(merged), 1e-300)
                compared += 1
    assert compared >= 8


def test_weights_normalized_at_origin(bp):
    assert abs(weight_w1(bp, 0, 0) - 1.0) <= 1e-12
    assert abs(weight_w2(bp, 0, 0) - 1.0) <= 1e-12


def level_four(guard=1e-12):
    return BiorthParams(
        4, 0.8 + 0.4j, 1, 0.3 - 0.2j, 1.2 + 0.5j, ThetaContext(0.12, 0.67, zero_guard=guard)
    )


@pytest.mark.parametrize("check", [check_biorth, check_dual_biorth])
def test_batched_reports_equal_item_by_item(check):
    # The reference over items each evaluated alone: its template bound by
    # itself, to params on a fresh context, sharing no value with another.
    bp = level_four()
    dual = check is check_dual_biorth

    def alone(key):
        return _item(dataclasses.replace(bp, ctx=ThetaContext(bp.ctx.p, bp.ctx.q)), key)

    cache = BiorthCache()
    for k in range(bp.N + 1):
        for l in range(bp.N + 1):
            batched = check(bp, k, l, cache)
            assert bits(batched) == bits(reference_report(alone, bp.N, k, l, dual))


@pytest.mark.parametrize("N", range(1, 9))
def test_every_report_equals_the_scalar_reference(N):
    rng = np.random.default_rng([20240, N])
    for M in range(3):
        for _ in range(2):
            bp = BiorthParams(N, draw_lambda(rng), M, draw_lambda(rng), draw_z(rng), draw_context(rng))
            assert_reports_equal_the_reference(bp)


def drawn_by_table(monkeypatch, seed, N, M):
    """The params of every draw of the direct table (seed, N, M, 2 samples),
    and how many of them raised."""
    draws, raised = [], []
    rows = suites.sweep_rows

    def recording(bps, dual):
        got = rows(bps, dual)
        draws.extend(bps)
        raised.extend(bp for bp, out in zip(bps, got) if isinstance(out, PoleError))
        return got

    monkeypatch.setattr(suites, "sweep_rows", recording)
    table = suites.biorth_table(suites.RunConfig(seed=seed), N, M, 2, False)
    assert table["pass"] and table["rejected"] == 0
    return draws, len(raised)


@pytest.mark.parametrize("seed,N,failing", [(20240, 8, 2), (3164770343, 6, 1)])
def test_the_pinned_overflow_draws_equal_the_scalar_reference(monkeypatch, seed, N, failing):
    # At seed 20240 the level-8 table redraws twice on a series overflow; at
    # seed 3164770343 the level-6 table redraws once on a tau head that
    # underflows.  Each draw, the redrawn ones too, raises where the
    # reference raises and reports what it reports elsewhere.
    draws, raised = drawn_by_table(monkeypatch, seed, N, 1)
    assert raised == failing and len(draws) == 2 + failing
    for bp in draws:
        assert_reports_equal_the_reference(bp)


def patch_items(monkeypatch, changes):
    """Make every sweep finish the items of ``changes`` as given there: a
    value, or an error of ``theta.ERRORS``, recorded as the item's failure
    by its code."""
    bind_all = theta_mod.Template.bind_all

    def patched(self, draws):
        values, codes = bind_all(self, draws)
        for d in range(len(draws)):
            for key, change in changes.items():
                i = self.plans[key]
                if isinstance(change, Exception):
                    codes[d, i] = CODE[str(change)]
                else:
                    values[d, i] = change
                    codes[d, i] = 0
        return values, codes

    monkeypatch.setattr(theta_mod.Template, "bind_all", patched)


def _one(keys, value):
    return dict.fromkeys(keys, value)


ERROR_CASES = {
    # An item that fails, and in the dual sums a norm h_j that is 0.
    "failed-item-and-zero-h": (
        {("tau", 2, 1): PoleError(DEN_GUARD), ("h", 2): 0j},
        {"PoleError", "ZeroDivisionError"},
    ),
    # A complex division by zero in the oracle summands.
    "zero-g2": ({("g2", 1): 0j}, {"ZeroDivisionError"}),
    # The direct rows k = 1 read a failing h_1 first, the rows k = 3 a
    # failing h_3: the rows of a sweep read at once raise the error of k = 1.
    "rows-fail-apart": (
        {("h", 1): PoleError(A1_GUARD), ("h", 3): PoleError(DEN_ZERO)},
        {"PoleError"},
    ),
    # Every summand of the rows k = 0 is 0: a float division by zero in the
    # residual of an off-diagonal sum.
    "zero-terms": (_one([("w1", j, 0) for j in range(5)], 0j), {"ZeroDivisionError"}),
    # Summand 0 of the direct rows is 1.5e308 (1 + i): abs of it overflows.
    "overflow": (
        {
            **_one([("w1", 0, k) for k in range(5)], 1.5e308 + 1.5e308j),
            **_one([("w2", 0, l) for l in range(5)], 1 + 0j),
            **_one([("f", 0, l, s) for l in range(5) for s in (False, True)], 1 + 0j),
        },
        {"OverflowError"},
    ),
    # Summands 0 and 1 of the direct row (1, 1) add up to h_1 exactly, with
    # a modulus beyond range: abs of the sum overflows where the sum's
    # residual reads 0, and the oracle summands are 0.  The rows (1, l) of
    # l != 1 take w2 small, so that no other row's sum overflows.
    "overflow-equal-sides": (
        {
            **_one([("w1", j, 1) for j in range(5)], 0j),
            ("w1", 0, 1): 1e308 + 0j,
            ("w1", 1, 1): complex(3e307, 1.3e308),
            ("h", 1): complex(1e308 + 3e307, 1.3e308),
            **_one([("w2", j, l) for j in range(5) for l in range(5)], 1e-300 + 0j),
            **_one([("w2", j, 1) for j in range(5)], 1 + 0j),
            **_one([("f", j, 1, s) for j in range(5) for s in (False, True)], 1 + 0j),
            **_one([("tau", j, 1) for j in range(5)], 0j),
        },
        {"OverflowError"},
    ),
}


@pytest.mark.parametrize("case", ERROR_CASES)
def test_each_check_raises_what_the_reference_raises(monkeypatch, case):
    changes, kinds = ERROR_CASES[case]
    patch_items(monkeypatch, changes)
    bp = level_four()
    read = swept(bp)
    rows = [(k, l) for k in range(bp.N + 1) for l in range(bp.N + 1)]
    seen = set()
    for dual, check in CHECKS.items():
        want = {kl: outcome(lambda: reference_report(read, bp.N, *kl, dual)) for kl in rows}
        seen.update(w[0] for w in want.values() if isinstance(w, tuple))
        # In any order on one cache, and each call alone.
        for order in (rows, rows[::-1]):
            cache = BiorthCache()
            assert {kl: outcome(lambda: check(bp, *kl, cache)) for kl in order} == want
        assert {kl: outcome(lambda: check(bp, *kl)) for kl in rows} == want
        assert_rows_read_as_the_checks(bp, dual, [want[kl] for kl in rows])
    assert kinds <= seen


def test_exact_zero_denominator_error_is_unchanged(monkeypatch):
    # A check outside the sweep, k or l beyond N, is refused: h_5 at level 4
    # would hold the exact zero of (q^(-8); q^2)_5 in a denominator.
    with pytest.raises(ValueError, match="outside the sweep"):
        check_biorth(level_four(), 5, 0)
    with pytest.raises(ValueError, match="outside the sweep"):
        check_dual_biorth(level_four(), 0, -1)
    # An item read before another failing one raises first, as reading them
    # one by one would: here c_det_product, read first, whose denominators
    # all fall below a zero guard of 1e3.
    patch_items(monkeypatch, {("w1", 0, 1): PoleError(DEN_ZERO)})
    with pytest.raises(PoleError, match="^denominator theta factor below zero guard$"):
        check_biorth(level_four(guard=1e3), 1, 0)
    # And the patched summand item, read before the oracle items, raises
    # before a failing oracle item.
    patch_items(monkeypatch, {("tau", 0, 1): PoleError(A1_GUARD), ("w1", 0, 1): PoleError(DEN_ZERO)})
    with pytest.raises(PoleError, match=f"^{DEN_ZERO}$"):
        check_biorth(level_four(), 1, 0)


@pytest.mark.parametrize("check", [check_biorth, check_dual_biorth])
def test_full_sweep_makes_few_kernel_calls(monkeypatch, check):
    calls = []
    kernel = theta_mod.theta_columns

    def counted(zs, ctxs):
        calls.append(len(zs))
        return kernel(zs, ctxs)

    monkeypatch.setattr(theta_mod, "theta_columns", counted)
    for sample, bp in enumerate([level_four(), dataclasses.replace(level_four(), z=0.7 - 0.9j)]):
        cache = BiorthCache()
        for k in range(bp.N + 1):
            for l in range(bp.N + 1):
                check(bp, k, l, cache)
        # One kernel call for the whole sweep of a sample, at its first check.
        assert len(calls) == sample + 1
    # The call holds each distinct theta argument of the sweep once.
    assert calls[0] == calls[1] and 0 < calls[0] < 4000


def test_a_full_sweep_finishes_each_item_once_per_sample(monkeypatch):
    finished = []
    bind_all = theta_mod.Template.bind_all

    def counted(self, draws):
        finished.append(list(self.plans))
        return bind_all(self, draws)

    monkeypatch.setattr(theta_mod.Template, "bind_all", counted)
    for bp in (level_four(), dataclasses.replace(level_four(), z=0.7 - 0.9j)):
        cache = BiorthCache()
        for check in (check_biorth, check_dual_biorth):
            finished.clear()
            for k in range(bp.N + 1):
                for l in range(bp.N + 1):
                    check(bp, k, l, cache)
            # The direct sweep, and then the dual sweep, finish every item
            # in one pass, once.
            assert finished == [_sweep_keys(bp.N)], check


SPECIAL = [0j, 1.5e308 + 1.5e308j, complex(1e308, -1e-300), complex("inf"), complex("nan"), 5e-324j]


@pytest.mark.parametrize("N", [2, 3])
def test_special_item_values_report_and_raise_as_the_reference(monkeypatch, N):
    # Items set to zeros, moduli beyond range, infinities and NaNs, a few at
    # a time: each check reports or raises as the reference does, whichever
    # of its operations comes first.
    rng = np.random.default_rng([3164770343, N])
    keys = _sweep_keys(N)
    bp = BiorthParams(N, 0.8 + 0.4j, 1, 0.3 - 0.2j, 1.2 + 0.5j, ThetaContext(0.12, 0.67))
    for _ in range(30):
        picked = rng.choice(len(keys), size=4, replace=False)
        changes = {keys[i]: SPECIAL[rng.integers(len(SPECIAL))] for i in picked}
        monkeypatch.undo()
        patch_items(monkeypatch, changes)
        assert_reports_equal_the_reference(bp)


def test_faults_of_one_summand_come_before_those_of_the_next(monkeypatch):
    # Row (1, 1): every summand is 0, so is the oracle of summand 0, and the
    # reference h_1 times the oracle of summand 1 is 1.5e308 (1 + i).  The
    # termwise residual of summand 0 divides 0 by 0 before abs of summand
    # 1's difference overflows: the check raises the division.
    bp, k = level_four(), 1
    changes = {("w1", j, k): 0j for j in range(bp.N + 1)}
    changes.update(dict.fromkeys([("h", k), ("cd",), ("g1", 1), ("g2", k), ("tau", 1, k)], 1 + 0j))
    changes.update({("tau", 0, k): 0j, ("tilde", 1, k): complex(1.5e308, 1.5e308)})
    patch_items(monkeypatch, changes)
    want = outcome(lambda: reference_report(swept(bp), bp.N, k, k, False))
    assert want == ("ZeroDivisionError", "float division by zero")
    assert outcome(lambda: check_biorth(bp, k, k)) == want
    assert_reports_equal_the_reference(bp)


@pytest.mark.parametrize("N", [2, 3])
def test_stacked_reports_equal_the_scalar_reference(monkeypatch, N):
    # Ten draws of one shape in one batch, every other one with six items
    # set to special values or failures, each draw its own: every report of
    # every draw equals the reference over that draw's items, and each
    # check raises what the reference raises.
    rng = np.random.default_rng([8675309, N])
    keys = _sweep_keys(N)
    changes = iter(range(10))
    bind_all = theta_mod.Template.bind_all
    bound = []

    def patched(self, draws):
        values, codes = bind_all(self, draws)
        bound.append((self.plans, values, codes))
        for d in range(len(draws)):
            if next(changes) % 2:
                for i in rng.choice(len(keys), size=6, replace=False).tolist():
                    pick = rng.integers(len(SPECIAL) + 1)
                    if pick == len(SPECIAL):
                        codes[d, self.plans[keys[i]]] = CODE[DEN_GUARD]
                    else:
                        values[d, self.plans[keys[i]]] = SPECIAL[pick]
        return values, codes

    monkeypatch.setattr(theta_mod.Template, "bind_all", patched)
    bps = []
    for _ in range(10):
        ctx = draw_context(rng)
        bps.append(BiorthParams(N, draw_lambda(rng), 1, draw_lambda(rng), draw_z(rng), ctx))
    seen = set()
    for dual, check in CHECKS.items():
        changes = iter(range(10))
        bound.clear()
        reports = _reports(bps, dual)
        ((at, values, codes),) = bound
        for d, (bp, got) in enumerate(zip(bps, reports)):
            read = reader(at, values[d], codes[d])
            # The checks read this draw's reports from the batch's.
            cache = BiorthCache()
            cache.get((bp, dual), lambda: got)
            for k in range(N + 1):
                for l in range(N + 1):
                    want = outcome(lambda: reference_report(read, N, k, l, dual))
                    assert outcome(lambda: check(bp, k, l, cache)) == want, (dual, k, l)
                    seen.add(want[0] if isinstance(want, tuple) else "report")
    assert {"report", "PoleError", "ZeroDivisionError"} <= seen


def test_a_batch_takes_params_of_one_shape():
    bp = level_four()
    with pytest.raises(ValueError, match="one shape"):
        sweep_rows([bp, dataclasses.replace(bp, M=2)], False)
