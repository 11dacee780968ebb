"""Biorthogonality of the matrix-element family against its explicit weights."""

import dataclasses
import importlib
from collections import Counter

import pytest

from ellu2.biorth import (
    BiorthCache,
    BiorthParams,
    biorth_lhs_member,
    c_det_product,
    check_biorth,
    check_dual_biorth,
    norm_h,
    weight_w1,
    weight_w2,
)
from ellu2.biorth import (
    _item,
    _sweep_keys,
    _oracle_keys,
    _oracle_summand,
    _series_parts,
    _summand,
    _summand_keys,
)
from ellu2.series import vwp_sum
from ellu2.theta import PoleError, ThetaContext, pochhammer

theta_mod = importlib.import_module("ellu2.theta")


# Oracles built from the items of a check, each on a cache of its own.


def _values(bp, keys):
    return BiorthCache().resolve(bp, keys)


def biorth_term(bp, k, l, j):
    """The j-th summand of the biorthogonality sum, pole-safe rewrite."""
    return _summand(_values(bp, _summand_keys(k, l, j, False)), False)


def dual_term(bp, k, l, j):
    """The j-th summand of the dual biorthogonality sum."""
    return _summand(_values(bp, _summand_keys(k, l, j, True)), True)


def biorth_oracle_term(bp, k, l, j, c_d):
    """Representation-side value of the j-th biorthogonality summand over h_k."""
    return _oracle_summand(_values(bp, _oracle_keys(k, l, j, False)), c_d, False)


def biorth_rep_oracle(bp, k, l):
    """Oracle sum: expected 1 for k == l and 0 otherwise."""
    c_d = c_det_product(bp)
    return sum(biorth_oracle_term(bp, k, l, j, c_d) for j in range(bp.N + 1))


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


class ItemByItem(BiorthCache):
    """Evaluates every item of a check alone: its template bound by itself, to
    params on a fresh context, with no values shared with any other item."""

    def resolve(self, bp, keys):
        out = []
        for key in keys:
            fresh = dataclasses.replace(bp, ctx=ThetaContext(bp.ctx.p, bp.ctx.q))
            out.append(_item(fresh, key))
        return out


def bits(report):
    return [x.hex() for x in dataclasses.astuple(report)]


@pytest.mark.parametrize("check", [check_biorth, check_dual_biorth])
def test_batched_reports_equal_item_by_item(check):
    bp = level_four()
    cache = BiorthCache()
    for k in range(bp.N + 1):
        for l in range(bp.N + 1):
            batched = check(bp, k, l, cache)
            assert bits(batched) == bits(check(bp, k, l, ItemByItem()))


@pytest.mark.parametrize("check", [check_biorth, check_dual_biorth])
def test_full_sweep_makes_few_kernel_calls(monkeypatch, check):
    calls = []
    kernel = theta_mod.theta_vec

    def counted(zs, ctx):
        calls.append(len(zs))
        return kernel(zs, ctx)

    monkeypatch.setattr(theta_mod, "theta_vec", counted)
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
    finish = theta_mod.Template.finish

    def counted(self, key, vals):
        finished.append(key)
        return finish(self, key, vals)

    monkeypatch.setattr(theta_mod.Template, "finish", counted)
    for bp in (level_four(), dataclasses.replace(level_four(), z=0.7 - 0.9j)):
        finished.clear()
        cache = BiorthCache()
        for check in (check_biorth, check_dual_biorth):
            for k in range(bp.N + 1):
                for l in range(bp.N + 1):
                    check(bp, k, l, cache)
        # The direct and the dual sweep read every item between them.
        assert Counter(finished) == Counter(_sweep_keys(bp.N))


def test_exact_zero_denominator_error_is_unchanged():
    # h_5 at level 4 holds the exact zero of (q^(-8); q^2)_5 in a denominator.
    with pytest.raises(PoleError, match="^exact zero theta factor in denominator$"):
        check_biorth(level_four(), 5, 0)
    with pytest.raises(PoleError, match="^exact zero theta factor in denominator$"):
        check_dual_biorth(level_four(), 0, 5)
    # An item evaluated before the failing build raises first, as it would
    # one item at a time: here c_det_product, whose denominators all fall
    # below a zero guard of 1e3.
    with pytest.raises(PoleError, match="below zero guard"):
        check_biorth(level_four(guard=1e3), 5, 0)
