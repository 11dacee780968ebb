"""Biorthogonality of the matrix-element family against its explicit weights."""

import pytest

from ellu2.biorth import (
    BiorthCache,
    BiorthParams,
    biorth_lhs_member,
    biorth_rep_oracle,
    biorth_term,
    check_biorth,
    check_dual_biorth,
    dual_term,
    norm_h,
    weight_w1,
    weight_w2,
)
from ellu2.biorth import _series_parts
from ellu2.series import vwp_sum
from ellu2.theta import PoleError, pochhammer


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
