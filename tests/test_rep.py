"""Dynamical representation: letter actions, relations, determinant forms."""

import numpy as np
import pytest

from ellu2.rep import (
    RepContext,
    antipode_inverse_identities,
    apply_word,
    apply_word_scaled,
    coef_a,
    coef_b,
    coef_c,
    coef_d,
    det_form_elements,
    det_scalar,
    residual_between,
)
from ellu2.theta import theta
from ellu2.words import L_alpha, L_beta, L_delta, L_gamma, word
from one_element import check_det_forms, check_relations


def draw_rc(ctx, rng):
    om = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
    lam0 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
    z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return RepContext(om, lam0, ctx), z


def test_single_letter_actions(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    for m in range(4):
        for letter, fn, shift in [
            (L_alpha, coef_a, 0),
            (L_beta, coef_b, 1),
            (L_gamma, coef_c, -1),
            (L_delta, coef_d, 0),
        ]:
            got = apply_word(word(1.0, (letter(z),)), m, rc)
            if m + shift < 0:
                assert got == {}
                continue
            expect = fn(m, rc.lam0, z, rc.omega, rc.ctx)
            assert set(got) == {m + shift}
            assert abs(got[m + shift] - expect) <= 1e-13 * abs(expect)


def test_lowering_annihilates_bottom_state(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    got = apply_word(word(1.0, (L_gamma(z),)), 0, rc)
    assert got.get(-1, 0.0) == 0.0 or abs(got.get(-1, 0.0)) == 0.0


def test_apply_word_is_linear(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    x = word(1.3, (L_alpha(z), L_beta(z)))
    y = word(-0.4j, (L_delta(z),))
    combined = apply_word(x + y, 2, rc)
    xs = apply_word(x, 2, rc)
    ys = apply_word(y, 2, rc)
    for k in set(xs) | set(ys):
        ref = xs.get(k, 0.0) + ys.get(k, 0.0)
        assert abs(combined.get(k, 0.0) - ref) <= 1e-13 * max(abs(ref), 1.0)


def test_apply_word_scaled_reports_peak(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    el = word(1.0, (L_alpha(z), L_delta(z))) + word(-1.0, (L_beta(z), L_gamma(z)))
    plain = apply_word(el, 2, rc)
    scaled, peak = apply_word_scaled(el, 2, rc)
    assert scaled == plain
    # Each word is a single path, so any aggregated coefficient is at most
    # the number of words times the largest single contribution.
    assert peak > 0.0
    assert len(el) * peak >= max(abs(v) for v in plain.values())


def test_residual_between():
    a = {0: 1.0 + 0.0j, 1: 2.0j}
    assert residual_between(a, dict(a)) == 0.0
    b = {0: 1.0 + 1e-8j, 1: 2.0j}
    assert 0 < residual_between(a, b) <= 1e-8
    # A large cancellation floor absorbs absolute-size differences.
    assert residual_between(a, b, floor=1e8) <= 1e-15


def test_defining_relations_hold(ctx, rng):
    worst = 0.0
    for _ in range(2):
        rc, z = draw_rc(ctx, rng)
        z1, z2 = draw_rc(ctx, rng)[1], draw_rc(ctx, rng)[1]
        rows = check_relations(rc, z1, z2, z, mmax=4, kmax_reverse=3)
        assert len(rows) >= 20
        worst = max(worst, max(res for _, res in rows))
    assert worst <= 1e-9


def test_relation_rows_cover_every_family(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    names = [name for name, _ in check_relations(rc, z, 0.9 * z, 1.1 * z, mmax=1)]
    for needle in ("exchange", "residual", "reverse", "antipode"):
        assert any(needle in name for name in names), needle


def test_det_forms_agree_with_scalar(ctx, rng):
    for _ in range(3):
        rc, z = draw_rc(ctx, rng)
        rows = check_det_forms(rc, z, mmax=4)
        assert len(rows) == len(det_form_elements(z, ctx))
        assert max(res for _, res in rows) <= 1e-10


def test_det_scalar_closed_form(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    om = rc.omega
    ref = ctx.qpow(om) * theta(z * ctx.qpow(1 - om), ctx) / theta(z * ctx.qpow(1 + om), ctx)
    got = det_scalar(z, om, ctx)
    assert abs(got - ref) <= 1e-13 * abs(ref)
    assert abs(det_scalar(z, 0.0, ctx) - 1.0) <= 1e-13


def test_antipode_inversion_identities(ctx, rng):
    rc, z = draw_rc(ctx, rng)
    worst = 0.0
    for _, lhs, rhs in antipode_inverse_identities(z, ctx):
        for m in range(4):
            lmap, lpeak = apply_word_scaled(lhs, m, rc)
            rmap, rpeak = apply_word_scaled(rhs, m, rc)
            worst = max(worst, residual_between(lmap, rmap, max(lpeak, rpeak)))
    assert worst <= 1e-10
