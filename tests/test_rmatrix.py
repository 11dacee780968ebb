"""Dynamical R-matrix entries, determinant closed form, and the hexagon identity."""

import importlib

import numpy as np
import pytest

from ellu2.rmatrix import (
    det_residual,
    middle_det_closed,
    qdybe_residual,
    r_entries,
    r_matrix,
)
from ellu2.residuals import residual_between
from ellu2.suites import RunConfig, run_suite
from ellu2.theta import PoleError, theta


def draw_point(rng):
    lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
    z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return lam, z


def test_entries_at_unit_argument(ctx):
    a, b, c, d = r_entries(0.3 + 0.1j, 1.0 + 0.0j, ctx)
    assert a == 0 and d == 0
    assert abs(b - 1.0) <= 1e-14
    assert abs(c - 1.0) <= 1e-14


def test_matrix_weight_zero_structure(ctx, rng):
    lam, z = draw_point(rng)
    R = r_matrix(lam, z, ctx)
    a, b, c, d = r_entries(lam, z, ctx)
    assert R.shape == (4, 4)
    assert R[0, 0] == 1 and R[3, 3] == 1
    assert R[1, 1] == a and R[1, 2] == b
    assert R[2, 1] == c and R[2, 2] == d
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = mask[3, 3] = False
    mask[1:3, 1:3] = False
    assert np.all(R[mask] == 0)


def test_middle_determinant_closed_form(ctx, rng):
    for _ in range(25):
        lam, z = draw_point(rng)
        a, b, c, d = r_entries(lam, z, ctx)
        got = a * d - b * c
        ref = middle_det_closed(z, ctx)
        assert abs(got - ref) <= 1e-12 * max(abs(got), abs(ref))


def test_middle_determinant_explicit_thetas(ctx, rng):
    _, z = draw_point(rng)
    ref = ctx.qpow(2) * theta(z * ctx.qpow(-2), ctx) / theta(z * ctx.qpow(2), ctx)
    assert abs(middle_det_closed(z, ctx) - ref) <= 1e-14 * abs(ref)


def test_inversion_property(ctx, rng):
    P = np.zeros((4, 4))
    P[0, 0] = P[3, 3] = 1.0
    P[1, 2] = P[2, 1] = 1.0
    for _ in range(10):
        lam, z = draw_point(rng)
        R = r_matrix(lam, z, ctx)
        R21_inv = P @ r_matrix(lam, 1.0 / z, ctx) @ P
        assert np.max(np.abs(R21_inv @ R - np.eye(4))) <= 1e-12


def test_hexagon_identity(ctx, rng):
    for _ in range(10):
        lam, _ = draw_point(rng)
        z1, z2, z3 = (draw_point(rng)[1] for _ in range(3))
        assert qdybe_residual(lam, z1, z2, z3, ctx) <= 1e-12


def test_pole_guards(ctx):
    with pytest.raises(PoleError):
        r_entries(0.3 + 0.1j, ctx.qpow(-2), ctx)
    # 2 lam + 2 = 0 makes the diagonal entry denominators vanish exactly.
    with pytest.raises(PoleError):
        r_entries(-1.0 + 0.0j, 1.3 + 0.2j, ctx)


@pytest.mark.parametrize("seed", [3, 27, 36, 50])
def test_qdybe_det_gate_passes_under_cancellation(seed):
    # At these seeds a d - b c cancels, and scaling by |det| alone failed.
    report = run_suite("qdybe", RunConfig(seed=seed))
    assert report["pass"], report["notes"]


def test_det_gate_rejects_a_wrong_closed_form(monkeypatch, ctx, rng):
    rmatrix = importlib.import_module("ellu2.rmatrix")
    right = rmatrix.middle_det_closed
    points = [draw_point(rng) for _ in range(10)]
    assert max(det_residual(lam, z, ctx) for lam, z in points) <= 1e-12

    def without_q2(z, c):
        return right(z, c) / c.qpow(2)

    monkeypatch.setattr(rmatrix, "middle_det_closed", without_q2)
    assert min(det_residual(lam, z, ctx) for lam, z in points) > 1e-3
    assert not run_suite("qdybe", RunConfig(seed=3, samples=5))["pass"]


def test_the_hexagon_residual_is_residual_between_of_its_entries(ctx, rng):
    # Each side as a map of its 64 entries by flat index, every modulus
    # Python's abs: numpy's abs of a complex array differs in the last bit
    # for about a third of its elements.
    rmatrix = importlib.import_module("ellu2.rmatrix")
    leg = rmatrix._leg_op
    for _ in range(10):
        lam, _ = draw_point(rng)
        z1, z2, z3 = (draw_point(rng)[1] for _ in range(3))
        r12, r13, r23 = (z1 / z2, (0, 1), 2), (z1 / z3, (0, 2), 1), (z2 / z3, (1, 2), 0)
        lhs = leg(lam, *r12, True, ctx) @ leg(lam, *r13, False, ctx) @ leg(lam, *r23, True, ctx)
        rhs = leg(lam, *r23, False, ctx) @ leg(lam, *r13, True, ctx) @ leg(lam, *r12, False, ctx)
        want = residual_between(*(dict(enumerate(side.ravel().tolist())) for side in (lhs, rhs)))
        assert qdybe_residual(lam, z1, z2, z3, ctx).hex() == want.hex()
