"""The tensor checks, bit for bit, against a frozen copy of their earlier code.

``check_coproduct`` and ``check_tensor_relation`` build each leg's states
once per word within a call, and evaluate each once per dynamical point
(``corep._leg``).  The copies below build and evaluate every leg afresh for
every pair, as ``eval_tensor`` did before.  The sums are formed in the same
order from the same values, so every residual must keep its bits.
"""

import numpy as np
import pytest

from ellu2.corep import check_coproduct, check_tensor_relation, t_word
from ellu2.rep import RepContext, apply_word_states, relation_inventory
from ellu2.residuals import residual_between, worst
from ellu2.suites import RunConfig
from ellu2.words import coproduct, word
from per_draw import draw_lambda, draw_z, rep_attempt

# -- the frozen copies ----------------------------------------------------------


def reference_eval_tensor(pairs, m, n, rc1, rc2):
    lam0 = rc1.lam0
    out = {}
    for scalar, w1, w2 in pairs:
        states2 = apply_word_states(word(1.0, w2), n, rc2)
        if not states2:
            continue
        states1 = apply_word_states(word(1.0, w1), m, rc1)
        for n2, f2 in states2:
            right = f2(lam0)
            shift = lam0 - rc2.omega + 2 * n2
            for n1, f1 in states1:
                key = (n1, n2)
                out[key] = out.get(key, 0.0 + 0.0j) + scalar * f1(shift) * right
    return out


def reference_check_coproduct(N, z, m, n, rc1, rc2):
    ctx = rc1.ctx
    res = []
    tws = {(a, b): t_word(N, a, b, z, ctx) for a in range(N + 1) for b in range(N + 1)}
    for k in range(N + 1):
        for j in range(N + 1):
            lhs = reference_eval_tensor(coproduct(tws[(k, j)]), m, n, rc1, rc2)
            rhs = {}
            for s in range(N + 1):
                pairs = [
                    (s1 * s2, w1, w2)
                    for s1, w1 in tws[(k, s)].terms
                    for s2, w2 in tws[(s, j)].terms
                ]
                for key, val in reference_eval_tensor(pairs, m, n, rc1, rc2).items():
                    rhs[key] = rhs.get(key, 0.0 + 0.0j) + val
            res.append(residual_between(lhs, rhs))
    return worst(res)


def reference_check_tensor_relation(lhs, rhs, m, n, rc1, rc2):
    return residual_between(
        reference_eval_tensor(coproduct(lhs), m, n, rc1, rc2),
        reference_eval_tensor(coproduct(rhs), m, n, rc1, rc2),
    )


# -- the comparisons ------------------------------------------------------------


def _draw(seed):
    """Two representations at a shared point, as the corep suite draws them."""
    rng = np.random.default_rng(seed)
    rc = rep_attempt(RunConfig(), rng)
    z = draw_z(rng)
    return rc, RepContext(draw_lambda(rng), rc.lam0, rc.ctx), z, rng


@pytest.mark.parametrize("seed", [20240, 7])
def test_check_coproduct_keeps_its_bits(seed):
    rc, rc2, z, _ = _draw(seed)
    for N in range(1, 4):
        for m in range(3):
            for n in range(3):
                got = check_coproduct(N, z, m, n, rc, rc2)
                want = reference_check_coproduct(N, z, m, n, rc, rc2)
                assert got.hex() == want.hex(), (N, m, n)


@pytest.mark.parametrize("seed", [20240, 7])
def test_check_tensor_relation_keeps_its_bits(seed):
    rc, rc2, _, rng = _draw(seed)
    relations = relation_inventory(draw_z(rng), draw_z(rng), rc.ctx)
    for name, lhs, rhs in relations:
        for m in range(3):
            for n in range(3):
                got = check_tensor_relation(lhs, rhs, m, n, rc, rc2)
                want = reference_check_tensor_relation(lhs, rhs, m, n, rc, rc2)
                assert got.hex() == want.hex(), (name, m, n)
