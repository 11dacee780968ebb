"""A bound template reports every failure of a draw as a code.

``Template.bind_all`` never raises: where ``theta_columns`` fails a draw
(a theta argument that underflowed to 0, at which ``theta_vec`` raises),
every plan of that draw takes the code of ``PoleError(THETA_RANGE)``, and
the other draws keep the bits they get bound alone.  The one-sample
entries raise that error at their first read.
"""

import importlib

import numpy as np
import pytest

from ellu2.biorth import BiorthParams, _draw, _sweep, check_biorth
from ellu2.corep import _Tower, tau_plan, tau_tilde_plan
from ellu2.rep import RELATIONS_SHAPE, RepContext, _relation_rows, _rows_at, compiled
from ellu2.theta import CODE, THETA_RANGE, PoleError, ThetaContext
from one_element import closed_tower

theta_mod = importlib.import_module("ellu2.theta")

# Three draws, each at a base of its own; ``theta_columns`` is made to fail
# the middle one.
CONTEXTS = [ThetaContext(0.12, 0.67), ThetaContext(0.15, 0.71), ThetaContext(0.2, 0.63)]
LAMS = [0.31 - 0.22j, -0.7 + 0.4j, 1.1 + 0.3j]
OMEGAS = [0.8 + 0.35j, -0.45 + 0.6j, 0.25 - 0.5j]
ZS = [1.2 + 0.5j, 0.7 - 0.6j, -0.9 + 0.8j]
Z1S = [0.95 + 0.2j, 1.3 - 0.4j, 0.6 + 0.7j]
Z2S = [-1.1 + 0.3j, 0.8 + 0.9j, 1.05 - 0.15j]


def rep_contexts():
    return [RepContext(omega, lam, ctx) for omega, lam, ctx in zip(OMEGAS, LAMS, CONTEXTS)]


def biorth_params():
    return [BiorthParams(2, lam, 1, omega, z, ctx) for lam, omega, z, ctx in zip(LAMS, OMEGAS, ZS, CONTEXTS)]


def templates():
    """(name, template, draws) of a biorth sweep, a corep tower of each
    plan and the relations check."""
    bps = biorth_params()
    towers = [(rc.ctx, rc.lam0, rc.omega, z) for rc, z in zip(rep_contexts(), ZS)]
    relations = [
        (rc.ctx, rc.lam0, rc.omega, z, z1, z2) for rc, z, z1, z2 in zip(rep_contexts(), ZS, Z1S, Z2S)
    ]
    return [
        ("biorth sweep", _sweep(bps[0]).template, [_draw(bp) for bp in bps]),
        ("tau tower", _Tower(tau_plan, 2, 1e-12).template, towers),
        ("tau~ tower", _Tower(tau_tilde_plan, 2, 1e-12).template, towers),
        ("relations", compiled(_relation_rows, RELATIONS_SHAPE).template, relations),
    ]


@pytest.fixture
def failing_middle(monkeypatch):
    """``theta_columns`` failing the column at the middle draw's base, as
    at an argument 0: its values left at 1.0, and it listed as failed."""
    theta_columns, broken = theta_mod.theta_columns, CONTEXTS[1]

    def failing(zs, ctxs):
        values, failed = theta_columns(zs, ctxs)
        at = [k for k, ctx in enumerate(ctxs) if ctx is broken]
        values[:, at] = 1.0
        return values, sorted({*failed, *at})

    monkeypatch.setattr(theta_mod, "theta_columns", failing)


def bits(values, codes):
    return values.tobytes(), codes.tobytes()


@pytest.mark.parametrize("case", range(4), ids=[name for name, *_ in templates()])
def test_a_draw_whose_theta_values_raise_takes_their_code_at_every_plan(failing_middle, case):
    _, template, draws = templates()[case]
    values, codes = template.bind_all(draws)
    assert (codes[1] == CODE[THETA_RANGE]).all()
    for d in (0, 2):
        alone = template.bind_all([draws[d]])
        assert bits(values[d], codes[d]) == bits(alone[0][0], alone[1][0])


def test_each_one_sample_entry_raises_the_theta_error_at_the_failing_draw(failing_middle):
    rc, z, bp = rep_contexts()[1], ZS[1], biorth_params()[1]
    for plan in (tau_plan, tau_tilde_plan):
        read = closed_tower(plan, 2, rc, z)
        for side in ("closed", "word"):
            with pytest.raises(PoleError, match=THETA_RANGE):
                read(0, 0, 0, side)
    with pytest.raises(PoleError, match=THETA_RANGE):
        _rows_at(rc, _relation_rows, RELATIONS_SHAPE, z=z, z1=Z1S[1], z2=Z2S[1])
    with pytest.raises(PoleError, match=THETA_RANGE):
        check_biorth(bp, 0, 0)


def test_an_argument_that_underflows_gives_codes_not_an_exception():
    # A weight of 1e300 drives a record of the relations check out of the
    # double range, to a theta argument of exactly 0: unforced, the bind
    # returns that draw's codes and keeps the other draws' bits.
    _, template, draws = templates()[3]
    draws[1] = (draws[1][0], draws[1][1], 1e300, *draws[1][3:])
    with pytest.raises(PoleError, match=THETA_RANGE):
        theta_mod.theta_vec(template._records(draws[1:2])[template._theta, 0], draws[1][0])
    values, codes = template.bind_all(draws)
    assert (codes[1] == CODE[THETA_RANGE]).all()
    alone = template.bind_all([draws[2]])
    assert bits(values[2], codes[2]) == bits(alone[0][0], alone[1][0])
    assert np.isfinite(values[0]).all() and not codes[0].any()
