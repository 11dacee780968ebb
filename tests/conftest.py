"""Shared fixtures: a generic evaluation context, a seeded RNG, the
biorthogonality sweep plans built over records, and the scalar finish of
plans built over records, the reference a bound template's finish on
arrays is held to.

Hypothesis runs derandomized and without an example database, so every run
of the suite draws the same cases.
"""

import functools

import numpy as np
import pytest
from hypothesis import settings

from ellu2.biorth import _ITEMS, BiorthParams, _sweep_keys
from ellu2.theta import (
    LAM,
    OMEGA,
    Z,
    Scalar,
    Template,
    TemplateContext,
    ThetaContext,
    known,
    theta_vec,
)

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def ctx():
    return ThetaContext(0.12, 0.67)


@pytest.fixture()
def rng():
    return np.random.default_rng(90125)


@pytest.fixture(scope="session")
def sweep_plans():
    """plans(N, M, zero_guard=1e-12): the (key, plan) pairs of every item of
    the sweep of that shape, in sweep order, built over records (the plans
    a sweep's template is compiled from), once per session.

    The plans are shared by every test that asks for them: read them, never
    change them.  A test that measures a build builds its own.
    """
    built: dict = {}

    def plans(N: int, M: int, zero_guard: float = 1e-12) -> tuple:
        shape = (N, M, zero_guard)
        if shape not in built:
            # The params ``biorth._symbols`` makes: the symbols for numbers.
            symbols = BiorthParams(N, LAM, M, OMEGA, Z, TemplateContext(zero_guard))
            built[shape] = tuple(
                (key, _ITEMS[key[0]](symbols, *key[1:])) for key in _sweep_keys(N)
            )
        return built[shape]

    return plans


def plain_values(plans, draws, kept: dict) -> list:
    """For each of ``draws``, the values of the arguments of each plan of
    ``plans`` ((key, plan) pairs built over records), bound plainly: each
    distinct record of the plans is a record scalar (``known``) of one
    template, which gives the value of each ``Scalar`` record, and each
    theta argument takes ``theta_vec`` of its record's value at the draw's
    context, as a bound template does (an element of ``theta_vec`` does not
    depend on the rest of its batch).  ``kept`` keeps the templates of the
    last plans bound, by the plans' identity: the shared sweep plans are
    bound by many tests."""
    got = kept.pop(id(plans), None)
    if got is None:
        records: dict = {}
        thetas: dict = {}
        # Each argument: its record's position, or ~ its theta argument's.
        rows = [
            [
                records.setdefault(a.rec, len(records))
                if type(a) is Scalar
                else ~thetas.setdefault(records.setdefault(a, len(records)), len(thetas))
                for a in plan.args
            ]
            for _, plan in plans
        ]
        ctx = TemplateContext()
        plain = Template((i, known(ctx, rec)) for i, rec in enumerate(records))
        got = (plans, plain, np.array(list(thetas), dtype=np.intp), rows)
    kept[id(plans)] = got  # kept with the plans, so that their id stays theirs
    while len(kept) > 8:
        kept.pop(next(iter(kept)))
    _, plain, thetas, rows = got
    values, _ = plain.bind_all(draws)
    out = []
    for draw, recs in zip(draws, values):
        th = theta_vec(recs[thetas], draw[0]).tolist() if len(thetas) else []
        flat = recs.tolist()
        out.append([[flat[r] if r >= 0 else th[~r] for r in at] for at in rows])
    return out


def finish_by_plans(plans, draws, kept: dict) -> list:
    """Every plan of ``plans`` at each of ``draws`` finished one by one, in
    Python, by its own scalar ``finish`` over its arguments bound plainly
    (``plain_values``): for each draw, (values, failed), the values in plan
    order (``None`` for a failing plan) and the error of each failing plan
    by position."""
    out = []
    for bound in plain_values(plans, draws, kept):
        values, failed = [], {}
        for i, ((_, plan), vals) in enumerate(zip(plans, bound)):
            try:
                values.append(plan.finish(vals))
            except ArithmeticError as exc:
                values.append(None)
                failed[i] = exc
        out.append((values, failed))
    return out


@pytest.fixture(scope="session")
def scalar_finish():
    """finish(plans, draws): the reference finish (``finish_by_plans``)."""
    return functools.partial(finish_by_plans, kept={})
