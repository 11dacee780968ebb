"""Shared fixtures: a generic evaluation context, a seeded RNG, the
biorthogonality sweep plans built over records, and the skeleton finish,
the reference a bound template's finish on arrays is held to.

Hypothesis runs derandomized and without an example database, so every run
of the suite draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import settings

from ellu2.biorth import _ITEMS, BiorthParams, _sweep_keys
from ellu2.theta import LAM, OMEGA, Z, TemplateContext, ThetaContext

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


def finish_by_skeletons(template, draws) -> list:
    """Every plan of ``template`` at each of ``draws`` finished one by one,
    in Python, by its skeleton's ``finish`` from its entries: for each draw,
    (values, failed), the values in plan order (``None`` for a failing
    plan) and the error of each failing plan by position."""
    sources = template._bind(draws, template._sources)
    out = []
    for d in range(len(draws)):
        values, failed = [], {}
        for i, skeleton in enumerate(template._skeletons):
            try:
                values.append(skeleton.finish(template._entries(sources, i, d)))
            except ArithmeticError as exc:
                values.append(None)
                failed[i] = exc
        out.append((values, failed))
    return out


@pytest.fixture(scope="session")
def skeleton_finish():
    """finish(template, draws): the reference finish (``finish_by_skeletons``)."""
    return finish_by_skeletons
