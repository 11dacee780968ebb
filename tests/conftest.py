"""Shared fixtures: a generic evaluation context and a seeded RNG.

Hypothesis runs derandomized and without an example database, so every run
of the suite draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import settings

from ellu2.theta import ThetaContext

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def ctx():
    return ThetaContext(0.12, 0.67)


@pytest.fixture()
def rng():
    return np.random.default_rng(90125)
