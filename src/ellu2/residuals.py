"""Relative residuals of the identity checks, and ``worst``, their one fold.

A NaN residual folds to +inf: ``max(0.0, nan)`` is 0.0, so a plain maximum
would report a check that broke as exact.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["TINY", "worst", "scaled", "rel_to_terms", "spread", "residual_between"]

# The least scale of a relative residual: comparing two zeros gives 0, not NaN.
TINY = 1e-300


def worst(values: Iterable[float]) -> float:
    """The largest of ``values`` and 0.0, or +inf if any value is NaN.

    Otherwise the same number, bit for bit, as ``max([0.0, *values])``.
    """
    top = 0.0
    for v in values:
        if v > top:
            top = v
        elif v != v:
            return math.inf
    return top


def scaled(lhs: complex, rhs: complex, scale: float) -> float:
    """|lhs - rhs| relative to both sides plus ``scale``, which keeps it
    meaningful where both sides vanish, as an off-diagonal sum does."""
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + scale)


def rel_to_terms(lhs: complex, rhs: complex, max_term: float) -> float:
    """|lhs - rhs| relative to the largest term of the series ``lhs`` plus both sides."""
    return abs(lhs - rhs) / max(max_term + abs(lhs) + abs(rhs), TINY)


def spread(vals: list[complex]) -> float:
    """Largest pairwise difference among values that should agree, relative to the largest."""
    scale = max(max(abs(v) for v in vals), TINY)
    return worst([abs(a - b) for a in vals for b in vals]) / scale


def residual_between(
    lhs: dict[int, complex], rhs: dict[int, complex], floor: float = 0.0
) -> float:
    """Relative max-norm difference of two index-to-coefficient maps.

    ``floor`` enters the scale only; passing the peak path contribution keeps
    the residual meaningful when the aggregated coefficients nearly cancel.
    """
    diff = worst([abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) for k in set(lhs) | set(rhs)])
    scale = max(
        max((abs(v) for v in lhs.values()), default=0.0),
        max((abs(v) for v in rhs.values()), default=0.0),
        floor,
        TINY,
    )
    return diff / scale
