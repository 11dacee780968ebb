"""Relative residuals of the identity checks, and their folds, in two forms.

Each rule is written once in its number form, on Python floats and complex
numbers, and, for the rules a batch pass uses, once in its array form:
``worst_along``, ``sum_along``, ``max_along``, ``scaled_split`` and
``residual_between_split``.  An array form takes complex values as split
(real, imaginary) arrays and gives, element by element, the bits of its
number form: each modulus is Python's ``abs`` (``theta._c_abs``, the hypot
of the parts), and each fold takes its values in the order Python takes
them.  The array forms give inf or NaN where the number form raises; a
caller that reports those errors finds them itself.

A NaN residual folds to +inf: ``max(0.0, nan)`` is 0.0, so a plain maximum
would report a check that broke as exact.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .theta import _c_abs

__all__ = [
    "TINY", "worst", "worst_along", "sum_along", "max_along", "scaled", "scaled_split",
    "rel_to_terms", "spread", "residual_between", "residual_between_split",
]

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


def worst_along(values) -> np.ndarray:
    """``worst`` along the first axis of ``values`` (an array, or a
    sequence of arrays and numbers that broadcast): the largest and 0.0,
    or +inf where any value is NaN.  A maximum is one of its values in any
    order, save the sign of a zero, which ``worst`` gives as +0.0."""
    top = 0.0
    for v in values:
        top = np.maximum(top, v)
    return np.where(np.isnan(top), math.inf, np.where(top > 0.0, top, 0.0))


def sum_along(values: tuple) -> tuple:
    """Python's ``sum`` of complex values along the first axis of the split
    arrays ``values``: added left to right from 0.0, each part apart, as
    CPython adds complex numbers."""
    re = im = 0.0
    for a, b in zip(*values):
        re, im = re + a, im + b
    return re, im


def max_along(values) -> np.ndarray:
    """Python's ``max`` along the first axis of ``values`` (an array, or a
    sequence of arrays and numbers that broadcast): a later value replaces
    the largest so far only where it is larger, so a tie keeps the first,
    and a NaN wins only as the first value."""
    it = iter(values)
    top = next(it)
    for v in it:
        top = np.where(v > top, v, top)
    return top


def scaled(lhs: complex, rhs: complex, scale: float) -> float:
    """|lhs - rhs| relative to both sides plus ``scale``, which keeps it
    meaningful where both sides vanish, as an off-diagonal sum does."""
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + scale)


def scaled_split(lhs: tuple, rhs: tuple, scale) -> np.ndarray:
    """``scaled`` on split arrays."""
    diff = lhs[0] - rhs[0], lhs[1] - rhs[1]
    return _c_abs(*diff)[0] / (_c_abs(*lhs)[0] + _c_abs(*rhs)[0] + scale)


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


def residual_between_split(lhs: tuple, rhs: tuple) -> np.ndarray:
    """``residual_between`` of one-index maps on split arrays, element by
    element: |lhs - rhs| (+inf where NaN) over max(|lhs|, |rhs|, TINY)."""
    diff = _c_abs(lhs[0] - rhs[0], lhs[1] - rhs[1])[0]
    return worst_along([diff]) / max_along((_c_abs(*lhs)[0], _c_abs(*rhs)[0], TINY))
