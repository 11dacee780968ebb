"""The residuals and their folds: a plain maximum, except that a NaN fails
closed; and each array form, element by element, its number form's bits."""

import functools
import math
import operator
import struct

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from ellu2.residuals import (
    max_along,
    residual_between,
    residual_between_split,
    scaled,
    scaled_split,
    sum_along,
    worst,
    worst_along,
)

values = st.lists(st.floats(allow_nan=False), max_size=12)

# Any float, drawn often from a few that tie, a NaN and both zeros among them.
anything = st.one_of(st.floats(), st.sampled_from([math.nan, 0.0, -0.0, 1.0, 2.0, math.inf, 1e308, 5e-324]))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(values)
def test_worst_is_the_maximum_with_zero_bit_for_bit(vals):
    assert _bits(worst(vals)) == _bits(max([0.0, *vals]))
    assert _bits(worst(iter(vals))) == _bits(max([0.0, *vals]))


def test_worst_of_nothing_is_zero():
    assert _bits(worst([])) == _bits(0.0)


@given(values, st.integers(min_value=0))
def test_any_nan_gives_inf(vals, at):
    vals.insert(at % (len(vals) + 1), math.nan)
    assert worst(vals) == math.inf


def columns(least: int):
    """Lists of equal length, at least ``least``: each the values of one
    element along the first axis."""
    return st.integers(least, 6).flatmap(
        lambda n: st.lists(st.lists(anything, min_size=n, max_size=n), min_size=1, max_size=4)
    )


def _along(cols: list) -> np.ndarray:
    """The columns as an array, each down its first axis."""
    return np.array(cols, dtype=float).reshape(len(cols), -1).T


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


@given(columns(0))
@example([[-0.0, -0.0]]).via("a zero's sign")
@example([[math.nan, 1.0], [1.0, math.nan]]).via("a NaN first and later")
def test_worst_along_is_worst_of_each_element(cols):
    got = np.broadcast_to(worst_along(_along(cols)), len(cols))
    assert _hex(got) == _hex([worst(col) for col in cols])


@given(columns(1))
@example([[math.nan, 1.0], [1.0, math.nan]]).via("a NaN first and later")
@example([[0.0, -0.0], [-0.0, 0.0]]).via("tied zeros")
def test_max_along_is_python_max_of_each_element(cols):
    assert _hex(max_along(_along(cols))) == _hex([max(col) for col in cols])


@given(columns(0), st.randoms())
def test_sum_along_is_python_sum_of_each_element(cols, rand):
    parts = [[complex(x, rand.choice([x, -0.0, 1.5, math.nan])) for x in col] for col in cols]
    split = np.array(parts, dtype=complex).reshape(len(parts), -1).T
    re, im = sum_along((split.real, split.imag))
    # Left to right from 0, as ``sum`` adds complex numbers.
    want = [functools.reduce(operator.add, col, 0j) for col in parts]
    assert _hex(np.broadcast_to(re, len(cols))) == _hex([w.real for w in want])
    assert _hex(np.broadcast_to(im, len(cols))) == _hex([w.imag for w in want])


def pairs(n: int):
    return st.lists(st.tuples(*[anything] * n), min_size=1, max_size=8)


def _split(numbers: list) -> tuple:
    return np.array([z.real for z in numbers]), np.array([z.imag for z in numbers])


def _each_as_numbers(cases: list, got: np.ndarray, number_form) -> None:
    """Each element of ``got`` has the bits of ``number_form`` at its case;
    where the number form raises, it is 0, inf or NaN."""
    with np.errstate(all="ignore"):
        for case, value in zip(cases, got.tolist()):
            try:
                want = number_form(*case)
            except (OverflowError, ZeroDivisionError):
                assert not 0.0 < value < math.inf, case
                continue
            assert value.hex() == want.hex(), case


@given(pairs(5))
@example([(0.0, 0.0, -0.0, 0.0, 0.0)]).via("both sides and the scale zero")
@example([(1e308, 1e308, 1e308, 1e308, 1.0)]).via("a modulus beyond range")
def test_scaled_split_is_scaled_of_each_element(cases):
    numbers = [(complex(a, b), complex(c, d), s) for a, b, c, d, s in cases]
    lhs, rhs, scale = zip(*numbers)
    with np.errstate(all="ignore"):
        got = scaled_split(_split(lhs), _split(rhs), np.array(scale))
    _each_as_numbers(numbers, got, scaled)


@given(pairs(4))
@example([(0.0, -0.0, 0.0, 0.0)]).via("two zeros")
@example([(math.nan, 1.0, 2.0, 0.0), (2.0, 0.0, math.nan, 1.0)]).via("a NaN on either side")
def test_residual_between_split_is_residual_between_of_each_element(cases):
    numbers = [(complex(a, b), complex(c, d)) for a, b, c, d in cases]
    lhs, rhs = zip(*numbers)
    with np.errstate(all="ignore"):
        got = residual_between_split(_split(lhs), _split(rhs))
    _each_as_numbers(numbers, got, lambda l, r: residual_between({0: l}, {0: r}))
