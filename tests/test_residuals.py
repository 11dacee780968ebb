"""The fold of residuals: a plain maximum, except that a NaN fails closed."""

import math
import struct

from hypothesis import given
from hypothesis import strategies as st

from ellu2.residuals import worst

values = st.lists(st.floats(allow_nan=False), max_size=12)


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
