"""The column formatters write exactly what `%` writes, value by value, at
every (decimals, width) the file writers use, kernel and fallback cells
alike."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnssgraph.textnum import fixed, scientific, text

# the '%{width}.{decimals}f' columns of the RINEX, sidecar and trajectory
# writers; width 0 is '%.{decimals}f'
FIXED_COLUMNS = [(3, 14), (3, 0), (4, 0), (6, 0), (9, 0)]
SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


def texts(slots):
    """Each row of slots as text, after checking that NULs only pad it on
    the left."""
    rows = []
    for row in slots.tolist():
        body = bytes(row).lstrip(b"\0")
        assert b"\0" not in body
        rows.append(body.decode("ascii"))
    return rows


def any_bits():
    """Any double, every binade alike: NaNs, infinities and subnormals."""
    return st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64)))


def near(value):
    """`value` moved by up to four ulps either way."""
    return st.integers(-4, 4).map(
        lambda steps: float(value + steps * np.spacing(value)))


def column_values(decimals):
    """Values that test `'%.{decimals}f'`: any double; exact halves k/2**m,
    some of them ties at `decimals`; ±0.0 and negatives that round to
    zero; carries like 9.9995; the largest products the kernel takes;
    NaN and ±inf."""
    unit = 10.0 ** -decimals
    return st.one_of(
        any_bits(),
        st.builds(lambda k, m: k / 2.0 ** m,
                  st.integers(-2 ** 40, 2 ** 40), st.integers(0, 60)),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
        st.floats(-0.5 * unit, 0.0).map(lambda v: min(v, -0.0)),
        st.builds(lambda digits, sign: sign * (10.0 ** digits - unit / 2),
                  st.integers(0, 14), st.sampled_from([1.0, -1.0])
                  ).flatmap(near),
        st.sampled_from([1.0, -1.0]).flatmap(
            lambda sign: near(sign * 2.0 ** 52 * unit)),
        st.floats(-1e9, 1e9),
    )


def scientific_values():
    """As `column_values`, and values next to powers of ten, where the
    exponent is one off, with the range of the sidecar's clock biases."""
    return st.one_of(
        column_values(15),
        st.builds(lambda p, sign: sign * 10.0 ** p, st.integers(-30, 30),
                  st.sampled_from([1.0, -1.0])).flatmap(near),
        st.floats(-1e-3, 1e-3),
    )


@pytest.mark.parametrize("decimals, width", FIXED_COLUMNS)
def test_fixed_writes_what_percent_writes(decimals, width):
    template = f"%{width or ''}.{decimals}f"

    @SETTINGS
    @given(st.lists(column_values(decimals), max_size=12))
    @example([9.9995, -9.9995, 0.0005, -0.0, 2.5e-4, 1e300, -1e-300])
    @example([9.999999999999999e-05, 1e16, 2.0 ** 52, 0.5, 1.5, -2.5])
    def check(values):
        assert texts(fixed(values, decimals, width)) \
            == [template % value for value in values]

    check()


@SETTINGS
@given(st.lists(scientific_values(), max_size=12))
@example([9.999999999999999e-05, 9.9999999999999995e-05, 1e-4,
          1.2345678901234567e-4, -3.2e-12, 5e-324, -1.7976931348623157e308])
@example([0.0, -0.0, math.nan, -math.inf, 1e15, 9.999999999999999e15, 1e16])
def test_scientific_writes_what_percent_writes(values):
    assert texts(scientific(values)) == ["%.15e" % value for value in values]


def test_an_empty_column_has_no_rows():
    assert fixed([], 3, 14).shape[0] == scientific([]).shape[0] == 0


def test_text_joins_slots_and_separators_row_by_row():
    values = [1.5, -1e300, math.nan]
    assert text(fixed(values, 3), b",", scientific(values), b"\n") == "".join(
        f"{value:.3f},{value:.15e}\n" for value in values)
