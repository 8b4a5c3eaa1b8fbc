"""The column formatters write exactly what `%` writes, value by value, at
every (decimals, width) the file writers use, kernel and fallback cells
alike; `shortest` writes what `json.dumps` writes, and `integers` what
`str` writes."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnssgraph.textnum import fixed, integers, scientific, shortest, text

# the '%{width}.{decimals}f' columns of the RINEX, sidecar and trajectory
# writers; width 0 is '%.{decimals}f'
FIXED_COLUMNS = [(3, 14), (3, 0), (4, 0), (6, 0), (9, 0)]
SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


def texts(slots, strip=bytes.lstrip):
    """Each row of slots as text, after checking that NULs only pad it on
    the left (or, with `bytes.strip`, on either side)."""
    rows = []
    for row in slots.tolist():
        body = strip(bytes(row), b"\0")
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


def json_values():
    """Values that test `shortest`: any double; values next to powers of
    two, where the interval that reads back as the value is narrower
    below; next to powers of ten, where floor(log10) may be one off and,
    at 1e-4 and 1e16, `repr` turns to exponent form; exact ties of the
    17th digit (quarters from 1e15 to 2**52) and near-ties (decimal
    halves moved by a few ulps); ±0.0, NaN and ±inf; and values rounded
    to 6 and 9 decimals by `np.round`, as graph.json's positions, clocks
    and eigenvalues are."""
    sign = st.sampled_from([1.0, -1.0])
    return st.one_of(
        any_bits(),
        st.builds(lambda p, s: s * 2.0 ** p, st.integers(-40, 60),
                  sign).flatmap(near),
        st.builds(lambda p, s: s * 10.0 ** p, st.integers(-5, 17),
                  sign).flatmap(near),
        st.builds(lambda k, quarter: k + quarter / 4,
                  st.integers(10 ** 15, 2 ** 52 - 1), st.integers(0, 3)),
        st.builds(lambda k, d: (k + 0.5) / 10.0 ** d,
                  st.integers(0, 10 ** 12), st.integers(0, 20)).flatmap(near),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
        st.builds(lambda v, d: float(np.round(v, d)), st.floats(-1e9, 1e9),
                  st.sampled_from([6, 9])),
    )


@SETTINGS
@given(st.lists(json_values(), max_size=12))
@example([0.1, 0.3, 1.0, 123.456, 2.0 ** 52, 4503599627370495.5,
          1950399101862835.25, 9999999999999998.0, 1e16, 1e-4,
          9.999999999999999e-05, 5e-324, -1.7976931348623157e308])
@example([0.0, -0.0, math.nan, math.inf, -math.inf, -1e-7, 1e22,
          2.0 ** -14, 2.0 ** 53, 1e15 + 0.5, 20200000.000001])
def test_shortest_writes_what_json_dumps_writes(values):
    assert texts(shortest(values), bytes.strip) == list(map(json.dumps,
                                                            values))


@SETTINGS
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=12))
@example([0, -1, 9, 10, -10, 99, 100, 2 ** 63 - 1, -2 ** 63])
def test_integers_write_what_str_writes(values):
    assert texts(integers(np.array(values, dtype=np.int64))) == list(
        map(str, values))


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
    assert shortest([]).shape[0] == integers([]).shape[0] == 0


def test_text_joins_slots_and_separators_row_by_row():
    values = [1.5, -1e300, math.nan]
    assert text(fixed(values, 3), b",", scientific(values), b"\n") == "".join(
        f"{value:.3f},{value:.15e}\n" for value in values)
