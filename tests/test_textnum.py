"""The column formatters write exactly what `%` writes, value by value, at
every (decimals, width) the file writers use, kernel and fallback cells
alike; `shortest` writes what `json.dumps` writes, and `integers` what
`str` writes."""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnssgraph import textnum
from gnssgraph.fileio import export_graph_json, write_sat_states_csv
from gnssgraph.pipeline import PipelineConfig, solve_trajectory
from gnssgraph.rinex import header_for_scenario, write_rinex_obs
from gnssgraph.sim import ScenarioConfig, TrajectoryConfig, run_scenario
from gnssgraph.textnum import fixed, integers, scientific, shortest, text
from gnssgraph.types import Constellation

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
# `shortest`'s largest shift, 46, at 1e-4 <= |x| < 2**-13
@example([1e-4, float(np.nextafter(1e-4, 1.0)), -1e-4,
          float(np.nextafter(2.0 ** -13, 0.0)), 2.0 ** -13])
def test_shortest_writes_what_json_dumps_writes(values):
    assert texts(shortest(values), bytes.strip) == list(map(json.dumps,
                                                            values))


@SETTINGS
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=12))
@example([0, -1, 9, 10, -10, 99, 100, 2 ** 63 - 1, -2 ** 63])
# the edges of the digit layout's width: one digit, a sign, two digits,
# 19 digits
@example([0])
@example([9, -9])
@example([10, 9])
@example([-10, 0])
@example([10 ** 18, -10 ** 18, 1])
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
# the core takes 2**-35 and leaves the values below it to 1e-12 to `%`
@example([2.0 ** -35, float(np.nextafter(2.0 ** -35, 0.0)),
          -float(np.nextafter(2.0 ** -35, 1.0)), 1e-12,
          float(np.nextafter(1e-12, 0.0)), -3.2e-12, 2.9e-11])
def test_scientific_writes_what_percent_writes(values):
    assert texts(scientific(values)) == ["%.15e" % value for value in values]


def either_sign(*values):
    """Any of `values`, of either sign, moved by up to four ulps."""
    return st.builds(lambda value, sign: sign * value, st.sampled_from(values),
                     st.sampled_from([1.0, -1.0])).flatmap(near)


@SETTINGS
@given(st.lists(st.one_of(any_bits(), either_sign(
    2.0 ** -35, 1e-12, 1e-4, 2.0 ** -13, 1e16)), max_size=12),
       st.sampled_from([16, 17]))
@example([2.0 ** -35, float(np.nextafter(2.0 ** -35, 0.0)), 1e-12, 1e15,
          9.999999999999999e15, 0.0, math.nan, -math.inf], 16)
@example([1e-4, float(np.nextafter(2.0 ** -13, 0.0)), 2.0 ** -13,
          float(np.nextafter(1e16, 0.0)), 1e16, 5e-324], 17)
def test_the_core_scales_exactly(values, digits):
    """Where `_scaled` takes a value, |x| * 10**(digits - 1 - E) is
    q + r / 2**shift exactly, with 0 <= r < 2**shift <= 2**61."""
    taken, exponent, shift, q, r = textnum._scaled(np.array(values), digits)
    for value, took, e, bits, whole, rest in zip(
            values, taken.tolist(), exponent.tolist(), shift.tolist(),
            q.tolist(), r.tolist()):
        if took:
            assert 1 <= bits <= 61 and 0 <= rest < 2 ** bits
            assert whole + Fraction(rest, 2 ** bits) == Fraction(
                abs(value)) * Fraction(10) ** (digits - 1 - e)
        else:
            assert (e, bits, whole, rest) == (0, 1, 0, 0)


def test_an_empty_column_has_no_rows():
    assert fixed([], 3, 14).shape[0] == scientific([]).shape[0] == 0
    assert shortest([]).shape[0] == integers([]).shape[0] == 0


def test_text_joins_slots_and_separators_row_by_row():
    values = [1.5, -1e300, math.nan]
    assert text(fixed(values, 3), b",", scientific(values), b"\n") == "".join(
        f"{value:.3f},{value:.15e}\n" for value in values)


# each kernel's fallback cells when the benchmark's 30-minute GPS+GAL
# circle (`long-cli-notr`) is written to RINEX, sidecar and graph.json, at
# the benchmark's simulator seed 1 and at seed 701
CIRCLE_FALLBACKS = {
    1: {"%14.3f": 3, "%.6f": 775, "%.9f": 75, "%.15e": 169, "dumps": 0,
        "str": 0},
    701: {"%14.3f": 2, "%.6f": 748, "%.9f": 74, "%.15e": 170, "dumps": 0,
          "str": 0},
}


@pytest.mark.parametrize("seed", sorted(CIRCLE_FALLBACKS))
def test_the_benchmark_circle_reaches_the_kernels(seed, monkeypatch):
    """No kernel sends more of the circle's cells to `%`, `json.dumps` or
    `str` than `CIRCLE_FALLBACKS` allows, so that no change moves them
    there quietly."""
    fallbacks = dict.fromkeys(CIRCLE_FALLBACKS[seed], 0)
    spied = textnum._with_fallback

    def spy(positions, cells, values, to_text):
        template = getattr(to_text, "__self__", None)
        key = template if isinstance(template, str) else to_text.__name__
        fallbacks[key] += int(cells.sum())
        return spied(positions, cells, values, to_text)

    monkeypatch.setattr(textnum, "_with_fallback", spy)
    cfg = ScenarioConfig(duration=1800.0,
                         trajectory=TrajectoryConfig(kind="circle",
                                                     speed=1.0, radius=30.0),
                         counts={Constellation.GPS: 31,
                                 Constellation.GAL: 24}, seed=seed)
    truth, epochs, states = run_scenario(cfg)
    write_rinex_obs(header_for_scenario(cfg, truth[0].position), epochs,
                    io.StringIO())
    write_sat_states_csv(epochs, states, io.StringIO())
    result = solve_trajectory(epochs, states,
                              PipelineConfig(iono=cfg.iono, tropo=cfg.tropo,
                                             use_trrtk=False))
    export_graph_json(result.graph, io.StringIO(), states=result.states,
                      report=result.report)
    assert all(fallbacks[key] <= most
               for key, most in CIRCLE_FALLBACKS[seed].items()), fallbacks
