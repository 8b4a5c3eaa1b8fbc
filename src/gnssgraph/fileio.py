"""Trajectory/graph/satellite-state persistence and scenario config files.

Formats:
  - trajectory CSV: tow, x, y, z, lat_deg, lon_deg, height, status
  - satellite-state sidecar CSV: per epoch/satellite position, velocity,
    clock (replaces ephemeris decoding, which is out of scope)
  - graph JSON: nodes with solved states, edges with type, node indices,
    measurement, and information eigenvalues
  - scenario and solver configuration as YAML
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import fields, is_dataclass
from enum import Enum
from itertools import chain, repeat
from numbers import Real
from typing import get_args, get_type_hints

import numpy as np
import yaml

from . import textnum
from .atmosphere import KlobucharParams, TropoModel
from .coords import ecef_to_geodetic
from .errors import IoFailure, LengthMismatch
from .gnsstime import GpsTime
from .graph import Graph
from .pipeline import PipelineConfig
from .sim import ScenarioConfig
from .types import (STATE_COLUMNS, Constellation, GeodeticPosition,
                    SatelliteId, setting)


class TrajectoryStatus(Enum):
    INITIAL = "Initial"
    OPTIMIZED = "Optimized"
    TRUTH = "Truth"


TRAJECTORY_COLUMNS = ("tow", "x", "y", "z", "lat_deg", "lon_deg", "height",
                      "status")


def write_trajectory_csv(tow, positions, status, stream) -> None:
    """One CSV row per time of week `tow` [s], ECEF position (row of
    `positions`) and its geodetic coordinates, and TrajectoryStatus,
    `_ROW_SLICE` rows at a time; columns of other lengths are a
    LengthMismatch."""
    tow = np.asarray(tow, dtype=float).ravel()
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    status = [state.value for state in status]
    if not len(tow) == len(positions) == len(status):
        raise LengthMismatch(f"trajectory of {len(tow)} times, "
                             f"{len(positions)} positions and "
                             f"{len(status)} statuses")
    geodetic = ecef_to_geodetic(positions)
    columns = np.column_stack([positions, np.degrees(geodetic.latitude),
                               np.degrees(geodetic.longitude),
                               geodetic.height])
    status = textnum.strings(status)
    stream.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
    for a in range(0, len(tow), _ROW_SLICE):
        rows = slice(a, a + _ROW_SLICE)
        x, y, z, lat, lon, height = columns[rows].T
        stream.write(textnum.text(
            textnum.fixed(tow[rows], 3), b",", textnum.fixed(x, 4), b",",
            textnum.fixed(y, 4), b",", textnum.fixed(z, 4), b",",
            textnum.fixed(lat, 9), b",", textnum.fixed(lon, 9), b",",
            textnum.fixed(height, 4), b",", status[rows], b"\r\n"))


def read_trajectory_csv(stream) -> tuple[np.ndarray, np.ndarray, list]:
    """Inverse of `write_trajectory_csv` at its printed precision: the
    times of week (n,), ECEF positions (n, 3) and statuses of the rows."""
    try:
        rows = list(csv.DictReader(stream))
        return (np.array([GpsTime(0, float(row["tow"])).tow for row in rows]),
                np.array([[float(row[axis]) for axis in "xyz"]
                          for row in rows]).reshape(-1, 3),
                [TrajectoryStatus(row["status"]) for row in rows])
    # a bad number, status or time of week; a missing column or field
    except (csv.Error, ValueError, KeyError, TypeError) as exc:
        raise IoFailure(f"trajectory CSV: {exc!r}") from exc


def _json_items(column) -> list[str]:
    """Each item of `column` (a list, or an array of numbers or rows) as
    `json.dumps(column)` writes it, a list without its brackets."""
    items = column.tolist() if isinstance(column, np.ndarray) else column
    if not items:
        return []
    text = json.dumps(items)
    return (text[2:-2].split("], [") if isinstance(items[0], list)
            else text[1:-1].split(", "))


# graph edges or sidecar rows formatted and written at a time, so that no
# section is one string and one slice's Python values are held at once
_ROW_SLICE = 4096


def export_graph_json(graph: Graph, stream, states: np.ndarray | None = None,
                      report=None) -> None:
    """Dump the factor graph for external inspection or plotting: one
    edge per factor, velocity, trrtk, pseudorange then prior, with the
    current rows. `states` defaults to the stored initial states; pass
    the optimizer output to export the solved trajectory. The text is
    `json.dumps` of a dict per node and edge, written kind by kind in
    slices of `_ROW_SLICE` edges: a slice is one `str.join` of each
    column's items, as `json.dumps` writes the column, with the pieces of
    the kind's template between them.
    """
    def eigenvalues(information):
        return np.round(np.sort(np.linalg.eigvalsh(information)), 9)

    def dicts(template, *columns):
        # `template % row` for each row of items, joined by ", ": one join
        # of the items with the template's pieces between them
        items = [_json_items(column) for column in columns]
        if not items[0]:
            return ""
        first, *inner, end = template.split("%s")
        joints = map(repeat, [*inner, f"{end}, {first}"])
        parts = [first, *chain.from_iterable(
            zip(*chain.from_iterable(zip(items, joints))))]
        parts[-1] = end
        return "".join(parts)

    x = graph.initial_states if states is None else states
    vel, tr = graph.velocity_factors, graph.trrtk_factors
    pr, priors = graph.pseudorange_factors, graph.priors
    bounds = [*priors.start.tolist(), len(priors.node)]
    indices, values, information = (
        [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        for rows in (priors.index.tolist(), priors.value.tolist(),
                     priors.information.tolist()))
    edges = (
        ('{"type": "velocity", "nodes": [%s], "measurement": [%s], '
         '"dt": %s, "information_eigenvalues": [%s]}', vel.nodes,
         vel.velocity, vel.dt, eigenvalues(vel.information)),
        ('{"type": "trrtk", "nodes": [%s], "measurement": [%s], '
         '"time_difference": %s, "information_eigenvalues": [%s]}',
         tr.nodes, tr.baseline, tr.time_difference,
         eigenvalues(tr.information)),
        ('{"type": "pseudorange", "nodes": [%s], "satellite": %s, '
         '"measurement": %s, "information_eigenvalues": [%s]}',
         pr.node, list(map(SatelliteId.name_of, pr.sat.tolist())),
         pr.constant, pr.information),
        ('{"type": "prior", "nodes": [%s], "indices": [%s], '
         '"measurement": [%s], "information_eigenvalues": [%s]}',
         priors.node[priors.start], indices, values,
         list(map(sorted, information))))
    try:
        optimizer = "" if report is None else ', "optimizer": ' + json.dumps({
            name: getattr(report, name) for name in
            ("initial_cost", "final_cost", "iterations", "converged")})
    except TypeError as exc:
        raise IoFailure(str(exc)) from exc
    stream.write('{"reference_position": %s, "nodes": [%s], "edges": ['
                 % (json.dumps(graph.reference_position.tolist()),
                    dicts('{"index": %s, "position": [%s], "clocks": [%s]}',
                          list(range(len(x))), np.round(
                              graph.reference_position + x[:, :3], 6),
                          np.round(x[:, 3:], 6))))
    separator = ""
    for template, *columns in edges:
        for start in range(0, len(columns[0]), _ROW_SLICE):
            stream.writelines((separator, dicts(template, *(
                column[start:start + _ROW_SLICE] for column in columns))))
            separator = ", "
    stream.write(']%s}' % optimizer)


SAT_STATE_COLUMNS = ("tow", "sat") + STATE_COLUMNS


def write_sat_states_csv(epochs, sat_states, stream) -> None:
    """Sidecar of the known states of each epoch's satellites, `_ROW_SLICE`
    rows at a time. Times of week are formatted once per epoch, and a
    slice's clock drifts (one per simulated satellite) once per bit
    pattern, as -0.0 and 0.0 print apart."""
    stream.write(",".join(SAT_STATE_COLUMNS) + "\r\n")
    epochs, sat_states = list(epochs), list(sat_states)
    if list(map(len, epochs)) != list(map(len, sat_states)):
        raise IndexError("epochs and satellite states differ in rows")
    states = np.concatenate([np.zeros((0, len(STATE_COLUMNS))), *sat_states])
    sats = np.concatenate([np.zeros(0, int), *(e.sats for e in epochs)])
    tows = textnum.strings([f"{e.time.tow:.3f}," for e in epochs])
    row_epoch = np.arange(len(epochs)).repeat(list(map(len, epochs)))
    known = (~np.isnan(states).any(axis=1)).nonzero()[0]
    for a in range(0, len(known), _ROW_SLICE):
        rows = known[a:a + _ROW_SLICE]
        x, y, z, vx, vy, vz, bias, drift = states[rows].T
        bits, at = np.unique(drift.view(int), return_inverse=True)
        drifts = textnum.scientific(bits.view(float))[at]
        stream.write(textnum.text(
            tows[row_epoch[rows]], SatelliteId.names_of(sats[rows]), b",",
            textnum.fixed(x, 6), b",", textnum.fixed(y, 6), b",",
            textnum.fixed(z, 6), b",", textnum.fixed(vx, 9), b",",
            textnum.fixed(vy, 9), b",", textnum.fixed(vz, 9), b",",
            textnum.scientific(bias), b",", drifts, b"\r\n"))


def _keys(tow, sats) -> np.ndarray:
    """One integer per (time of week to the millisecond, satellite key);
    a time outside the week gives one that no epoch's key equals."""
    tow = np.clip(np.nan_to_num(tow, nan=-1.0), -1.0, 1e9)
    return np.rint(tow * 1000.0).astype(np.int64) * 1000 + sats


# a sidecar row as one record: its time of week, state values and
# satellite name; `SatelliteId.parse` reads only a name's first three
# characters, so a name cut at 16 has the key or the error of the whole
_SAT_STATE_RECORD = np.dtype([("tow", float), ("values", float,
                                               len(STATE_COLUMNS)),
                              ("sat", "U16")])


def read_sat_states_csv(stream, epochs) -> list:
    """Load the sidecar and align it to parsed epochs: per epoch an array
    of `STATE_COLUMNS` with, in row k, the sidecar row of its satellite k
    at its time of week to the millisecond (the last of several), NaN
    where there is none. One `np.loadtxt` pass reads each row's numbers
    and satellite name; any malformed row is an IoFailure."""
    lines = stream.read().splitlines()
    header = next(csv.reader(lines[:1]), None) or SAT_STATE_COLUMNS
    try:
        tow_col, sat_col, *value_cols = (header.index(name)
                                         for name in SAT_STATE_COLUMNS)
    except ValueError as exc:
        raise IoFailure(f"bad satellite-state header: {exc}") from exc
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # about blank lines
            table = np.loadtxt(lines[1:], dtype=_SAT_STATE_RECORD, ndmin=1,
                               delimiter=",", comments=None, quotechar='"',
                               usecols=[tow_col, *value_cols, sat_col])
        names = table["sat"].tolist()
        # each name parsed once, in sorted order: the first bad one raises
        key_of = {name: SatelliteId.parse(name).key
                  for name in sorted(set(names))}
    except (IndexError, ValueError, TypeError) as exc:
        raise IoFailure(f"bad satellite-state row: {exc}") from exc
    sats = np.fromiter(map(key_of.__getitem__, names), int, len(names))
    # the last row of each key, in key order, then one above all of them
    keys = _keys(table["tow"], sats)
    order = np.argsort(keys, kind="stable")
    last = order[np.append(keys[order][1:] != keys[order][:-1], True)]
    keys = np.append(keys[last], np.iinfo(np.int64).max)
    values = np.vstack([table["values"][last],
                        np.full(len(STATE_COLUMNS), np.nan)])
    counts = list(map(len, epochs))
    wanted = _keys(np.repeat([epoch.time.tow for epoch in epochs], counts),
                   np.concatenate([np.zeros(0, int),
                                   *(epoch.sats for epoch in epochs)]))
    found = np.searchsorted(keys, wanted)
    found[keys[found] != wanted] = len(keys) - 1
    rows, bounds = values[found], np.cumsum([0, *counts]).tolist()
    return [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _number(section: dict, key: str, bound=math.inf, default=None) -> float:
    """The value of `key` in the YAML mapping `section` (`default` if
    absent and not None) as a float, if a `setting` of magnitude at most
    `bound` admits it (a finite number, not a bool or a string), else
    ValueError."""
    value = section[key] if default is None else section.get(key, default)
    domain = setting(0.0, -bound, bound).metadata
    if not domain["admits"](value):
        raise ValueError(f"{key} must be {domain['domain']()}, "
                         f"not {value!r}")
    return float(value)


# fields that a YAML file holds in another form: their key in the file,
# and their value to the file and back
FILE_FORMS = {
    "start_time": ("start_time", lambda t: {"week": t.week, "tow": t.tow},
                   lambda d: GpsTime(d["week"], _number(d, "tow"))),
    "origin": ("origin", lambda o: {
        "lat_deg": float(np.degrees(o.latitude)),
        "lon_deg": float(np.degrees(o.longitude)), "height": o.height},
        lambda d: GeodeticPosition(
            np.radians(_number(d, "lat_deg", 90.0)),
            np.radians(_number(d, "lon_deg", 180.0)),
            _number(d, "height", default=0.0))),
    "waypoints": ("waypoints", lambda w: [list(map(float, p)) for p in w],
                  lambda w: w),
    "counts": ("counts", lambda c: {k.value: n for k, n in c.items()},
               lambda d: {Constellation(k): n for k, n in d.items()}),
    "cycle_slips": ("cycle_slips", lambda s: [[str(k), t] for k, t in s],
                    lambda d: [(SatelliteId.parse(k), float(t))
                               for k, t in d]),
    "elevation_mask": ("elevation_mask_deg", lambda m: float(np.degrees(m)),
                       np.radians),
}


def _config_to_yaml(config) -> dict:
    """The YAML mapping of a config dataclass: one key per field, in field
    order; a nested config is a mapping of its own, a missing one null."""
    data = {}
    for f in fields(config):
        key, to_file, _ = FILE_FORMS.get(f.name, (f.name, None, None))
        value = getattr(config, f.name)
        if to_file is not None:
            value = to_file(value)
        elif is_dataclass(value):
            value = _config_to_yaml(value)
        elif isinstance(value, tuple):
            value = list(value)
        data[key] = value
    return data


def _config_from_yaml(cls, data):
    """A `cls` config from the mapping `data` of a YAML file, field by
    field: an absent key keeps its default unless its setting is
    required, an unknown key is refused, a nested config is read the
    same way, and `cls` checks the values (ValueError)."""
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__} must be a mapping, not {data!r}")
    rest, kwargs, hints = dict(data), {}, get_type_hints(cls)
    for f in fields(cls):
        key, to_file, from_file = FILE_FORMS.get(f.name, (f.name, None, None))
        if key not in rest:
            if f.metadata.get("required"):
                raise KeyError(f"{cls.__name__} needs {key}")
            continue
        value, kind = rest.pop(key), hints[f.name]
        kinds = get_args(kind) or (kind,)
        nested = [t for t in kinds if is_dataclass(t)]
        if from_file is not None and "admits" in f.metadata:
            # a setting in other units, refused in the file's own
            native = (from_file(value) if isinstance(value, Real)
                      and not isinstance(value, bool) else None)
            if not f.metadata["admits"](native):
                raise ValueError(f"{key} must be "
                                 f"{f.metadata['domain'](to_file)}, "
                                 f"not {value!r}")
            value = native
        elif from_file is not None:
            value = from_file(value)
        elif nested and not (value is None and type(None) in kinds):
            value = _config_from_yaml(nested[0], value)
        elif tuple in kinds and isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    if rest:
        raise ValueError(f"unknown keys {sorted(map(str, rest))} "
                         f"for {cls.__name__}")
    return cls(**kwargs)


def _load_config_yaml(cls, stream, what: str):
    """(the mapping of the YAML file `stream`, the `cls` config read from
    it); a fault of either is an IoFailure naming `what`."""
    try:
        data = yaml.safe_load(stream) or {}
        return data, _config_from_yaml(cls, data)
    except (yaml.YAMLError, AttributeError, KeyError, TypeError,
            ValueError) as exc:
        raise IoFailure(f"bad {what}: {type(exc).__name__}: {exc}") from exc


def save_scenario_yaml(config, stream, names=None) -> None:
    """Write a config's fields, or only those of `names`, as YAML: the
    solver file of a scenario is its `iono` and `tropo`."""
    data = _config_to_yaml(config)
    yaml.safe_dump({key: data[key] for key in names or data}, stream,
                   sort_keys=False)


def load_scenario_yaml(stream) -> ScenarioConfig:
    """Build a ScenarioConfig from YAML; absent keys keep defaults."""
    return _load_config_yaml(ScenarioConfig, stream, "scenario file")[1]


def load_pipeline_yaml(stream) -> PipelineConfig:
    """Build a PipelineConfig from YAML; absent keys keep defaults, but
    an absent iono or tropo is the model's default, not None.

    Recognized sections: iono, tropo (as in scenario files), solver,
    trrtk, plus top-level use_trrtk, use_pseudorange and pair_lattice.
    Any other key is an `IoFailure`.
    """
    data, config = _load_config_yaml(PipelineConfig, stream, "config file")
    if "iono" not in data:
        # observation files carry no broadcast coefficients; degrade to
        # the model's nighttime constant rather than skipping correction
        warnings.warn("no ionosphere coefficients in config; "
                      "using all-zero Klobuchar (nighttime constant)")
        config.iono = KlobucharParams()
    if "tropo" not in data:
        config.tropo = TropoModel()
    return config
