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
from enum import Enum
from itertools import repeat

import numpy as np
import yaml

from .atmosphere import KlobucharParams, TropoModel
from .coords import ecef_to_geodetic
from .errors import IoFailure
from .gnsstime import GpsTime
from .graph import Graph
from .types import STATE_COLUMNS, Constellation, GeodeticPosition, SatelliteId


class TrajectoryStatus(Enum):
    INITIAL = "Initial"
    OPTIMIZED = "Optimized"
    TRUTH = "Truth"


TRAJECTORY_COLUMNS = ("tow", "x", "y", "z", "lat_deg", "lon_deg", "height",
                      "status")
_TRAJECTORY_ROW = "%.3f" + ",%.4f" * 3 + ",%.9f" * 2 + ",%.4f,%s\r\n"


def write_trajectory_csv(tow, positions, status, stream) -> None:
    """One CSV row per time of week `tow` [s], ECEF position (row of
    `positions`) and its geodetic coordinates, and TrajectoryStatus."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    geodetic = ecef_to_geodetic(positions)
    stream.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
    stream.writelines(map(_TRAJECTORY_ROW.__mod__, zip(
        np.asarray(tow, dtype=float).tolist(), *positions.T.tolist(),
        np.degrees(geodetic.latitude).tolist(),
        np.degrees(geodetic.longitude).tolist(), geodetic.height.tolist(),
        (state.value for state in status))))


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


# edges formatted and written at a time, so no section is one string
_EDGE_SLICE = 4096


def export_graph_json(graph: Graph, stream, states: np.ndarray | None = None,
                      report=None) -> None:
    """Dump the factor graph for external inspection or plotting: one
    edge per factor, velocity, trrtk, pseudorange then prior, with the
    current rows. `states` defaults to the stored initial states; pass
    the optimizer output to export the solved trajectory. The text is
    `json.dumps` of a dict per node and edge, written kind by kind in
    slices of `_EDGE_SLICE` edges.
    """
    def eigenvalues(information):
        return np.round(np.sort(np.linalg.eigvalsh(information)), 9)

    def dicts(template, *columns):
        return ", ".join(map(template.__mod__,
                             zip(*map(_json_items, columns))))

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
        for start in range(0, len(columns[0]), _EDGE_SLICE):
            stream.writelines((separator, dicts(template, *(
                column[start:start + _EDGE_SLICE] for column in columns))))
            separator = ", "
    stream.write(']%s}' % optimizer)


SAT_STATE_COLUMNS = ("tow", "sat") + STATE_COLUMNS
_SAT_STATE_ROW = "%s,%s" + ",%.6f" * 3 + ",%.9f" * 3 + ",%.15e" * 2 + "\r\n"


def write_sat_states_csv(epochs, sat_states, stream) -> None:
    """Sidecar of the known states of each epoch's satellites, one
    `writelines` per epoch."""
    stream.write(",".join(SAT_STATE_COLUMNS) + "\r\n")
    for epoch, states in zip(epochs, sat_states):
        known = ~np.isnan(states).any(axis=1)
        stream.writelines(map(_SAT_STATE_ROW.__mod__, zip(
            repeat(f"{epoch.time.tow:.3f}"),
            map(SatelliteId.name_of, epoch.sats[known].tolist()),
            *states[known].T.tolist())))


def _keys(tow, sats) -> np.ndarray:
    """One integer per (time of week to the millisecond, satellite key);
    a time outside the week gives one that no epoch's key equals."""
    tow = np.clip(np.nan_to_num(tow, nan=-1.0), -1.0, 1e9)
    return np.rint(tow * 1000.0).astype(np.int64) * 1000 + sats


def read_sat_states_csv(stream, epochs) -> list:
    """Load the sidecar and align it to parsed epochs: per epoch an array
    of `STATE_COLUMNS` with, in row k, the sidecar row of its satellite k
    at its time of week to the millisecond (the last of several), NaN
    where there is none."""
    lines = stream.read().splitlines()
    header = next(csv.reader(lines[:1]), None) or SAT_STATE_COLUMNS
    try:
        tow_col, sat_col, *value_cols = (header.index(name)
                                         for name in SAT_STATE_COLUMNS)
    except ValueError as exc:
        raise IoFailure(f"bad satellite-state header: {exc}") from exc
    try:
        dialect = dict(delimiter=",", comments=None, quotechar='"')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # about blank lines
            numbers = np.loadtxt(lines[1:], ndmin=2, **dialect,
                                 usecols=[tow_col, *value_cols])
            texts = np.loadtxt(lines[1:], dtype=str, ndmin=1, **dialect,
                               usecols=sat_col)
        names, column = np.unique(texts, return_inverse=True)
        sats = np.array([SatelliteId.parse(text).key
                         for text in names.tolist()], dtype=int)[column]
    except (IndexError, ValueError, TypeError) as exc:
        raise IoFailure(f"bad satellite-state row: {exc}") from exc
    # the last row of each key, in key order, then one above all of them
    keys = _keys(numbers[:, 0], sats)
    order = np.argsort(keys, kind="stable")
    last = order[np.append(keys[order][1:] != keys[order][:-1], True)]
    keys = np.append(keys[last], np.iinfo(np.int64).max)
    values = np.vstack([numbers[last, 1:], np.full(len(STATE_COLUMNS),
                                                   np.nan)])
    counts = list(map(len, epochs))
    wanted = _keys(np.repeat([epoch.time.tow for epoch in epochs], counts),
                   np.concatenate([np.zeros(0, int),
                                   *(epoch.sats for epoch in epochs)]))
    found = np.searchsorted(keys, wanted)
    found[keys[found] != wanted] = len(keys) - 1
    return np.split(values[found], np.cumsum(counts)[:-1]) if epochs else []


def delay_models_to_dict(iono: KlobucharParams | None,
                         tropo: TropoModel | None) -> dict:
    """The `iono` and `tropo` entries of a scenario or solver file; a
    missing model is null."""
    return {
        "iono": (None if iono is None
                 else {"alpha": list(iono.alpha), "beta": list(iono.beta)}),
        "tropo": (None if tropo is None
                  else {"pressure": tropo.pressure,
                        "temperature": tropo.temperature,
                        "humidity": tropo.humidity}),
    }


def delay_models_from_dict(data: dict) -> dict:
    """Inverse of `delay_models_to_dict` for the keys `data` has: null
    gives None, an absent key no entry. A malformed entry is an
    IoFailure."""
    models = {}
    try:
        if "iono" in data:
            models["iono"] = (None if data["iono"] is None
                              else KlobucharParams(
                                  alpha=tuple(data["iono"]["alpha"]),
                                  beta=tuple(data["iono"]["beta"])))
        if "tropo" in data:
            models["tropo"] = (None if data["tropo"] is None
                               else TropoModel(**data["tropo"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise IoFailure(
            f"bad delay model: {type(exc).__name__}: {exc}") from exc
    return models


def scenario_to_dict(config) -> dict:
    origin = config.origin
    data = {
        "duration": config.duration,
        "rate": config.rate,
        "start_time": {"week": config.start_time.week,
                       "tow": config.start_time.tow},
        "origin": {"lat_deg": float(np.degrees(origin.latitude)),
                   "lon_deg": float(np.degrees(origin.longitude)),
                   "height": origin.height},
        "trajectory": {
            "kind": config.trajectory.kind,
            "speed": config.trajectory.speed,
            "radius": config.trajectory.radius,
            "waypoints": [list(map(float, w))
                          for w in config.trajectory.waypoints],
            "blend": config.trajectory.blend,
        },
        "noise": {
            "pseudorange_sigma": config.noise.pseudorange_sigma,
            "phase_sigma": config.noise.phase_sigma,
            "doppler_sigma": config.noise.doppler_sigma,
        },
        "receiver_clock": {"bias0": config.receiver_clock.bias0,
                           "drift": config.receiver_clock.drift},
        "satellite_clock_bias_sigma": config.satellite_clock_bias_sigma,
        "satellite_clock_drift_sigma": config.satellite_clock_drift_sigma,
        "counts": {c.value: n for c, n in config.counts.items()},
        "cycle_slips": [[str(sat), t] for sat, t in config.cycle_slips],
        **delay_models_to_dict(config.iono, config.tropo),
        "seed": config.seed,
    }
    return data


def save_scenario_yaml(config, stream) -> None:
    yaml.safe_dump(scenario_to_dict(config), stream, sort_keys=False)


def load_scenario_yaml(stream):
    """Build a ScenarioConfig from YAML; absent keys keep defaults."""
    from .sim import (NoiseConfig, ReceiverClockConfig, ScenarioConfig,
                      TrajectoryConfig)

    try:
        data = yaml.safe_load(stream) or {}
    except yaml.YAMLError as exc:
        raise IoFailure(f"bad scenario file: {exc}") from exc
    if not isinstance(data, dict):
        raise IoFailure("scenario file must be a mapping")

    kwargs: dict = {}
    for key in ("duration", "rate", "satellite_clock_bias_sigma",
                "satellite_clock_drift_sigma", "seed"):
        if key in data:
            kwargs[key] = data[key]
    if "start_time" in data:
        st = data["start_time"]
        kwargs["start_time"] = GpsTime(int(st["week"]), float(st["tow"]))
    if "origin" in data:
        o = data["origin"]
        kwargs["origin"] = GeodeticPosition(np.radians(o["lat_deg"]),
                                            np.radians(o["lon_deg"]),
                                            o.get("height", 0.0))
    if "trajectory" in data:
        kwargs["trajectory"] = TrajectoryConfig(**data["trajectory"])
    if "noise" in data:
        kwargs["noise"] = NoiseConfig(**data["noise"])
    if "receiver_clock" in data:
        kwargs["receiver_clock"] = ReceiverClockConfig(
            **data["receiver_clock"])
    if "counts" in data:
        kwargs["counts"] = {Constellation(letter): int(n)
                            for letter, n in data["counts"].items()}
    if "cycle_slips" in data:
        kwargs["cycle_slips"] = [(SatelliteId.parse(text), float(t))
                                 for text, t in data["cycle_slips"]]
    kwargs.update(delay_models_from_dict(data))
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise IoFailure(f"bad scenario file: {exc}") from exc


PIPELINE_KEYS = {"use_trrtk", "use_pseudorange", "pair_lattice", "iono",
                 "tropo", "solver", "trrtk"}


def load_pipeline_yaml(stream):
    """Build a PipelineConfig from YAML; absent keys keep defaults.

    Recognized sections: iono, tropo (as in scenario files), solver,
    trrtk, plus top-level use_trrtk, use_pseudorange and pair_lattice.
    Any other key is an `IoFailure`.
    """
    from .pipeline import PipelineConfig
    from .pointpos import SolverConfig
    from .trrtk import TrRtkConfig

    try:
        data = yaml.safe_load(stream) or {}
    except yaml.YAMLError as exc:
        raise IoFailure(f"bad config file: {exc}") from exc
    if not isinstance(data, dict):
        raise IoFailure("config file must be a mapping")
    unknown = set(data) - PIPELINE_KEYS
    if unknown:
        raise IoFailure(f"bad config file: unknown keys "
                        f"{sorted(map(str, unknown))}")

    kwargs: dict = {}
    for name in ("use_trrtk", "use_pseudorange"):
        if name in data:
            if not isinstance(data[name], bool):
                raise IoFailure(f"bad config file: {name} must be true or "
                                f"false, not {data[name]!r}")
            kwargs[name] = data[name]
    if "pair_lattice" in data:
        lattice = data["pair_lattice"]
        if not (isinstance(lattice, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) for v in lattice)):
            raise IoFailure(f"bad config file: pair_lattice must be a list "
                            f"of offsets in seconds, not {lattice!r}")
        kwargs["pair_lattice"] = tuple(float(v) for v in lattice)
    if "iono" not in data:
        # observation files carry no broadcast coefficients; degrade to
        # the model's nighttime constant rather than skipping correction
        warnings.warn("no ionosphere coefficients in config; "
                      "using all-zero Klobuchar (nighttime constant)")
    kwargs.update({"iono": KlobucharParams(), "tropo": TropoModel(),
                   **delay_models_from_dict(data)})
    try:
        for name, section in (("solver", SolverConfig),
                              ("trrtk", TrRtkConfig)):
            values = dict(data.get(name, {}))
            if "elevation_mask_deg" in values:
                values["elevation_mask"] = np.radians(
                    values.pop("elevation_mask_deg"))
            if values:
                kwargs[name] = section(**values)
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise IoFailure(f"bad config file: {exc}") from exc
