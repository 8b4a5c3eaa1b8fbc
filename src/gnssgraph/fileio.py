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
import operator
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import yaml

from .atmosphere import KlobucharParams, TropoModel
from .coords import ecef_to_geodetic
from .errors import IoFailure
from .gnsstime import GpsTime
from .graph import Graph, GraphConfig
from .types import (Constellation, GeodeticPosition, SatelliteId,
                    SatelliteState)


class TrajectoryStatus(Enum):
    INITIAL = "Initial"
    OPTIMIZED = "Optimized"
    TRUTH = "Truth"


@dataclass(frozen=True)
class TrajectoryRecord:
    time: GpsTime
    position: np.ndarray
    geodetic: GeodeticPosition
    status: TrajectoryStatus

    @staticmethod
    def from_position(time: GpsTime, position: np.ndarray,
                      status: TrajectoryStatus) -> "TrajectoryRecord":
        return TrajectoryRecord(time, np.asarray(position, float),
                                ecef_to_geodetic(position), status)


TRAJECTORY_COLUMNS = ("tow", "x", "y", "z", "lat_deg", "lon_deg", "height",
                      "status")


def write_trajectory_csv(records, stream) -> None:
    try:
        writer = csv.writer(stream)
        writer.writerow(TRAJECTORY_COLUMNS)
        for rec in records:
            writer.writerow([
                f"{rec.time.tow:.3f}",
                f"{rec.position[0]:.4f}",
                f"{rec.position[1]:.4f}",
                f"{rec.position[2]:.4f}",
                f"{np.degrees(rec.geodetic.latitude):.9f}",
                f"{np.degrees(rec.geodetic.longitude):.9f}",
                f"{rec.geodetic.height:.4f}",
                rec.status.value,
            ])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_trajectory_csv(stream, week: int = 0) -> list[TrajectoryRecord]:
    """Inverse of `write_trajectory_csv` (positions at printed precision).

    The CSV stores time-of-week only; `week` restores full GpsTime.
    """
    try:
        rows = list(csv.DictReader(stream))
    except (OSError, csv.Error) as exc:
        raise IoFailure(str(exc)) from exc
    records = []
    for row in rows:
        position = np.array([float(row["x"]), float(row["y"]),
                             float(row["z"])])
        records.append(TrajectoryRecord(
            GpsTime(week, float(row["tow"])), position,
            GeodeticPosition(np.radians(float(row["lat_deg"])),
                             np.radians(float(row["lon_deg"])),
                             float(row["height"])),
            TrajectoryStatus(row["status"])))
    return records


def export_graph_json(graph: Graph, stream, states: np.ndarray | None = None,
                      report=None) -> None:
    """Dump the factor graph for external inspection or plotting.

    `states` defaults to the stored initial states; pass the optimizer
    output to export the solved trajectory.
    """
    x = graph.initial_states if states is None else states
    nodes = [{
        "index": k,
        "position": list(np.round(graph.reference_position + x[k, :3], 6)),
        "clocks": list(np.round(x[k, 3:], 6)),
    } for k in range(x.shape[0])]

    def eigenvalues(info):
        return list(np.round(np.sort(np.linalg.eigvalsh(info)), 9))

    edges = []
    for f in graph.velocity_factors:
        edges.append({"type": "velocity", "nodes": [f.node_i, f.node_j],
                      "measurement": list(f.measured_velocity),
                      "dt": f.dt,
                      "information_eigenvalues": eigenvalues(f.information)})
    for f in graph.trrtk_factors:
        edges.append({"type": "trrtk",
                      "nodes": [f.node_past, f.node_current],
                      "measurement": list(f.baseline),
                      "time_difference": f.time_difference,
                      "information_eigenvalues": eigenvalues(f.information)})
    for f in graph.pseudorange_factors:
        edges.append({"type": "pseudorange", "nodes": [f.node],
                      "satellite": str(f.sat),
                      "measurement": f.corrected_measurement,
                      "information_eigenvalues": [f.information]})
    for f in graph.priors:
        edges.append({"type": "prior", "nodes": [f.node],
                      "indices": [int(i) for i in f.indices],
                      "measurement": list(f.values),
                      "information_eigenvalues": sorted(map(float,
                                                            f.information))})
    payload = {"reference_position": list(graph.reference_position),
               "nodes": nodes, "edges": edges}
    if report is not None:
        payload["optimizer"] = {
            "initial_cost": report.initial_cost,
            "final_cost": report.final_cost,
            "iterations": report.iterations,
            "converged": report.converged,
        }
    try:
        json.dump(payload, stream, indent=1)
    except (OSError, TypeError) as exc:
        raise IoFailure(str(exc)) from exc


SAT_STATE_COLUMNS = ("tow", "sat", "x", "y", "z", "vx", "vy", "vz",
                     "clock_bias", "clock_drift")


def write_sat_states_csv(epochs, sat_states, stream) -> None:
    """Satellite-state sidecar aligned with a RINEX observation file."""
    try:
        writer = csv.writer(stream)
        writer.writerow(SAT_STATE_COLUMNS)
        for epoch, states in zip(epochs, sat_states):
            for sat in sorted(states, key=lambda s: s.sort_key()):
                st = states[sat]
                writer.writerow(
                    [f"{epoch.time.tow:.3f}", str(sat)]
                    + [f"{v:.6f}" for v in st.position]
                    + [f"{v:.9f}" for v in st.velocity]
                    + [f"{st.clock_bias:.15e}", f"{st.clock_drift:.15e}"])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_sat_states_csv(stream, epochs) -> list[dict]:
    """Load the sidecar and align it to parsed epochs by time-of-week."""
    by_tow: dict[float, dict] = {}
    sat_ids: dict[str, SatelliteId] = {}     # each satellite text parsed once
    try:
        rows = csv.reader(stream)
        header = next(rows, None) or SAT_STATE_COLUMNS
        try:
            tow_col, sat_col, *value_cols = (header.index(name)
                                             for name in SAT_STATE_COLUMNS)
        except ValueError as exc:
            raise IoFailure(f"bad satellite-state header: {exc}") from exc
        values = operator.itemgetter(*value_cols)
        for row in rows:
            if not row:
                continue
            try:
                tow = round(float(row[tow_col]), 3)
                text = row[sat_col]
                sat = sat_ids.get(text)
                if sat is None:
                    sat = sat_ids[text] = SatelliteId.parse(text)
                x, y, z, vx, vy, vz, bias, drift = map(float, values(row))
                state = SatelliteState(position=np.array([x, y, z]),
                                       velocity=np.array([vx, vy, vz]),
                                       clock_bias=bias, clock_drift=drift)
            except (IndexError, ValueError, TypeError) as exc:
                raise IoFailure(
                    f"bad satellite-state row {row}: {exc}") from exc
            by_tow.setdefault(tow, {})[sat] = state
    except (OSError, csv.Error) as exc:
        raise IoFailure(str(exc)) from exc
    return [by_tow.get(round(epoch.time.tow, 3), {}) for epoch in epochs]


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
        "iono": (None if config.iono is None
                 else {"alpha": list(config.iono.alpha),
                       "beta": list(config.iono.beta)}),
        "tropo": (None if config.tropo is None
                  else {"pressure": config.tropo.pressure,
                        "temperature": config.tropo.temperature,
                        "humidity": config.tropo.humidity}),
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
    if "iono" in data:
        kwargs["iono"] = (None if data["iono"] is None else KlobucharParams(
            alpha=tuple(data["iono"]["alpha"]),
            beta=tuple(data["iono"]["beta"])))
    if "tropo" in data:
        kwargs["tropo"] = (None if data["tropo"] is None
                           else TropoModel(**data["tropo"]))
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise IoFailure(f"bad scenario file: {exc}") from exc


PIPELINE_KEYS = {"use_trrtk", "use_pseudorange", "pair_lattice", "iono",
                 "tropo", "solver", "trrtk"}


def load_pipeline_yaml(stream):
    """Build a PipelineConfig from YAML; absent keys keep defaults.

    Recognized sections: iono, tropo (as in scenario files), solver,
    trrtk, plus top-level use_trrtk / pair_lattice and use_pseudorange,
    which sets `graph.use_pseudorange`. Any other key is an `IoFailure`.
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
    if "use_trrtk" in data:
        kwargs["use_trrtk"] = bool(data["use_trrtk"])
    if "use_pseudorange" in data:
        kwargs["graph"] = GraphConfig(
            use_pseudorange=bool(data["use_pseudorange"]))
    if "pair_lattice" in data:
        kwargs["pair_lattice"] = tuple(float(v) for v in data["pair_lattice"])
    if "iono" in data:
        kwargs["iono"] = (None if data["iono"] is None else KlobucharParams(
            alpha=tuple(data["iono"]["alpha"]),
            beta=tuple(data["iono"]["beta"])))
    else:
        # observation files carry no broadcast coefficients; degrade to
        # the model's nighttime constant rather than skipping correction
        warnings.warn("no ionosphere coefficients in config; "
                      "using all-zero Klobuchar (nighttime constant)")
        kwargs["iono"] = KlobucharParams()
    if "tropo" in data:
        kwargs["tropo"] = (None if data["tropo"] is None
                           else TropoModel(**data["tropo"]))
    else:
        kwargs["tropo"] = TropoModel()
    solver_data = dict(data.get("solver", {}))
    if "elevation_mask_deg" in solver_data:
        solver_data["elevation_mask"] = np.radians(
            solver_data.pop("elevation_mask_deg"))
    trrtk_data = dict(data.get("trrtk", {}))
    if "elevation_mask_deg" in trrtk_data:
        trrtk_data["elevation_mask"] = np.radians(
            trrtk_data.pop("elevation_mask_deg"))
    try:
        if solver_data:
            kwargs["solver"] = SolverConfig(**solver_data)
        if trrtk_data:
            kwargs["trrtk"] = TrRtkConfig(**trrtk_data)
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise IoFailure(f"bad config file: {exc}") from exc
