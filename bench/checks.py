"""Output checks of the session benchmark.

Every check is computed apart from the estimator: truth geometry comes
from closed-form WGS-84 formulas, accuracy from its own RPE/APE, and
file contents from plain text parsing. Each check returns None when it
holds and a one-line "name: detail" string when it does not, so a
session's report names every check that failed.
"""

from __future__ import annotations

import csv
from datetime import datetime

import numpy as np

WGS84_A = 6378137.0
WGS84_E2 = 6.69437999014e-3
GPS_EPOCH = datetime(1980, 1, 6)
SECONDS_PER_WEEK = 604800.0

# criterion-1 bounds of the acceptance suite, for sessions with TR-RTK
TR_RPE_MEAN_M = 0.05
TR_RPE_MAX_M = 0.10
FIXED_BASELINE_TOL_M = 0.03
MIN_FIX_YIELD = 0.95

# checks whose failure is the false-fix fault: a fixed pair entered with
# non-zero DD integers, and what its wrong baseline does to the solve
FALSE_FIX_CHECKS = frozenset({"integer", "baseline", "rpe_mean", "rpe_max"})


def _fail(name: str, detail: str) -> str:
    return f"{name}: {detail}"


def to_enu(ecef, latitude: float, longitude: float, height: float):
    """ECEF points as east/north/up offsets from a geodetic origin [rad, m]."""
    sl, cl = np.sin(latitude), np.cos(latitude)
    so, co = np.sin(longitude), np.cos(longitude)
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sl * sl)
    origin = np.array([(n + height) * cl * co, (n + height) * cl * so,
                       (n * (1.0 - WGS84_E2) + height) * sl])
    rot = np.array([[-so, co, 0.0],
                    [-sl * co, -sl * so, cl],
                    [cl * co, cl * so, sl]])
    return (np.asarray(ecef, dtype=float) - origin) @ rot.T


def check_polyline(enu, corners, tolerance: float):
    """Every point lies within `tolerance` of the horizontal polyline."""
    enu = np.asarray(enu, dtype=float)
    corners = np.asarray(corners, dtype=float)
    distance = np.full(len(enu), np.inf)
    for a, b in zip(corners[:-1], corners[1:]):
        t = np.clip((enu - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
        distance = np.minimum(distance, np.linalg.norm(
            enu - (a + t[:, None] * (b - a)), axis=1))
    worst = float(distance.max())
    if worst > tolerance:
        return _fail("path", f"truth {worst:.3f} m off the polyline "
                             f"(tolerance {tolerance} m)")
    return None


def check_circle(enu, radius: float, tolerance: float):
    """Every point lies on the level circle through the origin, centred
    `radius` north of it."""
    enu = np.asarray(enu, dtype=float)
    off = np.abs(np.hypot(enu[:, 0], enu[:, 1] - radius) - radius)
    worst = float(max(off.max(), np.abs(enu[:, 2]).max()))
    if worst > tolerance:
        return _fail("path", f"truth {worst:.2e} m off the {radius} m circle "
                             f"(tolerance {tolerance} m)")
    return None


def accuracy(estimate, truth):
    """Start-referenced RPE (mean, max) and APE mean, in meters."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError(f"shapes differ: {estimate.shape} vs {truth.shape}")
    relative = (estimate - estimate[0]) - (truth - truth[0])
    rpe = np.linalg.norm(relative[1:], axis=1)
    ape = np.linalg.norm(estimate - truth, axis=1)
    return float(rpe.mean()), float(rpe.max()), float(ape.mean())


def check_accuracy(values, bounds: dict):
    """`values` and `bounds` map rpe_mean / rpe_max / ape_mean to meters;
    only the bounded ones are checked."""
    return [_fail(name, f"{values[name]:.4f} m > {bound} m")
            for name, bound in bounds.items() if values[name] > bound]


def check_steps(estimate, truth, tolerance: float):
    """Each epoch-to-epoch displacement matches truth within `tolerance`."""
    step = np.diff(np.asarray(estimate, dtype=float), axis=0) \
        - np.diff(np.asarray(truth, dtype=float), axis=0)
    worst = float(np.linalg.norm(step, axis=1).max())
    if worst > tolerance:
        return _fail("step", f"epoch-to-epoch error {worst:.3f} m > "
                             f"{tolerance} m")
    return None


def check_fixed_pairs(pairs, truth, tolerance: float = FIXED_BASELINE_TOL_M):
    """`pairs` holds (past, current, baseline, integers) of every fixed
    baseline. Each must be within `tolerance` of the truth baseline and
    every integer must be zero: a satellite locked through the whole
    window keeps its ambiguity, so its time-DD ambiguity is exactly 0."""
    truth = np.asarray(truth, dtype=float)
    failures = []
    errors = [float(np.linalg.norm(np.asarray(b) - (truth[j] - truth[i])))
              for i, j, b, _ in pairs]
    far = [e for e in errors if e > tolerance]
    if far:
        failures.append(_fail("baseline", f"{len(far)} fixed baselines off "
                                          f"truth by up to {max(far):.3f} m"))
    nonzero = sum(any(v != 0 for v in ints) for *_, ints in pairs)
    if nonzero:
        failures.append(_fail("integer", f"{nonzero} fixed pairs with "
                                         f"non-zero DD integers"))
    return failures


def check_fix_yield(fixed: int, attempted: int, minimum: float = MIN_FIX_YIELD):
    yield_ = fixed / attempted if attempted else 0.0
    if yield_ < minimum:
        return _fail("fix_yield", f"{fixed}/{attempted} = {yield_:.3f} "
                                  f"< {minimum}")
    return None


def check_cost(initial: float, final: float, converged: bool):
    failures = []
    if not final <= initial:
        failures.append(_fail("cost", f"final cost {final:.6e} > "
                                      f"initial {initial:.6e}"))
    if not converged:
        failures.append(_fail("converged", "optimizer did not converge"))
    return failures


def rinex_epoch_tows(text: str) -> list[float]:
    """GPS time of week of each RINEX 3 epoch record ('>' lines)."""
    tows = []
    for line in text.splitlines():
        if line.startswith(">"):
            fields = line[1:].split()
            year, month, day, hour, minute = (int(v) for v in fields[:5])
            second = float(fields[5])
            elapsed = (datetime(year, month, day, hour, minute)
                       - GPS_EPOCH).total_seconds() + second
            tows.append(elapsed % SECONDS_PER_WEEK)
    return tows


def read_trajectory_rows(text: str) -> dict:
    """Trajectory CSV rows as {status: [(tow, x, y, z), ...]}."""
    rows: dict = {}
    for row in csv.DictReader(text.splitlines()):
        rows.setdefault(row["status"], []).append(
            (float(row["tow"]), float(row["x"]), float(row["y"]),
             float(row["z"])))
    return rows


def check_trajectory_rows(rows: dict, epoch_tows, statuses=("Initial",
                                                           "Optimized")):
    """One row per epoch and status, at the epoch times, in order."""
    failures = []
    for status in statuses:
        got = [r[0] for r in rows.get(status, [])]
        if len(got) != len(epoch_tows):
            failures.append(_fail("rows", f"{len(got)} {status} rows for "
                                          f"{len(epoch_tows)} epochs"))
        elif np.max(np.abs(np.subtract(got, epoch_tows))) > 1e-3:
            failures.append(_fail("rows", f"{status} rows not at the "
                                          f"epoch times"))
    return failures


def solver_log_values(text: str) -> dict:
    """'key: value' lines of the CLI solver log."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and not line.startswith(" "):
            values[key.strip()] = value.strip()
    return values


def is_false_fix(failures) -> bool:
    """A failed session whose failures are all the false-fix fault's."""
    names = {f.split(":", 1)[0] for f in failures}
    return "integer" in names and names <= FALSE_FIX_CHECKS
