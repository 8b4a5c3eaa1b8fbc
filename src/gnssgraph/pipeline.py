"""End-to-end solve: point solutions, loop closures, graph optimization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atmosphere import KlobucharParams, TropoModel
from .errors import EmptyInput, MalformedEpoch
from .geometry import EpochGeometry
from .graph import Graph, OptimizerReport, build_graph, optimize
from .pointpos import (SolverConfig, SppSolution, VelocitySolution,
                       solve_doppler_velocity, solve_spp)
# not called here: bench/spans.py traces estimate_baseline under this name
from .trrtk import estimate_baseline  # noqa: F401
from .trrtk import (TR_PAIR_LATTICE, TrRtkConfig, TrRtkPairs,
                    epoch_corrections, solve_pairs)
from .types import Checked, setting


@dataclass(slots=True)
class PipelineConfig(Checked):
    """Every setting of a solve, each in one place: the delay models here
    enter the solve once, in the `EpochGeometry` that `solve_trajectory`
    gathers for the session and that SPP locates for Doppler, TR-RTK and
    the pseudorange factors; `solver` holds every stage's elevation mask
    and weights the point solutions and the pseudorange factors, and the
    observation spacing comes from the epoch times."""

    use_trrtk: bool = setting(True)
    use_pseudorange: bool = setting(True)
    pair_lattice: tuple = setting(TR_PAIR_LATTICE)  # offsets [s]
    iono: KlobucharParams | None = None
    tropo: TropoModel | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    trrtk: TrRtkConfig = field(default_factory=TrRtkConfig)


@dataclass
class PipelineResult:
    positions: np.ndarray              # (n, 3) optimized ECEF positions
    states: np.ndarray                 # (n, 7) optimized node states
    graph: Graph
    report: OptimizerReport
    spp: SppSolution
    velocities: VelocitySolution
    trrtk: TrRtkPairs                  # every attempted pair

    @property
    def trrtk_attempts(self) -> int:   # the rows of `trrtk`
        return len(self.trrtk.pairs)

    @property
    def trrtk_results(self) -> list:
        """(past, current, TrRtkResult) of each pair that reached a
        result, fixed or rejected, in the order of the attempts."""
        return [(i, j, self.trrtk.result(k))
                for k, (i, j) in enumerate(self.trrtk.pairs.tolist())
                if k not in self.trrtk.errors]


def lattice_pairs(times, offsets, interval: float) -> np.ndarray:
    """(past, current) epoch indexes (P, 2) of the loop-closure lattice:
    for each current epoch and each offset, the epoch found within
    interval/2 of round(offset / interval) observation steps before it,
    each pair once, ordered by current epoch and then by offset. An
    offset with no epoch there (a gap) gives no pair. The epoch times
    must increase; one searchsorted per offset finds every current
    epoch's past epoch."""
    seconds = np.array([t - times[0] for t in times], dtype=float)
    current = np.arange(len(seconds))
    # per offset (row) and current epoch (column), the past epoch found
    past = np.zeros((len(offsets), len(seconds)), dtype=int)
    hit = np.zeros(past.shape, dtype=bool)
    for k, offset in enumerate(offsets):
        target = seconds - round(offset / interval) * interval
        past[k] = np.minimum(np.searchsorted(seconds, target - interval / 2),
                             current)
        found = hit[:k] & (past[:k] == past[k])
        hit[k] = ((past[k] < current)
                  & (np.abs(seconds[past[k]] - target) <= interval / 2)
                  & ~found.any(axis=0))
    return np.column_stack([past.T[hit.T], np.nonzero(hit.T)[0]])


def _raise_earliest(errors: dict, times) -> None:
    """Raise the error in `errors` of the earliest of the epochs at
    `times`, if any, with its index and time in the message."""
    k = min((k for k in errors if k < len(times)), default=None)
    if k is not None:
        raise type(errors[k])(f"epoch {k} at {times[k]}: {errors[k]}") from (
            errors[k])


def solve_trajectory(epochs, sat_states,
                     config: PipelineConfig | None = None) -> PipelineResult:
    """Run the full estimation chain over one session of epochs, at least
    one (EmptyInput), at strictly increasing times (MalformedEpoch)."""
    config = config or PipelineConfig()

    # the session's satellites gathered once, with the delay models
    geometry = EpochGeometry(epochs, sat_states, config.iono, config.tropo)
    times = geometry.times
    if not times:
        raise EmptyInput("no epochs")
    steps = [b - a for a, b in zip(times, times[1:])]
    for k, step in enumerate(steps, start=1):
        if not step > 0.0:
            raise MalformedEpoch(f"epoch {k} at {times[k]} is not later "
                                 f"than epoch {k - 1} at {times[k - 1]}")
    spp = solve_spp(geometry, config.solver)
    _raise_earliest(spp.errors, times)
    # SPP's last located geometry, each epoch within `convergence` of its
    # fix, serves Doppler (which uses no delay model), TR-RTK and the
    # pseudorange factors; the result does not keep it
    located, spp.geometry = spp.geometry, None
    velocities = solve_doppler_velocity(located, config.solver)
    # the last epoch's velocity enters no factor
    _raise_earliest(velocities.errors, times[:-1])

    trrtk = TrRtkPairs.unsolved(np.zeros((0, 2), int), np.zeros(0))
    if config.use_trrtk:
        session = epoch_corrections(located, config.solver.elevation_mask)
        # the median spacing: one gap does not change the time step
        interval = float(np.median(steps)) if steps else 1.0
        trrtk = solve_pairs(session,
                            lattice_pairs(times, config.pair_lattice,
                                          interval), config.trrtk, interval)

    graph = build_graph(located, velocities, spp, trrtk, config.solver,
                        config.use_pseudorange)
    states, report = optimize(graph)
    positions = graph.reference_position + states[:, :3]
    return PipelineResult(positions, states, graph, report, spp, velocities,
                          trrtk)
