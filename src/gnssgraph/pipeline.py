"""End-to-end solve: point solutions, loop closures, graph optimization."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .atmosphere import KlobucharParams, TropoModel
from .errors import GnssError
from .geometry import EpochGeometry
from .graph import Graph, OptimizerReport, build_graph, optimize
from .pointpos import SolverConfig, solve_doppler_velocity, solve_spp
# not called here: bench/spans.py traces estimate_baseline under this name
from .trrtk import estimate_baseline  # noqa: F401
from .trrtk import (TR_PAIR_LATTICE, TrRtkConfig, epoch_corrections,
                    solve_pairs)


@dataclass(slots=True)
class PipelineConfig:
    """Every setting of a solve, each in one place: the delay models here
    enter the solve once, in the `EpochGeometry` that `solve_trajectory`
    gathers for the session and that SPP, TR-RTK and the pseudorange
    factors share; `solver` weights the point solutions and the pseudorange
    factors, and the observation spacing comes from the epoch times."""

    use_trrtk: bool = True
    use_pseudorange: bool = True
    pair_lattice: tuple = TR_PAIR_LATTICE
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
    spp_solutions: list
    velocities: list
    trrtk_results: list                # (past, current, TrRtkResult)
    trrtk_attempts: int = 0            # results plus errors
    # (past, current, GnssError class name) of each pair that errored
    trrtk_errors: list = field(default_factory=list)


def lattice_pairs(times, offsets, interval: float) -> list:
    """(past, current) epoch indexes of the loop-closure lattice: for
    each current epoch and each offset, the epoch found within interval/2
    of round(offset / interval) observation steps before it, each pair
    once. An offset with no epoch there (a gap) gives no pair."""
    seconds = [t - times[0] for t in times]
    pairs = []
    for j, now in enumerate(seconds):
        found = set()
        for offset in offsets:
            target = now - round(offset / interval) * interval
            i = bisect_left(seconds, target - interval / 2, 0, j)
            if (i < j and abs(seconds[i] - target) <= interval / 2
                    and i not in found):
                found.add(i)
                pairs.append((i, j))
    return pairs


def _solutions(outcomes: list, times) -> list:
    """`outcomes`, one per epoch, if none is an error; else the earliest
    epoch's error, raised with its index and time in the message."""
    for k, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            error = type(outcome)(f"epoch {k} at {times[k]}: {outcome}")
            raise error from outcome
    return outcomes


def solve_trajectory(epochs, sat_states,
                     config: PipelineConfig | None = None) -> PipelineResult:
    """Run the full estimation chain over one observation session."""
    config = config or PipelineConfig()

    # the session's satellites gathered once, with the delay models
    geometry = EpochGeometry(epochs, sat_states, config.iono, config.tropo)
    times = geometry.times
    spp_solutions = _solutions(solve_spp(geometry, config.solver), times)
    # located once at the point solutions, for Doppler (which uses no
    # delay model) and for TR-RTK
    located = geometry.at([spp.position for spp in spp_solutions])
    velocities = _solutions(
        solve_doppler_velocity(located, config.solver)[:len(times) - 1],
        times)

    trrtk_results = []
    trrtk_errors = []
    pairs = []
    if config.use_trrtk:
        session = epoch_corrections(located, config.trrtk)
        # the median spacing: one gap does not change the time step
        steps = [b - a for a, b in zip(times, times[1:])]
        interval = float(np.median(steps)) if steps else 1.0
        pairs = lattice_pairs(times, config.pair_lattice, interval)
        outcomes = solve_pairs(session, pairs, config.trrtk, interval)
        for (i, j), outcome in zip(pairs, outcomes):
            if isinstance(outcome, GnssError):
                trrtk_errors.append((i, j, type(outcome).__name__))
            else:
                trrtk_results.append((i, j, outcome))

    graph = build_graph(geometry, velocities, spp_solutions, trrtk_results,
                        config.solver, config.use_pseudorange)
    states, report = optimize(graph)
    positions = graph.reference_position + states[:, :3]
    return PipelineResult(positions, states, graph, report, spp_solutions,
                          velocities, trrtk_results, len(pairs),
                          trrtk_errors)
