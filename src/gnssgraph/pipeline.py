"""End-to-end solve: point solutions, loop closures, graph optimization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atmosphere import KlobucharParams, TropoModel
from .errors import GnssError
from .geometry import EpochGeometry
from .graph import Graph, GraphConfig, OptimizerReport, build_graph, optimize
from .pointpos import SolverConfig, solve_doppler_velocity, solve_spp
from .trrtk import (TR_PAIR_LATTICE, TrRtkConfig, epoch_corrections,
                    estimate_baseline)


@dataclass(slots=True)
class PipelineConfig:
    """Every setting of a solve, each in one place: the delay models here
    serve SPP, TR-RTK and the pseudorange factors alike, `solver` weights
    the point solutions and the pseudorange factors, and the observation
    spacing comes from the epoch times."""

    use_trrtk: bool = True
    pair_lattice: tuple = TR_PAIR_LATTICE
    iono: KlobucharParams | None = None
    tropo: TropoModel | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    trrtk: TrRtkConfig = field(default_factory=TrRtkConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)


@dataclass
class PipelineResult:
    positions: np.ndarray              # (n, 3) optimized ECEF positions
    states: np.ndarray                 # (n, 7) optimized node states
    graph: Graph
    report: OptimizerReport
    spp_solutions: list
    velocities: list
    trrtk_results: list                # (past, current, TrRtkResult)
    trrtk_attempts: int = 0


def solve_trajectory(epochs, sat_states,
                     config: PipelineConfig | None = None) -> PipelineResult:
    """Run the full estimation chain over one observation session."""
    config = config or PipelineConfig()
    n = len(epochs)

    spp_solutions = []
    velocities = []
    corrections = []
    for k, (epoch, states_k) in enumerate(zip(epochs, sat_states)):
        warm = spp_solutions[-1].position if spp_solutions else None
        spp = solve_spp(epoch, states_k, iono=config.iono, tropo=config.tropo,
                        config=config.solver, initial_position=warm)
        spp_solutions.append(spp)
        # one geometry at the final point solution, for Doppler (which
        # uses no delay model) and for TR-RTK
        geometry = EpochGeometry(epoch, states_k, config.iono,
                                 config.tropo).at(spp.position)
        if k < n - 1:
            velocities.append(solve_doppler_velocity(geometry, config.solver))
        if config.use_trrtk:
            corrections.append(epoch_corrections(geometry, config.trrtk))

    trrtk_results = []
    attempts = 0
    if config.use_trrtk:
        interval = (epochs[1].time - epochs[0].time) if n > 1 else 1.0
        for j in range(n):
            for offset in config.pair_lattice:
                i = j - int(round(offset / interval))
                if i < 0 or i == j:
                    continue
                attempts += 1
                try:
                    result = estimate_baseline(
                        epochs[i], epochs[j], corrections[i], corrections[j],
                        config.trrtk, interval)
                except GnssError:
                    continue
                trrtk_results.append((i, j, result))

    graph = build_graph(epochs, sat_states, velocities, spp_solutions,
                        trrtk_results, config.iono, config.tropo,
                        config.solver, config.graph)
    states, report = optimize(graph, config.graph)
    positions = graph.reference_position + states[:, :3]
    return PipelineResult(positions, states, graph, report, spp_solutions,
                          velocities, trrtk_results, attempts)
