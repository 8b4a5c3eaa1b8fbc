"""Full trajectory reconstruction, with and without loop closures.

The factor graph ties per-epoch states together with Doppler velocity
edges, per-observation pseudorange rows, and time-relative RTK
baselines, then solves everything at once with a Dogleg trust region. Dropping the RTK closures shows how much they rein in
accumulated drift.
"""

import numpy as np

from gnssgraph import (PipelineConfig, ScenarioConfig, TrajectoryConfig,
                       compute_rpe, run_scenario, solve_trajectory)

config = ScenarioConfig(
    duration=200.0,
    trajectory=TrajectoryConfig(
        kind="waypoints", speed=1.0,
        waypoints=[[0, 0, 0], [50, 0, 0], [50, 50, 0], [0, 50, 0],
                   [0, 0, 0]]),
    seed=1,
)
truth, epochs, sat_states = run_scenario(config)
truth_positions = np.array([r.position for r in truth])

for use_trrtk in (True, False):
    label = "with TR-RTK" if use_trrtk else "w/o TR-RTK "
    result = solve_trajectory(
        epochs, sat_states,
        PipelineConfig(iono=config.iono, tropo=config.tropo,
                       use_trrtk=use_trrtk))
    mean, peak, _ = compute_rpe(result.positions, truth_positions)
    fixed = result.trrtk.fixed.sum()
    print(f"{label}: RPE mean {mean:.3f} m, max {peak:.3f} m "
          f"({fixed}/{result.trrtk_attempts} baselines fixed, "
          f"{result.report.iterations} optimizer iterations)")
