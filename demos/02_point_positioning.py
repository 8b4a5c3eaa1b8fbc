"""Single point positioning and Doppler velocity, epoch by epoch.

SPP solves position plus one clock bias per constellation from
pseudoranges; the Doppler solver turns range rates into a cm/s-level
velocity. These per-epoch solutions initialize the factor graph and
anchor the loop-closure baselines.
"""

import numpy as np

from gnssgraph import (EpochGeometry, ScenarioConfig, TrajectoryConfig,
                       run_scenario, solve_doppler_velocity, solve_spp)

config = ScenarioConfig(
    duration=60.0,
    trajectory=TrajectoryConfig(kind="line", speed=2.0),
    seed=3,
)
truth, epochs, sat_states = run_scenario(config)

# every epoch solved at once, each on its own: the session's satellites
# are gathered once, and Doppler takes them as SPP last located them,
# each epoch within a tenth of a millimetre of its point solution
satellites = EpochGeometry(epochs, sat_states, config.iono, config.tropo)
spp = solve_spp(satellites)
positions = spp.position
velocities = solve_doppler_velocity(spp.geometry).velocity
position_errors = np.linalg.norm(
    positions - [rec.position for rec in truth], axis=1)
velocity_errors = np.linalg.norm(
    velocities - [rec.velocity for rec in truth], axis=1)

print(f"{len(epochs)} epochs, default noise")
print(f"SPP position error:      mean {np.mean(position_errors):.3f} m, "
      f"max {np.max(position_errors):.3f} m")
print(f"Doppler velocity error:  mean {np.mean(velocity_errors)*100:.2f} cm/s, "
      f"max {np.max(velocity_errors)*100:.2f} cm/s")
print("\nmeter-level positions, centimeter-per-second velocities: the")
print("velocity integral drifts slowly, which is exactly what the")
print("time-relative RTK loop closures are there to correct.")
