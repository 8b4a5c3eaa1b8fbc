"""Simulate a multi-GNSS scenario and look at the raw measurements.

The simulator propagates Keplerian constellations, applies receiver and
satellite clocks, Klobuchar/Saastamoinen atmospheric delays, and
per-signal noise, then emits RINEX-ready observations plus the exact
satellite states used — the ground truth every estimator in this
package is tested against.
"""

import numpy as np

from gnssgraph import (SatelliteId, ScenarioConfig, TrajectoryConfig,
                       run_scenario)
from gnssgraph.coords import ecef_to_geodetic, elevation_azimuth

config = ScenarioConfig(
    duration=30.0,
    trajectory=TrajectoryConfig(kind="circle", speed=2.0, radius=25.0),
    seed=42,
)
truth, epochs, sat_states = run_scenario(config)

print(f"scenario: {config.duration:.0f} s at {config.rate:.0f} Hz, "
      f"{len(epochs)} epochs")
print(f"constellations: "
      + ", ".join(f"{c.name} x{n}" for c, n in config.counts.items()))

# each epoch holds its satellites' measurements as arrays, one row per
# satellite, and sat_states[k] the satellite states of epoch k's rows
epoch, states = epochs[0], sat_states[0]
geo = ecef_to_geodetic(truth[0].position)
elevation, _ = elevation_azimuth(geo, states[:, :3])
print(f"\nepoch 0: {len(epoch)} satellites above the horizon")
print(f"{'sat':<5s}{'elev deg':>9s}{'pseudorange m':>16s}"
      f"{'phase cycles':>16s}{'doppler Hz':>12s}")
for k in range(min(len(epoch), 12)):
    sat = SatelliteId.from_key(int(epoch.sats[k]))
    print(f"{str(sat):<5s}{np.degrees(elevation[k]):>9.1f}"
          f"{epoch.code[k]:>16.3f}{epoch.phase[k]:>16.3f}"
          f"{epoch.doppler[k]:>12.1f}")
print("...")

speeds = [np.linalg.norm(r.velocity) for r in truth]
print(f"\ntruth speed: min {min(speeds):.2f}, max {max(speeds):.2f} m/s")
