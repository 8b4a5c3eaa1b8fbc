"""Time-relative RTK: carrier-phase baselines between past and current
epochs of a single receiver.

Double-differencing the time-differenced carrier phase cancels clocks
and (mostly) atmosphere. For satellites locked through the window the
integer ambiguity is zero by construction, so a weighted least-squares
fit gives centimeter-accurate displacement over windows of up to 100 s
with no base station. A pair is Fixed when a chi-squared test of its
residuals passes (p_value >= 1e-3) and its formal error is small.
"""

import numpy as np

from gnssgraph import (EpochGeometry, ScenarioConfig, TrajectoryConfig,
                       epoch_corrections, estimate_baseline, run_scenario,
                       solve_spp)

config = ScenarioConfig(
    duration=120.0,
    trajectory=TrajectoryConfig(kind="line", speed=2.0),
    seed=12,
)
truth, epochs, sat_states = run_scenario(config)
# each epoch's corrections at its SPP position, shared by all its pairs
corrections = []
for epoch, sats in zip(epochs, sat_states):
    spp = solve_spp(epoch, sats, iono=config.iono, tropo=config.tropo)
    geometry = EpochGeometry(epoch, sats, config.iono, config.tropo)
    corrections.append(epoch_corrections(geometry.at(spp.position)))

print(f"{'dt s':>6s}{'status':>10s}{'p_value':>9s}{'baseline error m':>18s}")
for dt in (5, 20, 50, 80, 100):
    i, j = 0, dt
    result = estimate_baseline(epochs[i], epochs[j], corrections[i],
                               corrections[j])
    true_baseline = truth[j].position - truth[i].position
    error = np.linalg.norm(result.baseline - true_baseline)
    print(f"{dt:>6d}{result.status.name:>10s}{result.p_value:>9.3f}"
          f"{error:>18.4f}")

print("\nthe anchor positions above are meter-level SPP fixes, yet the")
print("fixed baselines are centimeter-accurate: carrier phase with its")
print("known zero ambiguities carries the displacement, and pseudorange")
print("only has to pin the anchor to within meters.")
