"""Acceptance gate: end-to-end accuracy, loop-closure benefit, fixing
quality, structural window rule, integer-search correctness, Jacobian
consistency, zero-noise oracle closure, optimizer monotonicity, Doppler
velocity quality, and parser robustness; and beside the criteria, the
honesty of the graph's covariance of a 10 s displacement.

Each criterion prints an explicit PASS/FAIL line with the measured
values so a run's margins are visible in the log.
"""

import io
import json
import time
import warnings

import numpy as np
import pytest

from gnssgraph.ambiguity import AmbiguityProblem, lambda_resolve
from gnssgraph.coords import line_of_sight
from gnssgraph.errors import MalformedEpoch, MalformedHeader
from gnssgraph.fileio import export_graph_json
from gnssgraph.geometry import EpochGeometry
from gnssgraph.graph import (STATE_DIM, _normal_equations, _quadratic,
                            evaluate_cost)
from gnssgraph.metrics import compute_rpe
from gnssgraph.pipeline import PipelineConfig, solve_trajectory
from gnssgraph.pointpos import solve_doppler_velocity, solve_spp
from gnssgraph.rinex import header_for_scenario, parse_rinex_obs, write_rinex_obs
from gnssgraph.sim import (NoiseConfig, ScenarioConfig, TrajectoryConfig,
                           run_scenario)
from gnssgraph.trrtk import (BaselineStatus, epoch_corrections,
                             estimate_baseline)
from gnssgraph.types import Constellation

from brute_force import brute_force_minimizer, dense_normal_equations

SEEDS = (1, 2, 3, 4, 5)
SQUARE_200M = [[0, 0, 0], [50, 0, 0], [50, 50, 0], [0, 50, 0], [0, 0, 0]]


def default_scenario(seed, counts=None):
    """200 m waypoint path at 1 m/s, 1 Hz, 200 s, default noise."""
    kwargs = {} if counts is None else {"counts": counts}
    return ScenarioConfig(
        duration=200.0,
        trajectory=TrajectoryConfig(kind="waypoints", speed=1.0,
                                    waypoints=SQUARE_200M),
        seed=seed, **kwargs)


def run_seed(seed, use_trrtk=True, counts=None):
    cfg = default_scenario(seed, counts)
    truth, epochs, states = run_scenario(cfg)
    result = solve_trajectory(
        epochs, states,
        PipelineConfig(iono=cfg.iono, tropo=cfg.tropo, use_trrtk=use_trrtk))
    return np.array([r.position for r in truth]), result


def announce(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def solved_seeds():
    """Default scenario (31 GPS + 24 GAL), all seeds, with and without
    loop closures; shared by criteria 1, 2, 4, and 8."""
    counts = {Constellation.GPS: 31, Constellation.GAL: 24}
    runs = {}
    start = time.time()
    for seed in SEEDS:
        truth, with_tr = run_seed(seed, counts=counts)
        elapsed = time.time() - start
        _, without_tr = run_seed(seed, use_trrtk=False, counts=counts)
        runs[seed] = (truth, with_tr, without_tr, elapsed)
    return runs


def test_criterion_1_end_to_end_accuracy(solved_seeds):
    worst_mean = worst_max = runtime = 0.0
    for seed, (truth, result, _, elapsed) in solved_seeds.items():
        mean, peak, _ = compute_rpe(result.positions, truth)
        worst_mean = max(worst_mean, mean)
        worst_max = max(worst_max, peak)
        runtime = max(runtime, elapsed)
    announce(1, worst_mean <= 0.05 and worst_max <= 0.10 and runtime < 120.0,
             f"RPE mean {worst_mean:.4f} m (≤0.05), max {worst_max:.4f} m "
             f"(≤0.10), runtime {runtime:.1f} s (<120) over {len(SEEDS)} "
             f"seeds")


def test_criterion_2_loop_closure_benefit(solved_seeds):
    ratios = []
    for seed, (truth, with_tr, without_tr, _) in solved_seeds.items():
        _, _, series_with = compute_rpe(with_tr.positions, truth)
        _, _, series_without = compute_rpe(without_tr.positions, truth)
        ratios.append(series_without[-100:].mean()
                      / series_with[-100:].mean())
    announce(2, min(ratios) >= 3.0,
             f"final-100-epoch RPE ratio without/with TR-RTK ≥ "
             f"{min(ratios):.1f}x on every seed (need ≥3x)")


def test_criterion_3_trrtk_fixing():
    attempts = fixed = 0
    worst = 0.0
    for seed in SEEDS[:2]:
        truth, result = run_seed(seed)          # default constellations
        attempts += result.trrtk_attempts
        for i, j, tr in result.trrtk_results:
            if tr.status is not BaselineStatus.FIXED:
                continue
            fixed += 1
            worst = max(worst, np.linalg.norm(
                tr.baseline - (truth[j] - truth[i])))
    rate = fixed / attempts
    announce(3, rate >= 0.95 and worst < 0.03,
             f"fix rate {rate:.3f} ({fixed}/{attempts}, need ≥0.95), worst "
             f"fixed baseline error {worst:.4f} m (<0.03)")


def test_criterion_4_window_rule(solved_seeds):
    checked = 0
    worst = 0.0
    for seed, (truth, result, _, _) in solved_seeds.items():
        buf = io.StringIO()
        export_graph_json(result.graph, buf, states=result.states)
        data = json.loads(buf.getvalue())
        for edge in data["edges"]:
            if edge["type"] == "trrtk":
                checked += 1
                worst = max(worst, edge["time_difference"])
    announce(4, checked > 0 and worst <= 100.0,
             f"{checked} TR edges across {len(SEEDS)} exported graphs, max "
             f"time difference {worst:.1f} s (window 100 s)")


def test_graph_states_the_spread_of_a_10s_displacement():
    """The graph's covariance, the dense inverse of its normal matrix at
    the solution, is honest about short-term motion: on squares of seeds
    1-3 the mean NEES/3, e^T S^-1 e / 3, of the displacements x_j -
    x_{j-10} against the truth lies in [0.5, 2], S the displacement's
    covariance. Loop closures that share an epoch's phase noise, which
    the graph counts as independent, would make it overconfident."""
    means = []
    for seed in SEEDS[:3]:
        truth, result = run_seed(seed)          # default constellations
        normal, _, _ = dense_normal_equations(result.graph, result.states)
        n = len(truth)
        cov = np.linalg.inv(normal).reshape(n, STATE_DIM, n, STATE_DIM)[
            :, :3, :, :3]
        current = np.arange(10, n)
        past = current - 10
        spread = (cov[current, :, current] + cov[past, :, past]
                  - cov[past, :, current] - cov[current, :, past])
        error = (result.positions[current] - result.positions[past]
                 - (truth[current] - truth[past]))
        nees = np.einsum("ka,ka->k", error, np.linalg.solve(
            spread, error[:, :, None])[:, :, 0]) / 3
        means.append(float(nees.mean()))
    print("10 s displacement NEES/3 on seeds 1-3: "
          + " / ".join(f"{m:.2f}" for m in means) + " (need 0.5-2)")
    assert all(0.5 <= m <= 2.0 for m in means), means


def test_criterion_5_lambda_against_brute_force():
    rng = np.random.default_rng(2024)
    problems = []
    for _ in range(1000):
        n = int(rng.integers(3, 6))
        a = rng.normal(size=(n, n))
        q = a @ a.T + 0.05 * np.eye(n)
        problems.append(AmbiguityProblem(rng.uniform(-4, 4, size=n), q))

    start = time.time()
    solutions = [lambda_resolve(p)[0] for p in problems]
    lambda_time = time.time() - start

    matches = 0
    for problem, integers in zip(problems, solutions):
        _, best, _ = brute_force_minimizer(problem.float_values,
                                           problem.covariance, box=8)
        w = np.linalg.inv(problem.covariance)
        got = float((integers - problem.float_values) @ w
                    @ (integers - problem.float_values))
        if abs(got - best) < 1e-9 * max(best, 1.0):
            matches += 1
    announce(5, matches == 1000 and lambda_time < 10.0,
             f"integer search matched ±8 brute force {matches}/1000, solve "
             f"time {lambda_time:.2f} s (<10)")


def test_criterion_6_jacobians_vs_central_differences():
    cfg = ScenarioConfig(duration=30.0,
                         trajectory=TrajectoryConfig(kind="line", speed=2.0),
                         seed=11)
    truth, epochs, states = run_scenario(cfg)
    result = solve_trajectory(epochs, states,
                              PipelineConfig(iono=cfg.iono, tropo=cfg.tropo))
    g = result.graph
    assert len(g.trrtk_factors) and len(g.pseudorange_factors)
    rng = np.random.default_rng(6)

    # what the optimizer uses: the gradient g and the blocks of N from
    # `_normal_equations`, against central differences of the cost along
    # random directions d. For fixed rows the cost is exactly quadratic,
    # c(x + t d) = c(x) + 2 t g.d + t^2 d^T N d, so the differences are
    # exact up to round-off at any step, and a long one keeps that small.
    h = 1.0
    worst = 0.0
    x = result.states + rng.normal(size=result.states.shape) * np.array(
        [0.5] * 3 + [2.0] * 4)
    gradient, system = _normal_equations(g, x)
    cost = evaluate_cost(g, x)
    for _ in range(100):
        d = rng.normal(size=x.shape)
        up, down = evaluate_cost(g, x + h * d), evaluate_cost(g, x - h * d)
        slope, curvature = 2.0 * gradient @ d.ravel(), 2.0 * _quadratic(
            system, d.ravel())
        worst = max(worst,
                    abs((up - down) / (2 * h) - slope) / abs(slope),
                    abs((up - 2 * cost + down) / h ** 2 - curvature)
                    / curvature)
    # the rows against the nonlinear model they linearize
    rows = g.pseudorange_factors.row
    nonlinear = pseudorange_row_error(g, result.states, rows)
    mutated = pseudorange_row_error(g, result.states,
                                    rows[:, [1, 0, 2, 3, 4, 5, 6]])
    announce(6, worst < 1e-6 and nonlinear < 1e-5 < mutated,
             f"worst relative error of the normal equations' slope 2 g.d "
             f"and curvature 2 d^T N d against central differences of the "
             f"cost {worst:.2e} over 100 random directions d (<1e-6); "
             f"pseudorange rows against "
             f"the corrected range {nonlinear:.2e} (<1e-5; a row with its "
             f"x and y swapped: {mutated:.2e})")


def pseudorange_row_error(graph, states, rows):
    """The worst relative error of `rows` (p, 7) as the Jacobians of the
    graph's pseudorange factors: central differences of the corrected
    range, the Sagnac-rotated |s - (reference + x)| of
    `coords.line_of_sight` plus the receiver clock of the factor's own
    constellation slot, at each factor's linearization point. The rows
    leave out how the Sagnac rotation turns with the receiver position,
    up to OMGE |s| / c ~ 6.3e-6 of a unit-vector component, so the bar
    of this check is 1e-5, not the 1e-6 of the linear ones."""
    pr = graph.pseudorange_factors
    x = states[pr.node].copy()
    x[:, :3] = pr.lin_offset

    def corrected_range(x):
        _, ranges = line_of_sight(graph.reference_position + x[:, :3],
                                  pr.sat_position)
        return ranges + x[np.arange(len(x)), 3 + pr.slot]

    # 1 m steps: a 2e7 m range rounds to 3.7e-9 m, and its third
    # derivative leaves ~1e-15 m at this step
    h = 1.0
    worst = 0.0
    for col in range(7):
        step = np.zeros(7)
        step[col] = h
        numeric = (corrected_range(x + step) - corrected_range(x - step)) / (
            2 * h)
        scale = np.maximum(np.abs(rows[:, col]), 1.0)
        worst = max(worst, float((np.abs(numeric - rows[:, col])
                                  / scale).max()))
    return worst


def test_criterion_7_zero_noise_oracle_closure():
    cfg = ScenarioConfig(
        duration=120.0,
        trajectory=TrajectoryConfig(kind="line", speed=2.0),
        noise=NoiseConfig(0.0, 0.0, 0.0),
        satellite_clock_drift_sigma=0.0,
        seed=7)
    truth, epochs, states = run_scenario(cfg)
    tpos = np.array([r.position for r in truth])

    satellites = EpochGeometry(epochs, states, cfg.iono, cfg.tropo)
    spp = solve_spp(satellites).position
    geometry = satellites.at(spp)
    session = epoch_corrections(geometry)
    spp_err = np.linalg.norm(spp - tpos, axis=1).max()
    vel = solve_doppler_velocity(geometry).velocity
    vel_err = np.linalg.norm(
        vel - np.array([r.velocity for r in truth]), axis=1).max()

    tr_err = 0.0
    for i, j in ((0, 100), (10, 40), (5, 105)):
        result = estimate_baseline(session, i, j)
        assert result.status is BaselineStatus.FIXED
        tr_err = max(tr_err,
                     np.linalg.norm(result.baseline - (tpos[j] - tpos[i])))

    solved = solve_trajectory(epochs, states,
                              PipelineConfig(iono=cfg.iono, tropo=cfg.tropo))
    _, rpe_max, _ = compute_rpe(solved.positions, tpos)

    announce(7, max(spp_err, vel_err, tr_err, rpe_max) < 1e-6,
             f"zero-noise closure: SPP {spp_err:.2e} m, Doppler "
             f"{vel_err:.2e} m/s, TR baseline {tr_err:.2e} m, optimized RPE "
             f"{rpe_max:.2e} m (all <1e-6)")


def test_criterion_8_monotone_optimizer(solved_seeds):
    worst_rise = -np.inf
    worst_iter = 0
    converged = True
    for seed, (truth, with_tr, without_tr, _) in solved_seeds.items():
        for result in (with_tr, without_tr):
            costs = result.report.costs
            rises = [b - a for a, b in zip(costs, costs[1:])]
            worst_rise = max(worst_rise, max(rises, default=0.0))
            worst_iter = max(worst_iter, result.report.iterations)
            converged = converged and result.report.converged
    announce(8, worst_rise <= 0.0 and worst_iter <= 100 and converged,
             f"accepted costs monotone (worst rise {worst_rise:.2e}), "
             f"max iterations {worst_iter} (≤100), all runs converged")


def test_criterion_9_doppler_velocity_quality():
    cfg = ScenarioConfig(duration=999.0, seed=9)   # static, default noise
    truth, epochs, states = run_scenario(cfg)
    geometry = EpochGeometry(epochs, states).at([r.position for r in truth])
    errors = (solve_doppler_velocity(geometry).velocity
              - np.array([r.velocity for r in truth]))
    rms = np.sqrt((errors ** 2).mean(axis=0))
    announce(9, len(epochs) >= 1000 and rms.max() < 0.05,
             f"Doppler velocity RMS per axis {np.round(rms, 4)} m/s over "
             f"{len(epochs)} epochs (<0.05)")


def test_criterion_10_parser_robustness():
    cfg = ScenarioConfig(duration=3.0,
                         trajectory=TrajectoryConfig(kind="line", speed=2.0),
                         counts={Constellation.GPS: 5,
                                 Constellation.GLO: 3,
                                 Constellation.GAL: 4,
                                 Constellation.BDS: 3},
                         seed=10)
    truth, epochs, states = run_scenario(cfg)
    header = header_for_scenario(cfg, truth[0].position)
    buf = io.StringIO()
    write_rinex_obs(header, epochs, buf)
    text = buf.getvalue()

    _, parsed = parse_rinex_obs(io.StringIO(text))
    round_trip = len(parsed) == len(epochs) and all(
        np.array_equal(a.sats, b.sats)
        and all(getattr(b, name).tolist()
                == [round(v, 3) for v in getattr(a, name).tolist()]
                for name in ("code", "phase", "doppler"))
        for a, b in zip(epochs, parsed))

    data = text.encode()
    rng = np.random.default_rng(1234)
    crashes = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100_000):
            blob = bytearray(data)
            blob[rng.integers(len(blob))] = rng.integers(256)
            try:
                parse_rinex_obs(io.StringIO(blob.decode("latin-1")))
            except (MalformedHeader, MalformedEpoch):
                pass
            except Exception:
                crashes += 1
    announce(10, round_trip and crashes == 0,
             f"round trip at format precision: {round_trip}; 100000 "
             f"single-byte mutations, {crashes} unstructured failures")
