import copy

import numpy as np
import pytest

from gnssgraph.errors import (EmptyInput, MissingVelocity,
                              SingularNormalEquations)
from gnssgraph.geometry import EpochGeometry
from gnssgraph.graph import (CLOCK_PRIOR_SIGMA, RELINEARIZE_THRESHOLD,
                             build_graph, evaluate_cost, optimize)
from gnssgraph.metrics import compute_ape, compute_rpe
from gnssgraph.pipeline import PipelineConfig, solve_trajectory
from gnssgraph.pointpos import VelocitySolution, solve_spp
from gnssgraph.sim import (NoiseConfig, ScenarioConfig, TrajectoryConfig,
                           run_scenario)
from gnssgraph.trrtk import TrRtkPairs
from gnssgraph.types import CONSTELLATION_INDEX, Constellation, SatelliteId
from brute_force import dense_gauss_newton_step, dense_normal_equations
from sessions import fresh_interpreter, position_of, take

ZERO_NOISE = NoiseConfig(0.0, 0.0, 0.0)


def zero_noise_scenario(**kwargs):
    defaults = dict(
        duration=40.0,
        trajectory=TrajectoryConfig(kind="line", speed=2.0),
        noise=ZERO_NOISE,
        satellite_clock_drift_sigma=0.0,
        seed=4,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def build_from_scenario(cfg, use_trrtk=True):
    truth, epochs, states = run_scenario(cfg)
    pipe_cfg = PipelineConfig(iono=cfg.iono, tropo=cfg.tropo,
                              use_trrtk=use_trrtk)
    return truth, epochs, states, solve_trajectory(epochs, states, pipe_cfg)


def satellites(cfg, epochs, states):
    """The session's unlocated geometry, with the scenario's delay models."""
    return EpochGeometry(epochs, states, cfg.iono, cfg.tropo)


def random_state(rng):
    return rng.normal(scale=10.0, size=7)


class TestResiduals:
    """The residuals that the optimizer reads, `graph._residuals`, of
    factors written straight into the tables of a two-node graph."""

    @staticmethod
    def residuals(x, velocity=(0.0, 0.0, 0.0), dt=1.0,
                  baseline=(0.0, 0.0, 0.0), row=None, constant=0.0):
        """The between residuals (the velocity factor, then the TR-RTK
        factor, both from node 0 to node 1) and the residual of one
        pseudorange row on node 0 at states `x` (2, 7)."""
        from gnssgraph.graph import (Graph, Priors, PseudorangeFactors,
                                     TrRtkFactors, VelocityFactors,
                                     _residuals)

        one = np.eye(3)[None]
        pseudorange = PseudorangeFactors(
            node=np.zeros(1, int), sat=np.zeros(1, int),
            sat_position=np.zeros((1, 3)), slot=np.zeros(1, int),
            measured=np.zeros(1),
            row=np.zeros((1, 7)) if row is None else row[None],
            constant=np.array([constant]), information=np.ones(1),
            lin_offset=np.zeros((1, 3)))
        g = Graph(np.zeros(3), np.zeros((2, 7)),
                  VelocityFactors(np.array([[0, 1]]), np.array([velocity]),
                                  np.array([dt]), one),
                  TrRtkFactors(np.array([[0, 1]]), np.array([baseline]),
                               np.array([dt]), one),
                  pseudorange,
                  Priors(np.zeros(0, int), np.zeros(0, int), np.zeros(0),
                         np.zeros(0), np.zeros(0, int)))
        _, _, between, pr, _ = _residuals(g, np.asarray(x, dtype=float))
        return between, pr[0]

    def test_velocity_zero_motion(self):
        between, _ = self.residuals(np.zeros((2, 7)))
        assert np.allclose(between[0], 0.0)

    def test_velocity_exact_motion(self):
        x = np.zeros((2, 7))
        x[1, :3] = [2.5, 0.0, 0.0]
        between, _ = self.residuals(x, velocity=(2.5, 0.0, 0.0))
        assert np.allclose(between[0], 0.0)

    def test_trrtk_exact(self):
        b = np.array([1.0, -2.0, 3.0])
        x = np.zeros((2, 7))
        x[:, :3] = [10.0, 0.0, 0.0]
        x[1, :3] += b
        between, _ = self.residuals(x, baseline=b)
        assert np.allclose(between[1], 0.0)

    def test_velocity_jacobian_structure(self):
        rng = np.random.default_rng(0)
        velocity = rng.normal(size=3)
        x = np.array([random_state(rng), random_state(rng)])
        h = 1e-6

        def velocity_residual(x):
            return self.residuals(x, velocity=velocity)[0][0]

        assert velocity_residual(x).shape == (3,)
        for col in range(7):
            dx = np.zeros((2, 7))
            dx[:, col] = [h, 0.0]
            d_i = (velocity_residual(x + dx)
                   - velocity_residual(x - dx)) / (2 * h)
            d_j = (velocity_residual(x + dx[::-1])
                   - velocity_residual(x - dx[::-1])) / (2 * h)
            expect = np.eye(7)[col, :3]
            assert np.allclose(d_j, expect, rtol=0.0, atol=1e-8)
            assert np.allclose(d_i, -d_j, rtol=0.0, atol=1e-8)

    def test_pseudorange_clock_columns(self):
        """A Galileo row of `pseudorange_rows` has the Galileo clock
        column and no other."""
        from gnssgraph.pointpos import pseudorange_rows

        unit = np.array([[0.5, -0.5, np.sqrt(0.5)]])
        rows, constants = pseudorange_rows(
            unit, np.array([2.0e7]), np.array([2]), np.array([2.0e7 + 12.0]),
            np.zeros((1, 3)))
        assert np.array_equal(rows[0], [-0.5, 0.5, -np.sqrt(0.5),
                                        0.0, 0.0, 1.0, 0.0])
        assert constants[0] == pytest.approx(12.0)
        x = np.zeros((2, 7))
        _, base = self.residuals(x, row=rows[0], constant=constants[0])
        for col, change in ((3, 0.0), (3 + 1, 0.0), (3 + 2, 1.0),
                            (3 + 3, 0.0)):
            bumped = x.copy()
            bumped[0, col] += 1.0
            _, moved = self.residuals(bumped, row=rows[0],
                                      constant=constants[0])
            assert moved - base == pytest.approx(change)


class TestBuildGraph:
    def test_counts_full_scenario(self):
        cfg = zero_noise_scenario(duration=30.0)
        truth, epochs, states, result = build_from_scenario(cfg)
        n = len(epochs)
        assert result.graph.initial_states.shape == (n, 7)
        assert len(result.graph.velocity_factors) == n - 1
        nodes = result.graph.velocity_factors.nodes
        assert np.array_equal(nodes[:, 1], nodes[:, 0] + 1)
        assert len(result.graph.pseudorange_factors) >= 8 * n

    def test_rejected_trrtk_not_added(self):
        cfg = zero_noise_scenario(duration=10.0)
        truth, epochs, states = run_scenario(cfg)
        sats = satellites(cfg, epochs, states)
        spp = solve_spp(sats)
        from gnssgraph.pointpos import solve_doppler_velocity
        vel = solve_doppler_velocity(spp.geometry)
        # (0, 5) rejected, (1, 6) fixed
        pairs = TrRtkPairs(np.array([[0, 5], [1, 6]]), np.array([5.0, 5.0]),
                           np.array([False, True]),
                           np.array([np.zeros(3), np.ones(3)]),
                           np.array([np.eye(3), 1e-4 * np.eye(3)]),
                           np.array([1.0, 9.0]), np.array([0, 4]), {})
        g = build_graph(spp.geometry, vel, spp, pairs)
        assert len(g.trrtk_factors) == 1
        assert g.trrtk_factors.nodes.tolist() == [[1, 6]]

    def test_prior_edges(self):
        """A position prior on node 0, then per node one edge on the
        clock slots that none of its pseudorange rows observes."""
        cfg = zero_noise_scenario(duration=10.0)
        truth, epochs, states, result = build_from_scenario(cfg)
        g = result.graph
        pr = g.pseudorange_factors
        expected = [(0, [0, 1, 2])]
        for k in range(len(epochs)):
            observed = set(pr.slot[pr.node == k].tolist())
            free = [3 + slot for slot in range(4) if slot not in observed]
            if free:
                expected.append((k, free))
        assert len(expected) > 1
        priors = g.priors
        edges = np.split(np.arange(len(priors.node)), priors.start[1:])
        assert len(edges) == len(priors)
        assert [(priors.node[rows[0]], priors.index[rows].tolist())
                for rows in edges] == expected
        for rows in edges:
            assert (priors.node[rows] == priors.node[rows[0]]).all()
        assert np.array_equal(priors.value,
                              g.initial_states[priors.node, priors.index])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_graph(EpochGeometry([], []), [], [], [])

    def test_empty_session_raises_before_spp(self):
        with pytest.raises(EmptyInput, match="no epochs"):
            solve_trajectory([], [])

    def test_missing_velocity(self):
        cfg = zero_noise_scenario(duration=5.0)
        truth, epochs, states = run_scenario(cfg)
        sats = satellites(cfg, epochs, states)
        spp = solve_spp(sats)
        none = VelocitySolution(np.zeros((0, 3)), np.zeros(0),
                                np.zeros((0, 3, 3)), {})
        with pytest.raises(MissingVelocity):
            build_graph(spp.geometry, none, spp,
                        TrRtkPairs.unsolved(np.zeros((0, 2), int),
                                            np.zeros(0)))

    def test_gauge_translation_invariance(self):
        """Velocity and TR residuals depend only on relative positions."""
        cfg = zero_noise_scenario(duration=20.0)
        truth, epochs, states, result = build_from_scenario(cfg)
        g = result.graph
        g.pseudorange_factors.information[:] = 0.0
        g.priors.information[:] = 0.0
        base = evaluate_cost(g, result.states)
        shifted = result.states.copy()
        shifted[:, :3] += np.array([1.0, -2.0, 0.5])
        assert evaluate_cost(g, shifted) == pytest.approx(base, rel=1e-12)


class TestPseudorangeRows:
    def test_build_rows_equal_relinearize_at_same_offset(self):
        from dataclasses import replace

        from gnssgraph.coords import line_of_sight
        from gnssgraph.graph import _relinearize
        from gnssgraph.types import CONSTELLATION_INDEX

        cfg = zero_noise_scenario(duration=12.0,
                                  noise=NoiseConfig(0.5, 0.003, 0.02))
        cfg.counts = {Constellation.GPS: 31, Constellation.GAL: 24,
                      Constellation.BDS: 24}
        truth, epochs, states, result = build_from_scenario(cfg)
        g = result.graph
        pr = g.pseudorange_factors
        assert {SatelliteId.from_key(key).constellation
                for key in pr.sat.tolist()} == set(cfg.counts)
        # each row is linearized where SPP located its epoch last, within
        # `convergence` of the fix, not at the dead-reckoned node
        point = solve_spp(satellites(cfg, epochs, states)).geometry.position
        assert np.abs(point - result.spp.position).max() < 1e-4
        assert not np.array_equal(point[pr.node] - g.reference_position,
                                  g.initial_states[pr.node, :3])
        for k, (node, sat) in enumerate(zip(pr.node, pr.sat)):
            offset = point[node] - g.reference_position
            position = position_of(epochs[node], states[node], sat)
            assert np.array_equal(pr.lin_offset[k], offset)
            assert np.array_equal(pr.sat_position[k], position)
            assert pr.slot[k] == CONSTELLATION_INDEX[
                SatelliteId.from_key(sat).constellation]
            # the per-satellite oracle: one line of sight per factor
            unit, r0 = line_of_sight(g.reference_position + offset, position)
            expected = np.zeros(7)
            expected[:3] = -unit
            expected[3 + pr.slot[k]] = 1.0
            assert np.allclose(pr.row[k], expected, rtol=0.0, atol=1e-12)
            assert pr.constant[k] == pytest.approx(
                pr.measured[k] - r0 - unit @ offset, abs=1e-6)
        # every row moved 1 km since it was linearized: relinearized at
        # the build's offsets, the rows are the build's again
        again = replace(pr, row=np.zeros_like(pr.row),
                        constant=np.zeros_like(pr.constant),
                        lin_offset=pr.lin_offset + 1000.0)
        at_build = np.zeros_like(g.initial_states)
        at_build[pr.node, :3] = pr.lin_offset
        assert _relinearize(replace(g, pseudorange_factors=again),
                            at_build, 10.0)
        assert np.array_equal(again.lin_offset, pr.lin_offset)
        assert np.allclose(again.row, pr.row, rtol=0.0, atol=1e-12)
        assert np.allclose(again.constant, pr.constant, rtol=0.0, atol=1e-6)


class TestRelinearization:
    def test_moved_nodes_relinearize_their_pseudorange_factors(self):
        from gnssgraph.coords import line_of_sight
        from gnssgraph.graph import _relinearize

        cfg = zero_noise_scenario(duration=15.0,
                                  noise=NoiseConfig(0.5, 0.003, 0.02))
        truth, epochs, states, result = build_from_scenario(cfg,
                                                            use_trrtk=False)
        g = result.graph
        ref = g.reference_position
        # linearize every factor 30 m away from where the solve will end
        away = g.initial_states.copy()
        away[:, :3] += 30.0
        assert _relinearize(g, away, 0.0)
        x, report = optimize(g)
        assert report.converged
        pr = g.pseudorange_factors
        for k, (node, sat) in enumerate(zip(pr.node, pr.sat)):
            assert np.linalg.norm(x[node, :3] - pr.lin_offset[k]) \
                <= RELINEARIZE_THRESHOLD
            unit, r0 = line_of_sight(ref + pr.lin_offset[k], position_of(
                epochs[node], states[node], sat))
            assert np.allclose(pr.row[k, :3], -unit, rtol=0.0, atol=1e-12)
            assert pr.constant[k] == pytest.approx(
                pr.measured[k] - r0 - unit @ pr.lin_offset[k], abs=1e-6)
        assert np.allclose(x, result.states, rtol=0.0, atol=1e-6)


class TestStackedSystem:
    @staticmethod
    def small_graph():
        """Four nodes with every factor type, and a prior on the two
        clock slots that no pseudorange factor observes."""
        from gnssgraph.graph import (Graph, Priors, PseudorangeFactors,
                                     TrRtkFactors, VelocityFactors)

        rng = np.random.default_rng(23)

        def spd(n):
            a = rng.normal(size=(n, 3, 3))
            return a @ a.transpose(0, 2, 1) + 0.5 * np.eye(3)

        def pr_row(slot):
            row = np.zeros(7)
            unit = rng.normal(size=3)
            row[:3] = -unit / np.linalg.norm(unit)
            row[3 + slot] = 1.0
            return row

        velocity = VelocityFactors(
            nodes=np.array([(k, k + 1) for k in range(3)]),
            velocity=rng.normal(size=(3, 3)), dt=0.5 + np.arange(3.0),
            information=spd(3))
        trrtk = TrRtkFactors(nodes=np.array([(0, 2), (1, 3)]),
                             baseline=rng.normal(size=(2, 3)),
                             time_difference=np.array([2.0, 2.0]),
                             information=spd(2))
        observed = [(k, const, slot, prn) for k in range(4)
                    for const, slot, prn in ((Constellation.GPS, 0, 3 + k),
                                             (Constellation.GAL, 2, 9))]
        slot = np.array([s for _, _, s, _ in observed])
        pseudorange = PseudorangeFactors(
            node=np.array([k for k, _, _, _ in observed]),
            sat=tuple(SatelliteId(const, prn)
                      for _, const, _, prn in observed),
            sat_position=np.zeros((8, 3)), slot=slot,
            measured=np.zeros(8),
            row=np.array([pr_row(s) for s in slot]),
            constant=rng.normal(scale=5.0, size=8),
            information=rng.uniform(0.5, 4.0, size=8),
            lin_offset=np.zeros((8, 3)))
        priors = Priors(node=np.array([0, 0, 0, 2, 2]),
                        index=np.array([0, 1, 2, 4, 6]),
                        value=rng.normal(size=5),
                        information=np.array([0.25, 0.25, 0.25, 1e-4,
                                              3e-4]),
                        start=np.array([0, 3]))
        states = rng.normal(scale=3.0, size=(4, 7))
        return Graph(np.zeros(3), states, velocity, trrtk, pseudorange,
                     priors), rng.normal(scale=3.0, size=(4, 7))

    def test_normal_matrix_and_cost_equal_per_factor_sums(self):
        from gnssgraph.graph import _normal_equations, _quadratic

        g, x = self.small_graph()
        assert len(g.priors) == 2
        normal, gradient, cost = dense_normal_equations(g, x)

        system_gradient, system = _normal_equations(g, x)
        assert np.allclose(dense_from_blocks(system), normal, rtol=1e-12,
                           atol=1e-12)
        assert np.allclose(system_gradient, gradient, rtol=1e-12,
                           atol=1e-12)
        v = np.random.default_rng(5).normal(size=x.size)
        assert _quadratic(system, v) == pytest.approx(v @ normal @ v,
                                                      rel=1e-12)
        assert evaluate_cost(g, x) == pytest.approx(cost, rel=1e-12)
        # the cost follows edits of the graph's arrays
        g.priors.information[3] += 2.0
        assert evaluate_cost(g, x) == pytest.approx(
            cost + 2.0 * (x[2, 4] - g.priors.value[3]) ** 2, rel=1e-12)


def dense_from_blocks(system) -> np.ndarray:
    """The full normal matrix of the optimizer's blocks: the node blocks
    on the diagonal, and Omega on both nodes' positions and -Omega
    between them for each between factor."""
    blocks, nodes, information = system
    n = len(blocks)
    normal = np.zeros((7 * n, 7 * n))
    for k, block in enumerate(blocks):
        normal[7 * k:7 * k + 7, 7 * k:7 * k + 7] = block
    for (i, j), omega in zip(nodes, information):
        for a, b, sign in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
            normal[7 * a:7 * a + 3, 7 * b:7 * b + 3] += sign * omega
    return normal


def with_clock_priors(g):
    """`g` with, besides the first node's position prior, a prior on
    every node's clock slots 1 and 3, which no pseudorange row of
    `TestStackedSystem.small_graph` observes (as `build_graph` adds
    them)."""
    from gnssgraph.graph import Priors

    n = len(g.initial_states)
    g.priors = Priors(
        node=np.concatenate([[0, 0, 0], np.repeat(np.arange(n), 2)]),
        index=np.concatenate([[0, 1, 2], np.tile([4, 6], n)]),
        value=np.zeros(3 + 2 * n),
        information=np.concatenate([[0.25] * 3, [1e-4] * (2 * n)]),
        start=np.concatenate([[0], 3 + 2 * np.arange(n)]))
    return g


def gauss_newton_step(g, x):
    from gnssgraph.graph import _gauss_newton_step, _normal_equations

    gradient, system = _normal_equations(g, x)
    return _gauss_newton_step(system, gradient)


def line_graph(**kwargs):
    """The graph of a 20 s line solved by the pipeline, and states 0.5 m
    (positions) and 2 m (clocks) off its solution."""
    cfg = zero_noise_scenario(duration=20.0,
                              noise=NoiseConfig(0.5, 0.003, 0.02))
    truth, epochs, states = run_scenario(cfg)
    result = solve_trajectory(epochs, states, PipelineConfig(
        iono=cfg.iono, tropo=cfg.tropo, **kwargs))
    rng = np.random.default_rng(3)
    x = result.states + rng.normal(size=result.states.shape) * np.array(
        [0.5] * 3 + [2.0] * 4)
    return result.graph, x


def square_graph(**kwargs):
    """The graph of an 80 s square of 20 m sides solved by the pipeline
    with TR-RTK."""
    square = [[0, 0, 0], [20, 0, 0], [20, 20, 0], [0, 20, 0], [0, 0, 0]]
    cfg = ScenarioConfig(
        duration=80.0,
        trajectory=TrajectoryConfig(kind="waypoints", speed=1.0,
                                    waypoints=square), seed=1)
    truth, epochs, states = run_scenario(cfg)
    return solve_trajectory(epochs, states, PipelineConfig(
        iono=cfg.iono, tropo=cfg.tropo, **kwargs)).graph


class TestGaussNewtonStep:
    """The step from eliminated clocks and a banded position solve is the
    dense normal equations' solution."""

    def small(self):
        g, x = TestStackedSystem.small_graph()
        return with_clock_priors(g), x

    def square(self):
        g = square_graph()
        assert len(g.trrtk_factors) > 100
        return g, g.initial_states

    def full_band(self):
        """One TR edge from the first node to the last: the position
        band is the whole lower triangle."""
        from gnssgraph.graph import TrRtkFactors

        g, x = line_graph(use_trrtk=False)
        n = len(x)
        tr = g.trrtk_factors
        g.trrtk_factors = TrRtkFactors(
            nodes=np.concatenate([tr.nodes, [[0, n - 1]]]),
            baseline=np.concatenate([tr.baseline, [[38.0, 0.5, -0.2]]]),
            time_difference=np.concatenate([tr.time_difference, [20.0]]),
            information=np.concatenate([tr.information,
                                        [1e4 * np.eye(3)]]))
        return g, x

    def no_pseudorange(self):
        """The clocks rest on their priors alone."""
        g, x = line_graph(use_pseudorange=False)
        assert len(g.pseudorange_factors) == 0
        return g, x

    @pytest.mark.parametrize("graph", ["small", "square", "full_band",
                                       "no_pseudorange"])
    def test_matches_the_dense_oracle(self, graph):
        g, x = getattr(self, graph)()
        step = gauss_newton_step(g, x)
        dense = dense_gauss_newton_step(g, x)
        assert np.linalg.norm(step) > 0.0
        assert (np.linalg.norm(step - dense)
                <= 1e-9 * np.linalg.norm(dense))

    def test_band_spans_the_longest_between_factor(self):
        from gnssgraph.graph import _normal_equations, _position_band

        g, x = self.full_band()
        _, (blocks, nodes, information) = _normal_equations(g, x)
        band = _position_band(blocks[:, :3, :3], nodes, information)
        assert band.shape == (3 * len(x), 3 * len(x))


class TestSingularSystems:
    """A graph whose normal equations are singular raises
    SingularNormalEquations, never numpy's LinAlgError."""

    @pytest.mark.parametrize("scale", [0.0, 1e-30])
    def test_cut_between_factor(self, scale):
        """Without pseudorange rows, velocity factor 5 of zero (or
        1e-30) information leaves nodes 6 onward with no position
        anchor; nodes 10 onward moved 1 m give the gradient something to
        do. With 1e-30 the position system is positive definite only
        below round-off, and dpbtrf refuses both."""
        g, _ = line_graph(use_trrtk=False, use_pseudorange=False)
        g.velocity_factors.information[5] = scale * np.eye(3)
        g.initial_states[10:, :3] += 1.0
        with pytest.raises(SingularNormalEquations, match="position"):
            optimize(g)

    @pytest.fixture(scope="class")
    def square_without_pseudorange(self):
        return square_graph(use_pseudorange=False)

    @pytest.mark.parametrize("cut", [9, 13, 21, 53])
    def test_cut_across_loop_closures(self, square_without_pseudorange,
                                      cut):
        """Every factor across epoch `cut` of an 80 s square without
        pseudorange rows has zero information, so the nodes after it
        have no position anchor. dpbtrf refuses the system at each of
        these cuts; `TestBandedCholesky` has a factor it accepts and the
        pivot rule refuses."""
        g = copy.deepcopy(square_without_pseudorange)
        tr = g.trrtk_factors
        g.velocity_factors.information[cut] = 0.0
        tr.information[(tr.nodes[:, 0] <= cut) & (tr.nodes[:, 1] > cut)] = 0.0
        g.initial_states[cut + 3:, :3] += 1.0
        with pytest.raises(SingularNormalEquations, match="position"):
            optimize(g)

    @pytest.mark.parametrize("weight", [1.0, 2.0, 4.0])
    def test_clock_block_of_two_clocks_seen_as_their_sum(self, weight):
        """Node 3's two rows are hand-made alike, each with the GPS and
        the Galileo clock column, and neither slot has a prior, so the
        two clocks are observed only as their sum. With these row
        weights the block's Cholesky factorization fails (2.0) or ends
        on a pivot of round-off above zero (1.0, 4.0)."""
        g, _ = TestStackedSystem.small_graph()
        g = with_clock_priors(g)
        pr = g.pseudorange_factors
        assert pr.node[6] == pr.node[7] == 3 and pr.slot[7] == 2
        pr.row[7, 3] = 1.0
        pr.row[6], pr.slot[6] = pr.row[7], 2
        pr.information[6:8] = weight
        with pytest.raises(SingularNormalEquations, match="clock"):
            optimize(g)


class TestBandedCholesky:
    """`_banded_cholesky` is LAPACK's dpbtrf and dpbtrs from scipy's
    compiled module, called as `scipy.linalg.cholesky_banded` and
    `cho_solve_banded` call them, so a step has their bits."""

    @staticmethod
    def scipy_solve(band, rhs):
        from scipy.linalg import cho_solve_banded, cholesky_banded

        factor = cholesky_banded(band, lower=True, check_finite=False)
        return factor, cho_solve_banded((factor, True), rhs,
                                        check_finite=False)

    @staticmethod
    def record(monkeypatch) -> dict:
        """The dict into which each later step records its position
        system's band, its factor and info, the right-hand side and the
        solution."""
        from gnssgraph import graph

        pbtrf, pbtrs = graph._banded_cholesky()
        calls = {}

        def factor(band, **kwargs):
            calls["band"] = band.copy(order="F")
            calls["factor"], calls["info"] = pbtrf(band, **kwargs)
            return calls["factor"], calls["info"]

        def solve(factor, rhs, **kwargs):
            calls["rhs"] = rhs.copy()
            calls["position"], info = pbtrs(factor, rhs, **kwargs)
            return calls["position"], info

        monkeypatch.setattr(graph, "_banded_cholesky",
                            lambda: (factor, solve))
        return calls

    @pytest.mark.parametrize("half_width", [0, 2, 5, 302])
    def test_random_bands_match_scipy_bit_for_bit(self, half_width):
        """Random bands, diagonally dominant so positive definite, of 603
        unknowns, the size of the benchmark square's position system."""
        from gnssgraph.graph import _banded_cholesky

        rng = np.random.default_rng(half_width)
        n = 603
        band = rng.uniform(-1.0, 1.0, (half_width + 1, n))
        band[0] = 2 * half_width + rng.uniform(1.0, 2.0, n)
        for r in range(1, half_width + 1):
            band[r, n - r:] = 0.0
        rhs = rng.normal(size=n)
        pbtrf, pbtrs = _banded_cholesky()
        factor, info = pbtrf(band.copy(order="F"), lower=1,
                             overwrite_ab=1)
        assert info == 0
        x, info = pbtrs(factor, rhs, lower=1)
        assert info == 0
        expected_factor, expected_x = self.scipy_solve(band, rhs)
        assert np.array_equal(factor, expected_factor)
        assert np.array_equal(x, expected_x)

    def test_the_benchmark_squares_system_matches_scipy(self, monkeypatch):
        """The first step's position system of the session benchmark's
        square, 603 unknowns of half-width 302, factors and solves as
        scipy's functions do, bit for bit."""
        cfg, _, epochs, states = square_session(ScenarioConfig().counts, 1)
        g = solve_trajectory(epochs, states, PipelineConfig(
            iono=cfg.iono, tropo=cfg.tropo)).graph
        calls = self.record(monkeypatch)
        step = gauss_newton_step(g, g.initial_states)
        assert calls["band"].shape == (303, 603)
        factor, position = self.scipy_solve(calls["band"], calls["rhs"])
        assert np.array_equal(calls["factor"], factor)
        assert np.array_equal(calls["position"], position)
        assert np.array_equal(step.reshape(-1, 7)[:, :3].ravel(), position)

    def test_factor_lapack_accepts_but_the_pivot_rule_refuses(
            self, monkeypatch):
        """Velocity factor 5 of 1e-13 information, without pseudorange
        rows: dpbtrf factors the position system, but a pivot squared
        lies below 1e-12 of its diagonal entry, so the step raises."""
        g, _ = line_graph(use_trrtk=False, use_pseudorange=False)
        g.velocity_factors.information[5] = 1e-13 * np.eye(3)
        calls = self.record(monkeypatch)
        with pytest.raises(SingularNormalEquations, match="position"):
            gauss_newton_step(g, g.initial_states)
        assert calls["info"] == 0

    def test_a_refused_factor_is_singular_whatever_its_pivot(
            self, monkeypatch):
        """Velocity factor 5 of information -I makes the position system
        indefinite: dpbtrf stops at a pivot of about -0.75, whose square
        passes the pivot rule, so the refusal itself must raise."""
        g, _ = line_graph(use_trrtk=False, use_pseudorange=False)
        g.velocity_factors.information[5] = -np.eye(3)
        calls = self.record(monkeypatch)
        with pytest.raises(SingularNormalEquations, match="position"):
            gauss_newton_step(g, g.initial_states)
        assert calls["info"] > 0

    @pytest.mark.parametrize("first", ["gnssgraph", "scipy.linalg"])
    def test_scipy_linalg_shares_the_module(self, first):
        """Whichever of a solve and `import scipy.linalg` comes first in a
        fresh interpreter, a solve's functions are scipy.linalg.lapack's
        dpbtrf and dpbtrs, and scipy.linalg's cholesky_banded works."""
        steps = ["functions = graph._banded_cholesky()", "import scipy.linalg"]
        if first == "scipy.linalg":
            steps.reverse()
        out = fresh_interpreter("\n".join([
            "import numpy as np", "from gnssgraph import graph", *steps,
            "from scipy.linalg import cholesky_banded, lapack",
            "print(functions[0] is lapack.dpbtrf,"
            " functions[1] is lapack.dpbtrs)",
            "print(np.allclose(cholesky_banded(np.array([[4.0, 9.0],"
            " [2.0, 0.0]]), lower=True), [[2.0, 8 ** 0.5], [1.0, 0.0]]))"]))
        assert out == "True True\nTrue"


class TestJacobians:
    def test_all_factors_match_central_differences(self):
        """Central differences of the residuals that the optimizer reads,
        `_residuals`, give each between factor -I3 on its first node's
        position and +I3 on its second's, and each pseudorange factor
        its row on its node."""
        from gnssgraph.graph import _residuals

        cfg = zero_noise_scenario(duration=20.0, noise=NoiseConfig(0.5, 0.003, 0.02))
        truth, epochs, states, result = build_from_scenario(cfg)
        g = result.graph
        vel, tr, pr = (g.velocity_factors, g.trrtk_factors,
                       g.pseudorange_factors)
        rng = np.random.default_rng(17)
        h = 1e-5
        eye3 = np.zeros((3, 7))
        eye3[:, :3] = np.eye(3)

        def numeric(node, rows):
            """d residual / d x[node] (r, 7) of the residual rows `rows`:
            the between factors' (b, 3), then the pseudorange rows."""
            cols = []
            for col in range(7):
                up, down = x.copy(), x.copy()
                up[node, col] += h
                down[node, col] -= h
                cols.append((rows(_residuals(g, up))
                             - rows(_residuals(g, down))) / (2 * h))
            return np.stack(cols, axis=-1)

        for _ in range(10):
            x = rng.normal(scale=10.0, size=g.initial_states.shape)
            for k in (rng.integers(len(vel)),
                      len(vel) + rng.integers(len(tr))):
                i, j = np.concatenate([vel.nodes, tr.nodes])[k]
                assert np.allclose(numeric(i, lambda r: r[2][k]), -eye3,
                                   atol=1e-6)
                assert np.allclose(numeric(j, lambda r: r[2][k]), eye3,
                                   atol=1e-6)
            k = rng.integers(len(pr))
            num = numeric(pr.node[k], lambda r: r[3][k])
            assert np.allclose(num, pr.row[k], atol=1e-6)


class TestCost:
    def test_cost_nonnegative_and_decomposes(self):
        """`evaluate_cost` equals the brute-force sum of e^T Omega e, one
        factor at a time, each residual formed from its table row."""
        cfg = zero_noise_scenario(duration=15.0, noise=NoiseConfig(0.5, 0.003, 0.02))
        truth, epochs, states, result = build_from_scenario(cfg)
        g = result.graph
        total = evaluate_cost(g, result.states)
        assert total >= 0
        _, _, partial = dense_normal_equations(g, result.states)
        assert total == pytest.approx(partial, rel=1e-12)

    def test_noise_free_cost_near_zero_at_truth(self):
        cfg = zero_noise_scenario(duration=20.0)
        truth, epochs, states, result = build_from_scenario(cfg)
        g = result.graph
        x = result.states.copy()
        for k, rec in enumerate(truth):
            x[k, :3] = rec.position - g.reference_position
        cost = evaluate_cost(g, x)
        assert cost < 1e-4


class TestOptimizer:
    def test_velocity_only_already_optimal(self):
        cfg = zero_noise_scenario(duration=20.0)
        truth, epochs, states = run_scenario(cfg)
        pipe_cfg = PipelineConfig(iono=cfg.iono, tropo=cfg.tropo,
                                  use_trrtk=False, use_pseudorange=False)
        result = solve_trajectory(epochs, states, pipe_cfg)
        assert result.report.converged
        assert result.report.iterations <= 1
        assert result.report.final_cost < 1e-6

    def test_two_nodes_exact_tr_factor(self):
        cfg = zero_noise_scenario(duration=2.0)
        truth, epochs, states = run_scenario(cfg)
        sats = satellites(cfg, epochs[:2], states[:2])
        spp = solve_spp(sats)
        from gnssgraph.pointpos import solve_doppler_velocity
        vel = solve_doppler_velocity(spp.geometry)
        b = np.array([2.0, 0.0, 0.0])
        fixed = TrRtkPairs(np.array([[0, 1]]), np.array([1.0]),
                           np.array([True]), b[None], 1e-8 * np.eye(3)[None],
                           np.array([10.0]), np.array([5]), {})
        g = build_graph(spp.geometry, vel, spp, fixed, use_pseudorange=False)
        # loosen the velocity factor so the TR factor dominates
        g.velocity_factors.information[0] = 1e-6 * np.eye(3)
        x, report = optimize(g)
        rel = x[1, :3] - x[0, :3]
        assert np.linalg.norm(rel - b) < 1e-6
        assert report.final_cost <= report.initial_cost

    @pytest.mark.parametrize("moved", [0.0, 30.0])
    def test_trust_region_cuts_only_a_step_that_relinearizes(
            self, moved, monkeypatch):
        """A Gauss-Newton step longer than the initial trust radius, that
        moves no node as far as RELINEARIZE_THRESHOLD, minimizes the
        (then exactly quadratic) cost: the radius widens to take it
        whole in one iteration, with no dogleg blend and no second one.
        A step that moves the nodes 30 m, so relinearizes their rows, is
        cut to the radius first."""
        from gnssgraph import graph
        from gnssgraph.graph import INITIAL_RADIUS, _relinearize

        cfg = zero_noise_scenario(duration=20.0,
                                  noise=NoiseConfig(0.5, 0.003, 0.02))
        _, _, _, result = build_from_scenario(cfg, use_trrtk=False)
        g = result.graph
        # every node's clock 60 m (and position `moved` m) off the
        # solution, its rows linearized where it starts
        start = result.states.copy()
        start[:, 3] += 60.0
        start[:, :3] += moved
        g.initial_states = start
        _relinearize(g, start, 0.0)
        to_solution = result.states - start
        assert np.linalg.norm(to_solution) > INITIAL_RADIUS
        radii, gn_norms = [], []
        dogleg = graph._dogleg_step

        def recorded(gn_step, sd_step, radius):
            radii.append(radius)
            gn_norms.append(np.linalg.norm(gn_step))
            return dogleg(gn_step, sd_step, radius)

        monkeypatch.setattr(graph, "_dogleg_step", recorded)
        x, report = optimize(g)
        assert report.converged
        assert np.allclose(x, result.states, rtol=0.0, atol=1e-6)
        if moved:
            assert radii[0] == INITIAL_RADIUS
            return
        assert gn_norms[0] > INITIAL_RADIUS
        assert radii == [gn_norms[0]] and report.iterations == 1
        assert len(report.costs) == 2
        assert report.costs[1] < 1e-3 * report.costs[0]

    def test_full_scenario_monotone_costs(self):
        cfg = zero_noise_scenario(duration=60.0,
                                  noise=NoiseConfig(0.5, 0.003, 0.02),
                                  satellite_clock_drift_sigma=1e-13)
        truth, epochs, states, result = build_from_scenario(cfg)
        costs = result.report.costs
        assert result.report.final_cost < result.report.initial_cost
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
        assert result.report.iterations <= 100

    def test_deterministic(self):
        cfg = zero_noise_scenario(duration=30.0,
                                  noise=NoiseConfig(0.5, 0.003, 0.02))
        _, _, _, r1 = build_from_scenario(cfg)
        _, _, _, r2 = build_from_scenario(cfg)
        assert r1.report.costs == r2.report.costs
        assert np.array_equal(r1.states, r2.states)

    def test_zero_noise_closure(self):
        cfg = zero_noise_scenario(duration=40.0)
        truth, epochs, states, result = build_from_scenario(cfg)
        start_err = result.positions[0] - truth[0].position
        for k, rec in enumerate(truth):
            rel_est = result.positions[k] - result.positions[0]
            rel_true = rec.position - truth[0].position
            assert np.linalg.norm(rel_est - rel_true) < 1e-6
        assert np.linalg.norm(start_err) < 1e-5

    def test_trrtk_improves_final_error(self):
        cfg = zero_noise_scenario(duration=60.0, seed=8,
                                  noise=NoiseConfig(0.5, 0.003, 0.02),
                                  satellite_clock_drift_sigma=1e-13)
        truth, epochs, states = run_scenario(cfg)
        with_tr = solve_trajectory(
            epochs, states, PipelineConfig(iono=cfg.iono, tropo=cfg.tropo))
        without = solve_trajectory(
            epochs, states, PipelineConfig(iono=cfg.iono, tropo=cfg.tropo,
                                           use_trrtk=False))

        def rel_err(res):
            est = res.positions[-1] - res.positions[0]
            true = truth[-1].position - truth[0].position
            return np.linalg.norm(est - true)

        assert rel_err(with_tr) <= rel_err(without) + 1e-9



SQUARE = [[0, 0, 0], [50, 0, 0], [50, 50, 0], [0, 50, 0], [0, 0, 0]]
GPS_LESS = (40, 100, 150)              # epochs with their GPS rows removed


def square_session(counts, seed):
    """The truth, epochs and satellite states of a 200 s square of 50 m
    sides at 1 m/s, default noise, observing the constellations of
    `counts`."""
    cfg = ScenarioConfig(
        duration=200.0, seed=seed, counts=counts,
        trajectory=TrajectoryConfig(kind="waypoints", speed=1.0,
                                    waypoints=SQUARE))
    truth, epochs, states = run_scenario(cfg)
    return cfg, np.array([r.position for r in truth]), epochs, states


def without_gps(epochs, states, cut):
    """The session with every GPS row of the epochs `cut` removed."""
    epochs, states = list(epochs), list(states)
    gps = CONSTELLATION_INDEX[Constellation.GPS]
    for k in cut:
        epochs[k], states[k] = take(epochs[k], states[k],
                                    epochs[k].sats // 100 != gps)
    return epochs, states


@pytest.fixture(scope="module")
def gps_less_epochs():
    """Per seed 1-3, the truth and the solve of a GPS+GAL square whose
    epochs GPS_LESS see no GPS satellite."""
    solved = {}
    for seed in (1, 2, 3):
        cfg, truth, epochs, states = square_session(
            {Constellation.GPS: 31, Constellation.GAL: 24}, seed)
        epochs, states = without_gps(epochs, states, GPS_LESS)
        solved[seed] = truth, solve_trajectory(epochs, states, PipelineConfig(
            iono=cfg.iono, tropo=cfg.tropo))
    return solved


class TestReceiversWithoutGps:
    """A node's clocks are SPP's, one absolute clock per constellation
    slot, so no epoch needs a GPS satellite."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("system", [Constellation.GAL,
                                        Constellation.BDS])
    def test_single_system_square_solves(self, system, seed):
        """A Galileo-only or a BeiDou-only square solves with finite
        positions and an APE mean within 1 m."""
        cfg, truth, epochs, states = square_session({system: 24}, seed)
        result = solve_trajectory(epochs, states, PipelineConfig(
            iono=cfg.iono, tropo=cfg.tropo))
        assert result.spp.errors == {}
        assert result.report.converged
        assert np.isfinite(result.positions).all()
        assert compute_ape(result.positions, truth)[0] <= 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_epochs_without_gps_in_a_gps_galileo_session(self, seed,
                                                         gps_less_epochs):
        """A GPS+GAL square whose epochs GPS_LESS lose every GPS row
        solves with an RPE mean within 5 cm, and each of those epochs
        lies within 1 m of the truth relative to epoch 0."""
        truth, result = gps_less_epochs[seed]
        assert result.spp.errors == {}
        assert (result.spp.used[list(GPS_LESS), 0] == 0).all()
        mean, _, series = compute_rpe(result.positions, truth)
        assert mean <= 0.05
        assert (series[np.array(GPS_LESS) - 1] <= 1.0).all()

    def test_clock_states_and_priors_follow_spp(self, gps_less_epochs):
        """The initial clock states are `spp.clock` as they are, and the
        clock priors, each CLOCK_PRIOR_SIGMA, sit exactly on the (node,
        slot) cells that no pseudorange row observes: at the GPS-less
        epochs, on their GPS slot too."""
        _, result = gps_less_epochs[1]
        g = result.graph
        assert np.array_equal(g.initial_states[:, 3:], result.spp.clock)
        pr, priors = g.pseudorange_factors, g.priors
        observed = np.zeros(result.spp.clock.shape, dtype=bool)
        observed[pr.node, pr.slot] = True
        clock = priors.index >= 3
        prior = np.zeros_like(observed)
        prior[priors.node[clock], priors.index[clock] - 3] = True
        assert clock.sum() == prior.sum()
        assert np.array_equal(prior, ~observed)
        assert prior[list(GPS_LESS), 0].all()
        assert np.array_equal(priors.information[clock],
                              np.full(clock.sum(), CLOCK_PRIOR_SIGMA ** -2))
