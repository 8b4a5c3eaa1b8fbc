import numpy as np
import pytest

from gnssgraph.ambiguity import (AmbiguityProblem, _ltdl, _original_integers,
                                 _reduction, _search, lambda_resolve)
from gnssgraph.errors import (AmbiguityCheckFailed, NotPositiveDefinite,
                              SearchLimitExceeded)

from brute_force import brute_force_minimizer


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return a @ a.T * scale + 0.05 * np.eye(n)


class TestLambdaResolve:
    def test_diagonal_reduces_to_rounding(self):
        problem = AmbiguityProblem(np.array([1.3, -0.4, 2.5]), np.eye(3))
        integers, ratio, _ = lambda_resolve(problem)
        q1 = np.sum((integers - problem.float_values) ** 2)
        # nearest rounding per axis; the 2.5 tie resolves to 2 or 3
        assert integers[0] == 1 and integers[1] == 0 and integers[2] in (2, 3)
        assert abs(q1 - (0.09 + 0.16 + 0.25)) < 1e-12
        assert ratio >= 1.0

    def test_correlated_2d_matches_brute_force(self):
        q = np.array([[6.29, 5.978], [5.978, 6.292]])
        a = np.array([5.45, 3.1])
        integers, ratio, _ = lambda_resolve(AmbiguityProblem(a, q))
        expected, q1, q2 = brute_force_minimizer(a, q, box=10)
        assert np.array_equal(integers, expected)
        assert abs(ratio - q2 / q1) < 1e-9

    def test_random_problems_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(3, 6))
            q = random_spd(rng, n)
            a = rng.uniform(-5.0, 5.0, size=n)
            integers, _, _ = lambda_resolve(AmbiguityProblem(a, q))
            expected, *_ = brute_force_minimizer(a, q)
            got = float((integers - a) @ np.linalg.inv(q) @ (integers - a))
            best = float((expected - a) @ np.linalg.inv(q) @ (expected - a))
            assert abs(got - best) < 1e-9 * max(best, 1.0)

    def test_unimodular_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = 4
            q = random_spd(rng, n)
            a = rng.uniform(-3.0, 3.0, size=n)
            base, _, _ = lambda_resolve(AmbiguityProblem(a, q))
            # random unimodular transform built from integer shears
            u = np.eye(n)
            for _ in range(6):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    shear = np.eye(n)
                    shear[i, j] = float(rng.integers(-2, 3))
                    u = u @ shear
            a2 = u @ a
            q2 = u @ q @ u.T
            other, _, _ = lambda_resolve(AmbiguityProblem(a2, q2))
            back = np.linalg.solve(u, other.astype(float))
            assert np.allclose(back, base, atol=1e-9)

    def test_ratio_acceptance_flag(self):
        problem = AmbiguityProblem(np.array([1.02, -2.01]), 0.001 * np.eye(2))
        _, ratio, accepted = lambda_resolve(problem, ratio_threshold=3.0)
        assert accepted and ratio > 3.0
        problem = AmbiguityProblem(np.array([0.5, 0.5]), 10.0 * np.eye(2))
        _, ratio, accepted = lambda_resolve(problem, ratio_threshold=3.0)
        assert not accepted

    def test_exact_float_gives_infinite_ratio(self):
        problem = AmbiguityProblem(np.array([2.0, -7.0]), np.eye(2))
        integers, ratio, accepted = lambda_resolve(problem)
        assert np.array_equal(integers, [2, -7])
        assert ratio == np.inf and accepted

    def test_not_positive_definite(self):
        q = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            lambda_resolve(AmbiguityProblem(np.array([0.1, 0.2]), q))

    def test_one_dimensional(self):
        integers, ratio, _ = lambda_resolve(
            AmbiguityProblem(np.array([3.2]), np.array([[0.04]])))
        assert integers[0] == 3
        assert abs(ratio - (0.8 ** 2 / 0.2 ** 2)) < 1e-9


class TestReduction:
    @pytest.mark.parametrize("condition", [None, 1e5])
    def test_unimodular_and_factors_transformed_covariance(self, condition):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(3, 20))
            if condition is None:
                q = random_spd(rng, n)
            else:
                # TR-RTK-like spectrum: a few well-determined directions
                # among poorly determined ones
                u, _ = np.linalg.qr(rng.normal(size=(n, n)))
                q = u @ np.diag(np.logspace(-3, np.log10(condition) - 3, n)) @ u.T
            L, d = _ltdl(q)
            Z = _reduction(L, d)
            assert np.array_equal(Z, np.round(Z))
            assert abs(abs(np.linalg.det(Z)) - 1.0) < 1e-6
            transformed = Z.T @ q @ Z
            factored = L.T @ np.diag(d) @ L
            scale = np.max(np.abs(transformed))
            assert np.max(np.abs(transformed - factored)) < 1e-9 * scale


class TestStartingBasis:
    """The decorrelating basis Z and the answer it maps back are checked
    before `lambda_resolve` returns."""

    def _case(self, seed):
        rng = np.random.default_rng(seed)
        problem = AmbiguityProblem(rng.uniform(-3.0, 3.0, 5),
                                   random_spd(rng, 5))
        L, d = _ltdl(problem.covariance)
        Z = _reduction(L, d)
        candidates, dists = _search(L, d, Z.T @ problem.float_values)
        return problem, Z, candidates, dists

    def test_basis_with_determinant_two_raises(self):
        problem, Z, candidates, dists = self._case(3)
        Z[:, 2] *= 2.0
        with pytest.raises(AmbiguityCheckFailed, match="unimodular"):
            _original_integers(Z, problem, candidates, dists)

    def test_singular_basis_raises(self):
        problem, Z, candidates, dists = self._case(4)
        Z[:, 4] = Z[:, 0] + Z[:, 1]
        with pytest.raises(AmbiguityCheckFailed, match="unimodular"):
            _original_integers(Z, problem, candidates, dists)

    def test_wrong_reported_distance_raises(self):
        rng = np.random.default_rng(5)
        problem = AmbiguityProblem(rng.uniform(-3.0, 3.0, 6),
                                   random_spd(rng, 6))
        L, d = _ltdl(problem.covariance)
        Z = _reduction(L, d)
        candidates, dists = _search(L, d, Z.T @ problem.float_values)
        integers = _original_integers(Z, problem, candidates, dists)
        assert np.array_equal(integers, np.round(integers))
        with pytest.raises(AmbiguityCheckFailed):
            _original_integers(Z, problem, candidates, dists * 1.01)

    def test_search_step_cap_raises(self):
        rng = np.random.default_rng(6)
        q = random_spd(rng, 8, scale=50.0)
        a = rng.uniform(-3.0, 3.0, 8)
        L, d = _ltdl(q)
        Z = _reduction(L, d)
        candidates, _ = _search(L, d, Z.T @ a)
        assert candidates.shape == (8, 2)
        with pytest.raises(SearchLimitExceeded):
            _search(L, d, Z.T @ a, max_steps=20)
