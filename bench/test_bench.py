"""Tests of the benchmark's own checks and tracing.

Each check must pass on a clean output and fail on a deliberately
corrupted one. Run from the repository root:

    python3 -m pytest -q bench
"""

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
from refclock import ReferenceClock  # noqa: E402
from spans import SPANS, TraceError, Tracer  # noqa: E402

SQUARE = [(0, 0, 0), (50, 0, 0), (50, 50, 0), (0, 50, 0), (0, 0, 0)]


def square_truth(n=201):
    """Points at 1 m spacing along the 200 m square, as ENU meters."""
    corners = np.array(SQUARE, dtype=float)
    s = np.linspace(0.0, 200.0, n)
    leg = np.minimum((s // 50).astype(int), 3)
    frac = (s - 50 * leg)[:, None] / 50.0
    return corners[leg] + frac * (corners[leg + 1] - corners[leg])


def noisy(truth, sigma=0.003, seed=0):
    return truth + np.random.default_rng(seed).normal(0.0, sigma, truth.shape)


def names(failures):
    return {f.split(":", 1)[0] for f in failures if f}


def tr_bounds():
    return {"rpe_mean": checks.TR_RPE_MEAN_M, "rpe_max": checks.TR_RPE_MAX_M}


def accuracy_failures(estimate, truth):
    rpe_mean, rpe_max, ape_mean = checks.accuracy(estimate, truth)
    return checks.check_accuracy({"rpe_mean": rpe_mean, "rpe_max": rpe_max,
                                  "ape_mean": ape_mean}, tr_bounds())


def fixed_pairs(truth, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for j in range(10, len(truth)):
        i = j - 10
        baseline = truth[j] - truth[i] + rng.normal(0.0, 0.002, 3)
        pairs.append((i, j, baseline, (0,) * 17))
    return pairs


class TestAccuracy:
    def test_clean_trajectory_passes(self):
        truth = square_truth()
        assert accuracy_failures(noisy(truth), truth) == []

    def test_epoch_shifted_by_20cm_fails(self):
        truth = square_truth()
        estimate = noisy(truth)
        estimate[120] += np.array([0.2, 0.0, 0.0])
        assert names(accuracy_failures(estimate, truth)) == {"rpe_max"}

    def test_rpe_ignores_a_constant_offset(self):
        truth = square_truth()
        mean, peak, ape = checks.accuracy(truth + [3.0, -2.0, 1.0], truth)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert peak == pytest.approx(0.0, abs=1e-12)
        assert ape == pytest.approx(np.sqrt(14.0))

    def test_step_check_fails_on_shifted_epoch(self):
        truth = square_truth()
        estimate = noisy(truth, sigma=0.01)
        assert checks.check_steps(estimate, truth, 0.25) is None
        estimate[50] += np.array([0.0, 0.0, 0.3])
        assert names([checks.check_steps(estimate, truth, 0.25)]) == {"step"}


class TestFixedPairs:
    def test_clean_pairs_pass(self):
        truth = square_truth()
        assert checks.check_fixed_pairs(fixed_pairs(truth), truth) == []

    def test_baseline_moved_by_4cm_fails(self):
        truth = square_truth()
        pairs = fixed_pairs(truth)
        i, j, baseline, ints = pairs[40]
        pairs[40] = (i, j, baseline + np.array([0.0, 0.04, 0.0]), ints)
        assert names(checks.check_fixed_pairs(pairs, truth)) == {"baseline"}

    def test_one_nonzero_integer_fails(self):
        truth = square_truth()
        pairs = fixed_pairs(truth)
        i, j, baseline, ints = pairs[7]
        pairs[7] = (i, j, baseline, ints[:3] + (1,) + ints[4:])
        assert names(checks.check_fixed_pairs(pairs, truth)) == {"integer"}

    def test_fix_yield(self):
        assert checks.check_fix_yield(1257, 1258) is None
        assert names([checks.check_fix_yield(1100, 1258)]) == {"fix_yield"}


class TestTrajectoryFile:
    TOWS = [259200.0 + k for k in range(5)]

    def csv_text(self, drop=None):
        lines = ["tow,x,y,z,lat_deg,lon_deg,height,status"]
        for status in ("Initial", "Optimized"):
            for k, tow in enumerate(self.TOWS):
                if (status, k) != drop:
                    lines.append(f"{tow:.3f},{k}.0,1.0,2.0,35.7,139.8,50.0,"
                                 f"{status}")
        return "\n".join(lines) + "\n"

    def test_complete_file_passes(self):
        rows = checks.read_trajectory_rows(self.csv_text())
        assert checks.check_trajectory_rows(rows, self.TOWS) == []

    def test_missing_row_fails(self):
        rows = checks.read_trajectory_rows(
            self.csv_text(drop=("Optimized", 3)))
        assert names(checks.check_trajectory_rows(rows, self.TOWS)) == {"rows"}

    def test_rows_at_wrong_times_fail(self):
        rows = checks.read_trajectory_rows(self.csv_text())
        shifted = [t + 1.0 for t in self.TOWS]
        assert names(checks.check_trajectory_rows(rows, shifted)) == {"rows"}

    def test_rinex_epoch_times(self):
        text = ("     3.04           OBSERVATION DATA    M"
                "                   RINEX VERSION / TYPE\n"
                "                                                            "
                "END OF HEADER\n"
                "> 2022 03 09 00 00  0.0000000  0 18\n"
                "G01  20000000.000\n"
                "> 2022 03 09 00 00  1.0000000  0 18\n")
        # GPS week 2200 starts on Sunday 2022-03-06
        assert checks.rinex_epoch_tows(text) == [259200.0, 259201.0]


class TestGeometry:
    def test_truth_on_square(self):
        assert checks.check_polyline(square_truth(), SQUARE, 1e-6) is None

    def test_truth_off_square_fails(self):
        truth = square_truth()
        truth[100, 1] += 0.2
        assert names([checks.check_polyline(truth, SQUARE, 0.1)]) == {"path"}

    def test_truth_on_circle(self):
        w = np.linspace(0.0, 2 * np.pi, 50)
        enu = np.column_stack([30 * np.sin(w), 30 * (1 - np.cos(w)),
                               np.zeros_like(w)])
        assert checks.check_circle(enu, 30.0, 1e-6) is None
        enu[10, 0] += 0.01
        assert names([checks.check_circle(enu, 30.0, 1e-3)]) == {"path"}

    def test_enu_axes(self):
        lat, lon, h = np.radians(35.7), np.radians(139.8), 50.0
        up = np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                       np.sin(lat)])
        a = checks.to_enu(np.zeros((1, 3)), lat, lon, h)
        b = checks.to_enu(10.0 * up[None, :], lat, lon, h)
        assert (b - a)[0] == pytest.approx([0.0, 0.0, 10.0], abs=1e-9)


class TestCostAndFaultRule:
    def test_cost(self):
        assert checks.check_cost(10.0, 9.0, True) == []
        assert names(checks.check_cost(10.0, 11.0, True)) == {"cost"}
        assert names(checks.check_cost(10.0, 9.0, False)) == {"converged"}

    def test_false_fix_rule(self):
        assert checks.is_false_fix(["integer: 1", "baseline: 1",
                                    "rpe_max: 0.17"])
        assert not checks.is_false_fix(["rpe_max: 0.17"])
        assert not checks.is_false_fix(["integer: 1", "path: off"])

    def test_solver_log_values(self):
        log = ("method: Ours\n\nfix rate by time difference [s]:\n"
               "     5.0   201/201  100.0%\n"
               "initial cost: 2.1e+05\nconverged:    True\n")
        values = checks.solver_log_values(log)
        assert values["initial cost"] == "2.1e+05"
        assert values["converged"] == "True"


class TestTracer:
    def test_every_wrapped_name_exists(self):
        with Tracer():
            pass

    def test_missing_name_fails_and_leaves_program_untouched(self):
        import gnssgraph.pipeline as pipeline
        original = pipeline.solve_spp
        spans = SPANS + (("gnssgraph.pipeline", "no_such_stage", "x.y"),)
        with pytest.raises(TraceError, match="no_such_stage"):
            with Tracer(spans):
                pass
        assert pipeline.solve_spp is original

    def test_spans_count_calls_and_self_time(self):
        from gnssgraph.ambiguity import AmbiguityProblem
        import gnssgraph.trrtk as trrtk
        original = trrtk.lambda_resolve
        problem = AmbiguityProblem(np.array([0.1, -0.05, 0.02]),
                                   np.diag([0.01, 0.02, 0.03]))
        tracer = Tracer()
        with tracer:
            assert trrtk.lambda_resolve is not original
            trrtk.lambda_resolve(problem)
            trrtk.lambda_resolve(problem)
        assert trrtk.lambda_resolve is original
        layers = tracer.layer_metrics()
        assert layers["ambiguity.lambda_calls"] == 2
        assert layers["ambiguity.dim_mean"] == 3
        assert layers["ambiguity.nonzero_fixes"] == 0
        assert layers["ambiguity.lambda_s"] > 0.0

    def test_errors_counted_by_class(self):
        import gnssgraph.pipeline as pipeline
        from gnssgraph.errors import InsufficientSatellites

        def failing(*args, **kwargs):
            raise InsufficientSatellites("only 3")

        tracer = Tracer()
        original = pipeline.estimate_baseline
        pipeline.estimate_baseline = failing
        try:
            with tracer:
                with pytest.raises(InsufficientSatellites):
                    pipeline.estimate_baseline()
        finally:
            pipeline.estimate_baseline = original
        layers = tracer.layer_metrics()
        assert layers["trrtk.pairs_attempted"] == 1
        assert layers["trrtk.pairs_errored"] == 1
        assert layers["trrtk.pairs_errored.InsufficientSatellites"] == 1


def burn(cpu_seconds):
    start = time.process_time()
    while time.process_time() - start < cpu_seconds:
        sum(range(1000))


class TestReferenceClock:
    def test_sampler_time_is_left_out(self):
        with ReferenceClock(interval=0.01) as clock:
            ref, cpu = clock.now(), clock.program_cpu()
            time.sleep(0.5)             # about 50 kernels run meanwhile
            assert clock.program_cpu() - cpu < 0.01
            assert clock.now() - ref < 0.01

    def test_program_time_is_divided_by_the_slowdown(self):
        with ReferenceClock(interval=60.0) as clock:
            clock._state = (clock.program_cpu(), 0.0, 2.0)
            ref, cpu = clock.now(), clock.program_cpu()
            burn(0.2)
            assert clock.now() - ref == pytest.approx(
                (clock.program_cpu() - cpu) / 2.0, rel=1e-3)

    def test_program_time_never_runs_backwards(self):
        # the sampler runs about 200 times meanwhile, often between
        # the reads of the process and the sampler clocks
        with ReferenceClock(interval=0.005) as clock:
            last = clock.program_cpu()
            for _ in range(150000):
                cpu = clock.program_cpu()
                assert cpu >= last
                last = cpu

    def test_stops_its_thread_and_restores_affinity(self):
        affinity = os.sched_getaffinity(0)
        with ReferenceClock() as clock:
            assert len(os.sched_getaffinity(0)) == 1
        assert not clock._thread.is_alive()
        assert os.sched_getaffinity(0) == affinity
