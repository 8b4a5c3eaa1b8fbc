"""Session benchmark for gnssgraph: solve fixed simulated sessions end to
end, check every output, and report time, accuracy and memory.

    python3 bench/run.py --workload square-3gnss --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
`src/`. An operation is one session set up, solved and checked. A run
attempts whole rounds of its workload's sessions until another round
would end after --seconds, and prints a summary line per session and,
last, one JSON object. With --trace 0 that object holds the end-to-end
metrics; with --trace 1 each session is also solved with every layer
wrapped in a span (see spans.py) and it holds the per-layer metrics.
See README.md for the workloads, the checks and reference figures.
"""

from __future__ import annotations

import os

# one BLAS thread: the solves use small matrices, and idle BLAS workers
# would add CPU time of their own (set before numpy is first imported)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from refclock import ReferenceClock
from spans import TraceError, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

SQUARE = ((0.0, 0.0, 0.0), (50.0, 0.0, 0.0), (50.0, 50.0, 0.0),
          (0.0, 50.0, 0.0), (0.0, 0.0, 0.0))
SPEED = 1.0                 # [m/s]
BLEND = 2.0                 # waypoint corner and start/stop blend [s]
CIRCLE_RADIUS = 30.0        # [m]
SLIP_WINDOW = 10.0          # [s]
SLIPS_PER_WINDOW = 4

# The waypoint profile starts with a cosine ramp that covers
# SPEED * BLEND / 2 less distance than the schedule and turns each corner
# on schedule, so later legs run up to that far inside the polyline.
SQUARE_PATH_TOL_M = SPEED * BLEND / 2 + 1e-3
CIRCLE_PATH_TOL_M = 1e-3

# long-cli-notr has no loop closures; README.md derives these from the
# simulated code and Doppler noise
LONG_BOUNDS_M = {"ape_mean": 0.6, "rpe_mean": 1.1, "rpe_max": 2.7}
LONG_STEP_TOL_M = 0.25


@dataclass(frozen=True)
class Workload:
    sessions: tuple           # simulator seeds of one round
    slips: bool = False
    cli: bool = False
    min_fix_yield: float | None = None
    kept_fault: bool = False  # sessions hit by the false-fix fault may fail


WORKLOADS = {
    "square-3gnss": Workload(sessions=(1,), min_fix_yield=checks.MIN_FIX_YIELD),
    "long-cli-notr": Workload(sessions=(1,), cli=True),
    "square-slips": Workload(sessions=(1, 3), slips=True, kept_fault=True),
}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "rpe_mean_m": "m",
                    "rpe_max_m": "m", "ape_mean_m": "m", "peak_rss_mb": "MB"}


def import_program():
    """Import gnssgraph from this checkout's src/, and nowhere else."""
    package = SRC / "gnssgraph"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run the benchmark "
                         f"from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import gnssgraph
    if Path(gnssgraph.__file__).resolve().parent != package:
        raise SystemExit(f"error: gnssgraph imported from "
                         f"{gnssgraph.__file__}, not {package}")
    from gnssgraph import cli, fileio, pipeline, rinex, sim, types
    return cli, fileio, pipeline, rinex, sim, types


# bound by main() once the checkout's src/ is importable
cli, fileio, pipeline, rinex, sim, types = (None,) * 6


def slip_schedule(config) -> list:
    """SLIPS_PER_WINDOW slips in every SLIP_WINDOW seconds, drawn from all
    satellites of the configured constellations (about a third are in
    view); the scenario seed decides which satellites slip and when."""
    sats = sorted((types.SatelliteId(const, prn)
                   for const, count in config.counts.items()
                   for prn in range(1, count + 1)),
                  key=lambda s: s.sort_key())
    rng = np.random.default_rng(config.seed + 100)
    schedule = []
    for window in range(int(config.duration // SLIP_WINDOW)):
        for k in rng.choice(len(sats), SLIPS_PER_WINDOW, replace=False):
            schedule.append((sats[k], float(SLIP_WINDOW * window
                                            + rng.integers(1, 11))))
    return schedule


def square_scenario(seed: int, slips: bool):
    config = sim.ScenarioConfig(
        duration=200.0,
        trajectory=sim.TrajectoryConfig(kind="waypoints", speed=SPEED,
                                        blend=BLEND,
                                        waypoints=[list(p) for p in SQUARE]),
        seed=seed)
    if slips:
        config.cycle_slips = slip_schedule(config)
    return config


def long_scenario(seed: int):
    gps_gal = {types.Constellation.GPS: 31, types.Constellation.GAL: 24}
    return sim.ScenarioConfig(
        duration=1800.0,
        trajectory=sim.TrajectoryConfig(kind="circle", speed=SPEED,
                                        radius=CIRCLE_RADIUS),
        counts=gps_gal, seed=seed)


def truth_enu(config, truth_xyz):
    origin = config.origin
    return checks.to_enu(truth_xyz, origin.latitude, origin.longitude,
                         origin.height)


class SquareSession:
    """A 200 s square session solved in memory with TR-RTK."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.config = square_scenario(seed, workload.slips)

    def setup(self):
        truth, self.epochs, self.states = sim.run_scenario(self.config)
        self.truth_xyz = np.array([r.position for r in truth])

    def solve(self):
        config = pipeline.PipelineConfig(iono=self.config.iono,
                                         tropo=self.config.tropo)
        return pipeline.solve_trajectory(self.epochs, self.states, config)

    def check(self, result):
        failures = [checks.check_polyline(truth_enu(self.config,
                                                    self.truth_xyz),
                                          SQUARE, SQUARE_PATH_TOL_M)]
        if result.positions.shape != self.truth_xyz.shape:
            failures.append(f"rows: {result.positions.shape[0]} positions "
                            f"for {len(self.epochs)} epochs")
            return {}, [f for f in failures if f], {}
        rpe_mean, rpe_max, ape_mean = checks.accuracy(result.positions,
                                                      self.truth_xyz)
        values = {"rpe_mean": rpe_mean, "rpe_max": rpe_max,
                  "ape_mean": ape_mean}
        failures += checks.check_accuracy(
            values, {"rpe_mean": checks.TR_RPE_MEAN_M,
                     "rpe_max": checks.TR_RPE_MAX_M})
        fixed = [(i, j, tr.baseline, tr.dd_ambiguities)
                 for i, j, tr in result.trrtk_results
                 if tr.status.name == "FIXED"]
        failures += checks.check_fixed_pairs(fixed, self.truth_xyz)
        if self.workload.min_fix_yield is not None:
            failures.append(checks.check_fix_yield(
                len(fixed), result.trrtk_attempts,
                self.workload.min_fix_yield))
        report = result.report
        failures += checks.check_cost(report.initial_cost, report.final_cost,
                                      report.converged)
        truth = self.truth_xyz
        false_fixes = sum(
            int(np.linalg.norm(b - (truth[j] - truth[i]))
                > checks.FIXED_BASELINE_TOL_M) for i, j, b, _ in fixed)
        return values, [f for f in failures if f], {
            "trrtk.false_fixes": false_fixes}

    def close(self):
        pass


class LongCliSession:
    """A 30-minute circle session written to RINEX and a satellite-state
    sidecar, then solved by `gnssgraph solve --no-trrtk`."""

    def __init__(self, workload: Workload, seed: int):
        self.config = long_scenario(seed)
        self.dir = WORK_DIR / f"{os.getpid()}-{seed}"

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        truth, epochs, states = sim.run_scenario(self.config)
        self.truth_xyz = np.array([r.position for r in truth])
        header = rinex.header_for_scenario(self.config, truth[0].position)
        with open(self.dir / "observations.rnx", "w") as stream:
            rinex.write_rinex_obs(header, epochs, stream)
        with open(self.dir / "sat_states.csv", "w", newline="") as stream:
            fileio.write_sat_states_csv(epochs, states, stream)
        iono, tropo = self.config.iono, self.config.tropo
        # the atmosphere models of the scenario, as `gnssgraph simulate`
        # writes them (JSON is valid YAML)
        (self.dir / "solver.yaml").write_text(json.dumps({
            "iono": {"alpha": list(iono.alpha), "beta": list(iono.beta)},
            "tropo": {"pressure": tropo.pressure,
                      "temperature": tropo.temperature,
                      "humidity": tropo.humidity}}))

    def solve(self):
        out = self.dir / "solution"
        argv = ["solve", "--obs", str(self.dir / "observations.rnx"),
                "--sat-states", str(self.dir / "sat_states.csv"),
                "--config", str(self.dir / "solver.yaml"),
                "--out", str(out), "--no-trrtk"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def check(self, result):
        code, out = result
        failures = [checks.check_circle(truth_enu(self.config,
                                                  self.truth_xyz),
                                        CIRCLE_RADIUS, CIRCLE_PATH_TOL_M)]
        if code != 0:
            return {}, failures + [f"exit_code: gnssgraph solve exited "
                                   f"{code}"], {}
        log = checks.solver_log_values((out / "solver.log").read_text())
        failures += checks.check_cost(float(log["initial cost"]),
                                      float(log["final cost"]),
                                      log["converged"] == "True")
        graph_json = (out / "graph.json").read_text().rstrip()
        if not graph_json.endswith("}"):
            failures.append("graph_json: graph.json is incomplete")
        rows = checks.read_trajectory_rows(
            (out / "trajectory.csv").read_text())
        tows = checks.rinex_epoch_tows(
            (self.dir / "observations.rnx").read_text())
        failures += checks.check_trajectory_rows(rows, tows)
        if len(rows.get("Optimized", ())) != len(self.truth_xyz):
            return {}, [f for f in failures if f], {}
        estimate = np.array([r[1:] for r in rows["Optimized"]])
        rpe_mean, rpe_max, ape_mean = checks.accuracy(estimate,
                                                      self.truth_xyz)
        values = {"rpe_mean": rpe_mean, "rpe_max": rpe_max,
                  "ape_mean": ape_mean}
        failures += checks.check_accuracy(values, LONG_BOUNDS_M)
        failures.append(checks.check_steps(estimate, self.truth_xyz,
                                           LONG_STEP_TOL_M))
        return values, [f for f in failures if f], {"trrtk.false_fixes": 0}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def timed(clock: ReferenceClock, function):
    """Call function(); return its reference seconds (see refclock.py),
    its CPU seconds, its wall seconds and its result."""
    ref, cpu, wall = clock.now(), clock.program_cpu(), perf_counter()
    result = function()
    return (clock.now() - ref, clock.program_cpu() - cpu,
            perf_counter() - wall, result)


def run_session(workload: Workload, seed: int, clock: ReferenceClock,
                tracer: Tracer | None):
    """Set up, solve and check one session; with a tracer, solve it a
    second time traced and take the per-layer figures from that solve."""
    session = (LongCliSession if workload.cli else SquareSession)(workload,
                                                                  seed)
    record = {"session": seed, "failures": []}
    try:
        if tracer is not None:
            tracer.reset()
        with tracer or contextlib.nullcontext():
            record["setup_s"], record["setup_cpu_s"], _, _ = timed(
                clock, session.setup)
        (record["solve_s"], record["solve_cpu_s"], record["solve_wall_s"],
         result) = timed(clock, session.solve)
        values, failures, extra = session.check(result)
        record.update(values)
        record["failures"] = failures
        if tracer is not None:
            with tracer:
                traced_s, _, _, result = timed(clock, session.solve)
            traced_values, traced_failures, extra = session.check(result)
            if (traced_values, traced_failures) != (values, failures):
                record["failures"].append(
                    "trace: the traced solve's outputs differ")
            record["layers"] = tracer.layer_metrics() | extra | {
                "trace.solve_s": traced_s,
                "cpu.solve_s": record["solve_cpu_s"],
                "wall.solve_s": record["solve_wall_s"],
                "trace.overhead_s": traced_s - record["solve_s"]}
            record["spans"] = tracer.span_table()
            root = "cli.main" if workload.cli else "pipeline.solve_trajectory"
            gap = traced_s - tracer.total[root]
            if abs(gap) > 0.01 * traced_s + 0.005:
                raise RuntimeError(f"spans leave {gap:.3f} s of the traced "
                                   f"solve unaccounted for")
    except TraceError:
        raise
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        record["failures"].append(f"error: {type(exc).__name__}: {exc}")
    finally:
        session.close()
    return record


def round_order(workload: Workload, seed: int) -> list:
    """The round's sessions, rotated by the benchmark seed; every run
    solves the same sessions, so accuracy and failures repeat exactly."""
    sessions = list(workload.sessions)
    shift = seed % len(sessions)
    return sessions[shift:] + sessions[:shift]


def summarize(workload: Workload, records: list, traced: bool) -> dict:
    failed = [r for r in records if r["failures"]]
    expected = [r for r in failed
                if workload.kept_fault and checks.is_false_fix(r["failures"])]
    correct = len(expected) == len(failed)
    solved = [r for r in records if "rpe_mean" in r]
    metrics = {}
    if traced:
        layers = [r["layers"] for r in records if "layers" in r]
        correct = correct and len(layers) == len(records)
        for key in layers[0] if layers else ():
            unit = "s" if key.endswith("_s") else (
                "ratio" if key == "trrtk.fix_yield" else "count")
            metrics[key] = {"value": statistics.fmean(l[key] for l in layers),
                            "unit": unit}
    elif solved and len(solved) == len(records):
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "solve_s": statistics.median(r["solve_s"] for r in records),
            "rpe_mean_m": statistics.fmean(r["rpe_mean"] for r in solved),
            "rpe_max_m": max(r["rpe_max"] for r in solved),
            "ape_mean_m": statistics.fmean(r["ape_mean"] for r in solved),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        correct = False
    return {"correct": correct, "attempted": len(records),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    global cli, fileio, pipeline, rinex, sim, types
    cli, fileio, pipeline, rinex, sim, types = import_program()
    workload = WORKLOADS[args.workload]

    records = []
    rounds = 0
    start = perf_counter()
    nan = float("nan")
    try:
        with ReferenceClock() as clock:
            tracer = Tracer(clock=clock.now) if args.trace else None
            while True:
                for seed in round_order(workload, args.seed):
                    record = run_session(workload, seed, clock, tracer)
                    records.append(record)
                    status = "ok" if not record["failures"] else \
                        "FAILED " + "; ".join(record["failures"])
                    print(f"{args.workload} session {seed}: "
                          f"setup {record.get('setup_s', nan):.2f} s, "
                          f"solve {record.get('solve_s', nan):.2f} s "
                          f"({record.get('solve_cpu_s', nan):.2f} s CPU), "
                          f"RPE {record.get('rpe_mean', nan):.4f}/"
                          f"{record.get('rpe_max', nan):.4f} m: "
                          f"{status}", flush=True)
                rounds += 1
                elapsed = perf_counter() - start
                if elapsed * (rounds + 1) / rounds > args.seconds:
                    break
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    summary = summarize(workload, records, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace"
                            f"{args.trace}.json", "w") as stream:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "rounds": rounds,
                   "summary": summary, "sessions": records}, stream, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
