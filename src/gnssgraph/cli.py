"""Command-line front end: simulate scenarios, solve trajectories,
evaluate against truth, and inspect exported graphs.

Exit codes: 0 success, 2 input parse/format errors, 3 solver failures,
4 file-system I/O errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import yaml

from .errors import (GnssError, IoFailure, LengthMismatch, MalformedEpoch,
                     MalformedHeader)
from .fileio import (TrajectoryStatus, delay_models_to_dict,
                     export_graph_json, load_pipeline_yaml,
                     load_scenario_yaml, read_sat_states_csv,
                     read_trajectory_csv, save_scenario_yaml,
                     write_sat_states_csv, write_trajectory_csv)
from .metrics import evaluate
from .pipeline import PipelineConfig, solve_trajectory
from .rinex import header_for_scenario, parse_rinex_obs, write_rinex_obs
from .sim import ScenarioConfig, run_scenario
from .trrtk import BaselineStatus

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def cmd_simulate(args) -> int:
    if args.config:
        with open(args.config) as stream:
            scenario = load_scenario_yaml(stream)
    else:
        scenario = ScenarioConfig()
    truth, epochs, sat_states = run_scenario(scenario)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = header_for_scenario(scenario, truth[0].position)
    with open(out / "observations.rnx", "w") as stream:
        write_rinex_obs(header, epochs, stream)
    with open(out / "truth.csv", "w", newline="") as stream:
        write_trajectory_csv([rec.time.tow for rec in truth],
                             [rec.position for rec in truth],
                             [TrajectoryStatus.TRUTH] * len(truth), stream)
    with open(out / "sat_states.csv", "w", newline="") as stream:
        write_sat_states_csv(epochs, sat_states, stream)
    with open(out / "scenario.yaml", "w") as stream:
        save_scenario_yaml(scenario, stream)
    # solver configuration mirroring the scenario's atmosphere, so a
    # follow-up solve corrects with the same models the data embeds
    with open(out / "solver.yaml", "w") as stream:
        yaml.safe_dump(delay_models_to_dict(scenario.iono, scenario.tropo),
                       stream, sort_keys=False)
    print(f"wrote {len(epochs)} epochs to {out}")
    return EXIT_OK


def _fix_histogram(result) -> list[tuple[float, int, int]]:
    """(time difference, attempts reaching a result, fixed count) rows."""
    buckets: dict[float, list[int]] = {}
    for past, current, tr in result.trrtk_results:
        dt = round(tr.time_difference, 3)
        entry = buckets.setdefault(dt, [0, 0])
        entry[0] += 1
        if tr.status is BaselineStatus.FIXED:
            entry[1] += 1
    return [(dt, n, fixed) for dt, (n, fixed) in sorted(buckets.items())]


def _solver_log(result, label: str) -> str:
    report = result.report
    graph = result.graph
    fixed = sum(tr.status is BaselineStatus.FIXED
                for _, _, tr in result.trrtk_results)
    errors = Counter(name for _, _, name in result.trrtk_errors)
    by_class = ", ".join(f"{name} {n}" for name, n in sorted(errors.items()))
    lines = [
        f"method: {label}",
        f"nodes: {graph.initial_states.shape[0]}",
        f"velocity factors: {len(graph.velocity_factors)}",
        f"trrtk factors: {len(graph.trrtk_factors)}",
        f"pseudorange factors: {len(graph.pseudorange_factors)}",
        f"prior factors: {len(graph.priors)}",
        f"trrtk pairs attempted: {result.trrtk_attempts}",
        f"trrtk pairs fixed: {fixed}",
        f"trrtk pairs rejected: {len(result.trrtk_results) - fixed}",
        f"trrtk pairs errored: {len(result.trrtk_errors)}"
        + (f" ({by_class})" if by_class else ""),
        "",
        "fix rate by time difference [s]:",
    ]
    for dt, count, nfixed in _fix_histogram(result):
        rate = nfixed / count if count else 0.0
        lines.append(f"  {dt:6.1f}  {nfixed:4d}/{count:<4d}  {rate:6.1%}")
    lines += [
        "",
        f"initial cost: {report.initial_cost:.6e}",
        f"final cost:   {report.final_cost:.6e}",
        f"iterations:   {report.iterations}",
        f"converged:    {report.converged}",
    ]
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    with open(args.obs) as stream:
        _, epochs = parse_rinex_obs(stream)
    if not epochs:
        raise MalformedEpoch(f"{args.obs}: no parsable epochs")
    with open(args.sat_states, newline="") as stream:
        sat_states = read_sat_states_csv(stream, epochs)
    if args.config:
        with open(args.config) as stream:
            config = load_pipeline_yaml(stream)
    else:
        config = load_pipeline_yaml(io.StringIO(""))
    if args.no_trrtk:
        config.use_trrtk = False
    if args.no_pseudorange_factors:
        config.use_pseudorange = False

    result = solve_trajectory(epochs, sat_states, config)
    label = "Ours" if config.use_trrtk else "Ours w/o TR-RTK"

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tow = [epoch.time.tow for epoch in epochs]
    with open(out / "trajectory.csv", "w", newline="") as stream:
        write_trajectory_csv(
            tow * 2, np.vstack([result.graph.reference_position
                                + result.graph.initial_states[:, :3],
                                result.positions]),
            [TrajectoryStatus.INITIAL] * len(tow)
            + [TrajectoryStatus.OPTIMIZED] * len(tow), stream)
    with open(out / "graph.json", "w") as stream:
        export_graph_json(result.graph, stream, states=result.states,
                          report=result.report)
    log = _solver_log(result, label)
    (out / "solver.log").write_text(log)
    print(log, end="")
    if not result.report.converged:
        print("solver did not converge within the iteration budget",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _positions_by_status(trajectory, status):
    tow, positions, statuses = trajectory
    picked = [k for k, state in enumerate(statuses) if state is status]
    picked = picked or list(range(len(statuses)))
    return positions[picked], tow[picked].tolist()


def cmd_evaluate(args) -> int:
    with open(args.est, newline="") as stream:
        estimate, est_tows = _positions_by_status(
            read_trajectory_csv(stream), TrajectoryStatus.OPTIMIZED)
    with open(args.truth, newline="") as stream:
        truth, truth_tows = _positions_by_status(
            read_trajectory_csv(stream), TrajectoryStatus.TRUTH)
    if est_tows != truth_tows:
        raise LengthMismatch(
            f"epoch times do not align: {len(est_tows)} estimated vs "
            f"{len(truth_tows)} truth epochs")
    report = evaluate(estimate, truth, method_label=args.label)
    print(f"{'method':<20s}{'RPE m':>10s}{'Max RPE m':>12s}{'APE m':>10s}")
    print(f"{report.method_label:<20s}{report.rpe_mean:>10.3f}"
          f"{report.rpe_max:>12.3f}{report.ape_mean:>10.3f}")
    if args.json:
        print(json.dumps(report.as_dict(), indent=1))
    return EXIT_OK


def _graph_summary(data) -> list[str]:
    """The lines `gnssgraph inspect` prints for the loaded graph JSON."""
    nodes = data.get("nodes", [])
    edges = data.get("edges", [])
    counts = Counter(edge.get("type", "?") for edge in edges)
    lines = [f"graph: {len(nodes)} nodes, {len(edges)} edges"]
    lines += [f"  {kind:<14s}{counts[kind]}" for kind in sorted(counts)]
    dts = [e["time_difference"] for e in edges if e.get("type") == "trrtk"]
    if dts:
        lines.append(f"trrtk time differences [s]: min {min(dts):.1f}, "
                     f"max {max(dts):.1f}, count {len(dts)}")
    opt = data.get("optimizer")
    if opt:
        lines.append(f"optimizer: cost {opt['initial_cost']:.3e} -> "
                     f"{opt['final_cost']:.3e} in {opt['iterations']} "
                     f"iterations, converged={opt['converged']}")
    return lines


def cmd_inspect(args) -> int:
    try:
        with open(args.graph) as stream:
            data = json.load(stream)
    except ValueError as exc:       # not JSON, or not UTF-8 text
        raise MalformedHeader(f"{args.graph}: {exc}") from exc
    try:
        lines = _graph_summary(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedHeader(f"{args.graph}: not a graph export "
                              f"({type(exc).__name__}: {exc})") from exc
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnssgraph",
        description="GNSS trajectory reconstruction with factor-graph "
                    "optimization and time-relative RTK loop closures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--config", help="scenario YAML (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="reconstruct a trajectory")
    p.add_argument("--obs", required=True, help="RINEX observation file")
    p.add_argument("--sat-states", required=True,
                   help="satellite-state sidecar CSV")
    p.add_argument("--config", help="solver YAML (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-trrtk", action="store_true",
                   help="disable loop-closure baselines")
    p.add_argument("--no-pseudorange-factors", action="store_true",
                   help="disable per-observation pseudorange factors")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="compare a trajectory against truth")
    p.add_argument("--est", required=True, help="estimated trajectory CSV")
    p.add_argument("--truth", required=True, help="truth trajectory CSV")
    p.add_argument("--json", action="store_true", help="also print JSON")
    p.add_argument("--label", default="Ours", help="method label")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="summarize an exported graph JSON")
    p.add_argument("--graph", required=True, help="graph JSON path")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MalformedHeader, MalformedEpoch, LengthMismatch,
            IoFailure) as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except GnssError as exc:
        print(f"error: solver: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
