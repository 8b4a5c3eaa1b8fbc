"""Per-layer tracing for the session benchmark, from outside the program.

A span wraps a public function at the name its caller looks it up by:
`pipeline.solve_trajectory` calls `estimate_baseline` through the
`gnssgraph.pipeline` namespace, so that is where the wrapper goes, while
`estimate_baseline` reaches `lambda_resolve` through `gnssgraph.trrtk`.
Each span adds up calls, time and self time (its time minus that of the
spans it caused), by the clock it is given: in the benchmark that is
the reference clock of the end-to-end timings (refclock.py). Hooks
count the work a call did from its arguments and result. A name that no
longer exists is an error, never a silent zero.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import process_time

# (module, name the caller looks up, span)
SPANS = (
    ("gnssgraph.sim", "run_scenario", "sim.run_scenario"),
    ("gnssgraph.rinex", "write_rinex_obs", "rinex.write"),
    ("gnssgraph.fileio", "write_sat_states_csv", "fileio.write_sat_states"),
    ("gnssgraph.cli", "main", "cli.main"),
    ("gnssgraph.cli", "parse_rinex_obs", "rinex.parse"),
    ("gnssgraph.cli", "read_sat_states_csv", "fileio.read_sat_states"),
    ("gnssgraph.cli", "solve_trajectory", "pipeline.solve_trajectory"),
    ("gnssgraph.cli", "write_trajectory_csv", "fileio.write_trajectory"),
    ("gnssgraph.cli", "export_graph_json", "fileio.export_graph"),
    ("gnssgraph.pipeline", "solve_trajectory", "pipeline.solve_trajectory"),
    ("gnssgraph.pipeline", "solve_spp", "pointpos.spp"),
    ("gnssgraph.pipeline", "solve_doppler_velocity", "pointpos.doppler"),
    ("gnssgraph.pipeline", "epoch_corrections", "trrtk.corrections"),
    ("gnssgraph.pipeline", "estimate_baseline", "trrtk.estimate"),
    ("gnssgraph.trrtk", "detect_cycle_slips", "trrtk.slip_screen"),
    ("gnssgraph.trrtk", "time_single_difference", "trrtk.single_diff"),
    ("gnssgraph.trrtk", "form_double_differences", "trrtk.dd_form"),
    ("gnssgraph.trrtk", "solve_float_baseline", "trrtk.float_solve"),
    ("gnssgraph.trrtk", "lambda_resolve", "ambiguity.lambda"),
    ("gnssgraph.pipeline", "build_graph", "graph.build"),
    ("gnssgraph.pipeline", "optimize", "graph.optimize"),
    ("gnssgraph.graph", "evaluate_cost", "graph.cost_eval"),
)

# GnssError classes that a pair can raise, each counted on its own
PAIR_ERRORS = ("InsufficientSatellites", "SingularGeometry",
               "DegenerateGeometry", "NotPositiveDefinite",
               "MissingSatellite", "WindowExceeded")


class TraceError(RuntimeError):
    """The program no longer has a function the trace wraps."""


def _epochs_parsed(counts, args, result):
    counts["rinex.epochs_parsed"] += len(result[1])


def _sat_state_rows(counts, args, result):
    counts["fileio.sat_state_rows"] += sum(len(states) for states in result)


def _pair(counts, args, result):
    counts["trrtk.pairs_" + result.status.name.lower()] += 1


def _slip_screen(counts, args, result):
    past, current = args[0], args[1]
    counts["trrtk.sats_dropped_by_slip"] += (
        len(past.sat_ids & current.sat_ids) - len(result))


def _dd_form(counts, args, result):
    counts["trrtk.dd_sets"] += 1
    counts["trrtk.dd_total"] += len(result.entries)


def _lambda(counts, args, result):
    integers, _, accepted = result
    counts["ambiguity.dim_total"] += len(integers)
    counts["ambiguity.nonzero_fixes"] += int(accepted and any(integers))


def _graph(counts, args, result):
    counts["graph.pseudorange_factors"] += len(result.pseudorange_factors)
    counts["graph.trrtk_factors"] += len(result.trrtk_factors)


def _optimize(counts, args, result):
    counts["graph.iterations"] += result[1].iterations


HOOKS = {
    "rinex.parse": _epochs_parsed,
    "fileio.read_sat_states": _sat_state_rows,
    "trrtk.estimate": _pair,
    "trrtk.slip_screen": _slip_screen,
    "trrtk.dd_form": _dd_form,
    "ambiguity.lambda": _lambda,
    "graph.build": _graph,
    "graph.optimize": _optimize,
}


class Tracer:
    """Install span wrappers, collect totals, and put the originals back."""

    def __init__(self, spans=SPANS, clock=process_time):
        self.spans = spans
        self.clock = clock
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.errors = Counter()
        self._stack = []
        self._installed = []

    def reset(self):
        for table in (self.calls, self.total, self.self_time, self.counts,
                      self.errors):
            table.clear()

    def __enter__(self):
        # resolve every name before wrapping any, so a missing one
        # leaves the program untouched
        targets = []
        for module_name, attr, span in self.spans:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise TraceError(f"{module_name}.{attr} is gone; span "
                                 f"{span} cannot be traced")
            targets.append((module, attr, original, span))
        for module, attr, original, span in targets:
            setattr(module, attr, self._wrap(original, span))
            self._installed.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, function, span):
        hook = HOOKS.get(span)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [0.0]                      # time of spans it causes
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except Exception as exc:
                self.errors[(span, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - frame[0]
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = function
        return traced

    def layer_metrics(self) -> dict:
        """Per-layer figures of everything traced since the last reset."""
        t, c, counts = self.total, self.calls, self.counts
        pair_errors = {name: n for (span, name), n in self.errors.items()
                       if span == "trrtk.estimate"}
        attempted = c["trrtk.estimate"]
        values = {
            "sim.run_scenario_s": t["sim.run_scenario"],
            "rinex.write_s": t["rinex.write"],
            "rinex.parse_s": t["rinex.parse"],
            "rinex.epochs_parsed": counts["rinex.epochs_parsed"],
            "fileio.write_sat_states_s": t["fileio.write_sat_states"],
            "fileio.read_sat_states_s": t["fileio.read_sat_states"],
            "fileio.sat_state_rows": counts["fileio.sat_state_rows"],
            "fileio.export_graph_s": t["fileio.export_graph"],
            "fileio.write_trajectory_s": t["fileio.write_trajectory"],
            "pointpos.spp_s": t["pointpos.spp"],
            "pointpos.spp_calls": c["pointpos.spp"],
            "pointpos.doppler_s": t["pointpos.doppler"],
            "trrtk.corrections_s": t["trrtk.corrections"],
            "trrtk.slip_screen_s": t["trrtk.slip_screen"],
            "trrtk.single_diff_s": t["trrtk.single_diff"],
            "trrtk.dd_form_s": t["trrtk.dd_form"],
            "trrtk.float_solve_s": t["trrtk.float_solve"],
            "trrtk.estimate_s": t["trrtk.estimate"],
            "trrtk.pairs_attempted": attempted,
            "trrtk.pairs_fixed": counts["trrtk.pairs_fixed"],
            "trrtk.pairs_rejected": counts["trrtk.pairs_rejected"],
            "trrtk.pairs_errored": sum(pair_errors.values()),
            "trrtk.fix_yield": (counts["trrtk.pairs_fixed"] / attempted
                                if attempted else 0.0),
            "trrtk.dd_mean": (counts["trrtk.dd_total"] / counts["trrtk.dd_sets"]
                              if counts["trrtk.dd_sets"] else 0.0),
            "trrtk.sats_dropped_by_slip": counts["trrtk.sats_dropped_by_slip"],
            "ambiguity.lambda_s": t["ambiguity.lambda"],
            "ambiguity.lambda_calls": c["ambiguity.lambda"],
            "ambiguity.dim_mean": (counts["ambiguity.dim_total"]
                                   / c["ambiguity.lambda"]
                                   if c["ambiguity.lambda"] else 0.0),
            "ambiguity.nonzero_fixes": counts["ambiguity.nonzero_fixes"],
            "graph.build_s": t["graph.build"],
            "graph.optimize_s": t["graph.optimize"],
            "graph.iterations": counts["graph.iterations"],
            "graph.cost_evals": c["graph.cost_eval"],
            "graph.cost_eval_s": t["graph.cost_eval"],
            "graph.pseudorange_factors": counts["graph.pseudorange_factors"],
            "graph.trrtk_factors": counts["graph.trrtk_factors"],
            "pipeline.self_s": self.self_time["pipeline.solve_trajectory"],
            "cli.self_s": self.self_time["cli.main"],
        }
        for name in PAIR_ERRORS:
            values[f"trrtk.pairs_errored.{name}"] = pair_errors.get(name, 0)
        values["trrtk.pairs_errored.other"] = sum(
            n for name, n in pair_errors.items() if name not in PAIR_ERRORS)
        return values

    def span_table(self) -> dict:
        """Calls, total and self seconds of every span, for the trace file."""
        return {span: {"calls": self.calls[span], "total_s": self.total[span],
                       "self_s": self.self_time[span]}
                for _, _, span in self.spans}
