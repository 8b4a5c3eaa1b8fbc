import json
import re
import warnings
from pathlib import Path

import pytest

from gnssgraph.cli import main
from gnssgraph.fileio import load_pipeline_yaml, load_scenario_yaml

SCENARIO = """\
duration: 25
trajectory:
  kind: line
  speed: 2.0
seed: 6
"""


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.yaml"
    scenario.write_text(SCENARIO)
    sim = root / "sim"
    sol = root / "sol"
    assert main(["simulate", "--config", str(scenario),
                 "--out", str(sim)]) == 0
    assert main(["solve", "--obs", str(sim / "observations.rnx"),
                 "--sat-states", str(sim / "sat_states.csv"),
                 "--config", str(sim / "solver.yaml"),
                 "--out", str(sol)]) == 0
    return root, sim, sol


class TestPipeline:
    def test_simulate_outputs(self, pipeline_dirs):
        root, sim, sol = pipeline_dirs
        for name in ("observations.rnx", "truth.csv", "sat_states.csv",
                     "scenario.yaml", "solver.yaml"):
            assert (sim / name).exists()

    def test_solver_yaml_carries_the_scenario_models(self, pipeline_dirs):
        root, sim, sol = pipeline_dirs
        with open(sim / "scenario.yaml") as stream:
            scenario = load_scenario_yaml(stream)
        with open(sim / "solver.yaml") as stream, warnings.catch_warnings():
            warnings.simplefilter("error")
            config = load_pipeline_yaml(stream)
        assert scenario.iono is not None and scenario.tropo is not None
        assert config.iono == scenario.iono
        assert config.tropo == scenario.tropo

    def test_solve_outputs_and_log(self, pipeline_dirs):
        root, sim, sol = pipeline_dirs
        for name in ("trajectory.csv", "graph.json", "solver.log"):
            assert (sol / name).exists()
        log = (sol / "solver.log").read_text()
        assert "method: Ours" in log
        assert "velocity factors:" in log
        assert "fix rate by time difference" in log
        values = dict(line.split(": ", 1) for line in log.splitlines()
                      if line.startswith("trrtk pairs "))
        outcomes = [int(values[f"trrtk pairs {key}"].split()[0])
                    for key in ("fixed", "rejected", "errored")]
        assert sum(outcomes) == int(values["trrtk pairs attempted"]) > 0
        assert "converged:    True" in log
        rows = (sol / "trajectory.csv").read_text().splitlines()
        assert sum("Initial" in r for r in rows) == 26
        assert sum("Optimized" in r for r in rows) == 26

    def test_evaluate(self, pipeline_dirs, capsys):
        root, sim, sol = pipeline_dirs
        assert main(["evaluate", "--est", str(sol / "trajectory.csv"),
                     "--truth", str(sim / "truth.csv"), "--json"]) == 0
        out = capsys.readouterr().out
        table, _, rest = out.partition("\n{")
        assert "RPE m" in table and "Ours" in table
        data = json.loads("{" + rest)
        assert data["rpe_mean_m"] < 0.5
        assert data["rpe_max_m"] >= data["rpe_mean_m"]

    def test_inspect(self, pipeline_dirs, capsys):
        root, sim, sol = pipeline_dirs
        assert main(["inspect", "--graph", str(sol / "graph.json")]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "trrtk" in out and "velocity" in out
        assert "optimizer:" in out

    def test_no_trrtk_label(self, pipeline_dirs):
        root, sim, sol = pipeline_dirs
        out = root / "sol_notr"
        assert main(["solve", "--obs", str(sim / "observations.rnx"),
                     "--sat-states", str(sim / "sat_states.csv"),
                     "--config", str(sim / "solver.yaml"),
                     "--out", str(out), "--no-trrtk"]) == 0
        log = (out / "solver.log").read_text()
        assert "method: Ours w/o TR-RTK" in log
        assert "trrtk factors: 0" in log

    def test_no_pseudorange_factors(self, pipeline_dirs):
        root, sim, sol = pipeline_dirs
        out = root / "sol_nopr"
        assert main(["solve", "--obs", str(sim / "observations.rnx"),
                     "--sat-states", str(sim / "sat_states.csv"),
                     "--config", str(sim / "solver.yaml"),
                     "--out", str(out), "--no-pseudorange-factors"]) == 0
        assert "pseudorange factors: 0" in (out / "solver.log").read_text()
        edges = json.loads((out / "graph.json").read_text())["edges"]
        assert {e["type"] for e in edges} == {"velocity", "trrtk", "prior"}
        edges = json.loads((sol / "graph.json").read_text())["edges"]
        assert "pseudorange" in {e["type"] for e in edges}

    def test_empty_pair_lattice(self, pipeline_dirs, tmp_path):
        """`pair_lattice: []` attempts no pair and solves."""
        root, sim, _ = pipeline_dirs
        solver = tmp_path / "solver.yaml"
        solver.write_text((sim / "solver.yaml").read_text()
                          + "pair_lattice: []\n")
        out = tmp_path / "sol"
        assert main(["solve", "--obs", str(sim / "observations.rnx"),
                     "--sat-states", str(sim / "sat_states.csv"),
                     "--config", str(solver), "--out", str(out)]) == 0
        log = (out / "solver.log").read_text()
        assert "trrtk pairs attempted: 0\n" in log
        assert "trrtk factors: 0\n" in log

    def test_deterministic(self, pipeline_dirs, tmp_path):
        root, sim, sol = pipeline_dirs
        sim2 = tmp_path / "sim2"
        sol2 = tmp_path / "sol2"
        assert main(["simulate", "--config", str(root / "scenario.yaml"),
                     "--out", str(sim2)]) == 0
        assert ((sim2 / "observations.rnx").read_text()
                == (sim / "observations.rnx").read_text())
        assert main(["solve", "--obs", str(sim2 / "observations.rnx"),
                     "--sat-states", str(sim2 / "sat_states.csv"),
                     "--config", str(sim2 / "solver.yaml"),
                     "--out", str(sol2)]) == 0
        assert ((sol2 / "trajectory.csv").read_text()
                == (sol / "trajectory.csv").read_text())
        assert ((sol2 / "graph.json").read_text()
                == (sol / "graph.json").read_text())


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)]) == 4
        assert "error: io" in capsys.readouterr().err

    def test_bad_rinex_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rnx"
        bad.write_text("this is not rinex\n")
        states = tmp_path / "states.csv"
        states.write_text("tow,sat\n")
        assert main(["solve", "--obs", str(bad), "--sat-states", str(states),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: parse" in capsys.readouterr().err

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs a device that is always full")
    @pytest.mark.parametrize("name", ["trajectory.csv", "graph.json"])
    def test_failed_write_is_io_error(self, name, pipeline_dirs, tmp_path,
                                      capsys):
        root, sim, _ = pipeline_dirs
        out = tmp_path / "sol"
        out.mkdir()
        (out / name).symlink_to("/dev/full")
        assert main(["solve", "--obs", str(sim / "observations.rnx"),
                     "--sat-states", str(sim / "sat_states.csv"),
                     "--config", str(sim / "solver.yaml"),
                     "--out", str(out)]) == 4
        assert "error: io: [Errno 28]" in capsys.readouterr().err

    def test_evaluate_mismatch_is_parse_error(self, pipeline_dirs, tmp_path,
                                              capsys):
        root, sim, sol = pipeline_dirs
        short = tmp_path / "short.csv"
        lines = (sim / "truth.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:-3]) + "\n")
        assert main(["evaluate", "--est", str(sol / "trajectory.csv"),
                     "--truth", str(short)]) == 2
        assert "error: parse" in capsys.readouterr().err

    def test_evaluate_bad_number_is_parse_error(self, pipeline_dirs,
                                                tmp_path, capsys):
        root, sim, sol = pipeline_dirs
        lines = (sim / "truth.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[1] = "abc"
        lines[1] = ",".join(fields)
        bad = tmp_path / "truth.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--est", str(sol / "trajectory.csv"),
                     "--truth", str(bad)]) == 2
        assert "error: parse" in capsys.readouterr().err

    def test_bad_graph_json_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "graph.json"
        bad.write_text("{broken")
        assert main(["inspect", "--graph", str(bad)]) == 2
        assert "error: parse" in capsys.readouterr().err

    def test_graph_file_not_utf8_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "graph.json"
        bad.write_bytes(b'{"nodes": "\xff"}')
        assert main(["inspect", "--graph", str(bad)]) == 2
        assert "error: parse" in capsys.readouterr().err

    @pytest.mark.parametrize("graph", [
        [],
        {"nodes": [], "edges": [5]},
        {"nodes": [], "edges": [], "optimizer": {
            "final_cost": 1.0, "iterations": 1, "converged": True}},
        {"nodes": [], "edges": [{"type": "trrtk"}]},
    ], ids=["list-at-root", "edge-not-an-object",
            "optimizer-without-initial-cost",
            "trrtk-edge-without-time-difference"])
    def test_graph_json_of_the_wrong_shape_is_parse_error(self, graph,
                                                          tmp_path, capsys):
        """Valid JSON that is not a graph export exits 2, with no
        traceback and nothing of a summary printed."""
        bad = tmp_path / "graph.json"
        bad.write_text(json.dumps(graph))
        assert main(["inspect", "--graph", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: parse") and "Traceback" not in err

    @pytest.mark.parametrize("entry", [
        "pair_lattice: 5", 'use_trrtk: "false"', "trrtk: {phase_sigma: 0}",
        "trrtk: {code_sigma: -0.5}", "trrtk: {position_prior_sigma: .nan}",
        "solver: {doppler_sigma: .inf}", "solver: {sigma_a: 0, sigma_b: 0}",
        "solver: {sigma_b: -0.3}"],
        ids=["lattice-not-a-list", "flag-not-a-bool", "phase-sigma-zero",
             "code-sigma-negative", "prior-sigma-nan",
             "doppler-sigma-infinite", "variance-terms-both-zero",
             "sigma-b-negative"])
    def test_bad_solver_setting_is_parse_error(self, entry, pipeline_dirs,
                                               tmp_path, capsys):
        root, sim, _ = pipeline_dirs
        solver = tmp_path / "solver.yaml"
        solver.write_text("iono: null\n" + entry + "\n")
        assert main(["solve", "--obs", str(sim / "observations.rnx"),
                     "--sat-states", str(sim / "sat_states.csv"),
                     "--config", str(solver),
                     "--out", str(tmp_path / "sol")]) == 2
        assert "error: parse" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, first", [
        (lambda blocks: blocks[:3] + blocks[2:], 3),
        (lambda blocks: blocks[:3] + [blocks[2].partition("\n")[0] + "\n"
                                      + blocks[3].partition("\n")[2]]
         + blocks[4:], 3),
        (lambda blocks: blocks[::-1], 1),
    ], ids=["repeated-epoch", "two-epochs-one-time", "reversed-epochs"])
    def test_epoch_times_not_increasing_is_parse_error(
            self, edit, first, pipeline_dirs, tmp_path, capsys):
        """Epoch times that do not strictly increase exit 2, naming the
        first epoch that is not later than the one before it."""
        root, sim, _ = pipeline_dirs
        head, *blocks = re.split(r"(?m)^(?=> )",
                                 (sim / "observations.rnx").read_text())
        obs = tmp_path / "observations.rnx"
        obs.write_text(head + "".join(edit(blocks)))
        assert main(["solve", "--obs", str(obs),
                     "--sat-states", str(sim / "sat_states.csv"),
                     "--config", str(sim / "solver.yaml"),
                     "--out", str(tmp_path / "sol")]) == 2
        err = capsys.readouterr().err
        assert re.match(f"error: parse: epoch {first} at .* is not later "
                        f"than epoch {first - 1} at ", err), err


@pytest.mark.parametrize("entry", ["tropo: {pressure: 100}",
                                   "iono: {alpha: [1, 2, 3, 4]}"],
                         ids=["tropo-out-of-range", "iono-without-beta"])
def test_bad_delay_model_is_parse_error(entry, pipeline_dirs, tmp_path,
                                        capsys):
    """A malformed iono or tropo entry of the scenario or the solver YAML
    exits 2 like any other bad config value."""
    root, sim, _ = pipeline_dirs
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO + entry + "\n")
    assert main(["simulate", "--config", str(scenario),
                 "--out", str(tmp_path / "sim")]) == 2
    assert "error: parse" in capsys.readouterr().err
    solver = tmp_path / "solver.yaml"
    solver.write_text(entry + "\n")
    assert main(["solve", "--obs", str(sim / "observations.rnx"),
                 "--sat-states", str(sim / "sat_states.csv"),
                 "--config", str(solver),
                 "--out", str(tmp_path / "sol")]) == 2
    assert "error: parse" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["counts: {G: 70}", "counts: {G: -2}",
                                   "cycle_slips: [[R03, 10.0]]"],
                         ids=["count-above-64", "count-negative",
                              "slip-on-absent-satellite"])
def test_bad_scenario_is_parse_error(entry, tmp_path, capsys):
    """A constellation count outside 0-64, or a cycle slip on a satellite
    the scenario does not have, exits 2 when the config is read."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO + entry + "\n")
    assert main(["simulate", "--config", str(scenario),
                 "--out", str(tmp_path / "sim")]) == 2
    assert "error: parse" in capsys.readouterr().err
