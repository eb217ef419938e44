import csv
import json
import math
import multiprocessing

import pytest

from ssfp.cli import MAX_GRID_POINTS, main
from ssfp.instances import (
    SweepConfig,
    fig2_instance,
    random_artificial,
    random_grid_instance,
    save_instance,
)
from ssfp.milp_core import export_lp
from ssfp.models import build_do
from ssfp.solver import SolverError
from test_instances import _set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_fig2_do_directed(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "solve", "--instance", "builtin:fig2", "--model", "do",
            "--flow", "d", "--out", str(report),
        )
        assert code == 0
        assert "objective 4.000000" in out
        data = json.loads(report.read_text())
        assert data["objective"] == pytest.approx(4.0)
        assert data["model"] == "DO-D"
        assert sorted(tuple(e) for _, e in data["stage_one"]) == [
            (8, 9), (9, 10), (10, 16), (16, 22)
        ]

    def test_fig2_ro_undirected(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--instance", "builtin:fig2", "--model", "ro", "--flow", "u"
        )
        assert code == 0
        assert "objective 11.000000" in out

    def test_rho2_flag_changes_so(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--instance", "builtin:fig2", "--model", "so",
            "--rho2", "0.45",
        )
        assert code == 0
        assert "objective 10.800000" in out

    def test_four_cycle_deterministic_solve(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--instance", "builtin:four-cycle", "--model", "do"
        )
        assert code == 0
        assert "objective 3.000000" in out

    def test_four_cycle_rejects_two_stage_models(self, capsys):
        code, _, err = run(
            capsys, "solve", "--instance", "builtin:four-cycle", "--model", "ro"
        )
        assert code == 2
        assert "scenario" in err

    @pytest.mark.parametrize("command", ["solve", "export-lp"])
    def test_rho2_on_four_cycle_is_usage_error(self, capsys, tmp_path, command):
        code, _, err = run(
            capsys, command, "--instance", "builtin:four-cycle", "--model", "do",
            "--rho2", "0.3", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err.strip() == "--rho2 needs an instance with exactly two scenarios"

    def test_nan_rho2_is_usage_error(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        save_instance(fig2_instance(), inst)
        code, _, err = run(
            capsys, "solve", "--instance", str(inst), "--model", "so", "--rho2", "nan"
        )
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "nan" in err

    @pytest.mark.parametrize("source", ["builtin", "file"])
    @pytest.mark.parametrize("rho2", ["1.5", "-0.25"])
    def test_rho2_outside_unit_interval_is_usage_error(self, capsys, tmp_path, source, rho2):
        inst = "builtin:fig2"
        if source == "file":
            inst = str(tmp_path / "inst.json")
            save_instance(fig2_instance(), inst)
        code, _, err = run(
            capsys, "solve", "--instance", inst, "--model", "so", "--rho2", rho2
        )
        assert code == 2
        assert err.strip() == f"--rho2 must lie in [0, 1], got {float(rho2)}"

    def test_malformed_instance_file_is_usage_error(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text('{"graph": ')
        code, _, err = run(capsys, "solve", "--instance", str(inst), "--model", "do")
        assert code == 2
        assert err.startswith("$: not valid JSON: ") and len(err.strip().splitlines()) == 1

    def test_nan_probability_in_file_is_usage_error(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        save_instance(fig2_instance(), inst)
        document = json.loads(inst.read_text())
        document["scenarios"][1]["probability"] = math.nan
        inst.write_text(json.dumps(document))
        code, _, err = run(capsys, "solve", "--instance", str(inst), "--model", "so")
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "nan" in err

    @pytest.mark.parametrize("where, value, message", [
        (("scenarios", 0, "probability"), 0.3, "scenarios: probabilities sum to 0.8, not 1"),
        (("existing",), [[3, 0]], "existing[0]: pipe id 3 out of range 1..2"),
        (("scenarios", 0, "multiplier"), 1.0, "scenarios[0].multiplier: must be > 1"),
        (("first_stage", "multiplier"), 2.0, "first_stage.multiplier: must be exactly 1"),
    ], ids=["probability-sum", "existing-pair", "scenario-multiplier", "first-stage-multiplier"])
    def test_cross_field_error_in_file_reports_path(self, capsys, tmp_path, where, value, message):
        inst = tmp_path / "inst.json"
        save_instance(fig2_instance(), inst)
        inst.write_text(json.dumps(_set(json.loads(inst.read_text()), where, value)))
        code, _, err = run(capsys, "solve", "--instance", str(inst), "--model", "so")
        assert code == 2
        assert err.strip() == message

    @pytest.mark.parametrize("field", ["base cost", "scenario multiplier"])
    def test_infinite_cost_in_file_is_usage_error(self, capsys, tmp_path, field):
        inst = tmp_path / "inst.json"
        save_instance(fig2_instance(), inst)
        document = json.loads(inst.read_text())
        if field == "base cost":
            document["pipes"]["base_costs"]["per_edge"][0][0] = "INF"
        else:
            document["scenarios"][0]["multiplier"] = "INF"
        inst.write_text(json.dumps(document).replace('"INF"', "1e309"))
        code, _, err = run(capsys, "solve", "--instance", str(inst), "--model", "so")
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "finite" in err

    @pytest.mark.parametrize("command", ["solve", "export-lp"])
    @pytest.mark.parametrize("model", ["ro", "so"])
    def test_two_stage_model_on_file_without_scenarios_is_usage_error(
        self, capsys, tmp_path, command, model
    ):
        inst = tmp_path / "inst.json"
        save_instance(fig2_instance(), inst)
        document = json.loads(inst.read_text())
        document["scenarios"] = []
        inst.write_text(json.dumps(document))
        code, _, err = run(
            capsys, command, "--instance", str(inst), "--model", model,
            "--out", str(tmp_path / "out"),
        )
        kind = "robust" if model == "ro" else "stochastic"
        assert code == 2
        assert err.strip() == f"{kind} model needs at least one scenario"

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "solve", "--instance", "builtin:nope", "--model", "do")
        assert code == 2 and "builtin" in err

    def test_usage_error_is_exit_2(self, capsys):
        assert run(capsys, "solve", "--instance", "builtin:fig2")[0] == 2

    def test_node_limit_is_exit_4(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        save_instance(random_artificial(SweepConfig(2, 1, 3), 0), inst)
        code, _, err = run(
            capsys, "solve", "--instance", str(inst), "--model", "so",
            "--node-limit", "1",
        )
        assert code == 4
        assert "node limit" in err

    @pytest.mark.parametrize("limit, best", [("1", "none"), ("2", "34.848178")])
    def test_node_limit_reports_what_was_proved(self, capsys, tmp_path, limit, best):
        # RO-D of this 3x3 grid: root LP 28.942982; node 2 is integral at
        # 34.848178; the optimum 30.900400 takes 3 nodes
        inst = tmp_path / "inst.json"
        save_instance(random_grid_instance(3, 3, num_pipe_types=1, num_groups=2,
                                           terminals_per_group=2, num_scenarios=2, seed=1), inst)
        code, out, err = run(
            capsys, "solve", "--instance", str(inst), "--model", "ro", "--flow", "d",
            "--node-limit", limit,
        )
        assert (code, out) == (4, "")
        assert err == (
            f"node limit reached after {limit} nodes: best objective {best}, "
            "proven bound 28.942982, root lp bound 28.942982\n"
        )

    def test_a_solver_failure_is_one_line_and_exit_1(self, capsys, tmp_path):
        # base costs near 1e300 stay finite, so the file is accepted, but
        # HiGHS cannot solve the root LP of DO-D
        inst = tmp_path / "inst.json"
        save_instance(random_artificial(SweepConfig(2, 1, 3), 2), inst)
        document = json.loads(inst.read_text())
        per_edge = document["pipes"]["base_costs"]["per_edge"]
        document["pipes"]["base_costs"]["per_edge"] = [[c * 1e300 for c in row] for row in per_edge]
        inst.write_text(json.dumps(document))
        code, out, err = run(
            capsys, "solve", "--instance", str(inst), "--model", "do", "--flow", "d"
        )
        assert (code, out) == (1, "")
        assert err == "model 'DO-D', node 1: HiGHS ended the LP with status 'Unknown'\n"

    @pytest.mark.parametrize("limit", ["-5", "0"])
    def test_node_limit_below_one_is_usage_error(self, capsys, limit):
        code, _, err = run(
            capsys, "solve", "--instance", "builtin:fig2", "--model", "do",
            "--node-limit", limit,
        )
        assert code == 2
        assert err.strip() == "--node-limit must be at least 1"


class TestSweep:
    def test_zero_seeds_is_usage_error(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "sweep", "--settings", "2,1,3", "--seeds", "0", "--out-dir", str(out_dir)
        )
        assert code == 2
        assert err.strip() == "--seeds must be at least 1"
        assert not out_dir.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, capsys, monkeypatch, tmp_path, threads):
        def no_sweep(*args):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr("ssfp.cli.run_sweep", no_sweep)
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "sweep", "--settings", "2,1,3", "--seeds", "1", "--out-dir", str(out_dir),
            "--threads", threads,
        )
        assert code == 2
        assert err.strip() == "--threads must be at least 1"
        assert not out_dir.exists()

    def test_a_refused_record_is_one_line_and_exit_1(self, capsys, monkeypatch, tmp_path):
        refusal = "s2g1t3 seed 0: the DO plan under SO undercuts the SO optimum: entry (0,2) = 0.5"

        def refused_sweep(*args):
            raise SolverError(refusal)

        monkeypatch.setattr("ssfp.cli.run_sweep", refused_sweep)
        code, out, err = run(
            capsys, "sweep", "--settings", "2,1,3", "--seeds", "1",
            "--out-dir", str(tmp_path / "out"),
        )
        assert (code, out, err) == (1, "", refusal + "\n")

    def test_sweep_end_to_end(self, capsys, monkeypatch, tmp_path):
        # 3x3 instances with one pipe type keep each record well under a second
        def small_instance(config, seed):
            return random_grid_instance(
                3, 3, num_pipe_types=1, num_groups=config.num_groups,
                terminals_per_group=config.terminals_per_group,
                num_scenarios=config.num_scenarios, seed=seed,
            )

        monkeypatch.setattr("ssfp.experiments.random_artificial", small_instance)
        # worker processes see the patch only when they are forked
        thread_counts = ["1", "2"] if multiprocessing.get_start_method() == "fork" else ["1"]
        outputs = []
        for threads in thread_counts:
            out_dir = tmp_path / f"threads-{threads}"
            code, out, _ = run(
                capsys, "sweep", "--settings", "2,1,3", "--seeds", "3",
                "--out-dir", str(out_dir), "--threads", threads,
            )
            assert code == 0
            assert out == f"wrote 3 records to {out_dir}\n"
            names = ("sweep.csv", "matrix.csv", "ratios.csv", "curves.csv")
            assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)
            with open(out_dir / "sweep.csv", newline="") as handle:
                rows = list(csv.reader(handle))
            assert [row[:2] for row in rows[1:]] == [["s2g1t3", str(s)] for s in range(3)]
            untimed = [i for i, name in enumerate(rows[0]) if "_time_" not in name]
            assert len(rows[0]) - len(untimed) == 12  # build and solve time per model
            outputs.append((
                [[row[i] for i in untimed] for row in rows],
                *((out_dir / name).read_bytes() for name in names[1:]),
            ))
        assert all(output == outputs[0] for output in outputs)


class TestValidate:
    def test_empty_solution_is_infeasible(self, capsys, tmp_path):
        solution = tmp_path / "empty.json"
        solution.write_text(json.dumps({"pairs": []}))
        code, _, _ = run(
            capsys, "validate", "--instance", "builtin:fig2", "--solution", str(solution)
        )
        assert code == 3

    def test_deterministic_route_is_feasible(self, capsys, tmp_path):
        graph = fig2_instance().first_stage.graph
        pairs = [[1, graph.edge_id(u, v)] for u, v in [(8, 9), (9, 10), (10, 16), (16, 22)]]
        solution = tmp_path / "route.json"
        solution.write_text(json.dumps({"pairs": pairs}))
        code, out, _ = run(
            capsys, "validate", "--instance", "builtin:fig2", "--solution", str(solution)
        )
        assert code == 0 and "feasible" in out

    @pytest.mark.parametrize("pair", [[1.7, 0], ["1", 1], [True, 0], [1, 0, 2]])
    def test_non_integer_pair_is_usage_error(self, capsys, tmp_path, pair):
        solution = tmp_path / "pairs.json"
        solution.write_text(json.dumps({"pairs": [pair]}))
        code, _, err = run(
            capsys, "validate", "--instance", "builtin:fig2", "--solution", str(solution)
        )
        assert code == 2
        assert err.startswith("bad solution file: ") and len(err.strip().splitlines()) == 1


class TestExportAndGen:
    def test_export_lp_round_trips(self, capsys, tmp_path, highs_reads_back):
        out = tmp_path / "model.lp"
        code, _, _ = run(
            capsys, "export-lp", "--instance", "builtin:fig2", "--model", "do",
            "--flow", "u", "--out", str(out),
        )
        assert code == 0
        model = build_do(fig2_instance().first_stage, flow="u").milp
        assert out.read_text() == export_lp(model)
        highs_reads_back(model)
        assert model.num_variables == 294

    def test_export_lp_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        for path in (a, b):
            run(capsys, "export-lp", "--instance", "builtin:fig2", "--model", "so",
                "--flow", "d", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_writes_loadable_instance(self, capsys, tmp_path):
        out = tmp_path / "inst.json"
        code, _, _ = run(capsys, "gen", "--config", "2,1,3", "--seed", "5", "--out", str(out))
        assert code == 0
        from ssfp.instances import load_instance

        assert load_instance(out) == random_artificial(SweepConfig(2, 1, 3), 5)

    def test_gen_rejects_bad_setting(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen", "--config", "9,9,9", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2 and "bad --config" in err

    @pytest.mark.parametrize("command, flag, rest", [
        ("gen", "--config", ("--seed", "0", "--out", "{dir}/x.json")),
        ("sweep", "--settings", ("--seeds", "1", "--out-dir", "{dir}/out")),
    ])
    def test_a_bad_setting_names_the_flag_typed(self, capsys, tmp_path, command, flag, rest):
        rest = [arg.format(dir=tmp_path) for arg in rest]
        code, out, err = run(capsys, command, flag, "9,1,3", *rest)
        assert (code, out) == (2, "")
        assert err.startswith(f"bad {flag} value '9,1,3': num_scenarios must be one of")
        assert not any(tmp_path.iterdir())

    def test_gen_rejects_negative_seed(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "gen", "--config", "2,1,3", "--seed", "-1", "--out", str(out))
        assert code == 2 and err.strip() == "--seed must be non-negative"
        assert not out.exists()


class TestCurves:
    def test_fig2_curves_csv(self, capsys, tmp_path):
        out = tmp_path / "curves.csv"
        code, stdout, _ = run(
            capsys, "curves", "--instance", "builtin:fig2", "--grid", "0:1:0.25",
            "--out", str(out),
        )
        assert code == 0
        assert "5/12" in stdout and "1/2" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "rho2,route_1,route_2,route_3,so_optimum"
        assert len(lines) == 6

    def test_grid_validation(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "curves", "--instance", "builtin:fig2", "--grid", "1:0:0.1",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["0:5:1", "-0.5:1:0.5", "0:1.5:0.5", "nan:1:0.1", "0:inf:1"])
    def test_grid_outside_unit_interval_is_usage_error(self, capsys, tmp_path, grid):
        out = tmp_path / "c.csv"
        code, _, err = run(capsys, "curves", "--instance", "builtin:fig2", f"--grid={grid}",
                           "--out", str(out))
        assert code == 2 and "0 <= start <= end <= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:1:1e-5", "0:1:inf"])
    def test_grid_point_count_is_bounded(self, capsys, tmp_path, grid):
        out = tmp_path / "c.csv"
        code, _, err = run(capsys, "curves", "--instance", "builtin:fig2", f"--grid={grid}",
                           "--out", str(out))
        assert code == 2 and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_largest_grid_is_accepted(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "curves", "--instance", "builtin:fig2", "--grid=0:1:1e-4",
                         "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + MAX_GRID_POINTS

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "curves", "--instance", "builtin:fig2", "--grid", "0:1:0.5",
                "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestUnusablePaths:
    """A path that cannot be read or written is one stderr line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--instance", "builtin:fig2", "--model", "do", "--out", "{missing}/r.json"),
            ("export-lp", "--instance", "builtin:fig2", "--model", "do", "--out", "{missing}/x.lp"),
            ("curves", "--grid", "0:1:0.5", "--out", "{missing}/c.csv"),
            ("sweep", "--settings", "2,1,3", "--seeds", "1", "--out-dir", "{file}"),
            ("validate", "--instance", "builtin:fig2", "--solution", "{dir}"),
            ("solve", "--instance", "{dir}", "--model", "do"),
            ("gen", "--config", "2,1,3", "--seed", "0", "--out", "{missing}/g.json"),
        ],
        ids=["solve-out", "export-lp-out", "curves-out", "sweep-out-dir-is-file",
             "validate-solution-is-dir", "solve-instance-is-dir", "gen-out"],
    )
    def test_is_usage_error(self, capsys, tmp_path, argv):
        existing_file = tmp_path / "file"
        existing_file.write_text("")
        paths = {"missing": tmp_path / "missing", "file": existing_file, "dir": tmp_path}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert out == ""  # refused before any work
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--instance", "builtin:fig2", "--model", "do"),
            ("export-lp", "--instance", "builtin:fig2", "--model", "do"),
            ("curves", "--grid", "0:1:0.5"),
            ("gen", "--config", "2,1,3", "--seed", "0"),
        ],
        ids=["solve", "export-lp", "curves", "gen"],
    )
    def test_out_is_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("no work may start before --out is checked")

        for name in ("build_model", "cost_curves", "random_artificial"):
            monkeypatch.setattr(f"ssfp.cli.{name}", no_work)
        missing = tmp_path / "missing"
        code, out, err = run(capsys, *argv, "--out", str(missing / "out"))
        assert code == 2 and out == ""
        assert err.strip() == f"cannot write {missing / 'out'}: {missing} is not a directory"
