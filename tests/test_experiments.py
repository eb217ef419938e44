import dataclasses
import math
import multiprocessing
import os
from fractions import Fraction

import numpy as np
import pytest

from conftest import pilot_instance
from ssfp import experiments
from ssfp.cli import _make_parser
from ssfp.experiments import (
    AGREEMENT_TOL,
    aggregate_matrix,
    aggregate_matrix_of_means,
    cost_curves,
    evaluate_under,
    run_sweep,
    sweep_record,
    vss,
    vss_curve,
    write_curves_csv,
    write_matrix_csv,
    write_ratios_csv,
    write_sweep_csv,
)
from ssfp.graph_core import (
    EdgePipeSet, Graph, Instance, PipeCatalog, TerminalGroups, TwoStageInstance,
)
from ssfp.instances import (
    SweepConfig,
    fig2_instance,
    four_cycle_instance,
    random_artificial,
    random_grid_instance,
)
from ssfp.models import ALL_KINDS, ModelKind, build_do, build_model, dominated_pipes
from ssfp.solver import LoadedModel, SolverError, SolverNumericalError, solve_milp


@pytest.fixture(scope="module")
def fig2():
    return fig2_instance()


@pytest.fixture(scope="module")
def routes(fig2, pair_set):
    graph = fig2.first_stage.graph
    deterministic = pair_set(
        graph, [(1, (8, 9)), (1, (9, 10)), (1, (10, 16)), (1, (16, 22))]
    )
    robust = pair_set(
        graph,
        [(1, (26, 27)), (1, (27, 28)), (1, (22, 28)),
         (2, (8, 14)), (2, (14, 20)), (2, (20, 26)), (2, (26, 32))],
    )
    hedged = pair_set(
        graph,
        [(1, (26, 27)), (1, (27, 28)), (1, (22, 28)),
         (2, (8, 14)), (2, (14, 20)), (2, (20, 26))],
    )
    return deterministic, robust, hedged


class TestEvaluateUnder:
    def test_deterministic_route_expected_cost_line(self, fig2, routes):
        deterministic, _, _ = routes
        for rho2 in (0.0, 0.25, 1.0):
            value = evaluate_under("so", fig2.with_probabilities((1 - rho2, rho2)), deterministic)
            assert value == pytest.approx(4.0 + 16.0 * rho2, abs=1e-9)

    def test_robust_route_is_flat_eleven(self, fig2, routes):
        _, robust, _ = routes
        assert evaluate_under("ro", fig2, robust) == pytest.approx(11.0, abs=1e-9)
        assert evaluate_under("so", fig2, robust) == pytest.approx(11.0, abs=1e-9)

    def test_hedged_route_line(self, fig2, routes):
        _, _, hedged = routes
        for rho2 in (0.0, 0.45, 1.0):
            value = evaluate_under("so", fig2.with_probabilities((1 - rho2, rho2)), hedged)
            assert value == pytest.approx(9.0 + 4.0 * rho2, abs=1e-9)

    def test_do_objective_is_first_stage_cost(self, fig2, routes):
        deterministic, robust, _ = routes
        assert evaluate_under("do", fig2, deterministic) == pytest.approx(4.0)
        assert evaluate_under("do", fig2, robust) == pytest.approx(11.0)

    def test_unknown_objective_raises_before_any_solve(self, monkeypatch, fig2, routes):
        calls = []
        monkeypatch.setattr(experiments, "solve_milp", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="unknown objective 'xx'"):
            evaluate_under("xx", fig2, routes[0])
        assert calls == []

    @pytest.mark.parametrize("objective", ["ro", "so"])
    def test_no_scenarios_raises_before_any_solve(self, monkeypatch, pair_set, objective):
        # with no scenarios there is no recourse to take an expectation or a
        # worst case over; the first-stage cost alone is only the DO value
        first = four_cycle_instance()
        two_stage = TwoStageInstance(first, (), ())
        plan = pair_set(first.graph, [(1, (1, 2)), (1, (2, 3)), (1, (3, 4))])
        calls = []
        monkeypatch.setattr(experiments, "solve_milp", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=f"^{objective.upper()} evaluation needs at least"):
            evaluate_under(objective, two_stage, plan)
        assert calls == []
        assert evaluate_under("do", two_stage, plan) == 3.0


class TestVss:
    def test_zero_at_rho_zero(self, fig2):
        assert vss(fig2.with_probabilities((1.0, 0.0))) == pytest.approx(0.0, abs=1e-9)

    def test_nine_at_rho_one(self, fig2):
        assert vss(fig2.with_probabilities((0.0, 1.0))) == pytest.approx(9.0, abs=1e-9)

    def test_curve_peaks_at_eighty_two_percent(self, fig2):
        grid = [i / 100 for i in range(101)]
        curve = vss_curve(fig2, grid)
        values = [v for _, v, _ in curve]
        assert min(values) >= -1e-9
        assert max(values) == pytest.approx(9.0, abs=1e-9)
        ratio = max(v / so for _, v, so in curve)
        assert ratio == pytest.approx(0.818, abs=0.01)


class TestCostCurves:
    def test_fig2_envelope(self, fig2):
        table = cost_curves(fig2, [i / 100 for i in range(101)])
        lines = {(round(l.intercept, 6), round(l.slope, 6)) for l in table.candidates}
        assert lines == {(4.0, 16.0), (9.0, 4.0), (11.0, 0.0)}
        assert list(table.intersections) == [Fraction(5, 12), Fraction(1, 2)]

    def test_so_column_is_pointwise_minimum(self, fig2):
        table = cost_curves(fig2, [0.0, 0.45, 0.5, 1.0])
        for row in table.rows():
            assert row[-1] == pytest.approx(min(row[1:-1]), abs=1e-12)
        assert table.so_value(0.45) == pytest.approx(10.8, abs=1e-9)

    @pytest.mark.parametrize("seed, num_lines", [(30, 4), (36, 6)])
    def test_envelope_longer_than_fig2(self, seed, num_lines):
        from ssfp.models import ModelKind, build_model
        from ssfp.solver import solve_milp

        two_stage = random_grid_instance(
            3, 3, num_pipe_types=2, num_groups=1, terminals_per_group=3,
            num_scenarios=2, seed=seed,
        )
        grid = [i / 4 for i in range(5)]
        table = cost_curves(two_stage, grid)
        assert len(table.candidates) == num_lines
        crossings = table.intersections
        assert 0 < crossings[0] and crossings[-1] < 1
        assert all(a < b for a, b in zip(crossings, crossings[1:]))
        for a, b, rho in zip(table.candidates, table.candidates[1:], crossings):
            assert Fraction(a.intercept) + Fraction(a.slope) * rho == (
                Fraction(b.intercept) + Fraction(b.slope) * rho
            )
        for rho in grid:
            built = build_model(ModelKind("so", "d"), two_stage.with_probabilities((1 - rho, rho)))
            direct = solve_milp(built.milp)
            assert direct.status == "optimal"
            assert table.so_value(rho) == pytest.approx(direct.objective, abs=1e-9)

    def test_requires_two_scenarios(self, fig2):
        from ssfp.graph_core import EdgePipeSet, TwoStageInstance

        single = TwoStageInstance(fig2.first_stage, fig2.scenarios[:1], (1.0,))
        with pytest.raises(ValueError):
            cost_curves(single, [0.0, 1.0])


@pytest.fixture(scope="module")
def small_sweep():
    # tiny but real: 3x3 grids run the full record pipeline fast
    config = SweepConfig(2, 1, 3, (0, 1, 2))
    records = []
    for seed in config.seeds:
        two_stage = random_grid_instance(
            3, 3, num_pipe_types=1, num_groups=1, terminals_per_group=3,
            num_scenarios=2, seed=seed,
        )
        records.append(sweep_record(config, seed, two_stage))
    return records


class TestSweepRecords:
    def test_record_invariants(self, small_sweep):
        for record in small_sweep:
            for i in range(3):
                assert record.matrix[i][i] == pytest.approx(1.0, abs=1e-9)
                for j in range(3):
                    assert record.matrix[i][j] >= 1.0 - 1e-9
            assert record.ro_do_ratio >= 1.0 - 1e-9
            # directed and undirected objectives agree per optimization type
            for k in range(3):
                assert record.objectives[2 * k] == pytest.approx(
                    record.objectives[2 * k + 1], abs=1e-6
                )
            assert all(n >= 1 for n in record.node_counts)
            assert all(v > 0 for v in record.variable_counts)

    def test_aggregates(self, small_sweep):
        matrix = aggregate_matrix(small_sweep)
        assert matrix[0][0] == pytest.approx(1.0)
        other = aggregate_matrix_of_means(small_sweep)
        for i in range(3):
            assert other[i][i] == pytest.approx(1.0)

    @pytest.mark.parametrize("aggregate", [aggregate_matrix, aggregate_matrix_of_means])
    def test_empty_record_list_is_refused(self, aggregate):
        with pytest.raises(ValueError, match="cannot aggregate an empty record list"):
            aggregate([])

    def test_csv_outputs(self, small_sweep, fig2, tmp_path):
        write_sweep_csv(small_sweep, tmp_path / "sweep.csv")
        write_matrix_csv(small_sweep, tmp_path / "matrix.csv")
        write_ratios_csv(small_sweep, tmp_path / "ratios.csv")
        table = cost_curves(fig2, [0.0, 0.5, 1.0])
        write_curves_csv(table, tmp_path / "curves.csv")
        sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(sweep_lines) == 1 + len(small_sweep)
        header = sweep_lines[0].split(",")
        assert header[:2] == ["setting", "seed"]
        assert "m_ro_do" in header and "nodes_so_d" in header
        matrix_lines = (tmp_path / "matrix.csv").read_text().splitlines()
        assert len(matrix_lines) == 1 + 6  # both aggregation variants
        curves_lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert curves_lines[0] == "rho2,route_1,route_2,route_3,so_optimum"

    def test_ratio_csv_deterministic(self, small_sweep, tmp_path):
        write_ratios_csv(small_sweep, tmp_path / "a.csv")
        write_ratios_csv(small_sweep, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_sweep_tasks_and_records_pickle(self, small_sweep):
        # the parallel sweep ships configs out and records back through a pool
        import pickle

        from ssfp.instances import SweepConfig

        config = SweepConfig(2, 1, 3, (0, 1))
        assert pickle.loads(pickle.dumps(config)) == config
        restored = pickle.loads(pickle.dumps(small_sweep[0]))
        assert restored == small_sweep[0]


class TestSweepRecordErrors:
    """A fault anywhere in a record reaches the caller once prefixed with the
    setting and seed, and with its class intact."""

    @pytest.fixture
    def instance(self):
        return random_grid_instance(
            3, 3, num_pipe_types=1, num_groups=1, terminals_per_group=3,
            num_scenarios=2, seed=0,
        )

    def _on_call(self, monkeypatch, patched_call, patch):
        """Pass the value of the ``patched_call``-th evaluation through ``patch``."""
        original = experiments.evaluate_under
        calls = []

        def evaluate_under(*args):
            calls.append(args)
            value = original(*args)
            return patch(value) if len(calls) == patched_call else value

        monkeypatch.setattr(experiments, "evaluate_under", evaluate_under)

    # the record evaluates twice to seed the SO and RO cutoffs; the matrix
    # evaluations follow row by row (DO, RO, SO plan), each under DO, RO, SO
    @pytest.mark.parametrize("failing_call", [1, 3], ids=["in-seeding", "in-evaluation"])
    def test_error_keeps_class_and_gains_one_prefix(self, monkeypatch, instance, failing_call):
        def give_up(value):
            raise SolverNumericalError("HiGHS gave up")

        self._on_call(monkeypatch, failing_call, give_up)
        with pytest.raises(SolverNumericalError) as raised:
            sweep_record(SweepConfig(2, 1, 3, (0,)), 0, instance)
        assert str(raised.value) == "s2g1t3 seed 0: HiGHS gave up"

    @pytest.mark.parametrize("patched_call, factor, refusal", [
        (5, 0.5, r"the DO plan under SO undercuts the SO optimum: entry \(0,2\) = 0\.5"),
        (5, math.nan, r"the DO plan under SO undercuts the SO optimum: entry \(0,2\) = nan"),
        (3, math.nan, r"the DO plan under DO undercuts the DO optimum: entry \(0,0\) = nan"),
    ], ids=["halved", "nan", "nan-diagonal"])
    def test_a_matrix_entry_below_one_is_refused(
        self, monkeypatch, instance, patched_call, factor, refusal
    ):
        """A plan's value under an objective scaled below that objective's
        optimum, or made NaN, is refused as a ``SolverError`` naming the
        plan, the objective and the entry.  A NaN optimum fails the
        comparison of the re-evaluation check, so only this check can
        refuse it."""
        self._on_call(monkeypatch, patched_call, lambda value: value * factor)
        with pytest.raises(SolverError, match=rf"^s2g1t3 seed 0: {refusal}$"):
            sweep_record(SweepConfig(2, 1, 3, (0,)), 0, instance)

    def test_a_flow_disagreement_stops_the_record_at_once(self, monkeypatch, instance):
        """DO-U's optimum off DO-D's by more than the tolerance: the record
        raises before any SO or RO model is built or any plan evaluated."""
        original_solve, original_build = experiments.solve_milp, experiments.build_model
        built = []

        def build_model(kind, two_stage):
            built.append(kind.label)
            return original_build(kind, two_stage)

        def solve_milp(model, *args, **kwargs):
            solution = original_solve(model, *args, **kwargs)
            if model.name == "DO-U":
                return dataclasses.replace(solution, objective=solution.objective + 1.0)
            return solution

        def evaluate_under(*args):
            raise AssertionError("evaluated a plan after the flow formulations disagreed")

        monkeypatch.setattr(experiments, "build_model", build_model)
        monkeypatch.setattr(experiments, "solve_milp", solve_milp)
        monkeypatch.setattr(experiments, "evaluate_under", evaluate_under)
        with pytest.raises(SolverError, match=r"^s2g1t3 seed 0: DO flow formulations disagree \("):
            sweep_record(SweepConfig(2, 1, 3, (0,)), 0, instance)
        assert built == ["DO-D", "DO-U"]

    def test_a_twin_above_its_cutoff_is_named(self, monkeypatch, instance):
        """An undirected twin whose optimum lies above the cutoff its directed
        twin set: the refusal names the setting, the seed, the model and the
        cutoff."""
        do_d = solve_milp(build_model(ModelKind("do", "d"), instance).milp).objective
        monkeypatch.setattr(experiments, "CUTOFF_SLACK", -0.5)
        with pytest.raises(SolverError) as raised:
            sweep_record(SweepConfig(2, 1, 3, (0,)), 0, instance)
        assert str(raised.value).startswith(
            f"s2g1t3 seed 0: model 'DO-U': no solution found below the cutoff {do_d - 0.5!r}; "
        )

    def test_a_zero_optimum_is_refused_with_its_column(self):
        """Existing pairs that already connect every group of every stage
        make every optimum 0, which no matrix column can be normalized by."""
        graph = Graph(3, ((1, 2), (2, 3)))
        catalog = PipeCatalog(1, ((1.0, 2.0),))

        def stage(multiplier):
            groups = TerminalGroups(((1, 3),))
            return Instance(graph, catalog, groups, frozenset({1}), frozenset({0, 1}), multiplier)

        existing = EdgePipeSet(frozenset({(1, 0), (1, 1)}))
        two_stage = TwoStageInstance(stage(1.0), (stage(2.0), stage(2.0)), (0.5, 0.5), existing)
        with pytest.raises(ValueError) as raised:
            sweep_record(SweepConfig(2, 1, 3), 0, two_stage)
        assert str(raised.value) == "s2g1t3 seed 0: cannot normalize column do by a zero optimum"


PILOT = SweepConfig(2, 2, 3, tuple(range(12)))
RECORD = SweepConfig(2, 1, 3)


PILOT_AND_RECORD = pytest.mark.parametrize(
    "config, seed",
    [(PILOT, seed) for seed in PILOT.seeds] + [(RECORD, 2)],
    ids=[f"pilot-{seed}" for seed in PILOT.seeds] + ["record-2"],
)


def _record_instance(config, seed):
    return pilot_instance(seed) if config is PILOT else random_artificial(config, seed)


@PILOT_AND_RECORD
def test_pipe_reduction_agrees_with_the_declared_models(monkeypatch, config, seed):
    """A sweep record with the dominated pipe types dropped from DO-D, RO-D,
    the U twins and the recourse solves, against one on the declared models:
    the same optima and evaluations, the same SO-D search, the same DO-D and
    RO-D first stages, and the declared sizes."""
    two_stage = _record_instance(config, seed)
    stages = (two_stage.first_stage, *two_stage.scenarios)
    assert dominated_pipes(stages, two_stage.existing) == {2}
    d_solves = []  # (label, solution, first stage) of each D solve, both records in turn
    original = experiments._solve

    def recording_solve(built, *args, **kwargs):
        solution, first = original(built, *args, **kwargs)
        if built.kind.flow == "d":
            d_solves.append((built.kind.label, solution, first))
        return solution, first

    monkeypatch.setattr(experiments, "_solve", recording_solve)
    reduced = sweep_record(config, seed, two_stage)
    monkeypatch.setattr(experiments, "dominated_pipes", lambda stages, existing: frozenset())
    declared = sweep_record(config, seed, two_stage)
    for label, r, d in zip(experiments.MODEL_LABELS, reduced.objectives, declared.objectives):
        assert abs(r - d) <= AGREEMENT_TOL, label
    for reduced_row, declared_row in zip(reduced.evaluations, declared.evaluations):
        for r, d in zip(reduced_row, declared_row):
            assert abs(r - d) <= AGREEMENT_TOL
    for (label, r, r_first), (_, d, d_first) in zip(d_solves[:3], d_solves[3:]):
        if label == "SO-D":  # on the declared instance in both records
            assert (r.node_count, r.x) == (d.node_count, d.x)
        else:
            assert r_first == d_first, label
    builds = [build_model(kind, two_stage) for kind in ALL_KINDS]
    for record in (reduced, declared):
        assert record.variable_counts == tuple(b.milp.num_variables for b in builds)
        assert record.constraint_counts == tuple(b.milp.num_constraints for b in builds)


def _check_do_d_and_ro_d_without_dominated_pipes(two_stage):
    """DO-D and RO-D on the instance without the dominated pipe types, as a
    sweep record solves them, against the declared models: the same optimum
    within ``AGREEMENT_TOL`` and the same first stage."""
    stages = (two_stage.first_stage, *two_stage.scenarios)
    dropped = dominated_pipes(stages, two_stage.existing)
    assert dropped == {2}
    reduced = two_stage.without_pipes(dropped)
    for optimization in ("do", "ro"):
        kind = ModelKind(optimization, "d")
        declared, declared_first = experiments._solve(build_model(kind, two_stage))
        solution, first = experiments._solve(build_model(kind, reduced))
        assert abs(solution.objective - declared.objective) <= AGREEMENT_TOL, kind.label
        assert first == declared_first, kind.label


@pytest.mark.parametrize(
    "config, seed",
    [(PILOT, seed) for seed in PILOT.seeds] + [(RECORD, seed) for seed in (2, 4, 5, 6)],
    ids=[f"pilot-{seed}" for seed in PILOT.seeds] + [f"record-{seed}" for seed in (2, 4, 5, 6)],
)
def test_do_d_and_ro_d_without_dominated_pipes_agree_with_the_declared_models(config, seed):
    _check_do_d_and_ro_d_without_dominated_pipes(_record_instance(config, seed))


@pytest.mark.sweep
@pytest.mark.parametrize(
    "config", [SweepConfig(3, 1, 3), SweepConfig(4, 1, 3), SweepConfig(2, 2, 3)],
    ids=lambda config: config.setting_id,
)
def test_do_d_and_ro_d_without_dominated_pipes_agree_at_paper_scale(config):
    """Seed 0 of three larger settings, as drawn: minutes of declared RO-D
    solves, so it runs with ``pytest -m sweep``."""
    _check_do_d_and_ro_d_without_dominated_pipes(random_artificial(config, 0))


def _fresh_recourse_costs(recourse, first_stage_solution):
    """The path the recourse tables replaced: a fresh
    ``build_do(reduced, installed, "d")`` per recourse solve."""
    two_stage = recourse.two_stage
    installed = first_stage_solution | two_stage.existing
    out = []
    for scenario in two_stage.scenarios:
        reduced = scenario.without_pipes(dominated_pipes((scenario,), installed))
        solution = solve_milp(build_do(reduced, installed, "d").milp)
        assert solution.status == "optimal"
        out.append(solution.objective)
    return tuple(out)


@PILOT_AND_RECORD
def test_recourse_tables_agree_with_a_fresh_build_per_solve(monkeypatch, config, seed):
    """A record whose recourse solves run on its table's models, against one
    that builds every recourse model afresh: bit for bit the same optima,
    evaluations and node counts."""
    two_stage = _record_instance(config, seed)
    tabled = sweep_record(config, seed, two_stage)
    monkeypatch.setattr(experiments.RecourseModels, "costs", _fresh_recourse_costs)
    fresh = sweep_record(config, seed, two_stage)
    assert tabled.objectives == fresh.objectives
    assert tabled.evaluations == fresh.evaluations
    assert tabled.node_counts == fresh.node_counts


#: a set that lays pipe 2 in scenario 1 of pilot record 0 and whose solve
#: branches (3 nodes), so a later install meets branched bounds in HiGHS
_PILOT_0_BRANCHING = frozenset({(1, 0), (1, 1), (1, 6), (2, 0), (2, 1), (2, 5), (2, 11)})


@pytest.mark.parametrize(
    "config, seed, with_pipe_2",
    [(PILOT, 0, _PILOT_0_BRANCHING), (RECORD, 2, None)],
    ids=["pilot-0", "record-2"],
)
def test_a_loaded_recourse_model_re_solves_like_a_fresh_build(config, seed, with_pipe_2):
    """One loaded recourse model, re-solved along a sequence of installed sets
    (a solve of the set that lays pipe 2 limited to three nodes, then a
    shuffle of the empty set, repeats, that set again and a solve of it cut
    short at one node), holds in HiGHS the columns of a fresh build with
    those pairs existing at the root of each solve, and reaches that build's
    cold optimum bit for bit."""
    scenario = _record_instance(config, seed).scenarios[0]
    bare = build_do(scenario, EdgePipeSet(), "d")
    loaded = LoadedModel(bare.milp)
    rng = np.random.default_rng(seed)

    def laid(pipe, count):
        edges = rng.choice(scenario.graph.num_edges, count, replace=False)
        return frozenset((pipe, int(e)) for e in edges)

    a, b, c = (EdgePipeSet(laid(1, count)) for count in (2, 3, 4))
    pipe_2 = EdgePipeSet(with_pipe_2 or laid(1, 2) | laid(2, 2))
    sequence = [(EdgePipeSet(), None), (a, None), (a, None), (b, None), (pipe_2, None),
                (pipe_2, 1), (c, None), (EdgePipeSet(), None), (b, None)]
    rng.shuffle(sequence)
    # first, so the next install meets the bounds a child node left in HiGHS
    sequence.insert(0, (pipe_2, 3))
    branched = ended_in_a_child = 0
    for k, (installed, node_limit) in enumerate(sequence):
        fresh = build_do(scenario, installed, "d").milp
        loaded.install([bare.stage_x[0][pair] for pair in installed])
        solve_milp(loaded, node_limit=1)  # HiGHS holds the root LP: the columns as laid
        lp = loaded.highs.getLp()
        assert list(lp.col_lower_) == list(fresh.col_lower), k
        assert list(lp.col_upper_) == list(fresh.col_upper), k
        assert list(lp.col_cost_) == list(fresh.col_cost), k
        warm = solve_milp(loaded, node_limit=node_limit)
        if node_limit is not None:
            assert warm.node_count <= node_limit, k
            assert warm.status in ("optimal", "node_limit"), k
            ended_in_a_child += warm.node_count > 1
            continue
        cold = solve_milp(fresh)
        assert (warm.status, warm.objective) == ("optimal", cold.objective), k
        branched += cold.node_count > 1
    assert branched == (1 if with_pipe_2 else 0)
    assert ended_in_a_child == (1 if with_pipe_2 else 0)


def test_a_recourse_table_lives_for_one_record(monkeypatch):
    """Pilot record 0 needs one recourse model per scenario, with pipe 2
    dropped each time, built and loaded into HiGHS once for its 16 recourse
    solves; a second record of the same instance builds and loads them
    again, as no table outlives its record."""
    builds, loads = [], []
    original = experiments.build_do

    def recording_build_do(instance, existing, flow):
        builds.append((instance.feasible_pipes, existing, flow))
        return original(instance, existing, flow)

    class RecordingLoadedModel(LoadedModel):
        def __init__(self, model):
            loads.append(model.name)
            super().__init__(model)

    monkeypatch.setattr(experiments, "build_do", recording_build_do)
    monkeypatch.setattr(experiments, "LoadedModel", RecordingLoadedModel)
    two_stage = _record_instance(PILOT, 0)
    for _ in range(2):
        sweep_record(PILOT, 0, two_stage)
    assert builds == [(frozenset({1}), EdgePipeSet(), "d")] * 4
    assert loads == ["DO-D"] * 4


def test_a_sweep_record_makes_six_model_solves_and_sixteen_recourse_solves(monkeypatch):
    """The solve calls of pilot record 0, in order: each objective's D model
    and then its U twin, with the two recourse solves that seed the next D
    model's cutoff between them, and then the twelve recourse solves of the
    evaluation matrix.  The benchmark's solve percentiles are taken over
    this mix, so a change to it shows here first."""
    calls = []
    original = experiments.solve_milp

    def recording_solve_milp(model, *args, **kwargs):
        calls.append((type(model).__name__, model.name))
        return original(model, *args, **kwargs)

    monkeypatch.setattr(experiments, "solve_milp", recording_solve_milp)
    sweep_record(PILOT, 0, _record_instance(PILOT, 0))
    recourse = [("LoadedModel", "DO-D")] * 2
    assert calls == (
        [("MilpModel", "DO-D"), ("MilpModel", "DO-U")] + recourse
        + [("MilpModel", "SO-D"), ("MilpModel", "SO-U")] + recourse
        + [("MilpModel", "RO-D"), ("MilpModel", "RO-U")] + recourse * 6
    )


def test_a_recourse_table_of_another_instance_is_refused(fig2, routes):
    other = experiments.RecourseModels(fig2.with_probabilities((0.5, 0.5)))
    with pytest.raises(ValueError, match="belong to another instance"):
        evaluate_under("so", fig2, routes[0], other)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_cutoffs_do_not_change_the_directed_searches(monkeypatch, seed):
    """Best first, every node whose parent bound is below the optimum is
    solved with or without a cutoff, and a cutoff above the optimum prunes
    only nodes that come off the heap after it.  So SO-D and RO-D, which a
    sweep record seeds from another objective's plan, solve the same nodes
    and report the same incumbent without their cutoff."""
    original = experiments.solve_milp
    seeded = {}

    def recording_solve_milp(model, *args, **kwargs):
        solution = original(model, *args, **kwargs)
        if model.name in ("SO-D", "RO-D"):
            seeded[model.name] = model, kwargs["cutoff"], solution
        return solution

    monkeypatch.setattr(experiments, "solve_milp", recording_solve_milp)
    sweep_record(PILOT, seed, pilot_instance(seed))
    assert len(seeded) == 2
    for name, (model, cutoff, solution) in seeded.items():
        assert cutoff is not None, name
        unseeded = solve_milp(model)
        assert unseeded.node_count == solution.node_count, name
        assert unseeded.x == solution.x, name


def _sha256(path) -> str:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


SWEEP_UNTIMED_SHA256 = "871bdf3cd3af199948ad8bceddc864de4839bdd5103ae448cf0ac57819d199e9"
MATRIX_SHA256 = "497eab4d3ed7107dcffd7c8bbb3085125f364eb5d04689c7a3d46aab0a8cc853"
RATIOS_SHA256 = "41002a8ccd193e1c722c1746288b968fcb17cf271ce4ea3a35be43e193ad5d80"
CURVES_SHA256 = "83e6a6c0e2c5b78f2be10e9d8351fdde028bfb01eb99acff968cb1b31cd848a1"


class TestAnalysisBytes:
    """The analysis CSVs are pinned byte for byte; any change to which plans
    are solved, evaluated or reported shows here first."""

    def test_sweep_matrix_and_ratio_csvs(self, small_sweep, tmp_path):
        import csv

        write_sweep_csv(small_sweep, tmp_path / "sweep.csv")
        write_matrix_csv(small_sweep, tmp_path / "matrix.csv")
        write_ratios_csv(small_sweep, tmp_path / "ratios.csv")
        with open(tmp_path / "sweep.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        keep = [
            i for i, name in enumerate(rows[0])
            if not name.startswith(("build_time_", "solve_time_"))
        ]
        (tmp_path / "sweep_untimed.csv").write_text(
            "".join(",".join(row[i] for i in keep) + "\n" for row in rows)
        )
        assert _sha256(tmp_path / "sweep_untimed.csv") == SWEEP_UNTIMED_SHA256
        assert _sha256(tmp_path / "matrix.csv") == MATRIX_SHA256
        assert _sha256(tmp_path / "ratios.csv") == RATIOS_SHA256

    def test_fig2_curves_csv(self, fig2, tmp_path):
        write_curves_csv(cost_curves(fig2, [i / 100 for i in range(101)]), tmp_path / "curves.csv")
        assert _sha256(tmp_path / "curves.csv") == CURVES_SHA256


class TestSweepWorkers:
    """``run_sweep`` starts no more workers than there are tasks or CPUs
    this process may run on: two of the host's eight.  A fake pool stands in
    for ``multiprocessing.Pool``, so no process starts."""

    @pytest.fixture
    def pools(self, monkeypatch):
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, func, tasks, chunksize=1):
                return [func(*task) for task in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(experiments, "sweep_record", lambda config, seed: (config.setting_id, seed))
        return started

    @pytest.mark.parametrize("threads, seeds, workers", [
        (300, 10, [2]),  # capped at the two usable CPUs
        (300, 1, []),  # one task runs in this process
        (1, 10, []),
    ])
    def test_workers_are_capped(self, pools, threads, seeds, workers):
        records = run_sweep([SweepConfig(2, 1, 3, tuple(range(seeds)))], threads)
        assert records == [("s2g1t3", seed) for seed in range(seeds)]
        assert pools == workers

    def test_one_usable_cpu_starts_no_pool(self, monkeypatch, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})  # 8 host CPUs
        records = run_sweep([SweepConfig(2, 1, 3, tuple(range(10)))], 300)
        assert records == [("s2g1t3", seed) for seed in range(10)]
        assert pools == []

    def test_host_cpus_count_where_there_is_no_affinity_mask(self, monkeypatch, pools):
        monkeypatch.delattr(os, "sched_getaffinity")
        run_sweep([SweepConfig(2, 1, 3, tuple(range(10)))], 300)
        assert pools == [8]

    def test_cli_default_is_the_core_count(self, pools):
        args = _make_parser().parse_args(["sweep", "--seeds", "1", "--out-dir", "out"])
        assert args.threads == 2
