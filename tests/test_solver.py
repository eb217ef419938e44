import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog as cold_linprog
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.sparse import csr_matrix

from ssfp import solver
from ssfp.graph_core import (
    EdgePipeSet,
    Graph,
    Instance,
    PipeCatalog,
    TerminalGroups,
    TwoStageInstance,
    cost,
    first_disconnected,
    validate_feasible,
)
from ssfp.instances import (
    SweepConfig,
    fig2_instance,
    four_cycle_instance,
    random_artificial,
    random_grid_instance,
)
from ssfp.experiments import AGREEMENT_TOL, CUTOFF_SLACK
from ssfp.milp_core import SENSES, MilpModel
from ssfp.models import ALL_KINDS, ModelKind, build_do, build_model
from ssfp.solver import (
    BruteForceBudgetError,
    LpResult,
    SolverError,
    SolverNumericalError,
    brute_force,
    solve_milp,
)
from conftest import criterion_4_corpus
from test_restricted_instances import restricted_instance


def tiny_two_stage(gamma: float = 5.0) -> TwoStageInstance:
    graph = Graph(2, ((1, 2),))
    catalog = PipeCatalog(1, ((gamma,),))
    groups = TerminalGroups(((1, 2),))
    first = Instance(graph, catalog, groups, frozenset({1}), frozenset({0}))
    scenario = Instance(graph, catalog, groups, frozenset({1}), frozenset({0}), 2.0)
    return TwoStageInstance(first, (scenario,), (1.0,))


class TestContinuousSolvesAndRootBounds:
    def test_simple_bound_problem(self):
        m = MilpModel()
        (x,) = m.add_columns(["x"], "continuous", 0.0, 10.0, 1.0)
        m.add_rows([("lo", [x], [1.0], 3.0)], ">=")
        sol = solve_milp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_infeasible_and_unbounded_detected(self):
        m = MilpModel()
        (x,) = m.add_columns(["x"], "continuous", 0.0, 1.0)
        m.add_rows([("impossible", [x], [1.0], 2.0)], ">=")
        assert solve_milp(m).status == "infeasible"
        m2 = MilpModel()
        m2.add_columns(["x"], "continuous", -math.inf, math.inf, -1.0)
        assert solve_milp(m2).status == "unbounded"

    def test_four_cycle_relaxation_value(self):
        lp = solve_milp(build_do(four_cycle_instance(), flow="u").milp, node_limit=1)
        assert lp.root_bound <= 2.0 + 1e-7

    def test_fig2_relaxation_equals_cheapest_path(self):
        # single commodity: the undirected relaxation is a min-cost flow, so
        # its value is the cheapest 8-22 path under min-over-pipes edge costs
        two_stage = fig2_instance()
        inst = two_stage.first_stage
        lp = solve_milp(build_do(inst, flow="u").milp, node_limit=1)
        assert lp.root_bound == pytest.approx(_cheapest_path(inst, 8, 22), abs=1e-7)


def _cheapest_path(inst, source, target):
    import heapq

    dist = {source: 0.0}
    queue = [(0.0, source)]
    while queue:
        d, v = heapq.heappop(queue)
        if v == target:
            return d
        if d > dist.get(v, math.inf):
            continue
        for eid in (e for e, edge in enumerate(inst.graph.edges) if v in edge):
            if eid not in inst.admissible_edges:
                continue
            u1, v1 = inst.graph.endpoints(eid)
            other = u1 if v1 == v else v1
            step = min(inst.pair_cost(p, eid) for p in inst.feasible_pipes)
            if d + step < dist.get(other, math.inf):
                dist[other] = d + step
                heapq.heappush(queue, (d + step, other))
    return math.inf


class TestSolveMilp:
    def test_fig2_deterministic_optimum(self):
        built = build_do(fig2_instance().first_stage, flow="u")
        sol = solve_milp(built.milp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(4.0, abs=1e-9)
        assert abs(sol.objective - sol.bound) <= 1e-9

    def test_four_cycle_integer_optimum(self):
        sol = solve_milp(build_do(four_cycle_instance(), flow="u").milp)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_node_limit_status(self):
        # RO-D of a 3x3 grid: optimal at 30.9004 after 3 nodes, root LP 28.9430
        model = _branching_model()
        sol = solve_milp(model, node_limit=1)
        assert (sol.status, sol.node_count, sol.objective) == ("node_limit", 1, math.inf)
        assert sol.x == ()
        assert sol.bound == solve_milp(model).root_bound
        assert sol.bound == pytest.approx(28.9430, abs=1e-4)
        assert sol.root_bound == sol.bound  # the root LP ran, though no solution was found

    @pytest.mark.parametrize("limit", [0, -1])
    def test_node_limit_below_one_is_refused(self, limit):
        with pytest.raises(ValueError, match="node_limit must be at least 1"):
            solve_milp(_branching_model(), node_limit=limit)

    @pytest.mark.parametrize("limit", [2.5, 2.0, True, "3"])
    def test_node_limit_that_is_not_an_integer_is_refused(self, limit):
        # 2.5 never equals the node count, so it set no limit at all, and
        # True acted as a limit of 1
        with pytest.raises(ValueError, match="node_limit must be an integer"):
            solve_milp(_branching_model(), node_limit=limit)

    def test_node_limit_may_be_a_numpy_integer(self):
        sol = solve_milp(_branching_model(), node_limit=np.int64(1))
        assert (sol.status, sol.node_count) == ("node_limit", 1)

    def test_nan_cutoff_is_refused(self):
        # every comparison with NaN is false, so it was silently no cutoff
        with pytest.raises(ValueError, match="cutoff must be a number"):
            solve_milp(_branching_model(), cutoff=math.nan)

    @pytest.mark.parametrize("cutoff", [True, "4"])
    def test_cutoff_that_is_not_a_number_is_refused(self, cutoff):
        # True ran as a cutoff of 1.0 and "4" raised a bare TypeError
        with pytest.raises(ValueError, match=f"cutoff must be a number, not {cutoff!r}"):
            solve_milp(_branching_model(), cutoff=cutoff)

    def test_cutoff_may_be_a_numpy_float(self):
        model = _branching_model()
        optimum = solve_milp(model).objective
        assert solve_milp(model, cutoff=np.float32(optimum + 1e-3)).objective == optimum

    def test_cutoff_above_the_optimum_keeps_it(self):
        model = _branching_model()
        free = solve_milp(model)
        assert (free.status, free.node_count) == ("optimal", 3)
        assert free.objective == pytest.approx(30.9004, abs=1e-4)
        cut = solve_milp(model, cutoff=free.objective + 1e-6)
        assert cut.status == "optimal"
        assert cut.objective == free.objective
        assert cut.node_count <= free.node_count

    def test_cutoff_below_the_optimum_is_an_error(self):
        model = _branching_model()
        optimum = solve_milp(model).objective
        with pytest.raises(SolverError, match="no solution found below the cutoff"):
            solve_milp(model, cutoff=optimum - 1e-3)

    def test_cutoff_refusal_names_the_model_and_the_cutoff(self):
        model = _branching_model()
        cutoff = solve_milp(model).objective - 1e-3
        with pytest.raises(SolverError) as err:
            solve_milp(model, cutoff=cutoff)
        assert str(err.value).startswith(
            f"model 'RO-D': no solution found below the cutoff {cutoff!r}; "
        )

    def test_determinism(self):
        for order in ("best", "depth"):
            for model in (build_do(four_cycle_instance(), flow="u").milp, _branching_model()):
                a = solve_milp(model, order=order)
                b = solve_milp(model, order=order)
                assert a.objective == b.objective
                assert a.node_count == b.node_count
                assert a.x == b.x

    def test_x_has_one_value_per_column_when_a_solution_is_found(self):
        branching = _branching_model()
        four_cycle = build_do(four_cycle_instance(), flow="d").milp
        solves = [
            (model, solve_milp(model, **options))
            for model in (branching, four_cycle)
            for options in ({}, {"order": "depth"}, {"node_limit": 1}, {"node_limit": 2})
        ]
        # the branching model stops before its first incumbent at 1 node, after it at 2
        assert {sol.status for _, sol in solves} == {"optimal", "node_limit"}
        for model, sol in solves:
            found = sol.objective < math.inf
            assert len(sol.x) == (model.num_variables if found else 0)

    @pytest.mark.parametrize("order", ["", "Best", "dfs", None])
    def test_unknown_order_is_refused(self, order):
        with pytest.raises(ValueError, match="order must be 'best' or 'depth'"):
            solve_milp(_branching_model(), order=order)

    def test_infeasible_model(self):
        m = MilpModel()
        (x,) = m.add_columns(["b"], "binary", objective=1.0)
        m.add_rows([("half", [x], [2.0], 1.0)], "=")
        assert solve_milp(m).status == "infeasible"

    @pytest.mark.parametrize(
        "sense, rhs, status",
        [("<=", -1.0, "infeasible"), ("=", 1.0, "infeasible"), (">=", 1.0, "infeasible"),
         ("<=", 1.0, "optimal"), ("=", 0.0, "optimal")],
    )
    def test_empty_row_is_decided_by_the_lp(self, sense, rhs, status):
        # a row with no terms reaches HiGHS as a zero row
        m = MilpModel()
        (x,) = m.add_columns(["b"], "binary", objective=1.0)
        m.add_rows([("cover", [x], [1.0], 1.0)], ">=")
        m.add_rows([("empty", [], [], rhs)], sense)
        assert m.row_start[1] == m.row_start[2]  # row 1 has no terms
        sol = solve_milp(m)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(1.0, abs=1e-9)
        else:
            assert (sol.objective, sol.bound, sol.x) == (math.inf, math.inf, ())


class TestDepthFirst:
    """``order="depth"`` against the best-first search it replaces for the
    undirected twins."""

    def test_undirected_twins_agree_with_best_first_under_the_directed_cutoff(self):
        for seed, ts in enumerate(criterion_4_corpus(20)):
            for optimization in ("do", "ro", "so"):
                directed = solve_milp(build_model(ModelKind(optimization, "d"), ts).milp)
                cutoff = directed.objective + CUTOFF_SLACK
                twin = build_model(ModelKind(optimization, "u"), ts).milp
                best = solve_milp(twin, cutoff=cutoff)
                depth = solve_milp(twin, cutoff=cutoff, order="depth")
                assert depth.status == "optimal", (seed, optimization)
                assert abs(depth.objective - best.objective) <= AGREEMENT_TOL, (seed, optimization)

    def test_node_limit_reports_the_least_open_bound(self):
        # the up-child of the root (node 2) is integral at 30.9004; the
        # root's down-child stays open at the root bound
        sol = solve_milp(_branching_model(), node_limit=2, order="depth")
        assert sol.status == "node_limit"
        assert sol.objective == pytest.approx(30.9004, abs=1e-4)
        assert 28.9430 - 1e-4 <= sol.bound <= 30.9004 + 1e-4
        assert sol.bound == sol.root_bound

    @pytest.mark.parametrize("seed", [2, 4])
    def test_node_limit_bound_never_exceeds_the_optimum(self, seed):
        # depth first pops a deep node while a shallow one with a lower bound
        # is still open; on these instances the popped node's bound alone
        # would exceed the optimum
        ts = criterion_4_corpus(seed + 1)[seed]
        for kind in ALL_KINDS:
            model = build_model(kind, ts).milp
            optimum = solve_milp(model).objective
            for limit in range(1, 8):
                sol = solve_milp(model, node_limit=limit, order="depth")
                if sol.status == "node_limit":
                    assert sol.root_bound <= sol.bound <= optimum + 1e-9, (kind.label, limit)


class TestBruteForce:
    def test_single_edge_instance(self):
        result = brute_force(tiny_two_stage(5.0), "do")
        assert result.objective == 5.0
        assert result.first_stage.pairs == frozenset({(1, 0)})

    def test_ro_single_identical_scenario_adds_nothing(self):
        result = brute_force(tiny_two_stage(5.0), "ro")
        assert result.objective == 5.0
        assert result.scenario_sets[0].pairs == frozenset({(1, 0)})

    def test_budget_refusal_is_explicit(self):
        with pytest.raises(BruteForceBudgetError):
            brute_force(fig2_instance(), "so")

    def test_existing_pairs_are_free(self):
        base = tiny_two_stage(5.0)
        ts = TwoStageInstance(
            base.first_stage, base.scenarios, base.probabilities,
            EdgePipeSet(frozenset({(1, 0)})),
        )
        assert brute_force(ts, "do").objective == 0.0

    def test_so_probability_weighting(self):
        # 1x2 path graph, one pipe; scenario 2 needs the second edge too
        graph = Graph(3, ((1, 2), (2, 3)))
        catalog = PipeCatalog(1, ((1.0, 3.0),))
        first = Instance(
            graph, catalog, TerminalGroups(((1, 2),)), frozenset({1}), frozenset({0, 1})
        )
        s1 = Instance(
            graph, catalog, TerminalGroups(((1, 2),)), frozenset({1}), frozenset({0, 1}), 2.0
        )
        s2 = Instance(
            graph, catalog, TerminalGroups(((1, 3),)), frozenset({1}), frozenset({0, 1}), 2.0
        )
        ts = TwoStageInstance(first, (s1, s2), (0.75, 0.25))
        # edge-1 costs 1 now; edge-2 retrofit costs 6 with probability 1/4
        # versus 3 up front: retrofit wins at these probabilities
        result = brute_force(ts, "so")
        assert result.objective == pytest.approx(1.0 + 0.25 * 6.0)
        hedged = brute_force(ts.with_probabilities((0.25, 0.75)), "so")
        assert hedged.objective == pytest.approx(4.0)

    def test_ro_mode_matches_milp_on_small_instances(self):
        for seed in range(4):
            ts = random_grid_instance(
                2, 3, num_pipe_types=1, num_groups=1, terminals_per_group=2,
                num_scenarios=2, seed=seed,
            )
            oracle = brute_force(ts, "ro").objective
            sol = solve_milp(build_model(ModelKind("ro", "u"), ts).milp)
            assert sol.objective == pytest.approx(oracle, abs=1e-9)


    def test_connecting_table_matches_first_disconnected(self):
        for ts in _oracle_cases():
            existing = ts.existing.pairs
            graph = ts.first_stage.graph
            pairs = [(p, e) for p in range(1, ts.first_stage.pipes.num_pipe_types + 1)
                     for e in range(graph.num_edges) if (p, e) not in existing]
            for inst in (ts.first_stage, *ts.scenarios):
                table = solver._connecting(inst, pairs, existing)
                assert table.shape == (1 << len(pairs),)
                usable = [e for p, e in existing
                          if p in inst.feasible_pipes and e in inst.admissible_edges]
                for mask in range(1 << len(pairs)):
                    edges = usable + [
                        e for i, (p, e) in enumerate(pairs)
                        if mask >> i & 1 and p in inst.feasible_pipes and e in inst.admissible_edges
                    ]
                    connected = first_disconnected(graph, inst.terminals.groups, edges) is None
                    assert table[mask] == connected, (inst.label, mask)

    def test_witness_sets_are_feasible_and_cost_out(self):
        for ts in _oracle_cases():
            for mode in ("ro", "so"):
                result = brute_force(ts, mode)
                assert validate_feasible(ts.first_stage, result.first_stage)
                recourse = []
                for inst, chosen in zip(ts.scenarios, result.scenario_sets, strict=True):
                    assert validate_feasible(inst, chosen)
                    assert result.first_stage.pairs <= chosen.pairs
                    recourse.append(cost(inst, result.first_stage, chosen))
                if mode == "ro":
                    second = max(recourse)
                else:
                    second = sum(r * c for r, c in zip(ts.probabilities, recourse))
                total = cost(ts.first_stage, ts.existing, result.first_stage) + second
                assert total == pytest.approx(result.objective, abs=1e-9)


def _oracle_cases():
    """The first 20 criterion-4 instances and the 8 restricted instances
    (existing pairs, restricted pipes and edges)."""
    return criterion_4_corpus(20) + [restricted_instance(seed) for seed in range(8)]


def test_lp_bound_never_exceeds_milp_optimum():
    for seed in range(3):
        ts = random_grid_instance(
            2, 3, num_pipe_types=1, num_groups=1, terminals_per_group=2,
            num_scenarios=2, seed=seed,
        )
        for flow in ("u", "d"):
            built = build_do(ts.first_stage, flow=flow)
            lp = solve_milp(built.milp, node_limit=1)
            milp = solve_milp(built.milp)
            assert lp.root_bound == milp.root_bound
            assert lp.root_bound <= milp.objective + 1e-7


class TestEmptyModel:
    """A model with no variables is decided without an LP; HiGHS would call
    it empty and solve nothing."""

    def test_no_variables_is_optimal_at_zero(self):
        m = MilpModel("empty")
        m.add_rows([("slack", [], [], 1.0)], "<=")
        sol = solve_milp(m)
        assert (sol.status, sol.objective, sol.bound, sol.x) == ("optimal", 0.0, 0.0, ())
        assert (sol.lp_count, sol.simplex_iterations, sol.lp_time) == (0, 0, 0.0)
        assert solve_milp(MilpModel()).status == "optimal"

    @pytest.mark.parametrize("sense, rhs", [(">=", 1.0), ("=", -1.0), ("<=", -1.0)])
    def test_no_variables_and_a_row_excluding_zero_is_infeasible(self, sense, rhs):
        m = MilpModel("empty")
        m.add_rows([("fails", [], [], rhs)], sense)
        sol = solve_milp(m)
        assert (sol.status, sol.objective, sol.bound, sol.x) == (
            "infeasible", math.inf, math.inf, ())


class TestModelData:
    @pytest.mark.parametrize("where", ["objective", "coefficient", "rhs"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_is_rejected(self, where, value):
        # the builder refuses such values, so the test writes the buffer
        m = MilpModel("bad")
        (x,) = m.add_columns(["x"], "continuous", 0.0, 1.0, 1.0)
        m.add_rows([("c", [x], [1.0], 1.0)], "<=")
        buffer = {"objective": m.col_cost, "coefficient": m.row_coef, "rhs": m.row_rhs}[where]
        buffer[0] = value
        with pytest.raises(ValueError, match="'bad': .* must be finite"):
            solve_milp(m)

    def test_model_highs_refuses_raises(self):
        # HiGHS refuses matrix values of 1e15 and above
        m = MilpModel("huge")
        (x,) = m.add_columns(["b"], "binary", objective=1.0)
        m.add_rows([("c", [x], [1e300], 1.0)], ">=")
        with pytest.raises(SolverNumericalError, match="'huge': HiGHS rejected the model"):
            solve_milp(m)


# -- the warm HiGHS LP against the cold scipy linprog it replaced ------------

_COLD_STATUS = {0: HighsModelStatus.kOptimal, 2: HighsModelStatus.kInfeasible,
                3: HighsModelStatus.kUnbounded}


def _cold_form(model: MilpModel) -> dict:
    """The model as scipy's linprog takes it: ``>=`` rows negated into A_ub,
    ``=`` rows in A_eq."""
    rows = {"ub": ([], [], [0], []), "eq": ([], [], [0], [])}
    start = model.row_start
    for i, (sense, row_rhs) in enumerate(zip(model.row_sense, model.row_rhs)):
        sign = -1.0 if SENSES[sense] == ">=" else 1.0
        data, indices, indptr, rhs = rows["eq" if SENSES[sense] == "=" else "ub"]
        for k in range(start[i], start[i + 1]):
            indices.append(model.row_index[k])
            data.append(sign * model.row_coef[k])
        indptr.append(len(indices))
        rhs.append(sign * row_rhs)
    arrays = {"c": np.array(list(model.col_cost))}
    for key, (data, indices, indptr, rhs) in rows.items():
        shape = (len(rhs), model.num_variables)
        arrays[f"A_{key}"] = csr_matrix((data, indices, indptr), shape=shape) if rhs else None
        arrays[f"b_{key}"] = np.array(rhs) if rhs else None
    return arrays


def _bound_sequence(form, rng, shares):
    """The root, every binary fixed to 0 (an empty network: infeasible when
    terminals must connect), random 0/1 fixings of a ``shares`` fraction of
    the binaries, and the root again."""
    binaries = np.flatnonzero(form.binary)
    yield form.lb, form.ub
    lb, ub = form.lb.copy(), form.ub.copy()
    ub[binaries] = 0.0
    yield lb, ub
    for share in shares:
        lb, ub = form.lb.copy(), form.ub.copy()
        picked = binaries[rng.random(binaries.size) < share]
        ones = rng.random(picked.size) < 0.5
        lb[picked[ones]] = 1.0
        ub[picked[~ones]] = 0.0
        yield lb, ub
    yield form.lb, form.ub


def _assert_warm_matches_cold(model: MilpModel, seed: int, shares: tuple[float, ...]) -> list:
    """Re-solve one persistent form along the bound sequence; each result
    must match a cold linprog on the same bounds (the root's is reused)."""
    form = solver.LoadedModel(model)
    arrays = _cold_form(model)
    statuses, cold_results = [], {}
    for lb, ub in _bound_sequence(form, np.random.default_rng(seed), shares):
        warm = solver.linprog(form, lb, ub)
        key = (lb.tobytes(), ub.tobytes())
        if key not in cold_results:
            cold_results[key] = cold_linprog(bounds=np.column_stack([lb, ub]), method="highs",
                                             **arrays)
        cold = cold_results[key]
        assert warm.status == _COLD_STATUS[cold.status], (model.name, cold.message)
        if cold.status == 0:
            assert warm.fun == pytest.approx(cold.fun, abs=1e-7), model.name
        statuses.append(warm.status)
    return statuses


class TestWarmLpMatchesColdLinprog:
    def test_criterion_4_corpus_and_fig2(self):
        # all six models of fig2; on the corpus, every instance with three of
        # the six models in turn, so each model meets 100 instances and the
        # cold reference LPs take about 20 s, not 40 s
        statuses = []
        for seed, ts in enumerate([fig2_instance()] + criterion_4_corpus()):
            for k, kind in enumerate(ALL_KINDS):
                if seed == 0 or (seed + k) % 2 == 0:
                    model = build_model(kind, ts).milp
                    statuses += _assert_warm_matches_cold(model, seed, (0.3,))
        # the sequences cover both outcomes, and re-solves after an infeasible LP
        assert statuses.count(HighsModelStatus.kInfeasible) > 500
        assert statuses.count(HighsModelStatus.kOptimal) > 1000

    @pytest.mark.parametrize("seed", [2, 4, 5, 6])
    def test_record_5x5_instances(self, seed):
        ts = random_artificial(SweepConfig(2, 1, 3), seed)
        statuses = []
        for kind in ALL_KINDS:
            statuses += _assert_warm_matches_cold(build_model(kind, ts).milp, seed,
                                                  (0.2, 0.5, 0.2, 0.05))
        assert HighsModelStatus.kInfeasible in statuses


# -- the LP entry the benchmark traces ----------------------------------------

def _branching_model():
    ts = random_grid_instance(3, 3, num_pipe_types=1, num_groups=2, terminals_per_group=2,
                              num_scenarios=2, seed=1)
    return build_model(ALL_KINDS[3], ts).milp  # RO-D


class TestLpEntry:
    def test_one_lp_call_per_node_through_the_module_global(self, monkeypatch):
        calls = []
        original = solver.linprog

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result.nit)
            return result

        monkeypatch.setattr(solver, "linprog", counting)
        for order in ("best", "depth"):
            calls.clear()
            sol = solve_milp(_branching_model(), order=order)
            assert sol.status == "optimal" and sol.node_count > 1
            assert len(calls) == sol.node_count == sol.lp_count
            assert all(isinstance(nit, int) for nit in calls) and sum(calls) > 0
            assert sol.simplex_iterations == sum(calls)

    @pytest.mark.parametrize("order", ["best", "depth"])
    def test_lp_time_is_a_positive_part_of_the_solve_time(self, order):
        sol = solve_milp(_branching_model(), order=order)
        assert sol.node_count > 1
        assert 0 < sol.lp_time <= sol.solve_time

    def test_solve_writes_nothing_to_stdout_or_stderr(self, capfd):
        capfd.readouterr()
        solve_milp(_branching_model())
        solve_milp(_branching_model(), node_limit=1)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("status, text", [
        (HighsModelStatus.kUnboundedOrInfeasible, "Primal infeasible or unbounded"),
        (HighsModelStatus.kSolveError, "Solve error"),
    ])
    def test_numerical_trouble_names_model_node_and_status(self, monkeypatch, status, text):
        original = solver.linprog
        seen = []

        def second_lp_fails(*args):
            seen.append(None)
            if len(seen) < 2:
                return original(*args)
            return LpResult(status, math.nan, None, 0)

        monkeypatch.setattr(solver, "linprog", second_lp_fails)
        model = _branching_model()
        with pytest.raises(SolverNumericalError) as raised:
            solve_milp(model)
        message = str(raised.value)
        assert repr(model.name) in message and "node 2" in message and text in message

    def test_missing_highs_binding_names_the_scipy_version(self):
        code = (
            "import sys, scipy\n"
            "sys.modules['scipy.optimize._highspy._core'] = None\n"
            "try:\n"
            "    import ssfp.solver\n"
            "except ImportError as err:\n"
            "    print(scipy.__version__ in str(err), '_Highs' in str(err))\n"
        )
        src = str(Path(solver.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True, env=env)
        assert done.stdout.split() == ["True", "True"]


# -- loading the HiGHS binding -------------------------------------------------

def _run_python(code, *path):
    """Run ``code`` in a fresh interpreter with ``path`` and ssfp's source
    first on ``sys.path``; return its stdout split into words."""
    src = str(Path(solver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [*map(str, path), src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _highs_calls(path):
    """The methods ``path`` calls on a HiGHS instance, as (function, method)
    pairs: every call ``highs.<method>(...)`` or
    ``<expression>.highs.<method>(...)``, with the qualified name of the
    function or method it is made in (``""`` at module level)."""
    calls = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                owner = child.func.value
                if (isinstance(owner, ast.Name) and owner.id == "highs") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "highs"
                ):
                    calls.add((scope, child.func.attr))
            walk(child, scope)

    walk(ast.parse(Path(path).read_text()), "")
    return calls


#: the one function that may make each call that changes what HiGHS holds
_HIGHS_WRITERS = {
    "passModel": "LoadedModel.__init__", "setOptionValue": "LoadedModel.__init__",
    "changeColsCost": "linprog", "changeColsBounds": "linprog", "run": "linprog",
}
#: the calls that only read HiGHS, allowed anywhere
_HIGHS_READERS = {"getModelStatus", "getInfo", "getSolution", "modelStatusToString"}


class TestHighsBinding:
    def test_the_binding_has_every_call_the_solver_makes(self):
        # the binding is private to scipy, so no public API pins these names;
        # on the oldest scipy ssfp accepts this is the named check
        calls = {name for _, name in _highs_calls(solver.__file__)}
        assert {"passModel", "run", "changeColsBounds", "changeColsCost"} <= calls, calls
        highs = solver._Highs()
        missing = sorted(name for name in calls if not callable(getattr(highs, name, None)))
        assert not missing, missing

    def test_one_function_writes_each_change_into_highs(self):
        # LoadedModel.__init__ loads the model, and linprog alone passes
        # column changes and solves; any other call into HiGHS only reads it
        calls = _highs_calls(solver.__file__)
        stray = sorted(
            (scope, name) for scope, name in calls
            if _HIGHS_WRITERS.get(name, scope) != scope
            or name not in _HIGHS_WRITERS.keys() | _HIGHS_READERS
        )
        assert not stray, stray
        assert {(scope, name) for name, scope in _HIGHS_WRITERS.items()} <= calls, calls

    def test_import_does_not_import_scipy_optimize(self):
        code = (
            "import sys, ssfp\n"
            "print([m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse') "
            "if m in sys.modules])\n"
        )
        assert _run_python(code) == ["[]"]

    def test_a_later_scipy_import_shares_the_binding(self):
        code = (
            "import ssfp\n"
            "import scipy.optimize._highspy._core\n"
            "print(scipy.optimize._highspy._core._Highs is ssfp.solver._Highs)\n"
            "from scipy.optimize import LinearConstraint, linprog, milp\n"
            "print(linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method='highs').fun)\n"
            "print(milp([1, 2], integrality=[1, 1],\n"
            "           constraints=LinearConstraint([[1, 1]], 1.5, 10)).fun)\n"
            "print(ssfp.solve_milp(ssfp.build_do(ssfp.four_cycle_instance(), flow='d').milp).objective)\n"
        )
        assert _run_python(code) == ["True", "1.0", "2.0", "3.0"]

    def test_a_binding_scipy_loaded_first_is_reused(self):
        code = (
            "import importlib.machinery\n"
            "import scipy.optimize\n"
            "find, searched = importlib.machinery.PathFinder.find_spec, []\n"
            "def spy(name, path=None, target=None):\n"
            "    searched.append(name)\n"
            "    return find(name, path, target)\n"
            "importlib.machinery.PathFinder.find_spec = spy\n"
            "import ssfp.solver\n"
            "print(ssfp.solver._core is scipy.optimize._highspy._core)\n"
            "print('scipy.optimize._highspy._core' in searched)\n"
        )
        assert _run_python(code) == ["True", "False"]

    def test_a_missing_extension_names_the_scipy_version(self, tmp_path):
        # a scipy package whose optimize/_highspy directory holds no extension
        (tmp_path / "scipy" / "optimize" / "_highspy").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        code = (
            "import importlib.metadata\n"
            "try:\n"
            "    import ssfp\n"
            "except ImportError as err:\n"
            "    print(importlib.metadata.version('scipy') in str(err), '_Highs' in str(err))\n"
        )
        assert _run_python(code, tmp_path) == ["True", "True"]
