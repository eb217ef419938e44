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
)
from ssfp.instances import (
    SweepConfig,
    fig2_instance,
    four_cycle_instance,
    random_artificial,
    random_grid_instance,
)
from ssfp.milp_core import MilpModel, relax
from ssfp.models import ALL_KINDS, build_do, build_model
from ssfp.solver import (
    BnbConfig,
    BruteForceBudgetError,
    LpResult,
    SolverNumericalError,
    brute_force,
    solve_milp,
)


def tiny_two_stage(gamma: float = 5.0) -> TwoStageInstance:
    graph = Graph(2, ((1, 2),))
    catalog = PipeCatalog(1, ((gamma,),))
    groups = TerminalGroups(((1, 2),))
    first = Instance(graph, catalog, groups, frozenset({1}), frozenset({0}))
    scenario = Instance(graph, catalog, groups, frozenset({1}), frozenset({0}), 2.0)
    return TwoStageInstance(first, (scenario,), (1.0,))


class TestSolveLp:
    def test_simple_bound_problem(self):
        m = MilpModel()
        x = m.add_variable("x", "continuous", 0.0, 10.0, 1.0)
        m.add_constraint("lo", [(x, 1.0)], ">=", 3.0)
        sol = solve_milp(relax(m))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_infeasible_and_unbounded_detected(self):
        m = MilpModel()
        x = m.add_variable("x", "continuous", 0.0, 1.0)
        m.add_constraint("impossible", [(x, 1.0)], ">=", 2.0)
        assert solve_milp(relax(m)).status == "infeasible"
        m2 = MilpModel()
        m2.add_variable("x", "continuous", -math.inf, math.inf, -1.0)
        assert solve_milp(relax(m2)).status == "unbounded"

    def test_four_cycle_relaxation_value(self):
        lp = solve_milp(relax(build_do(four_cycle_instance(), flow="u").milp))
        assert lp.objective <= 2.0 + 1e-7

    def test_fig2_relaxation_equals_cheapest_path(self):
        # single commodity: the undirected relaxation is a min-cost flow, so
        # its value is the cheapest 8-22 path under min-over-pipes edge costs
        two_stage = fig2_instance()
        inst = two_stage.first_stage
        lp = solve_milp(relax(build_do(inst, flow="u").milp))
        assert lp.objective == pytest.approx(_cheapest_path(inst, 8, 22), abs=1e-7)


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
        for eid in inst.graph.incident[v]:
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
        built = build_do(four_cycle_instance(), flow="d")
        sol = solve_milp(built.milp, BnbConfig(node_limit=1))
        assert sol.status in ("optimal", "node_limit")
        if sol.status == "node_limit":
            assert sol.bound <= sol.objective

    def test_determinism(self):
        built = build_do(four_cycle_instance(), flow="u")
        a = solve_milp(built.milp)
        b = solve_milp(built.milp)
        assert a.objective == b.objective
        assert a.node_count == b.node_count
        assert a.values == b.values

    def test_infeasible_model(self):
        m = MilpModel()
        x = m.add_variable("b", "binary", objective=1.0)
        m.add_constraint("half", [(x, 2.0)], "=", 1.0)
        assert solve_milp(m).status == "infeasible"

    @pytest.mark.parametrize(
        "sense, rhs, status",
        [("<=", -1.0, "infeasible"), ("=", 1.0, "infeasible"), (">=", 1.0, "infeasible"),
         ("<=", 1.0, "optimal"), ("=", 0.0, "optimal")],
    )
    def test_empty_row_is_decided_by_the_lp(self, sense, rhs, status):
        # a constraint whose terms all cancel reaches HiGHS as a zero row
        m = MilpModel()
        x = m.add_variable("b", "binary", objective=1.0)
        m.add_constraint("cover", [(x, 1.0)], ">=", 1.0)
        m.add_constraint("empty", [(x, 1.0), (x, -1.0)], sense, rhs)
        assert m.constraints[1].terms == ()
        sol = solve_milp(m)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(1.0, abs=1e-9)
        else:
            assert (sol.objective, sol.bound, sol.values) == (math.inf, math.inf, {})


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
        hedged = brute_force(ts, "so", probabilities=(0.25, 0.75))
        assert hedged.objective == pytest.approx(4.0)

    def test_ro_mode_matches_milp_on_small_instances(self):
        from ssfp.models import build_model, ModelKind

        for seed in range(4):
            ts = random_grid_instance(
                2, 3, num_pipe_types=1, num_groups=1, terminals_per_group=2,
                num_scenarios=2, seed=seed,
            )
            oracle = brute_force(ts, "ro").objective
            sol = solve_milp(build_model(ModelKind("ro", "u"), ts).milp)
            assert sol.objective == pytest.approx(oracle, abs=1e-9)


def test_lp_bound_never_exceeds_milp_optimum():
    for seed in range(3):
        ts = random_grid_instance(
            2, 3, num_pipe_types=1, num_groups=1, terminals_per_group=2,
            num_scenarios=2, seed=seed,
        )
        for flow in ("u", "d"):
            built = build_do(ts.first_stage, flow=flow)
            lp = solve_milp(relax(built.milp))
            milp = solve_milp(built.milp)
            assert lp.objective <= milp.objective + 1e-7


class TestEmptyModel:
    """A model with no variables is decided without an LP; HiGHS would call
    it empty and solve nothing."""

    def test_no_variables_is_optimal_at_zero(self):
        m = MilpModel("empty")
        m.add_constraint("slack", [], "<=", 1.0)
        sol = solve_milp(m)
        assert (sol.status, sol.objective, sol.bound, sol.values) == ("optimal", 0.0, 0.0, {})
        assert solve_milp(MilpModel()).status == "optimal"

    @pytest.mark.parametrize("sense, rhs", [(">=", 1.0), ("=", -1.0), ("<=", -1.0)])
    def test_no_variables_and_a_row_excluding_zero_is_infeasible(self, sense, rhs):
        m = MilpModel("empty")
        m.add_constraint("fails", [], sense, rhs)
        sol = solve_milp(m)
        assert (sol.status, sol.objective, sol.bound, sol.values) == (
            "infeasible", math.inf, math.inf, {})


class TestModelData:
    @pytest.mark.parametrize("where", ["objective", "coefficient", "rhs"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_is_rejected(self, where, value):
        m = MilpModel("bad")
        x = m.add_variable("x", "continuous", 0.0, 1.0, value if where == "objective" else 1.0)
        m.add_constraint("c", [(x, value if where == "coefficient" else 1.0)], "<=",
                         value if where == "rhs" else 1.0)
        with pytest.raises(ValueError, match="'bad': .* must be finite"):
            solve_milp(m)

    def test_model_highs_refuses_raises(self):
        # HiGHS refuses matrix values of 1e15 and above
        m = MilpModel("huge")
        x = m.add_variable("b", "binary", objective=1.0)
        m.add_constraint("c", [(x, 1e300)], ">=", 1.0)
        with pytest.raises(SolverNumericalError, match="'huge': HiGHS rejected the model"):
            solve_milp(m)


# -- the warm HiGHS LP against the cold scipy linprog it replaced ------------

_COLD_STATUS = {0: HighsModelStatus.kOptimal, 2: HighsModelStatus.kInfeasible,
                3: HighsModelStatus.kUnbounded}


def _cold_form(model: MilpModel) -> dict:
    """The model as scipy's linprog takes it: ``>=`` rows negated into A_ub,
    ``=`` rows in A_eq."""
    rows = {"ub": ([], [], [0], []), "eq": ([], [], [0], [])}
    for con in model.constraints:
        sign = -1.0 if con.sense == ">=" else 1.0
        data, indices, indptr, rhs = rows["eq" if con.sense == "=" else "ub"]
        for h, coef in con.terms:
            indices.append(h)
            data.append(sign * coef)
        indptr.append(len(indices))
        rhs.append(sign * con.rhs)
    arrays = {"c": np.array([v.objective for v in model.variables])}
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
    form = solver._ArrayForm(model)
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


def _criterion_4_corpus():
    return [
        random_grid_instance(3, 3, num_pipe_types=1, num_groups=1 + seed % 2,
                             terminals_per_group=2 + (seed // 2) % 2, num_scenarios=2,
                             seed=seed)
        for seed in range(200)
    ]


class TestWarmLpMatchesColdLinprog:
    def test_criterion_4_corpus_and_fig2(self):
        # all six models of fig2; on the corpus, every instance with three of
        # the six models in turn, so each model meets 100 instances and the
        # cold reference LPs take about 20 s, not 40 s
        statuses = []
        for seed, ts in enumerate([fig2_instance()] + _criterion_4_corpus()):
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
        sol = solve_milp(_branching_model())
        assert sol.status == "optimal" and sol.node_count > 1
        assert len(calls) == sol.node_count
        assert all(isinstance(nit, int) for nit in calls) and sum(calls) > 0

    def test_solve_writes_nothing_to_stdout_or_stderr(self, capfd):
        capfd.readouterr()
        solve_milp(_branching_model())
        solve_milp(relax(_branching_model()))
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
