import math

import pytest

from ssfp.graph_core import (
    EdgePipeSet,
    Graph,
    Instance,
    PipeCatalog,
    TerminalGroups,
    TwoStageInstance,
)
from ssfp.instances import fig2_instance, four_cycle_instance, random_grid_instance
from ssfp.milp_core import MilpModel, relax
from ssfp.models import build_do
from ssfp.solver import (
    BnbConfig,
    BruteForceBudgetError,
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
