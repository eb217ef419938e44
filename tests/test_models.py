import pytest

from ssfp.graph_core import EdgePipeSet, validate_feasible
from ssfp.instances import fig2_instance, four_cycle_instance, random_grid_instance
from ssfp.milp_core import relax
from ssfp.models import (
    ALL_KINDS,
    ModelKind,
    build_do,
    build_model,
    expected_size,
)
from ssfp.solver import brute_force, solve_milp


@pytest.fixture(scope="module")
def fig2():
    return fig2_instance()


class TestModelKind:
    def test_six_cells(self):
        assert len(ALL_KINDS) == 6
        assert ModelKind("do", "u").label == "DO-U"
        with pytest.raises(ValueError):
            ModelKind("xx", "u")
        with pytest.raises(ValueError):
            ModelKind("do", "z")


class TestDoU:
    def test_fig2_optimum_is_four(self, fig2):
        built = build_do(fig2.first_stage, flow="u")
        assert solve_milp(built.milp).objective == pytest.approx(4.0, abs=1e-9)

    def test_single_edge_instance_picks_cheapest_pipe(self):
        from ssfp.graph_core import Graph, Instance, PipeCatalog, TerminalGroups

        graph = Graph(2, ((1, 2),))
        catalog = PipeCatalog(2, ((3.0,), (6.0,)))
        inst = Instance(
            graph, catalog, TerminalGroups(((1, 2),)), frozenset({1, 2}), frozenset({0})
        )
        built = build_do(inst, flow="u")
        # one x per pipe type plus two flow arcs per feasible pipe
        assert built.num_variables == 2 + 2 * 2
        assert solve_milp(built.milp).objective == pytest.approx(3.0)

    def test_variable_count_formula_on_restricted_fig2(self, fig2):
        # same instance but diesel restricted to single-walled pipes:
        # 2 pipes x 49 edges of x plus 1 commodity x 1 pipe x 98 arcs of flow
        from dataclasses import replace

        restricted = replace(fig2.first_stage, feasible_pipes=frozenset({1}))
        built = build_do(restricted, flow="u")
        assert built.num_variables == 2 * 49 + 1 * 1 * 98 == 196

    def test_existing_pairs_fixed_and_free(self, fig2):
        route = EdgePipeSet.from_vertex_pairs(
            fig2.first_stage.graph,
            [(1, (8, 9)), (1, (9, 10)), (1, (10, 16)), (1, (16, 22))],
        )
        built = build_do(fig2.first_stage, route, flow="u")
        sol = solve_milp(built.milp)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)


class TestDoD:
    def test_fig2_matches_undirected(self, fig2):
        assert solve_milp(build_do(fig2.first_stage, flow="d").milp).objective == pytest.approx(
            4.0, abs=1e-9
        )

    def test_four_cycle_directed_lp_is_tight(self):
        built = build_do(four_cycle_instance(), flow="d")
        assert solve_milp(built.milp).objective == pytest.approx(3.0, abs=1e-9)
        lp = solve_milp(relax(built.milp))
        # the opposing half-unit cycles of the undirected relaxation are cut off
        assert lp.objective >= 2.0 + 0.1

    def test_single_group_has_one_root_variable(self, fig2):
        built = build_do(fig2.first_stage, flow="d")
        z_names = [v.name for v in built.milp.variables if v.name.startswith("z_")]
        assert z_names == ["z_1_1"]
        sol = solve_milp(built.milp)
        assert sol.values["z_1_1"] == pytest.approx(1.0, abs=1e-6)


class TestTwoStageBuilders:
    def test_fig2_ro_optimum_eleven(self, fig2):
        for flow in ("u", "d"):
            built = build_model(ModelKind("ro", flow), fig2)
            assert solve_milp(built.milp).objective == pytest.approx(11.0, abs=1e-9)

    def test_single_identical_scenario_means_no_retrofit(self):
        from dataclasses import replace

        from ssfp.graph_core import TwoStageInstance

        base = random_grid_instance(
            2, 2, num_pipe_types=1, num_groups=1, terminals_per_group=2,
            num_scenarios=1, seed=3,
        )
        mirror = replace(base.first_stage, cost_multiplier=2.0)
        ts = TwoStageInstance(base.first_stage, (mirror,), (1.0,))
        do_obj = solve_milp(build_do(ts.first_stage, ts.existing, "u").milp).objective
        sol = solve_milp(build_model(ModelKind("ro", "u"), ts).milp)
        assert sol.objective == pytest.approx(do_obj, abs=1e-9)
        assert sol.values["d"] == pytest.approx(0.0, abs=1e-6)

    def test_fig2_so_values_across_probabilities(self, fig2):
        expected = {0.0: 4.0, 0.45: 10.8, 0.5: 11.0, 1.0: 11.0}
        for rho2, value in expected.items():
            for flow in ("u", "d"):
                built = build_model(ModelKind("so", flow), fig2.with_probabilities((1.0 - rho2, rho2)))
                assert solve_milp(built.milp).objective == pytest.approx(value, abs=1e-9)

    def test_so_at_point_45_hedges_with_one_retrofit_pipe(self, fig2):
        # the optimal plan invests 9 up front (three single- plus three
        # double-walled pipes) and retrofits a single double-walled pipe
        # from 26 to 32 if the methanol scenario arrives
        from ssfp.graph_core import cost

        built = build_model(ModelKind("so", "d"), fig2.with_probabilities((0.55, 0.45)))
        sol = solve_milp(built.milp)
        assert sol.objective == pytest.approx(10.8, abs=1e-9)
        first, scenarios = built.extract_sets(sol)
        assert cost(fig2.first_stage, fig2.existing, first) == pytest.approx(9.0)
        retrofit = scenarios[1] - first
        graph = fig2.first_stage.graph
        assert sorted((p, graph.endpoints(e)) for p, e in retrofit.pairs) == [(2, (26, 32))]
        assert len(scenarios[0] - first) == 0

    @pytest.mark.parametrize(
        "optimization, scenarios, probabilities, message",
        [
            ("ro", False, None, "robust model needs at least one scenario"),
            ("so", False, None, "stochastic model needs at least one scenario"),
            ("so", True, (1.0,), "need one probability per scenario"),
        ],
        ids=["ro-no-scenarios", "so-no-scenarios", "so-wrong-probability-count"],
    )
    def test_two_stage_input_checks(self, fig2, optimization, scenarios, probabilities, message):
        from ssfp.graph_core import TwoStageInstance

        ts = fig2 if scenarios else TwoStageInstance(fig2.first_stage, (), ())
        with pytest.raises(ValueError, match=message):
            if probabilities is not None:
                ts = ts.with_probabilities(probabilities)
            build_model(ModelKind(optimization, "u"), ts)

    def test_scenario_linking_holds_in_solutions(self, fig2):
        built = build_model(ModelKind("so", "u"), fig2)
        sol = solve_milp(built.milp)
        by_stage = {}
        for name, (stage, pipe, edge) in built.x_map.items():
            by_stage.setdefault((pipe, edge), {})[stage] = sol.values[name]
        for values in by_stage.values():
            for s in (1, 2):
                assert values[s] >= values[0] - 1e-6


class TestSizeStats:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_counts_match_closed_forms_on_fig2(self, fig2, kind):
        built = build_model(kind, fig2)
        assert (built.num_variables, built.num_constraints) == expected_size(kind, fig2)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_counts_match_closed_forms_on_random_multigroup(self, kind):
        ts = random_grid_instance(
            3, 3, num_pipe_types=2, num_groups=3, terminals_per_group=2,
            num_scenarios=3, seed=11,
        )
        built = build_model(kind, ts)
        assert (built.num_variables, built.num_constraints) == expected_size(kind, ts)


class TestSolutionExtraction:
    def test_extracted_solutions_validate(self, fig2):
        for kind in ALL_KINDS:
            built = build_model(kind, fig2)
            sol = solve_milp(built.milp)
            first, scenarios = built.extract_sets(sol)
            assert validate_feasible(fig2.first_stage, first)
            for scen_inst, scen_set in zip(fig2.scenarios, scenarios):
                assert validate_feasible(scen_inst, scen_set)

    def test_formulations_agree_with_oracle_on_small_grids(self):
        for seed in (0, 5):
            ts = random_grid_instance(
                3, 3, num_pipe_types=1, num_groups=2, terminals_per_group=2,
                num_scenarios=2, seed=seed,
            )
            for mode in ("do", "ro", "so"):
                oracle = brute_force(ts, mode).objective
                for flow in ("u", "d"):
                    built = build_model(ModelKind(mode, flow), ts)
                    assert solve_milp(built.milp).objective == pytest.approx(
                        oracle, abs=1e-9
                    ), f"{mode}-{flow} seed {seed}"
