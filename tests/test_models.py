import hashlib
import math

import numpy as np
import pytest

from conftest import pilot_instance
from ssfp import solver
from ssfp.graph_core import EdgePipeSet, PipeCatalog, validate_feasible
from ssfp.instances import (
    SweepConfig,
    fig2_instance,
    four_cycle_instance,
    random_artificial,
    random_grid_instance,
)
from ssfp.milp_core import SENSES, MilpModel, export_lp
from ssfp.models import (
    ALL_KINDS,
    ModelKind,
    build_do,
    build_model,
    dominated_pipes,
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
        assert built.milp.num_variables == 2 + 2 * 2
        assert solve_milp(built.milp).objective == pytest.approx(3.0)

    def test_variable_count_formula_on_restricted_fig2(self, fig2):
        # same instance but diesel restricted to single-walled pipes:
        # 2 pipes x 49 edges of x plus 1 commodity x 1 pipe x 98 arcs of flow
        from dataclasses import replace

        restricted = replace(fig2.first_stage, feasible_pipes=frozenset({1}))
        built = build_do(restricted, flow="u")
        assert built.milp.num_variables == 2 * 49 + 1 * 1 * 98 == 196

    def test_existing_pairs_fixed_and_free(self, fig2, pair_set):
        route = pair_set(
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
        lp = solve_milp(built.milp, node_limit=1)
        # the opposing half-unit cycles of the undirected relaxation are cut off
        assert lp.root_bound >= 2.0 + 0.1

    def test_single_group_has_one_root_variable(self, fig2):
        built = build_do(fig2.first_stage, flow="d")
        z_names = [name for name in built.milp.col_names if name.startswith("z_")]
        assert z_names == ["z_1_1"]
        sol = solve_milp(built.milp)
        assert sol.x[built.milp.col_names.index("z_1_1")] == pytest.approx(1.0, abs=1e-6)


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
        ro = build_model(ModelKind("ro", "u"), ts).milp
        sol = solve_milp(ro)
        assert sol.objective == pytest.approx(do_obj, abs=1e-9)
        assert sol.x[ro.col_names.index("d")] == pytest.approx(0.0, abs=1e-6)

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
        retrofit = scenarios[1].pairs - first.pairs
        graph = fig2.first_stage.graph
        assert sorted((p, graph.endpoints(e)) for p, e in retrofit) == [(2, (26, 32))]
        assert len(scenarios[0].pairs - first.pairs) == 0

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
        for stage, x in enumerate(built.stage_x):
            for key, handle in x.items():
                by_stage.setdefault(key, {})[stage] = sol.x[handle]
        for values in by_stage.values():
            for s in (1, 2):
                assert values[s] >= values[0] - 1e-6


class TestSizeStats:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_counts_match_closed_forms_on_fig2(self, fig2, kind):
        built = build_model(kind, fig2)
        assert (built.milp.num_variables, built.milp.num_constraints) == expected_size(kind, fig2)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_counts_match_closed_forms_on_random_multigroup(self, kind):
        ts = random_grid_instance(
            3, 3, num_pipe_types=2, num_groups=3, terminals_per_group=2,
            num_scenarios=3, seed=11,
        )
        built = build_model(kind, ts)
        assert (built.milp.num_variables, built.milp.num_constraints) == expected_size(kind, ts)


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


def _stages(two_stage):
    return (two_stage.first_stage, *two_stage.scenarios)


class TestDominatedPipes:
    @pytest.mark.parametrize("num_pipe_types", [2, 3])
    def test_generator_keeps_only_the_cheapest_pipe(self, num_pipe_types):
        ts = random_grid_instance(
            3, 3, num_pipe_types=num_pipe_types, num_groups=2, terminals_per_group=2,
            num_scenarios=2, seed=0,
        )
        assert dominated_pipes(_stages(ts), ts.existing) == frozenset(range(2, num_pipe_types + 1))

    def test_artificial_settings_drop_pipe_two(self):
        for config in (SweepConfig(2, 1, 3), SweepConfig(4, 3, 5)):
            ts = random_artificial(config, 0)
            assert dominated_pipes(_stages(ts), ts.existing) == {2}

    def test_fig2_keeps_both_pipes(self, fig2):
        # the methanol scenario allows only pipe 2
        assert dominated_pipes(_stages(fig2), fig2.existing) == frozenset()

    def test_fig2_diesel_scenario_alone_drops_pipe_two(self, fig2):
        diesel = fig2.scenarios[0]
        assert dominated_pipes((diesel,), EdgePipeSet()) == {2}
        installed = EdgePipeSet(frozenset({(1, 0), (1, 5)}))
        assert dominated_pipes((diesel,), installed) == {2}

    def test_an_existing_pipe_two_pair_keeps_pipe_two(self, fig2):
        assert dominated_pipes((fig2.scenarios[0],), EdgePipeSet(frozenset({(2, 3)}))) == frozenset()

    def test_of_two_equal_pipes_exactly_one_is_kept(self, fig2):
        from dataclasses import replace

        graph = fig2.first_stage.graph
        catalog = PipeCatalog(2, ((1.0,) * graph.num_edges,) * 2)
        stage = replace(fig2.scenarios[0], pipes=catalog)
        dropped = dominated_pipes((stage,), EdgePipeSet())
        assert len(dropped) == 1
        reduced = build_do(stage.without_pipes(dropped), flow="d")
        assert solve_milp(reduced.milp).objective == pytest.approx(
            solve_milp(build_do(stage, flow="d").milp).objective, abs=1e-9
        )

    def test_a_cheaper_pipe_that_is_not_feasible_everywhere_keeps_the_dearer(self, fig2):
        from dataclasses import replace

        first = replace(fig2.first_stage, feasible_pipes=frozenset({1}))
        diesel_two = replace(fig2.scenarios[0], feasible_pipes=frozenset({2}))
        assert dominated_pipes((first, diesel_two), EdgePipeSet()) == frozenset()
        # pipe 2 feasible in no stage: nothing needs it
        assert dominated_pipes((first,), EdgePipeSet()) == {2}

    def test_stages_must_share_one_catalog(self, fig2):
        from dataclasses import replace

        graph = fig2.first_stage.graph
        other = replace(fig2.first_stage, pipes=PipeCatalog(2, ((3.0,) * graph.num_edges,) * 2))
        with pytest.raises(ValueError, match="one pipe catalog"):
            dominated_pipes((fig2.first_stage, other), EdgePipeSet())


def _grid_3x3_three_groups():
    return random_grid_instance(
        3, 3, num_pipe_types=2, num_groups=3, terminals_per_group=2,
        num_scenarios=3, seed=11,
    )


def _fig2_recourse(scenario: int):
    # the model evaluate_under solves: one scenario with DO-D's plan installed
    fig2 = fig2_instance()
    do_d = build_do(fig2.first_stage, fig2.existing, "d")
    first, _ = do_d.extract_sets(solve_milp(do_d.milp))
    return build_do(fig2.scenarios[scenario], first, "d")


_KIND = {k.label: k for k in ALL_KINDS}

#: sha256 of export_lp per model.  Column, row and term order and every
#: name are part of the exported bytes, so these pin the builders exactly.
EXPORT_SHA256 = {
    "fig2 DO-U": "007c094d91ab0bc5a49072b0c0c50dab608445ce4673042b844e37d69d73c1b7",
    "fig2 DO-D": "72942de75ef7c62b411de04231bdbb921c8804f0f7af15090528ca4bad621419",
    "fig2 RO-U": "810429558599e7586d36fb8154f29fb56052e39121e9c267d0d6a077dbacda0c",
    "fig2 RO-D": "c6d4d2b193f424330650f02acaab2b3ae121a9c99475c8c0da414781f77714db",
    "fig2 SO-U": "f1fd35e5aaee68029034f14dc32c6e58392be6a3a40ff66c7af70ebc57d55f34",
    "fig2 SO-D": "5dd210a3049dd0dafa9b24231cfc3c78f72c878d5d667b3b31043a7064b82951",
    "four-cycle DO-U": "07fe4b137005807f11ff6d24e1a2de0438369d0cf5a06dd8b230b3504692fd98",
    "four-cycle DO-D": "61bc62601318a8a56eeeb08a494fa60a8506f5922bf314ab46fb33d9da182b64",
    "grid3x3g3 DO-U": "efb46d5b2e7db03baf034a1cb6cd6b785f4a17296addd25ed905c75a97eb630f",
    "grid3x3g3 DO-D": "6f95e4321820e4244ccacbc84f166b78a61d967be92a2572e80c19e3557e8435",
    "grid3x3g3 RO-U": "24e1af6441b350cbb22f38bf22404242df4999fbadc786c39887beb8edd5148d",
    "grid3x3g3 RO-D": "05f84913f349d87f6cd6cc2210b3329ec9ee8924a5d17330fff0bb997835132b",
    "grid3x3g3 SO-U": "7ec27c92dbf03d04995102908ee0faacd9fc9787c3a5d7de23b11e268b60369d",
    "grid3x3g3 SO-D": "3c1812f040a960dd337039fab38a029ac3a72dd61e0cc70499dfcf15bb2a38e9",
    "fig2-recourse s1": "d30a298b0d4471b902c20df419236c3e3dd60a747bbcb5c67668154269ad2732",
    "fig2-recourse s2": "fc0bbb576739e17bb7c46c6224b899aa3b0f99dae99f0ed5b7045b0b1b7efb27",
}


def _pinned_model(case: str):
    source, _, label = case.partition(" ")
    if source == "fig2-recourse":
        return _fig2_recourse(int(label[1:]) - 1)
    if source == "four-cycle":
        return build_do(four_cycle_instance(), flow=label[-1].lower())
    instance = fig2_instance() if source == "fig2" else _grid_3x3_three_groups()
    return build_model(_KIND[label], instance)


@pytest.mark.parametrize("case", sorted(EXPORT_SHA256))
def test_export_bytes_are_pinned(case):
    text = export_lp(_pinned_model(case).milp)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[case]


def _hand_made_model():
    m = MilpModel("hand-made")
    (x,) = m.add_columns(["x"], "binary", objective=1.0)
    (y,) = m.add_columns(["y"], "continuous", -2.0, 3.5, -0.5)
    (z,) = m.add_columns(["z"], "continuous", -math.inf, math.inf)
    m.add_rows([("repeated", [y, x, z], [1.5, 2.0, -1.0], 1.0)], ">=")
    m.add_rows([("cancelling", [y], [3.0], 4.0)], "<=")
    m.add_rows([("empty", [], [], 0.0)], "=")
    m.add_rows([("all_cancel", [], [], 2.0)], "<=")
    return m


def _installed_recourse():
    """A recourse instance with pairs of both pipe types installed, and its model."""
    two_stage = pilot_instance(0)
    installed = EdgePipeSet(frozenset({(1, 0), (1, 1), (2, 4)}))
    return two_stage.scenarios[0], build_do(two_stage.scenarios[0], installed, "d")


def _recourse_with_installed_pairs():
    return _installed_recourse()[1].milp


@pytest.mark.parametrize("case", [f"fig2 {kind.label}" for kind in ALL_KINDS] + ["recourse"])
def test_stage_x_holds_exactly_the_x_columns_under_their_keys(case):
    """The handles in ``stage_x`` are the columns named ``x_*``, and each
    handle's (stage, pipe, edge) is the one its name spells."""
    if case == "recourse":
        instance, built = _installed_recourse()
    else:
        instance, built = fig2_instance().first_stage, _pinned_model(case)
    assert len(built.stage_x) == (1 if case == "recourse" or "DO" in case else 3)
    spelled = {}
    for stage, x in enumerate(built.stage_x):
        suffix = f"_s{stage}" if stage else ""
        for (p, edge), handle in x.items():
            u, v = instance.graph.endpoints(edge)
            spelled[handle] = f"x_{p}_{u}_{v}{suffix}"
    names = built.milp.col_names
    assert spelled == {h: name for h, name in enumerate(names) if name.startswith("x_")}


def _reference_load(model):
    """The arrays HiGHS is loaded with, by a loop over the columns and one
    over the rows and their terms, each row's bounds taken from its sense."""
    data, indices, indptr, row_lower, row_upper = [], [], [0], [], []
    start = model.row_start
    for i, (sense, rhs) in enumerate(zip(model.row_sense, model.row_rhs)):
        for k in range(start[i], start[i + 1]):
            indices.append(model.row_index[k])
            data.append(model.row_coef[k])
        indptr.append(len(indices))
        row_lower.append(-math.inf if SENSES[sense] == "<=" else rhs)
        row_upper.append(math.inf if SENSES[sense] == ">=" else rhs)
    return {
        "col_cost": np.array(list(model.col_cost), dtype=float),
        "col_lower": np.array(list(model.col_lower), dtype=float),
        "col_upper": np.array(list(model.col_upper), dtype=float),
        "binary": np.array([flag == 1 for flag in model.col_binary], dtype=bool),
        "row_lower": np.array(row_lower, dtype=float),
        "row_upper": np.array(row_upper, dtype=float),
        "start": np.array(indptr, dtype=np.int32),
        "index": np.array(indices, dtype=np.int32),
        "value": np.array(data, dtype=float),
    }


@pytest.mark.parametrize("case", sorted(EXPORT_SHA256) + ["recourse", "hand-made"])
def test_highs_load_matches_a_loop_over_the_records(monkeypatch, highs_reads_back, case):
    """What ``LoadedModel`` hands to HiGHS, read back from the ``HighsLp`` it
    passes, equals the reference loop's arrays element for element."""
    if case == "recourse":
        model = _recourse_with_installed_pairs()
    elif case == "hand-made":
        model = _hand_made_model()
    else:
        model = _pinned_model(case).milp
    passed = []
    highs_lp = solver.HighsLp

    def recording_lp():
        passed.append(highs_lp())
        return passed[-1]

    monkeypatch.setattr(solver, "HighsLp", recording_lp)
    form = solver.LoadedModel(model)
    (lp,) = passed
    assert (lp.num_col_, lp.num_row_) == (model.num_variables, model.num_constraints)
    assert lp.a_matrix_.format_ == solver.MatrixFormat.kRowwise
    loaded = {
        "col_cost": lp.col_cost_, "col_lower": lp.col_lower_, "col_upper": lp.col_upper_,
        "binary": form.binary, "row_lower": lp.row_lower_, "row_upper": lp.row_upper_,
        "start": lp.a_matrix_.start_, "index": lp.a_matrix_.index_, "value": lp.a_matrix_.value_,
    }
    for key, expected in _reference_load(model).items():
        np.testing.assert_array_equal(np.asarray(loaded[key], dtype=expected.dtype), expected,
                                      err_msg=key)
    highs_reads_back(model)


def _installed_cases():
    """(scenario, installed pairs) of the recourse solves: pilot pairs of
    pipe 1 only, with pipe 2 dropped, and with a pipe-2 pair, which keeps
    it; pilot pairs on top of existing pairs; fig2's DO-D plan in both
    scenarios, the methanol one allowing pipe 2 only."""
    from dataclasses import replace

    pilot = pilot_instance(0)
    only_pipe_1 = EdgePipeSet(frozenset({(1, 0), (1, 3), (1, 7)}))
    with_pipe_2 = EdgePipeSet(frozenset({(1, 0), (2, 3)}))
    existing = replace(pilot, existing=EdgePipeSet(frozenset({(1, 5), (2, 9)})))
    fig2 = fig2_instance()
    do_d = build_do(fig2.first_stage, fig2.existing, "d")
    plan = do_d.extract_sets(solve_milp(do_d.milp))[0] | fig2.existing
    return {
        "pilot pipe 1": (pilot.scenarios[0], only_pipe_1),
        "pilot pipe 2": (pilot.scenarios[1], with_pipe_2),
        "pilot existing": (existing.scenarios[0], only_pipe_1 | existing.existing),
        "fig2 diesel": (fig2.scenarios[0], plan),
        "fig2 methanol": (fig2.scenarios[1], plan),
    }


def _held_lp(loaded):
    """The LP HiGHS holds for ``loaded``, as plain lists."""
    lp = loaded.highs.getLp()
    matrix = lp.a_matrix_
    return {
        "size": (lp.num_col_, lp.num_row_),
        "col_lower": list(lp.col_lower_), "col_upper": list(lp.col_upper_),
        "col_cost": list(lp.col_cost_), "integrality": list(lp.integrality_),
        "row_lower": list(lp.row_lower_), "row_upper": list(lp.row_upper_),
        "matrix": (matrix.format_, list(matrix.start_), list(matrix.index_), list(matrix.value_)),
    }


@pytest.mark.parametrize("flow", ["d", "u"])
@pytest.mark.parametrize("case", sorted(_installed_cases()))
def test_a_model_with_pairs_installed_equals_a_build_with_them_existing(case, flow):
    """The recourse table loads each scenario into HiGHS once with nothing
    installed and lays the installed pairs in the loaded model: the LP that
    HiGHS holds after the root solve must be the LP of a fresh build with
    those pairs existing, and the table's own model must stay as it was."""
    scenario, installed = _installed_cases()[case]
    dropped = dominated_pipes((scenario,), installed)
    assert dropped == ({2} if case in ("pilot pipe 1", "fig2 diesel") else set()), dropped
    reduced = scenario.without_pipes(dropped)
    bare = build_do(reduced, EdgePipeSet(), flow)
    text = export_lp(bare.milp)
    fresh = build_do(reduced, installed, flow).milp
    loaded = solver.LoadedModel(bare.milp)
    loaded.install([bare.stage_x[0][pair] for pair in installed])
    solve_milp(loaded, node_limit=1)  # HiGHS holds the root LP: the columns as laid
    assert _held_lp(loaded) == _held_lp(solver.LoadedModel(fresh))
    assert export_lp(bare.milp) == text
    assert solve_milp(loaded).objective == solve_milp(fresh).objective
