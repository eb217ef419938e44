import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssfp.graph_core import (
    EdgePipeSet,
    Graph,
    InfeasibleInstanceError,
    Instance,
    PipeCatalog,
    TerminalGroups,
    TwoStageInstance,
    ValidationError,
    cost,
    first_disconnected,
    validate_feasible,
)
from ssfp.instances import fig2_instance, load_instance, save_instance


@pytest.fixture(scope="module")
def fig2():
    return fig2_instance()


class TestGraph:
    def test_rejects_self_loops_and_reversed_edges(self):
        with pytest.raises(ValidationError):
            Graph(3, ((1, 1),))
        with pytest.raises(ValidationError):
            Graph(3, ((2, 1),))
        with pytest.raises(ValidationError):
            Graph(3, ((1, 2), (1, 2)))
        with pytest.raises(ValidationError):
            Graph(3, ((1, 4),))

    def test_edge_id_normalizes_orientation(self):
        g = Graph(3, ((1, 2), (2, 3)))
        assert g.edge_id(2, 1) == 0
        with pytest.raises(ValidationError):
            g.edge_id(1, 3)


class TestPipeCatalog:
    def test_positive_costs_required(self):
        with pytest.raises(ValidationError):
            PipeCatalog(1, ((1.0, 0.0),))

    def test_infinite_cost_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            PipeCatalog(1, ((1.0, math.inf),))

    def test_row_shape_checked(self):
        with pytest.raises(ValidationError):
            PipeCatalog(2, ((1.0,),))


class TestTerminalGroups:
    def test_roots_are_minimum_index(self):
        groups = TerminalGroups(((22, 8), (32, 9)))
        assert groups.roots == (8, 9)
        assert groups.group_of == {8: 0, 22: 0, 9: 1, 32: 1}

    def test_rejects_singletons_and_overlap(self):
        with pytest.raises(ValidationError):
            TerminalGroups(((5,),))
        with pytest.raises(ValidationError):
            TerminalGroups(((1, 2), (2, 3)))

    def test_non_root_terminals(self):
        groups = TerminalGroups(((1, 4), (2, 5)))
        assert groups.non_root_terminals() == (4, 5)


class TestInstanceValidation:
    def test_disconnected_group_rejected_at_load(self):
        g = Graph(4, ((1, 2), (3, 4)))
        cat = PipeCatalog(1, ((1.0, 1.0),))
        with pytest.raises(InfeasibleInstanceError):
            Instance(g, cat, TerminalGroups(((1, 4),)), frozenset({1}), frozenset({0, 1}))

    def test_empty_feasible_sets_rejected(self):
        g = Graph(2, ((1, 2),))
        cat = PipeCatalog(1, ((1.0,),))
        with pytest.raises(ValidationError):
            Instance(g, cat, TerminalGroups(((1, 2),)), frozenset(), frozenset({0}))
        with pytest.raises(ValidationError):
            Instance(g, cat, TerminalGroups(((1, 2),)), frozenset({1}), frozenset())

    @pytest.mark.parametrize("stage", [0, 1])
    def test_infinite_multiplier_rejected(self, fig2, stage):
        inst = fig2.first_stage if stage == 0 else fig2.scenarios[0]
        with pytest.raises(ValidationError, match="finite"):
            dataclasses.replace(inst, cost_multiplier=math.inf)

    def test_probabilities_must_sum_to_one(self, fig2):
        with pytest.raises(ValidationError):
            TwoStageInstance(fig2.first_stage, fig2.scenarios, (0.6, 0.6))

    @pytest.mark.parametrize("probabilities", [(math.nan, math.nan), (0.5, math.nan)])
    def test_nan_probabilities_rejected(self, fig2, probabilities):
        with pytest.raises(ValidationError, match="nan"):
            fig2.with_probabilities(probabilities)

    def test_scenario_multiplier_must_exceed_one(self, fig2):
        with pytest.raises(ValidationError):
            TwoStageInstance(fig2.first_stage, (fig2.first_stage,), (1.0,))


def _path_instance(multiplier=1.0):
    """Vertices 1-2-3 on a path, one pipe type, the group {1, 3}."""
    graph = Graph(3, ((1, 2), (2, 3)))
    catalog = PipeCatalog(1, ((1.0, 2.0),))
    return Instance(
        graph, catalog, TerminalGroups(((1, 3),)), frozenset({1}), frozenset({0, 1}), multiplier
    )


class TestInputRule:
    """Ids and counts must be integers and costs, multipliers and
    probabilities numbers, of any numeric type but ``bool``.  A value that
    breaks the rule is refused, never rounded or parsed."""

    @pytest.mark.parametrize("make, field, value", [
        (lambda: Graph(4, ((1.7, 2),)), "edge endpoint", 1.7),
        (lambda: Graph(3, ((True, 2),)), "edge endpoint", True),
        (lambda: Graph(3.0, ((1, 2),)), "num_vertices", 3.0),
        (lambda: PipeCatalog(1, (("3",),)), "pipe cost", "3"),
        (lambda: PipeCatalog(2.0, ((1.0,), (2.0,))), "num_pipe_types", 2.0),
        (lambda: TerminalGroups(((1, 2.5),)), "terminal", 2.5),
        (lambda: EdgePipeSet({(1, 2.7)}), "edge id", 2.7),
        (lambda: EdgePipeSet({(True, 0)}), "pipe id", True),
        (lambda: dataclasses.replace(_path_instance(), feasible_pipes={1.0}),
         "feasible_pipes", 1.0),
        (lambda: dataclasses.replace(_path_instance(), admissible_edges={0, "1"}),
         "admissible_edges", "1"),
        (lambda: _path_instance("2"), "cost multiplier", "2"),
        (lambda: fig2_instance().with_probabilities(("0.5", 0.5)), "probability", "0.5"),
    ], ids=[
        "float-endpoint", "bool-endpoint", "float-vertex-count", "string-cost",
        "float-pipe-count", "float-terminal", "float-edge-id", "bool-pipe-id",
        "float-feasible-pipe", "string-admissible-edge", "string-multiplier",
        "string-probability",
    ])
    def test_a_value_of_the_wrong_kind_is_refused(self, make, field, value):
        kind = "a number" if field in ("pipe cost", "cost multiplier", "probability") else (
            "an integer"
        )
        with pytest.raises(ValidationError) as err:
            make()
        assert str(err.value) == f"{field} must be {kind}, not {value!r}"

    @pytest.mark.parametrize("make, field, value", [
        (lambda: Graph(3, ((1, 2, 3),)), "edge", (1, 2, 3)),
        (lambda: Graph(3, ((1,),)), "edge", (1,)),
        (lambda: Graph(3, (7,)), "edge", 7),
        (lambda: EdgePipeSet(frozenset({(1, 2, 3)})), "pipe-edge pair", (1, 2, 3)),
        (lambda: EdgePipeSet(frozenset({(1,)})), "pipe-edge pair", (1,)),
    ], ids=["long-edge", "short-edge", "int-edge", "long-pair", "short-pair"])
    def test_an_edge_or_pair_without_two_entries_is_refused(self, make, field, value):
        with pytest.raises(ValidationError) as err:
            make()
        assert str(err.value) == f"{field} must have two entries, not {value!r}"

    def test_numpy_values_are_stored_plain_and_round_trip(self, tmp_path):
        graph = Graph(np.int64(3), ((np.int64(1), np.int32(2)), (2, np.uint8(3))))
        catalog = PipeCatalog(np.int64(1), ((np.float64(1.5), np.float32(2.0)),))

        def stage(multiplier):
            return Instance(
                graph, catalog, TerminalGroups(((np.int64(3), 1),)),
                frozenset({np.int64(1)}), frozenset(np.arange(2)), multiplier,
            )

        two_stage = TwoStageInstance(
            stage(np.float64(1.0)), (stage(np.int64(2)),), (np.float64(1.0),),
            EdgePipeSet({(np.int64(1), np.int64(0))}),
        )
        first = two_stage.first_stage
        ints = [graph.num_vertices, *(v for edge in graph.edges for v in edge),
                catalog.num_pipe_types, *first.terminals.groups[0], *first.feasible_pipes,
                *first.admissible_edges, *(i for pair in two_stage.existing for i in pair)]
        floats = [*catalog.base_costs[0], first.cost_multiplier,
                  two_stage.scenarios[0].cost_multiplier, *two_stage.probabilities]
        assert {type(v) for v in ints} == {int} and {type(v) for v in floats} == {float}
        assert graph.edges == ((1, 2), (2, 3)) and catalog.base_costs == ((1.5, 2.0),)
        path = tmp_path / "numpy.json"
        save_instance(two_stage, path)
        assert load_instance(path) == two_stage


class TestWithoutPipes:
    def test_instance_keeps_everything_but_the_pipes(self, fig2):
        first = fig2.first_stage
        reduced = first.without_pipes(frozenset({2}))
        assert reduced.feasible_pipes == {1}
        assert reduced.graph is first.graph and reduced.pipes is first.pipes
        assert reduced.terminals == first.terminals
        assert reduced.admissible_edges == first.admissible_edges
        assert reduced.cost_multiplier == first.cost_multiplier
        assert reduced.label == first.label == "diesel"

    def test_two_stage_instance_maps_every_stage(self):
        from ssfp.instances import random_grid_instance

        ts = dataclasses.replace(
            random_grid_instance(
                3, 3, num_pipe_types=3, num_groups=2, terminals_per_group=2,
                num_scenarios=2, seed=0,
            ),
            existing=EdgePipeSet(frozenset({(1, 0)})),
        )
        reduced = ts.without_pipes(frozenset({2, 3}))
        assert reduced.probabilities == ts.probabilities and reduced.existing == ts.existing
        stages = zip((ts.first_stage, *ts.scenarios), (reduced.first_stage, *reduced.scenarios))
        for old, new in stages:
            assert new == old.without_pipes(frozenset({2, 3}))
            assert new.feasible_pipes == {1} and new.graph is old.graph

    def test_no_pipes_is_the_same_object(self, fig2):
        assert fig2.first_stage.without_pipes(frozenset()) is fig2.first_stage
        assert fig2.without_pipes(frozenset()) is fig2

    def test_dropping_the_only_pipe_of_a_stage_raises(self, fig2):
        methanol = fig2.scenarios[1]
        with pytest.raises(ValidationError, match="feasible pipe set is empty"):
            methanol.without_pipes(frozenset({2}))
        with pytest.raises(ValidationError, match="feasible pipe set is empty"):
            fig2.without_pipes(frozenset({2}))


class TestCost:
    def test_empty_solution_costs_nothing(self, fig2):
        assert cost(fig2.first_stage, EdgePipeSet(), EdgePipeSet()) == 0.0

    def test_deterministic_route_costs_four(self, fig2, pair_set):
        route = pair_set(
            fig2.first_stage.graph, [(1, (8, 9)), (1, (9, 10)), (1, (10, 16)), (1, (16, 22))]
        )
        assert cost(fig2.first_stage, EdgePipeSet(), route) == 4.0

    def test_second_stage_increment_of_third_route(self, fig2, pair_set):
        # hedged first stage from the worked example, then one double-walled
        # pipe added under the methanol scenario at doubled prices
        graph = fig2.first_stage.graph
        first = pair_set(
            graph,
            [(1, (26, 27)), (1, (27, 28)), (1, (22, 28)),
             (2, (8, 14)), (2, (14, 20)), (2, (20, 26))],
        )
        methanol = fig2.scenarios[1]
        addition = pair_set(graph, [(2, (26, 32))]) | first
        assert cost(methanol, first, addition) == 4.0

    def test_existing_pairs_are_free(self, fig2, pair_set):
        graph = fig2.first_stage.graph
        route = pair_set(graph, [(1, (8, 9)), (1, (9, 10))])
        assert cost(fig2.first_stage, route, route) == 0.0

    def test_invalid_ids_rejected(self, fig2):
        with pytest.raises(ValidationError):
            cost(fig2.first_stage, EdgePipeSet(), EdgePipeSet(frozenset({(9, 0)})))
        with pytest.raises(ValidationError):
            cost(fig2.first_stage, EdgePipeSet(), EdgePipeSet(frozenset({(1, 999)})))


class TestValidateFeasible:
    def test_deterministic_route_is_feasible(self, fig2, pair_set):
        route = pair_set(
            fig2.first_stage.graph, [(1, (8, 9)), (1, (9, 10)), (1, (10, 16)), (1, (16, 22))]
        )
        assert validate_feasible(fig2.first_stage, route)

    def test_empty_solution_is_infeasible(self, fig2):
        result = validate_feasible(fig2.first_stage, EdgePipeSet())
        assert not result
        assert "not connected" in result.detail

    def test_infeasible_pipe_types_are_ignored(self, fig2, pair_set):
        # single-walled pipes along 8-14-20-26-32 cannot carry the methanol
        # connection, which allows double-walled pipes only
        methanol = fig2.scenarios[1]
        route = pair_set(
            methanol.graph,
            [(1, (8, 14)), (1, (14, 20)), (1, (20, 26)), (1, (26, 32))],
        )
        assert not validate_feasible(methanol, route)
        doubled = pair_set(
            methanol.graph,
            [(2, (8, 14)), (2, (14, 20)), (2, (20, 26)), (2, (26, 32))],
        )
        assert validate_feasible(methanol, doubled)


class TestConnectivity:
    def test_group_connected_through_admissible_edges(self, fig2):
        inst = fig2.first_stage
        group = inst.terminals.groups[0]
        assert first_disconnected(inst.graph, (group,), inst.admissible_edges) is None

    def test_no_edges_means_disconnected(self):
        g = Graph(3, ((1, 2), (2, 3)))
        assert first_disconnected(g, ((1, 3),), []) is not None

    def test_single_vertex_is_vacuously_connected(self):
        g = Graph(3, ((1, 2),))
        assert first_disconnected(g, ((3,),), []) is None

    def test_first_disconnected_names_group_and_terminal(self):
        g = Graph(4, ((1, 2), (2, 3), (3, 4)))
        groups = ((1, 2), (1, 3, 4))
        assert first_disconnected(g, groups, [0, 1, 2]) is None
        assert first_disconnected(g, groups, [0, 2]) == (1, 3)
        assert first_disconnected(g, groups, [2]) == (0, 2)

    def test_memory_does_not_grow_with_declared_vertex_count(self):
        import tracemalloc

        g = Graph(10**6, ((1, 2), (2, 3)))
        tracemalloc.start()
        try:
            assert first_disconnected(g, ((1, 3),), [0, 1]) is None
            assert first_disconnected(g, ((1, 3),), [0]) == (0, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def small_solution_sets(graph):
    pairs = st.sets(
        st.tuples(st.integers(1, 2), st.integers(0, graph.num_edges - 1)), max_size=12
    )
    return pairs.map(lambda s: EdgePipeSet(frozenset(s)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cost_is_monotone_and_linear_over_set_difference(data):
    two_stage = fig2_instance()
    inst = two_stage.first_stage
    solution = data.draw(small_solution_sets(inst.graph), label="solution")
    existing = data.draw(small_solution_sets(inst.graph), label="existing")
    extra = data.draw(
        st.tuples(st.integers(1, 2), st.integers(0, inst.graph.num_edges - 1)), label="extra"
    )
    base = cost(inst, existing, solution)
    grown = cost(inst, existing, solution | EdgePipeSet(frozenset({extra})))
    assert grown >= base - 1e-12
    cheaper = cost(inst, existing | EdgePipeSet(frozenset({extra})), solution)
    assert cheaper <= base + 1e-12
    # difference decomposition over positive costs
    shared = EdgePipeSet(solution.pairs & existing.pairs)
    assert cost(inst, existing, solution) == pytest.approx(
        cost(inst, EdgePipeSet(), solution) - cost(inst, EdgePipeSet(), shared)
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_feasibility_is_preserved_under_supersets(pair_set, data):
    two_stage = fig2_instance()
    inst = two_stage.first_stage
    route = pair_set(
        inst.graph, [(1, (8, 9)), (1, (9, 10)), (1, (10, 16)), (1, (16, 22))]
    )
    extra = data.draw(small_solution_sets(inst.graph))
    assert validate_feasible(inst, route | extra)
