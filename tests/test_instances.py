import json

import numpy as np
import pytest

from ssfp.graph_core import Graph, InfeasibleInstanceError, ValidationError
from ssfp.instances import (
    SchemaError,
    SweepConfig,
    all_settings,
    fig2_instance,
    four_cycle_instance,
    grid_graph,
    load_instance,
    load_realistic,
    random_artificial,
    random_grid_instance,
    realistic_terminals_path,
    save_instance,
)
from ssfp.solver import solve_milp
from ssfp.models import build_do


class TestGridGraph:
    def test_degenerate_single_vertex(self):
        g = grid_graph(1, 1)
        assert (g.num_vertices, g.num_edges) == (1, 0)

    def test_five_by_five(self):
        g = grid_graph(5, 5)
        assert (g.num_vertices, g.num_edges) == (25, 40)

    def test_six_by_six(self):
        g = grid_graph(6, 6)
        assert (g.num_vertices, g.num_edges) == (36, 60)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValidationError):
            grid_graph(0, 4)


class TestFig2:
    def test_counts_after_blocking_rooms(self):
        graph = fig2_instance().first_stage.graph
        assert graph.num_edges == 49
        assert len({v for edge in graph.edges for v in edge}) == 33
        blocked = {11, 15, 21}
        assert all(not (set(e) & blocked) for e in graph.edges)

    def test_stage_data(self):
        ts = fig2_instance().with_probabilities((0.7, 0.3))
        assert ts.first_stage.terminals.groups == ((8, 22),)
        assert ts.scenarios[0].feasible_pipes == frozenset({1, 2})
        assert ts.scenarios[1].feasible_pipes == frozenset({2})
        assert ts.scenarios[1].terminals.groups == ((8, 32),)
        assert ts.probabilities == (0.7, 0.3)
        assert all(s.cost_multiplier == 2.0 for s in ts.scenarios)

    def test_rho_bounds_checked(self):
        with pytest.raises(ValidationError):
            fig2_instance().with_probabilities((-0.5, 1.5))


class TestFourCycle:
    def test_structure(self):
        inst = four_cycle_instance()
        assert inst.graph.num_edges == 4
        assert inst.terminals.groups == ((1, 3), (2, 4))
        assert inst.terminals.roots == (1, 2)


class TestSweepConfig:
    def test_cartesian_product_is_27(self):
        settings = all_settings([0, 1])
        assert len(settings) == 27
        assert len({c.setting_id for c in settings}) == 27

    def test_every_setting_gets_every_seed_of_a_generator(self):
        settings = all_settings(seed for seed in range(2))
        assert [c.seeds for c in settings] == [(0, 1)] * 27

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            SweepConfig(5, 1, 3)
        with pytest.raises(ValidationError):
            SweepConfig(2, 4, 3)
        with pytest.raises(ValidationError):
            SweepConfig(2, 1, 6)

    @pytest.mark.parametrize("seeds", [("a",), (1.5,), (-1,), (True,), (0, 2.0)])
    def test_seeds_that_are_not_non_negative_integers_rejected(self, seeds):
        # refused when the config is built, not as an unprefixed numpy error
        # in the middle of a sweep
        with pytest.raises(ValidationError, match="seeds must be non-negative integers"):
            SweepConfig(2, 1, 3, seeds)

    @pytest.mark.parametrize(
        "seeds", [(np.int64(1), 2), [0, 1], range(2)], ids=["numpy-integer", "list", "range"]
    )
    def test_integral_seeds_are_kept_as_a_tuple_of_int(self, seeds):
        config = SweepConfig(2, 1, 3, seeds)
        assert config.seeds == tuple(int(seed) for seed in seeds)
        assert all(type(seed) is int for seed in config.seeds)
        assert hash(config) == hash(SweepConfig(2, 1, 3, tuple(config.seeds)))


class TestRandomArtificial:
    def test_same_seed_is_identical(self):
        config = SweepConfig(2, 1, 3)
        assert random_artificial(config, 7) == random_artificial(config, 7)

    def test_different_seed_differs(self):
        config = SweepConfig(2, 1, 3)
        assert random_artificial(config, 7) != random_artificial(config, 8)

    def test_shape_of_first_stage(self):
        ts = random_artificial(SweepConfig(2, 1, 3), 4)
        assert len(ts.first_stage.terminals.groups) == 1
        assert len(ts.first_stage.terminals.groups[0]) == 3
        assert ts.num_scenarios == 2
        assert ts.probabilities == (0.5, 0.5)

    def test_costs_in_range_and_doubled(self):
        ts = random_artificial(SweepConfig(2, 1, 3), 4)
        pipes = ts.first_stage.pipes
        for e in range(ts.first_stage.graph.num_edges):
            assert 1.0 <= pipes.cost(1, e) <= 10.0
            assert pipes.cost(2, e) == pytest.approx(2.0 * pipes.cost(1, e))

    def test_generated_instances_validate(self):
        # construction must never produce a rejected instance
        for seed in range(5):
            random_artificial(SweepConfig(4, 3, 5), seed)

    def test_too_many_terminals_rejected(self):
        with pytest.raises(ValidationError):
            random_grid_instance(2, 2, num_groups=3, terminals_per_group=2)

    @pytest.mark.parametrize("num_scenarios", [0, -1])
    def test_fewer_than_one_scenario_rejected(self, num_scenarios):
        message = f"num_scenarios must be at least 1, not {num_scenarios}$"
        with pytest.raises(ValidationError, match=message):
            random_grid_instance(2, 2, terminals_per_group=2, num_scenarios=num_scenarios)


class TestInstanceFiles:
    def test_round_trip_fig2(self, tmp_path):
        ts = fig2_instance().with_probabilities((0.75, 0.25))
        path = tmp_path / "fig2.json"
        save_instance(ts, path)
        loaded = load_instance(path)
        assert loaded == ts
        # labels are not part of equality, so compare them on their own
        stages = (loaded.first_stage, *loaded.scenarios)
        assert [inst.label for inst in stages] == ["diesel", "diesel", "methanol"]

    def test_round_trip_artificial(self, tmp_path):
        ts = random_artificial(SweepConfig(3, 2, 3), 11)
        path = tmp_path / "inst.json"
        save_instance(ts, path)
        assert load_instance(path) == ts

    def test_schema_violation_reports_path(self, tmp_path):
        path = tmp_path / "bad.json"
        document = {
            "graph": {"num_vertices": 2, "edges": [[1, 2]]},
            "pipes": {"num_types": 1, "base_costs": {"per_edge": [[1.0]]}},
            "first_stage": {"groups": [[1]], "feasible_pipes": [1]},
        }
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError) as err:
            load_instance(path)
        assert "first_stage" in str(err.value)

    @pytest.mark.parametrize(
        "where, value, field",
        [
            (("pipes", "base_costs"), [[1.0]], "pipes.base_costs"),
            (("first_stage", "label"), [1], "first_stage.label"),
        ],
    )
    def test_wrong_json_type_reports_path(self, tmp_path, where, value, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_set(_one_edge_document(), where, value)))
        with pytest.raises(SchemaError) as err:
            load_instance(path)
        assert str(err.value).startswith(f"{field}: ")

    def test_disconnected_groups_rejected_at_load(self, tmp_path):
        path = tmp_path / "disconnected.json"
        document = {
            "graph": {"num_vertices": 4, "edges": [[1, 2], [3, 4]]},
            "pipes": {"num_types": 1, "base_costs": {"per_edge": [[1.0], [1.0]]}},
            "first_stage": {
                "groups": [[1, 4]],
                "feasible_pipes": [1],
                "admissible_edges": "all",
                "multiplier": 1.0,
            },
            "scenarios": [],
            "existing": [],
        }
        path.write_text(json.dumps(document))
        with pytest.raises(InfeasibleInstanceError):
            load_instance(path)


def _one_edge_document() -> dict:
    return {
        "graph": {"num_vertices": 2, "edges": [[1, 2]]},
        "pipes": {"num_types": 1, "base_costs": {"per_edge": [[1.0]]}},
        "first_stage": {
            "groups": [[1, 2]], "feasible_pipes": [1], "admissible_edges": "all",
            "multiplier": 1.0,
        },
        "scenarios": [{
            "groups": [[1, 2]], "feasible_pipes": [1], "admissible_edges": [0],
            "multiplier": 2.0, "probability": 1.0,
        }],
        "existing": [[1, 0]],
    }


def _set(document: dict, path: tuple, value: object) -> dict:
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


class TestJsonScalarTypes:
    """Booleans and strings are not JSON integers or numbers, even where
    Python's ``int``/``float`` would read them."""

    def test_one_edge_document_loads(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(_one_edge_document()))
        assert load_instance(path).num_scenarios == 1

    @pytest.mark.parametrize(
        "where, value, field",
        [
            (("graph", "num_vertices"), True, "graph.num_vertices"),
            (("graph", "edges", 0), [True, 2], "graph.edges[0]"),
            (("pipes", "num_types"), True, "pipes.num_types"),
            (("pipes", "base_costs", "per_edge", 0, 0), "1e0", "pipes.base_costs.per_edge[0][0]"),
            (("pipes", "base_costs", "per_edge", 0, 0), True, "pipes.base_costs.per_edge[0][0]"),
            (("first_stage", "groups", 0), [True, 2], "first_stage.groups[0]"),
            (("first_stage", "feasible_pipes"), [True], "first_stage.feasible_pipes"),
            (("first_stage", "multiplier"), True, "first_stage.multiplier"),
            (("scenarios", 0, "admissible_edges"), [False], "scenarios[0].admissible_edges"),
            (("scenarios", 0, "probability"), True, "scenarios[0].probability"),
            (("existing", 0), [True, 0], "existing[0]"),
        ],
    )
    def test_bool_or_string_is_refused(self, tmp_path, where, value, field):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(_set(_one_edge_document(), where, value)))
        with pytest.raises(SchemaError) as err:
            load_instance(path)
        assert str(err.value).startswith(f"{field}: ")


class TestRealisticData:
    def test_case_study_set_sizes(self):
        data = json.loads(realistic_terminals_path().read_text())
        assert data["num_vertices_required"] == 75
        diesel = data["first_stage"]["groups"][0]
        assert diesel == [37, 42, 53, 54, 63, 65]
        methanol = data["scenarios"][1]["groups"][0]
        assert len(methanol) == 28
        assert len(data["forbidden_rooms"]) == 52
        assert data["scenarios"][1]["feasible_pipes"] == [2]

    def test_loader_rejects_small_graphs(self):
        graph = grid_graph(8, 9)  # 72 vertices: room 75 is missing
        with pytest.raises(ValidationError):
            load_realistic(graph, [1.0] * graph.num_edges)

    def test_loader_builds_two_stage_on_a_placeholder_graph(self):
        # synthetic 75-room ship: one corridor through the rooms open to
        # diesel, one through the forbidden rooms, and a single junction
        data = json.loads(realistic_terminals_path().read_text())
        forbidden = sorted(data["forbidden_rooms"])
        allowed = sorted(set(range(1, 76)) - set(forbidden))
        corridors = [
            (min(a, b), max(a, b))
            for rooms in (allowed, forbidden)
            for a, b in zip(rooms, rooms[1:])
        ]
        corridors.append((min(allowed[0], forbidden[-1]), max(allowed[0], forbidden[-1])))
        graph = Graph(75, tuple(corridors))
        ts = load_realistic(graph, [1.0] * graph.num_edges)
        assert ts.num_scenarios == 2
        assert ts.first_stage.terminals.groups == ((37, 42, 53, 54, 63, 65),)
        assert len(ts.scenarios[1].terminals.groups[0]) == 28
        # diesel stages avoid forbidden rooms, methanol may use every edge
        assert len(ts.first_stage.admissible_edges) < graph.num_edges
        assert ts.scenarios[1].admissible_edges == frozenset(range(graph.num_edges))
        built = build_do(ts.first_stage, ts.existing, flow="u")
        assert solve_milp(built.milp).status == "optimal"

    @pytest.mark.parametrize(
        "where, value, field",
        [
            (("first_stage", "groups", 0), [37, "42"], "first_stage.groups[0]"),
            (("first_stage", "groups"), True, "first_stage.groups"),
            (("scenarios", 1, "feasible_pipes"), [True], "scenarios[1].feasible_pipes"),
            (("scenarios", 0, "avoid_forbidden_rooms"), "yes", "scenarios[0].avoid_forbidden_rooms"),
            (("scenarios", 0, "probability"), "0.5", "scenarios[0].probability"),
            (("scenarios", 1, "label"), 7, "scenarios[1].label"),
            (("forbidden_rooms",), [1, 2.5], "forbidden_rooms"),
        ],
    )
    def test_malformed_stage_field_reports_path(self, tmp_path, monkeypatch, where, value, field):
        data = json.loads(realistic_terminals_path().read_text())
        path = tmp_path / "realistic_terminals.json"
        path.write_text(json.dumps(_set(data, where, value)))
        monkeypatch.setattr("ssfp.instances.realistic_terminals_path", lambda: path)
        # a star around diesel room 37 connects every stage of the intact data
        graph = Graph(75, tuple((min(37, v), max(37, v)) for v in range(1, 76) if v != 37))
        with pytest.raises(SchemaError) as err:
            load_realistic(graph, [1.0] * graph.num_edges)
        assert str(err.value).startswith(f"{field}: ")
