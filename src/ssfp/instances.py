"""Built-in instances, seeded random generators, and the JSON file format.

Randomness comes from numpy's PCG64 generator seeded with a 64-bit integer,
so identical seeds reproduce identical instances on every platform.  Draw
order is fixed and documented on each generator.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph_core import (
    PROBABILITY_SUM_TOL,
    EdgePipeSet,
    Graph,
    Instance,
    PipeCatalog,
    TerminalGroups,
    TwoStageInstance,
    ValidationError,
)

SCENARIO_CHOICES = (2, 3, 4)
GROUP_CHOICES = (1, 2, 3)
TERMINALS_PER_GROUP_CHOICES = (3, 4, 5)
#: Single-walled edge costs of :func:`random_grid_instance` are drawn
#: uniformly from [COST_LOW, COST_HIGH].
COST_LOW, COST_HIGH = 1.0, 10.0
#: Pipe type p costs PIPE_COST_RATIO ** (p - 1) times the single-walled cost.
PIPE_COST_RATIO = 2.0
#: Cost multiplier of every scenario of :func:`random_grid_instance`.
INFLATION = 2.0


class SchemaError(ValidationError):
    """A field of an instance file violates the schema; the message carries
    the JSON path of the offending field."""


def make_rng(seed: int) -> np.random.Generator:
    """The project-wide seeded generator (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


def grid_graph(rows: int, cols: int) -> Graph:
    """Grid with 4-neighborhood edges, vertices numbered row-major from 1.

    Edge order: vertices ascending, right edge before down edge.
    """
    if rows < 1 or cols < 1:
        raise ValidationError("grid dimensions must be at least 1")
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, tuple(edges))


def fig2_instance() -> TwoStageInstance:
    """The worked small example: a 6x6 grid with rooms 11, 15, and 21 blocked
    (their vertices keep their numbers but lose all incident edges), unit
    single-walled costs, double-walled pipes twice as expensive, and a
    diesel-or-methanol second stage with inflation 2, each scenario at
    probability 1/2.  ``with_probabilities`` sets another weighting.
    """
    blocked = {11, 15, 21}
    base = grid_graph(6, 6)
    kept = tuple(e for e in base.edges if not (set(e) & blocked))
    graph = Graph(36, kept)
    catalog = PipeCatalog(2, ((1.0,) * len(kept), (2.0,) * len(kept)))
    all_edges = frozenset(range(len(kept)))
    first = Instance(
        graph, catalog, TerminalGroups(((8, 22),)), frozenset({1, 2}), all_edges, 1.0, "diesel"
    )
    diesel = Instance(
        graph, catalog, TerminalGroups(((8, 22),)), frozenset({1, 2}), all_edges, 2.0, "diesel"
    )
    methanol = Instance(
        graph, catalog, TerminalGroups(((8, 32),)), frozenset({2}), all_edges, 2.0, "methanol"
    )
    return TwoStageInstance(first, (diesel, methanol), (0.5, 0.5))


def four_cycle_instance() -> Instance:
    """Four vertices on a cycle, unit costs, one pipe type, and two terminal
    groups sitting on the diagonals; the classic case where the undirected
    relaxation admits opposing half-unit flow cycles."""
    graph = Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    catalog = PipeCatalog(1, ((1.0, 1.0, 1.0, 1.0),))
    return Instance(
        graph,
        catalog,
        TerminalGroups(((1, 3), (2, 4))),
        frozenset({1}),
        frozenset(range(4)),
    )


@dataclass(frozen=True)
class SweepConfig:
    """One parameter setting of the artificial 5x5-grid study plus the seeds
    to run it with."""

    num_scenarios: int
    num_groups: int
    terminals_per_group: int
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.num_scenarios not in SCENARIO_CHOICES:
            raise ValidationError(f"num_scenarios must be one of {SCENARIO_CHOICES}")
        if self.num_groups not in GROUP_CHOICES:
            raise ValidationError(f"num_groups must be one of {GROUP_CHOICES}")
        if self.terminals_per_group not in TERMINALS_PER_GROUP_CHOICES:
            raise ValidationError(
                f"terminals_per_group must be one of {TERMINALS_PER_GROUP_CHOICES}"
            )
        for seed in self.seeds:
            if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
                raise ValidationError(f"seeds must be non-negative integers, not {seed!r}")
        # a tuple of int keeps the config hashable whatever sequence was given
        object.__setattr__(self, "seeds", tuple(map(int, self.seeds)))

    @property
    def setting_id(self) -> str:
        return f"s{self.num_scenarios}g{self.num_groups}t{self.terminals_per_group}"


def all_settings(seeds: Sequence[int]) -> tuple[SweepConfig, ...]:
    """The full Cartesian product: 27 settings, each with every seed."""
    seeds = tuple(seeds)
    return tuple(
        SweepConfig(s, g, t, seeds)
        for s in SCENARIO_CHOICES
        for g in GROUP_CHOICES
        for t in TERMINALS_PER_GROUP_CHOICES
    )


def random_grid_instance(
    rows: int,
    cols: int,
    *,
    num_pipe_types: int = 2,
    num_groups: int = 1,
    terminals_per_group: int = 3,
    num_scenarios: int = 2,
    seed: int = 0,
) -> TwoStageInstance:
    """Seeded random two-stage instance on a grid: single-walled costs drawn
    uniformly from [COST_LOW, COST_HIGH], pipe type p costing
    PIPE_COST_RATIO^(p-1) times that, every pipe feasible and every edge
    admissible everywhere, scenario multiplier INFLATION, and equal scenario
    probabilities.

    Draw order: edge costs first, then one terminal permutation for the first
    stage, then one per scenario; each stage's groups are filled sequentially
    from its permutation.
    """
    if num_scenarios < 1:
        raise ValidationError(f"num_scenarios must be at least 1, not {num_scenarios}")
    rng = make_rng(seed)
    graph = grid_graph(rows, cols)
    need = num_groups * terminals_per_group
    if need > graph.num_vertices:
        raise ValidationError(
            f"{need} terminals requested but the grid has {graph.num_vertices} vertices"
        )
    gamma1 = rng.uniform(COST_LOW, COST_HIGH, size=graph.num_edges)
    catalog = PipeCatalog(
        num_pipe_types,
        tuple(tuple(gamma1 * PIPE_COST_RATIO**p) for p in range(num_pipe_types)),
    )
    all_pipes = frozenset(range(1, num_pipe_types + 1))
    all_edges = frozenset(range(graph.num_edges))

    def draw_groups() -> TerminalGroups:
        perm = rng.permutation(np.arange(1, graph.num_vertices + 1))[:need]
        groups = tuple(
            tuple(int(t) for t in perm[g * terminals_per_group : (g + 1) * terminals_per_group])
            for g in range(num_groups)
        )
        return TerminalGroups(groups)

    first = Instance(graph, catalog, draw_groups(), all_pipes, all_edges, 1.0)
    scenarios = tuple(
        Instance(graph, catalog, draw_groups(), all_pipes, all_edges, INFLATION)
        for _ in range(num_scenarios)
    )
    rho = (1.0 / num_scenarios,) * num_scenarios
    return TwoStageInstance(first, scenarios, rho)


def random_artificial(config: SweepConfig, seed: int) -> TwoStageInstance:
    """One instance of the artificial study: 5x5 grid, two pipe types with
    the double-walled type twice as expensive, uniform [1, 10] base costs."""
    return random_grid_instance(
        5,
        5,
        num_pipe_types=2,
        num_groups=config.num_groups,
        terminals_per_group=config.terminals_per_group,
        num_scenarios=config.num_scenarios,
        seed=seed,
    )


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{path}: {message}")


def is_json_integer(value: object) -> bool:
    """A JSON integer as ``json`` reads it: an ``int`` but not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value: object) -> bool:
    """A JSON integer or float, never a ``bool`` or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_integers(value: object, path: str, message: str, length: int | None = None) -> list[int]:
    """``value`` if it is a list of JSON integers (of ``length`` items, when
    given); otherwise :class:`SchemaError` with ``path`` and ``message``."""
    _expect(
        isinstance(value, list)
        and all(is_json_integer(x) for x in value)
        and (length is None or len(value) == length),
        path,
        message,
    )
    return value  # type: ignore[return-value]


def _stage_dict(inst: Instance, graph: Graph) -> dict:
    if inst.admissible_edges == frozenset(range(graph.num_edges)):
        admissible: object = "all"
    else:
        admissible = sorted(inst.admissible_edges)
    stage = {
        "groups": [list(g) for g in inst.terminals.groups],
        "feasible_pipes": sorted(inst.feasible_pipes),
        "admissible_edges": admissible,
        "multiplier": inst.cost_multiplier,
    }
    if inst.label:
        stage["label"] = inst.label
    return stage


def save_instance(two_stage: TwoStageInstance, path: str | Path) -> None:
    """Write the documented JSON schema; edge indices are positions in the
    edge list."""
    graph = two_stage.first_stage.graph
    pipes = two_stage.first_stage.pipes
    document = {
        "graph": {"num_vertices": graph.num_vertices, "edges": [list(e) for e in graph.edges]},
        "pipes": {
            "num_types": pipes.num_pipe_types,
            "base_costs": {
                "per_edge": [
                    [pipes.base_costs[p][e] for p in range(pipes.num_pipe_types)]
                    for e in range(graph.num_edges)
                ]
            },
        },
        "first_stage": _stage_dict(two_stage.first_stage, graph),
        "scenarios": [
            {**_stage_dict(inst, graph), "probability": rho}
            for inst, rho in zip(two_stage.scenarios, two_stage.probabilities)
        ],
        "existing": [list(pair) for pair in two_stage.existing],
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")


def _parse_stage(
    data: object, path: str, graph: Graph, catalog: PipeCatalog, first_stage: bool
) -> tuple[Instance, float]:
    _expect(isinstance(data, dict), path, "must be an object")
    assert isinstance(data, dict)
    groups = data.get("groups")
    _expect(isinstance(groups, list) and groups, f"{path}.groups", "must be a non-empty list")
    for i, g in enumerate(groups):
        json_integers(g, f"{path}.groups[{i}]", "must be a list of vertex ids")
    pipes = data.get("feasible_pipes")
    json_integers(pipes, f"{path}.feasible_pipes", "must be a list of pipe ids")
    adm = data.get("admissible_edges", "all")
    if adm == "all":
        admissible = frozenset(range(graph.num_edges))
    else:
        json_integers(adm, f"{path}.admissible_edges", 'must be "all" or a list of edge indices')
        admissible = frozenset(adm)
    multiplier = data.get("multiplier", 1.0)
    _expect(is_json_number(multiplier), f"{path}.multiplier", "must be a number")
    probability = 0.0
    if first_stage:
        _expect(multiplier == 1.0, f"{path}.multiplier", "must be exactly 1")
    else:
        _expect(multiplier > 1.0, f"{path}.multiplier", "must be > 1")
        probability = data.get("probability")
        _expect(is_json_number(probability), f"{path}.probability", "must be a number")
        _expect(probability >= 0.0, f"{path}.probability", f"must be >= 0, got {probability}")
    label = data.get("label", "")
    _expect(isinstance(label, str), f"{path}.label", "must be a string")
    try:
        instance = Instance(
            graph,
            catalog,
            TerminalGroups(tuple(tuple(g) for g in groups)),
            frozenset(pipes),
            admissible,
            float(multiplier),
            label,
        )
    except ValidationError as err:
        raise type(err)(f"{path}: {err}") from None
    return instance, float(probability)


def _two_stage(
    first: Instance, scenarios: list[tuple[Instance, float]], existing: EdgePipeSet = EdgePipeSet()
) -> TwoStageInstance:
    """The instance of parsed stages, with the probability sum checked at
    the path ``scenarios``."""
    probabilities = tuple(rho for _, rho in scenarios)
    _expect(
        not scenarios or abs(sum(probabilities) - 1.0) <= PROBABILITY_SUM_TOL,
        "scenarios",
        f"probabilities sum to {sum(probabilities)}, not 1",
    )
    return TwoStageInstance(first, tuple(inst for inst, _ in scenarios), probabilities, existing)


def _read_object(path: str | Path) -> dict:
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise SchemaError(f"$: not valid JSON: {err}") from None
    _expect(isinstance(document, dict), "$", "instance file must hold an object")
    return document


def load_instance(path: str | Path) -> TwoStageInstance:
    """Load and validate the JSON schema written by :func:`save_instance`.

    Schema violations raise :class:`SchemaError` with the offending field's
    path; disconnected terminal groups are rejected at this point.
    """
    document = _read_object(path)
    graph_data = document.get("graph")
    _expect(isinstance(graph_data, dict), "graph", "must be an object")
    num_vertices = graph_data.get("num_vertices")
    _expect(is_json_integer(num_vertices), "graph.num_vertices", "must be an integer")
    edges = graph_data.get("edges")
    _expect(isinstance(edges, list), "graph.edges", "must be a list of [u, v] pairs")
    for i, e in enumerate(edges):
        json_integers(e, f"graph.edges[{i}]", "must be a [u, v] pair", 2)
    try:
        graph = Graph(num_vertices, tuple((u, v) for u, v in edges))
    except ValidationError as err:
        raise SchemaError(f"graph: {err}") from None

    pipes_data = document.get("pipes")
    _expect(isinstance(pipes_data, dict), "pipes", "must be an object")
    num_types = pipes_data.get("num_types")
    _expect(
        is_json_integer(num_types) and num_types >= 1, "pipes.num_types", "must be a positive integer"
    )
    base_costs = pipes_data.get("base_costs")
    _expect(isinstance(base_costs, dict), "pipes.base_costs", "must be an object")
    per_edge = base_costs.get("per_edge")
    _expect(
        isinstance(per_edge, list) and len(per_edge) == graph.num_edges,
        "pipes.base_costs.per_edge",
        f"must list costs for all {graph.num_edges} edges",
    )
    for i, row in enumerate(per_edge):
        _expect(
            isinstance(row, list) and len(row) == num_types,
            f"pipes.base_costs.per_edge[{i}]",
            f"must list {num_types} pipe costs",
        )
        for p, cost in enumerate(row):
            _expect(is_json_number(cost), f"pipes.base_costs.per_edge[{i}][{p}]", "must be a number")
    try:
        catalog = PipeCatalog(
            num_types,
            tuple(tuple(float(per_edge[e][p]) for e in range(graph.num_edges)) for p in range(num_types)),
        )
    except ValidationError as err:
        raise SchemaError(f"pipes: {err}") from None

    first, _ = _parse_stage(document.get("first_stage"), "first_stage", graph, catalog, True)
    scenarios_data = document.get("scenarios", [])
    _expect(isinstance(scenarios_data, list), "scenarios", "must be a list")
    scenarios = [
        _parse_stage(entry, f"scenarios[{s}]", graph, catalog, False)
        for s, entry in enumerate(scenarios_data)
    ]

    existing_data = document.get("existing", [])
    _expect(isinstance(existing_data, list), "existing", "must be a list of [pipe, edge] pairs")
    for i, pair in enumerate(existing_data):
        json_integers(pair, f"existing[{i}]", "must be a [pipe, edge] pair", 2)
        try:
            EdgePipeSet(frozenset([tuple(pair)])).check(graph, num_types)
        except ValidationError as err:
            raise SchemaError(f"existing[{i}]: {err}") from None
    return _two_stage(first, scenarios, EdgePipeSet(frozenset((p, e) for p, e in existing_data)))


def realistic_terminals_path() -> Path:
    """Packaged terminal/feasibility data of the four-deck work-ship case study."""
    return Path(str(resources.files("ssfp").joinpath("data/realistic_terminals.json")))


def load_realistic(graph: Graph, gamma1: Sequence[float]) -> TwoStageInstance:
    """Combine the case study's terminal sets, pipe feasibility, and
    forbidden rooms with a user-supplied ship graph and single-walled edge
    costs.

    The data ships without the ship's room adjacency, so the graph is an
    input; it must cover the data's full room range.  The data's stages are
    checked like an instance file's, with the same field paths.
    """
    data = _read_object(realistic_terminals_path())
    required = data.get("num_vertices_required")
    _expect(is_json_integer(required), "num_vertices_required", "must be an integer")
    if graph.num_vertices < required:
        raise ValidationError(
            f"graph has {graph.num_vertices} vertices but the data references rooms up to {required}"
        )
    gamma1 = tuple(float(c) for c in gamma1)
    if len(gamma1) != graph.num_edges:
        raise ValidationError("need one single-walled cost per graph edge")
    pipes = data.get("pipes")
    _expect(isinstance(pipes, dict), "pipes", "must be an object")
    ratio, num_types = pipes.get("cost_ratio"), pipes.get("num_types")
    _expect(is_json_number(ratio), "pipes.cost_ratio", "must be a number")
    _expect(is_json_integer(num_types), "pipes.num_types", "must be an integer")
    catalog = PipeCatalog(
        num_types, tuple(tuple(c * ratio**p for c in gamma1) for p in range(num_types))
    )
    forbidden = set(
        json_integers(data.get("forbidden_rooms"), "forbidden_rooms", "must be a list of room ids")
    )
    open_edges = [
        eid for eid, (u, v) in enumerate(graph.edges) if u not in forbidden and v not in forbidden
    ]

    def stage(entry: object, path: str, first_stage: bool) -> tuple[Instance, float]:
        _expect(isinstance(entry, dict), path, "must be an object")
        avoid = entry.get("avoid_forbidden_rooms", False)
        _expect(isinstance(avoid, bool), f"{path}.avoid_forbidden_rooms", "must be true or false")
        entry = {**entry, "admissible_edges": open_edges if avoid else "all"}
        return _parse_stage(entry, path, graph, catalog, first_stage)

    first, _ = stage(data.get("first_stage"), "first_stage", True)
    scenarios_data = data.get("scenarios")
    _expect(isinstance(scenarios_data, list), "scenarios", "must be a list")
    scenarios = [stage(entry, f"scenarios[{s}]", False) for s, entry in enumerate(scenarios_data)]
    return _two_stage(first, scenarios)
