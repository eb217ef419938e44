"""Combinatorial data model: graphs, pipe catalogs, terminal groups, instances.

All types are immutable after construction and safe to share across threads;
the operations at the bottom of the module are pure functions.
"""
from __future__ import annotations

import math
import numbers
from itertools import chain
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]
PipeEdge = tuple[int, int]  # (pipe id, edge id)
#: How far scenario probabilities may sum from 1.
PROBABILITY_SUM_TOL = 1e-12


class ValidationError(ValueError):
    """Instance data violates a structural invariant."""


def is_integer(value: object) -> bool:
    """An integer of any integral type, numpy's included, but not a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """A real number of any real type, numpy's included, but not a ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _plain(kind: type, value: object, name: str) -> int | float:
    """``value`` as a plain ``int`` or ``float`` (``kind``), if it passes that rule."""
    if not (is_integer(value) if kind is int else is_number(value)):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{name} must be {noun}, not {value!r}")
    return kind(value)


def _plain_pair(value: object, name: str, entries: tuple[str, str]) -> tuple[int, int]:
    """``value`` as a pair of plain ``int``s, if it has two entries and each
    passes the integer rule; ``name`` and ``entries`` name it and its
    entries in a refusal."""
    try:
        items = tuple(value)
    except TypeError:
        items = ()
    if len(items) != 2:
        raise ValidationError(f"{name} must have two entries, not {value!r}")
    return _plain(int, items[0], entries[0]), _plain(int, items[1], entries[1])


class InfeasibleInstanceError(ValidationError):
    """A terminal group cannot be connected inside the admissible edge set."""


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..num_vertices with an ordered edge list.

    Edge ids are positions in ``edges``.
    """

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_vertices", _plain(int, self.num_vertices, "num_vertices"))
        endpoints = ("edge endpoint", "edge endpoint")
        edges = tuple(_plain_pair(edge, "edge", endpoints) for edge in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.num_vertices < 1:
            raise ValidationError("graph needs at least one vertex")
        seen: set[Edge] = set()
        for u, v in self.edges:
            if not (1 <= u < v <= self.num_vertices):
                raise ValidationError(f"edge ({u},{v}) violates 1 <= u < v <= {self.num_vertices}")
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_ids(self) -> dict[Edge, int]:
        return {edge: eid for eid, edge in enumerate(self.edges)}

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_ids[key]
        except KeyError:
            raise ValidationError(f"no edge between {u} and {v}") from None

    def endpoints(self, edge_id: int) -> Edge:
        if not 0 <= edge_id < len(self.edges):
            raise ValidationError(f"edge id {edge_id} out of range")
        return self.edges[edge_id]


@dataclass(frozen=True)
class PipeCatalog:
    """Available pipe types 1..num_pipe_types with per-(pipe, edge) base costs.

    ``base_costs[p-1][e]`` is the cost of installing pipe ``p`` on edge id
    ``e``; all costs are positive and finite.
    """

    num_pipe_types: int
    base_costs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        num_pipe_types = _plain(int, self.num_pipe_types, "num_pipe_types")
        object.__setattr__(self, "num_pipe_types", num_pipe_types)
        costs = tuple(tuple(_plain(float, c, "pipe cost") for c in row) for row in self.base_costs)
        object.__setattr__(self, "base_costs", costs)
        if self.num_pipe_types < 1:
            raise ValidationError("catalog needs at least one pipe type")
        if len(self.base_costs) != self.num_pipe_types:
            raise ValidationError("base_costs must have one row per pipe type")
        width = len(self.base_costs[0])
        for p, row in enumerate(self.base_costs, start=1):
            if len(row) != width:
                raise ValidationError("base_costs rows must have equal length")
            for e, c in enumerate(row):
                if not 0.0 < c < math.inf:
                    raise ValidationError(
                        f"cost of pipe {p} on edge {e} must be positive and finite, got {c}"
                    )

    def cost(self, pipe: int, edge_id: int) -> float:
        if not 1 <= pipe <= self.num_pipe_types:
            raise ValidationError(f"pipe id {pipe} out of range 1..{self.num_pipe_types}")
        row = self.base_costs[pipe - 1]
        if not 0 <= edge_id < len(row):
            raise ValidationError(f"edge id {edge_id} out of range")
        return row[edge_id]


@dataclass(frozen=True)
class TerminalGroups:
    """Pairwise-disjoint terminal groups; the root of each group is its
    minimum-index terminal so runs are reproducible."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        norm = tuple(tuple(sorted(set(_plain(int, t, "terminal") for t in g))) for g in self.groups)
        object.__setattr__(self, "groups", norm)
        if not norm:
            raise ValidationError("at least one terminal group is required")
        seen: set[int] = set()
        for k, group in enumerate(norm):
            if len(group) < 2:
                raise ValidationError(f"group {k} has {len(group)} terminal(s); need at least 2")
            overlap = seen.intersection(group)
            if overlap:
                raise ValidationError(f"groups overlap on vertices {sorted(overlap)}")
            seen.update(group)

    @cached_property
    def roots(self) -> tuple[int, ...]:
        return tuple(group[0] for group in self.groups)

    @cached_property
    def group_of(self) -> dict[int, int]:
        """Terminal vertex -> 0-based group index."""
        return {t: k for k, group in enumerate(self.groups) for t in group}

    @cached_property
    def all_terminals(self) -> frozenset[int]:
        return frozenset(self.group_of)

    def non_root_terminals(self) -> tuple[int, ...]:
        """All terminals except the group roots, ascending."""
        roots = set(self.roots)
        return tuple(sorted(t for t in self.group_of if t not in roots))


@dataclass(frozen=True)
class Instance:
    """One stage or scenario: graph, catalog, groups, feasibility and costs.

    ``cost_multiplier`` scales all base costs uniformly; it is 1 in the first
    stage and the inflation factor in second-stage scenarios.
    """

    graph: Graph
    pipes: PipeCatalog
    terminals: TerminalGroups
    feasible_pipes: frozenset[int]
    admissible_edges: frozenset[int]
    cost_multiplier: float = 1.0
    label: str = field(default="", compare=False)  # presentation only

    def __post_init__(self) -> None:
        for name in ("feasible_pipes", "admissible_edges"):
            ids = frozenset(_plain(int, i, name) for i in getattr(self, name))
            object.__setattr__(self, name, ids)
        multiplier = _plain(float, self.cost_multiplier, "cost multiplier")
        object.__setattr__(self, "cost_multiplier", multiplier)
        if len(self.pipes.base_costs[0]) != self.graph.num_edges:
            raise ValidationError("catalog cost rows must cover every graph edge")
        if not self.feasible_pipes:
            raise ValidationError("feasible pipe set is empty")
        if not self.admissible_edges:
            raise ValidationError("admissible edge set is empty")
        for p in self.feasible_pipes:
            if not 1 <= p <= self.pipes.num_pipe_types:
                raise ValidationError(f"feasible pipe {p} out of range")
        for e in self.admissible_edges:
            if not 0 <= e < self.graph.num_edges:
                raise ValidationError(f"admissible edge id {e} out of range")
        if not 1.0 <= self.cost_multiplier < math.inf:
            raise ValidationError(
                f"cost multiplier must be finite and >= 1, got {self.cost_multiplier}"
            )
        for group in self.terminals.groups:
            for t in group:
                if not 1 <= t <= self.graph.num_vertices:
                    raise ValidationError(f"terminal {t} out of range")
        broken = first_disconnected(self.graph, self.terminals.groups, self.admissible_edges)
        if broken is not None:
            k = broken[0]
            raise InfeasibleInstanceError(
                f"terminal group {k} ({self.terminals.groups[k]}) is disconnected "
                "within the admissible edge set"
            )

    def pair_cost(self, pipe: int, edge_id: int) -> float:
        return self.cost_multiplier * self.pipes.cost(pipe, edge_id)

    def without_pipes(self, pipes: frozenset[int]) -> "Instance":
        """The instance with ``pipes`` removed from its feasible pipe set."""
        if not pipes:
            return self
        return replace(self, feasible_pipes=self.feasible_pipes - pipes)


@dataclass(frozen=True)
class EdgePipeSet:
    """A set of (pipe id, edge id) pairs: the pre-existing set and solutions."""

    pairs: frozenset[PipeEdge] = frozenset()

    def __post_init__(self) -> None:
        pairs = (_plain_pair(pair, "pipe-edge pair", ("pipe id", "edge id")) for pair in self.pairs)
        object.__setattr__(self, "pairs", frozenset(pairs))

    def check(self, graph: Graph, num_pipe_types: int) -> None:
        for p, e in self.pairs:
            if not 1 <= p <= num_pipe_types:
                raise ValidationError(f"pipe id {p} out of range 1..{num_pipe_types}")
            if not 0 <= e < graph.num_edges:
                raise ValidationError(f"edge id {e} out of range")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[PipeEdge]:
        return iter(sorted(self.pairs))

    def __contains__(self, pair: PipeEdge) -> bool:
        return pair in self.pairs

    def __or__(self, other: "EdgePipeSet") -> "EdgePipeSet":
        return EdgePipeSet(self.pairs | other.pairs)


@dataclass(frozen=True)
class TwoStageInstance:
    """A first-stage instance plus scenario instances with probabilities.

    All scenarios share the first stage's graph and pipe catalog; scenario
    multipliers are the (strictly > 1) second-stage inflation factors.
    """

    first_stage: Instance
    scenarios: tuple[Instance, ...]
    probabilities: tuple[float, ...]
    existing: EdgePipeSet = field(default_factory=EdgePipeSet)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        rhos = tuple(_plain(float, rho, "probability") for rho in self.probabilities)
        object.__setattr__(self, "probabilities", rhos)
        if len(self.scenarios) != len(self.probabilities):
            raise ValidationError("need one probability per scenario")
        if self.first_stage.cost_multiplier != 1.0:
            raise ValidationError("first-stage cost multiplier must be exactly 1")
        for s, inst in enumerate(self.scenarios):
            if inst.graph is not self.first_stage.graph:
                raise ValidationError(f"scenario {s} does not share the first-stage graph")
            if inst.pipes is not self.first_stage.pipes:
                raise ValidationError(f"scenario {s} does not share the pipe catalog")
            if not inst.cost_multiplier > 1.0:
                raise ValidationError(f"scenario {s} multiplier must be > 1")
        if self.scenarios:
            for s, rho in enumerate(self.probabilities):
                if not rho >= 0.0:  # NaN fails this
                    raise ValidationError(f"probability of scenario {s} is {rho}, not >= 0")
            if not abs(sum(self.probabilities) - 1.0) <= PROBABILITY_SUM_TOL:
                raise ValidationError(f"probabilities sum to {sum(self.probabilities)}, not 1")
        self.existing.check(self.first_stage.graph, self.first_stage.pipes.num_pipe_types)

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)

    def with_probabilities(self, probabilities: Sequence[float]) -> "TwoStageInstance":
        return TwoStageInstance(self.first_stage, self.scenarios, tuple(probabilities), self.existing)

    def without_pipes(self, pipes: frozenset[int]) -> "TwoStageInstance":
        """The instance with ``pipes`` removed from the feasible pipe set of
        the first stage and of every scenario."""
        if not pipes:
            return self
        return replace(
            self,
            first_stage=self.first_stage.without_pipes(pipes),
            scenarios=tuple(s.without_pipes(pipes) for s in self.scenarios),
        )


@dataclass(frozen=True)
class FeasibilityResult:
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def cost(instance: Instance, existing: EdgePipeSet, solution: EdgePipeSet) -> float:
    """Total installation cost of ``solution``; pairs already in ``existing``
    are free.  Applies the instance's cost multiplier."""
    solution.check(instance.graph, instance.pipes.num_pipe_types)
    existing.check(instance.graph, instance.pipes.num_pipe_types)
    return sum(
        instance.pair_cost(p, e) for p, e in solution.pairs if (p, e) not in existing.pairs
    )


def first_disconnected(
    graph: Graph, groups: Iterable[Sequence[int]], edge_ids: Iterable[int]
) -> tuple[int, int] | None:
    """The first (group index, terminal) whose terminal is not joined to its
    group's first terminal in the subgraph spanned by ``edge_ids``, or None
    when every group is connected.  Pure union-find, no MILP machinery, over
    the vertices that the edges and groups touch, so memory does not grow
    with the declared vertex count."""
    edges = [graph.endpoints(eid) for eid in edge_ids]
    groups = [tuple(group) for group in groups]
    index: dict[int, int] = {}
    for v in chain(chain.from_iterable(edges), chain.from_iterable(groups)):
        index.setdefault(v, len(index))
    uf = UnionFind(len(index))
    for u, v in edges:
        uf.union(index[u], index[v])
    for k, group in enumerate(groups):
        root = uf.find(index[group[0]])
        for t in group[1:]:
            if uf.find(index[t]) != root:
                return k, t
    return None


def validate_feasible(instance: Instance, solution: EdgePipeSet) -> FeasibilityResult:
    """Check feasibility with union-find, independently of any MILP machinery.

    Pairs using infeasible pipes or inadmissible edges may be installed but
    cannot carry a terminal connection, so they are ignored here.
    """
    solution.check(instance.graph, instance.pipes.num_pipe_types)
    usable = [
        e
        for p, e in solution.pairs
        if p in instance.feasible_pipes and e in instance.admissible_edges
    ]
    broken = first_disconnected(instance.graph, instance.terminals.groups, usable)
    if broken is None:
        return FeasibilityResult(True)
    k, t = broken
    return FeasibilityResult(
        False, f"group {k}: terminals {instance.terminals.groups[k][0]} and {t} are not connected"
    )
