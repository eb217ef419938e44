"""One builder for the six pipe-routing programs: deterministic, robust, and
stochastic objectives, each in an undirected and a directed flow formulation.
``build_model`` and ``build_do`` are its entries; DO is the case with no
scenarios.

Conventions of the builder:

* ``x_{p}_{u}_{v}`` is the installation variable of pipe ``p`` on edge
  ``(u, v)``.  In single-stage models it is declared continuous on [0, 1]
  because the binary flow variables force it integral at any optimum.  In the
  two-stage models the first-stage copy must stay binary: retrofit terms
  reward raising it, and the balance point between scenarios can otherwise
  sit at a strictly cheaper fractional value.  Scenario copies only ever feel
  downward pressure, so they stay continuous.  Pre-existing pairs are fixed
  to 1 and carry no cost.
* Scenario copies get an ``_s{s}`` name suffix (``s`` starting at 1) and use
  the scenario's feasible pipes, admissible arcs, terminal groups, and
  inflated costs.
* First-stage installation is charged over every pipe-edge pair not already
  present; retrofit terms charge every pair, which is exact because the
  linking constraints force scenario installations to dominate first-stage
  ones pair by pair.
* Flow-conservation style rows are emitted only for vertices touched by at
  least one admissible arc; rows over an empty sum would be vacuous.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal, Sequence

from .graph_core import EdgePipeSet, Instance, TwoStageInstance
from .milp_core import MilpModel, MilpSolution

Optimization = Literal["do", "ro", "so"]
Flow = Literal["u", "d"]


@dataclass(frozen=True)
class ModelKind:
    """One of the six cells: {DO, RO, SO} x {undirected, directed}."""

    optimization: Optimization
    flow: Flow

    def __post_init__(self) -> None:
        if self.optimization not in ("do", "ro", "so"):
            raise ValueError(f"unknown optimization type {self.optimization!r}")
        if self.flow not in ("u", "d"):
            raise ValueError(f"unknown flow formulation {self.flow!r}")

    @property
    def label(self) -> str:
        return f"{self.optimization.upper()}-{self.flow.upper()}"


@dataclass(frozen=True)
class BuiltModel:
    """A built program plus each stage's installation handles,
    ``stage_x[stage][(pipe, edge id)]``; stage 0 is the first stage, stages
    1..S the scenarios.  A solution's ``x`` is read by these handles: column
    names appear only in LP text."""

    kind: ModelKind
    milp: MilpModel
    stage_x: tuple[dict[tuple[int, int], int], ...]
    build_time: float

    def extract_sets(self, solution: MilpSolution) -> tuple[EdgePipeSet, tuple[EdgePipeSet, ...]]:
        """Installed pipe-edge pairs per stage from a solved model."""
        stages = tuple(
            EdgePipeSet(frozenset(pe for pe, handle in x.items() if solution.x[handle] >= 0.5))
            for x in self.stage_x
        )
        return stages[0], stages[1:]


ArcVariables = dict[tuple[int, int, int], int]  # (pipe, tail, head) -> handle


class _StageIndex:
    """What the flow blocks of one stage iterate over: feasible pipes and
    admissible edges ascending, both arcs of each admissible edge in edge
    order, the heads of each vertex's outgoing arcs, and the active
    vertices (those touched by an admissible edge), ascending."""

    def __init__(self, inst: Instance) -> None:
        self.pipes = tuple(sorted(inst.feasible_pipes))
        self.edges = tuple(
            (eid, *inst.graph.endpoints(eid)) for eid in sorted(inst.admissible_edges)
        )
        self.arcs = tuple(arc for _, u, v in self.edges for arc in ((u, v), (v, u)))
        self.heads: dict[int, list[int]] = {}
        for u, v in self.arcs:
            self.heads.setdefault(u, []).append(v)
        self.active = tuple(sorted(self.heads))

    def arc_variables(self, model: MilpModel, prefix: str, kind: str, suffix: str) -> ArcVariables:
        """One [0, 1] variable ``{prefix}_{p}_{u}_{v}{suffix}`` per feasible
        pipe and arc, pipe-major."""
        return {
            (p, u, v): model.add_variable(f"{prefix}_{p}_{u}_{v}{suffix}", kind, 0.0, 1.0)
            for p in self.pipes
            for u, v in self.arcs
        }

    def into(
        self, var: ArcVariables, v: int, pipes: tuple[int, ...] | None = None
    ) -> list[tuple[int, float]]:
        """Each arc into ``v`` at +1, over ``pipes`` (default: all feasible)."""
        return [(var[(p, w, v)], 1.0) for p in pipes or self.pipes for w in self.heads.get(v, ())]

    def out_of(self, var: ArcVariables, v: int, coef: float = 1.0) -> list[tuple[int, float]]:
        """Each arc out of ``v`` at ``coef``."""
        return [(var[(p, v, w)], coef) for p in self.pipes for w in self.heads.get(v, ())]

    def net_out(self, var: ArcVariables, v: int) -> list[tuple[int, float]]:
        """Each arc out of ``v`` at +1 followed by its reverse at -1."""
        return [
            term
            for p in self.pipes
            for w in self.heads.get(v, ())
            for term in ((var[(p, v, w)], 1.0), (var[(p, w, v)], -1.0))
        ]


def _add_x_variables(
    model: MilpModel, inst: Instance, existing: frozenset[tuple[int, int]], suffix: str
) -> dict[tuple[int, int], int]:
    """Installation-variable handles of one stage, keyed by (pipe, edge id)."""
    x: dict[tuple[int, int], int] = {}
    for p in range(1, inst.pipes.num_pipe_types + 1):
        for eid, (u, v) in enumerate(inst.graph.edges):
            fixed = (p, eid) in existing
            x[(p, eid)] = model.add_variable(
                f"x_{p}_{u}_{v}{suffix}",
                "continuous",
                1.0 if fixed else 0.0,
                1.0,
            )
    return x


def _add_undirected_block(
    model: MilpModel,
    inst: Instance,
    existing: frozenset[tuple[int, int]],
    suffix: str,
) -> dict[tuple[int, int], int]:
    """Variables and constraints of the undirected flow formulation: one
    commodity per non-root terminal, flow conservation summed over feasible
    pipes, and anti-parallel coupling of flows to installations."""
    x = _add_x_variables(model, inst, existing, suffix)
    index = _StageIndex(inst)
    terminals = inst.terminals.non_root_terminals()
    roots = inst.terminals.roots
    group_of = inst.terminals.group_of

    f = {t: index.arc_variables(model, f"f_{t}", "binary", suffix) for t in terminals}

    for t in terminals:
        root = roots[group_of[t]]
        for v in index.active:
            rhs = 1.0 if v == root else -1.0 if v == t else 0.0
            model.add_constraint(f"flow_{t}_{v}{suffix}", index.net_out(f[t], v), "=", rhs)

    for t in terminals:
        for p in index.pipes:
            for eid, u, v in index.edges:
                model.add_constraint(
                    f"cap_{t}_{p}_{u}_{v}{suffix}",
                    [(f[t][(p, u, v)], 1.0), (f[t][(p, v, u)], 1.0), (x[(p, eid)], -1.0)],
                    "<=",
                    0.0,
                )
    return x


def _add_directed_block(
    model: MilpModel,
    inst: Instance,
    existing: frozenset[tuple[int, int]],
    suffix: str,
) -> dict[tuple[int, int], int]:
    """Variables and constraints of the directed formulation: arborescences
    that merge overlapping groups under a single root, which rules out the
    opposing fractional flow cycles the undirected relaxation admits."""
    x = _add_x_variables(model, inst, existing, suffix)
    index = _StageIndex(inst)
    groups = inst.terminals.groups
    roots = inst.terminals.roots
    group_of = inst.terminals.group_of
    num_groups = len(groups)
    ks = range(1, num_groups + 1)

    def tail_union(k: int) -> list[int]:
        """Terminals of groups k..K (1-based k), ascending."""
        return sorted(t for g in groups[k - 1 :] for t in g)

    commodities = [(k, t) for k in ks for t in tail_union(k) if t != roots[k - 1]]

    f = {(k, t): index.arc_variables(model, f"fD_{k}_{t}", "binary", suffix) for k, t in commodities}
    yk = {k: index.arc_variables(model, f"yk_{k}", "continuous", suffix) for k in ks}
    y = index.arc_variables(model, "y", "continuous", suffix)
    z = {(k, l): model.add_variable(f"z_{k}_{l}{suffix}", "binary") for k in ks for l in ks if l >= k}

    # flow conservation with z on the right-hand side, folded to the left
    for k, t in commodities:
        l = group_of[t] + 1
        for v in index.active:
            terms = index.net_out(f[(k, t)], v)
            if v == roots[k - 1]:
                terms.append((z[(k, l)], -1.0))
            elif v == t:
                terms.append((z[(k, l)], 1.0))
            model.add_constraint(f"flowD_{k}_{t}_{v}{suffix}", terms, "=", 0.0)

    # flows activate the per-arborescence arc indicators
    for k, t in commodities:
        for (p, u, v), handle in f[(k, t)].items():
            model.add_constraint(
                f"act_{k}_{t}_{p}_{u}_{v}{suffix}",
                [(handle, 1.0), (yk[k][(p, u, v)], -1.0)],
                "<=",
                0.0,
            )

    # every arc belongs to at most one arborescence
    for (p, u, v), handle in y.items():
        terms = [(yk[k][(p, u, v)], 1.0) for k in ks]
        terms.append((handle, -1.0))
        model.add_constraint(f"arb_{p}_{u}_{v}{suffix}", terms, "<=", 0.0)

    # one direction per installed edge
    for p in index.pipes:
        for eid, u, v in index.edges:
            model.add_constraint(
                f"dir_{p}_{u}_{v}{suffix}",
                [(y[(p, u, v)], 1.0), (y[(p, v, u)], 1.0), (x[(p, eid)], -1.0)],
                "<=",
                0.0,
            )

    # every group is rooted exactly once, and only at the root of its own
    # arborescence
    for k in ks:
        model.add_constraint(
            f"root_{k}{suffix}", [(z[(l, k)], 1.0) for l in range(1, k + 1)], "=", 1.0
        )
    for k in range(2, num_groups):
        for l in range(k + 1, num_groups + 1):
            model.add_constraint(
                f"rootdom_{k}_{l}{suffix}", [(z[(k, l)], 1.0), (z[(k, k)], -1.0)], "<=", 0.0
            )

    # strengthening rows: single receiving pipe per vertex, no flow into
    # earlier groups, no flow out of a commodity's own sink, and flow balance
    # at vertices that are not targets
    for v in index.active:
        model.add_constraint(f"onepipe_{v}{suffix}", index.into(y, v), "<=", 1.0)

    for k in range(2, num_groups + 1):
        for t in sorted(t for g in groups[: k - 1] for t in g):
            model.add_constraint(f"noearly_{k}_{t}{suffix}", index.into(yk[k], t), "=", 0.0)

    for k, t in commodities:
        model.add_constraint(f"nosinkout_{k}_{t}{suffix}", index.out_of(f[(k, t)], t), "=", 0.0)

    all_terminals = inst.terminals.all_terminals
    for v in index.active:
        if v not in all_terminals:
            terms = index.into(y, v) + index.out_of(y, v, -1.0)
            model.add_constraint(f"bal_{v}{suffix}", terms, "<=", 0.0)

    for k in ks:
        targets = set(tail_union(k)) - {roots[k - 1]}
        for v in index.active:
            if v not in targets:
                terms = index.into(yk[k], v) + index.out_of(yk[k], v, -1.0)
                model.add_constraint(f"balk_{k}_{v}{suffix}", terms, "<=", 0.0)

    # an arborescence may enter a later root only if it owns that group
    for k in range(1, num_groups):
        for l in range(k + 1, num_groups + 1):
            for p in index.pipes:
                terms = index.into(yk[k], roots[l - 1], (p,))
                terms.append((z[(k, l)], -1.0))
                model.add_constraint(f"rootuse_{k}_{l}_{p}{suffix}", terms, "<=", 0.0)
    return x


_BLOCKS = {"u": _add_undirected_block, "d": _add_directed_block}


def _build(
    kind: ModelKind,
    first: Instance,
    existing: EdgePipeSet,
    scenarios: tuple[Instance, ...] = (),
    probabilities: tuple[float, ...] = (),
) -> BuiltModel:
    """The first-stage block, costed over the pairs not in ``existing``,
    plus one linked block per scenario.  With no scenarios this is DO.  RO
    adds the worst-case retrofit through an epigraph variable ``d`` over the
    scenario retrofit costs; SO adds the probability-weighted retrofit
    costs."""
    started = time.perf_counter()
    existing.check(first.graph, first.pipes.num_pipe_types)
    model = MilpModel(kind.label)
    block = _BLOCKS[kind.flow]
    robust = kind.optimization == "ro"

    stage_x = [block(model, first, existing.pairs, "")]
    objective = {
        handle: first.pair_cost(p, eid)
        for (p, eid), handle in stage_x[0].items()
        if (p, eid) not in existing
    }
    if scenarios:
        for handle in objective:  # fixed pairs stay continuous at [1, 1]
            model.make_binary(handle)
    for s, scenario in enumerate(scenarios, start=1):
        stage_x.append(block(model, scenario, frozenset(), f"_s{s}"))

    d_handle = model.add_variable("d", "continuous", 0.0) if robust else None
    if robust:
        objective[d_handle] = 1.0
    for s, (scenario, rho) in enumerate(zip(scenarios, probabilities), start=1):
        epigraph: list[tuple[int, float]] = [(d_handle, 1.0)] if robust else []
        for (p, eid), handle in stage_x[s].items():
            inflated = scenario.pair_cost(p, eid)
            first_handle = stage_x[0][(p, eid)]
            u, v = first.graph.endpoints(eid)
            model.add_constraint(
                f"link_{p}_{u}_{v}_s{s}", [(handle, 1.0), (first_handle, -1.0)], ">=", 0.0
            )
            if robust:
                epigraph.append((handle, -inflated))
                epigraph.append((first_handle, inflated))
            else:
                objective[handle] = objective.get(handle, 0.0) + rho * inflated
                objective[first_handle] = objective.get(first_handle, 0.0) - rho * inflated
        if robust:
            model.add_constraint(f"worst_s{s}", epigraph, ">=", 0.0)
    model.set_objective(objective)
    return BuiltModel(kind, model, tuple(stage_x), time.perf_counter() - started)


def build_do(instance: Instance, existing: EdgePipeSet = EdgePipeSet(), flow: Flow = "u") -> BuiltModel:
    """Single-stage deterministic model on one instance."""
    return _build(ModelKind("do", flow), instance, existing)


def build_model(kind: ModelKind, two_stage: TwoStageInstance) -> BuiltModel:
    """Any of the six models on a two-stage instance; SO weights each
    scenario by the instance's probability.  RO and SO need at least one
    scenario."""
    if kind.optimization == "do":
        return build_do(two_stage.first_stage, two_stage.existing, kind.flow)
    if not two_stage.scenarios:
        name = "robust" if kind.optimization == "ro" else "stochastic"
        raise ValueError(f"{name} model needs at least one scenario")
    return _build(
        kind, two_stage.first_stage, two_stage.existing, two_stage.scenarios,
        two_stage.probabilities,
    )


ALL_KINDS = tuple(ModelKind(o, f) for o in ("do", "ro", "so") for f in ("u", "d"))


def dominated_pipes(stages: Sequence[Instance], existing: EdgePipeSet) -> frozenset[int]:
    """Pipe types that a program over ``stages`` with ``existing`` installed
    can do without: removing them from every stage's feasible pipes (see
    ``Instance.without_pipes``) leaves its optimum unchanged.

    Pipe q is dropped when no existing pair uses it, and one kept pipe p is
    feasible in every stage where q is and costs no more than q on any edge.
    Then any plan that lays (q, e) in a stage stays feasible, and gets no
    dearer, when it lays (p, e) there instead, in the first stage and,
    through the link rows, in every scenario.  The stages share one catalog
    and each scales all of its costs by one multiplier, so the base costs
    decide.  q is scanned in ascending order, so of two equal pipes exactly
    one is kept.
    """
    catalog = stages[0].pipes
    if any(inst.pipes != catalog for inst in stages):
        raise ValueError("the stages do not share one pipe catalog")
    costs = catalog.base_costs
    used = {p for p, _ in existing.pairs}
    dropped: set[int] = set()
    for q in range(1, catalog.num_pipe_types + 1):
        if q in used:
            continue
        where = [inst.feasible_pipes for inst in stages if q in inst.feasible_pipes]
        for p in range(1, catalog.num_pipe_types + 1):
            if (
                p != q
                and p not in dropped
                and all(p in feasible for feasible in where)
                and all(cp <= cq for cp, cq in zip(costs[p - 1], costs[q - 1]))
            ):
                dropped.add(q)
                break
    return frozenset(dropped)


def _stage_size(inst: Instance, flow: Flow) -> tuple[int, int]:
    """Closed-form variable/constraint counts of one stage block."""
    total_edges = inst.graph.num_edges
    num_pipes = inst.pipes.num_pipe_types
    feas = len(inst.feasible_pipes)
    adm = len(inst.admissible_edges)
    arcs = 2 * adm
    active = len(_StageIndex(inst).active)
    groups = inst.terminals.groups
    sizes = [len(g) for g in groups]
    num_groups = len(groups)
    if flow == "u":
        commodities = sum(sizes) - num_groups
        num_vars = num_pipes * total_edges + commodities * feas * arcs
        num_cons = commodities * active + commodities * feas * adm
        return num_vars, num_cons
    tails = [sum(sizes[k - 1 :]) for k in range(1, num_groups + 1)]
    commodities_per_k = [t - 1 for t in tails]
    commodities = sum(commodities_per_k)
    earlier = [sum(sizes[: k - 1]) for k in range(1, num_groups + 1)]
    steiner_active = active - len(inst.terminals.all_terminals)
    num_vars = (
        num_pipes * total_edges
        + commodities * feas * arcs
        + num_groups * feas * arcs
        + feas * arcs
        + num_groups * (num_groups + 1) // 2
    )
    num_cons = (
        commodities * active  # flow conservation
        + commodities * feas * arcs  # flow activates arborescence arcs
        + feas * arcs  # one arborescence per arc
        + feas * adm  # one direction per edge
        + num_groups  # each group rooted once
        + max(num_groups - 2, 0) * (num_groups - 1) // 2  # root dominance
        + active  # one receiving pipe per vertex
        + sum(earlier[1:])  # no flow into earlier groups
        + commodities  # no flow out of a sink
        + steiner_active  # aggregate flow balance
        + sum(steiner_active + earlier[k - 1] + 1 for k in range(1, num_groups + 1))
        + feas * num_groups * (num_groups - 1) // 2  # later-root usage
    )
    return num_vars, num_cons


def expected_size(kind: ModelKind, two_stage: TwoStageInstance) -> tuple[int, int]:
    """Closed-form size of a built model, for cross-checking the builders."""
    first_vars, first_cons = _stage_size(two_stage.first_stage, kind.flow)
    if kind.optimization == "do":
        return first_vars, first_cons
    num_vars, num_cons = first_vars, first_cons
    pair_count = two_stage.first_stage.pipes.num_pipe_types * two_stage.first_stage.graph.num_edges
    for scenario in two_stage.scenarios:
        s_vars, s_cons = _stage_size(scenario, kind.flow)
        num_vars += s_vars
        num_cons += s_cons + pair_count  # linking rows
    if kind.optimization == "ro":
        num_vars += 1  # epigraph variable
        num_cons += two_stage.num_scenarios  # worst-case rows
    return num_vars, num_cons
