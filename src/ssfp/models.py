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
  downward pressure, so they stay continuous.  Pre-existing pairs keep their
  column's kind and get the bounds [1, 1] (``MilpModel.install``); a binary
  fixed at 1 is never fractional, so the search never branches on it.  Their
  first-stage column costs 0 in DO and RO.  In SO it costs -sum_s rho_s c_s,
  the first-stage part of the retrofit terms, which the link rows cancel by
  forcing the scenario copies, at +rho_s c_s each, to 1.  So SO's
  first-stage coefficients are not the first-stage investment.
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

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence, get_args

from .graph_core import EdgePipeSet, Instance, TwoStageInstance
from .milp_core import MilpModel, MilpSolution

Optimization = Literal["do", "ro", "so"]
Flow = Literal["u", "d"]
OPTIMIZATIONS: tuple[Optimization, ...] = get_args(Optimization)  # the order of every table
FLOWS: tuple[Flow, ...] = get_args(Flow)


@dataclass(frozen=True)
class ModelKind:
    """One of the six cells: {DO, RO, SO} x {undirected, directed}."""

    optimization: Optimization
    flow: Flow

    def __post_init__(self) -> None:
        if self.optimization not in OPTIMIZATIONS:
            raise ValueError(f"unknown optimization type {self.optimization!r}")
        if self.flow not in FLOWS:
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


class _StageIndex:
    """What the flow blocks of one stage iterate over, and the row templates
    they share: feasible pipes and admissible edges ascending, both arcs of
    each admissible edge in edge order, the heads of each vertex's outgoing
    arcs, and the active vertices (those touched by an admissible edge),
    ascending.

    An arc family holds one column per feasible pipe and arc, pipe-major: the
    column of ``pipes[i]`` on ``arcs[j]`` is the family's first handle plus
    the offset ``i * len(arcs) + j``.  The templates hold such offsets, so one
    template serves every arc family of the stage."""

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

        width = len(self.arcs)
        position = {arc: j for j, arc in enumerate(self.arcs)}
        pipe_offsets = [i * width for i in range(len(self.pipes))]
        #: ``{p}_{u}_{v}`` per offset: the name tag of an arc column or row
        self.arc_tags = [f"{p}_{u}_{v}" for p in self.pipes for u, v in self.arcs]
        #: per feasible pipe and admissible edge, pipe-major: the offset of the
        #: edge's arc (u, v), whose reverse comes next, and its (pipe, edge id)
        self.edge_offsets = [
            (i + 2 * j, (p, eid))
            for i, p in zip(pipe_offsets, self.pipes)
            for j, (eid, _, _) in enumerate(self.edges)
        ]
        # per active vertex, pipe-major: the offsets of its incoming arcs, of
        # its outgoing arcs, and of each outgoing arc followed by its reverse
        self._into = {
            v: [i + position[(w, v)] for i in pipe_offsets for w in heads]
            for v, heads in self.heads.items()
        }
        self._out = {
            v: [i + position[(v, w)] for i in pipe_offsets for w in heads]
            for v, heads in self.heads.items()
        }
        self._net_out = {
            v: [i + position[arc] for i in pipe_offsets for w in heads for arc in ((v, w), (w, v))]
            for v, heads in self.heads.items()
        }

    def arc_variables(self, model: MilpModel, prefix: str, kind: str, suffix: str) -> int:
        """One [0, 1] variable ``{prefix}_{p}_{u}_{v}{suffix}`` per feasible
        pipe and arc, pipe-major; returns the family's first handle."""
        names = [f"{prefix}_{tag}{suffix}" for tag in self.arc_tags]
        return model.add_columns(names, kind, 0.0, 1.0).start

    # The terms of one row over the arc family whose first handle is ``base``,
    # as (handles, coefficients); a vertex no admissible edge touches has none.

    def into(self, base: int, v: int) -> tuple[list[int], list[float]]:
        """Each arc into ``v`` at +1."""
        offsets = self._into.get(v, [])
        return [base + o for o in offsets], [1.0] * len(offsets)

    def out_of(self, base: int, v: int) -> tuple[list[int], list[float]]:
        """Each arc out of ``v`` at +1."""
        offsets = self._out.get(v, [])
        return [base + o for o in offsets], [1.0] * len(offsets)

    def net_out(self, base: int, v: int) -> tuple[list[int], list[float]]:
        """Each arc out of ``v`` at +1 followed by its reverse at -1."""
        offsets = self._net_out.get(v, [])
        return [base + o for o in offsets], [1.0, -1.0] * (len(offsets) // 2)

    def in_minus_out(self, base: int, v: int) -> tuple[list[int], list[float]]:
        """Each arc into ``v`` at +1, then each arc out of ``v`` at -1."""
        into, out = self._into.get(v, []), self._out.get(v, [])
        return [base + o for o in into + out], [1.0] * len(into) + [-1.0] * len(out)

    def into_by_pipe(self, base: int, v: int, p: int) -> list[int]:
        """The handles of the arcs of pipe ``p`` into ``v``."""
        count = len(self.heads.get(v, ()))
        i = self.pipes.index(p)
        return [base + o for o in self._into.get(v, [])[i * count : (i + 1) * count]]


def _add_x_variables(
    model: MilpModel, inst: Instance, suffix: str, kind: str
) -> dict[tuple[int, int], int]:
    """Installation-variable handles of one stage, keyed by (pipe, edge id),
    each of ``kind`` on [0, 1] at no cost; ``_build`` prices and installs
    them."""
    pipes = range(1, inst.pipes.num_pipe_types + 1)
    names = [f"x_{p}_{u}_{v}{suffix}" for p in pipes for u, v in inst.graph.edges]
    keys = [(p, eid) for p in pipes for eid in range(inst.graph.num_edges)]
    return dict(zip(keys, model.add_columns(names, kind, 0.0, 1.0)))


def _add_undirected_block(
    model: MilpModel, inst: Instance, suffix: str, x_kind: str
) -> dict[tuple[int, int], int]:
    """Variables and constraints of the undirected flow formulation: one
    commodity per non-root terminal, flow conservation summed over feasible
    pipes, and anti-parallel coupling of flows to installations."""
    x = _add_x_variables(model, inst, suffix, x_kind)
    index = _StageIndex(inst)
    terminals = inst.terminals.non_root_terminals()
    roots = inst.terminals.roots
    group_of = inst.terminals.group_of

    # each arc family by its first handle
    f = {t: index.arc_variables(model, f"f_{t}", "binary", suffix) for t in terminals}

    def flow_rows() -> Iterator[tuple[str, list[int], list[float], float]]:
        for t in terminals:
            root = roots[group_of[t]]
            for v in index.active:
                rhs = 1.0 if v == root else -1.0 if v == t else 0.0
                yield (f"flow_{t}_{v}{suffix}", *index.net_out(f[t], v), rhs)

    model.add_rows(flow_rows(), "=")
    model.add_rows((
        (f"cap_{t}_{index.arc_tags[o]}{suffix}", [f[t] + o, f[t] + o + 1, x[pair]],
         [1.0, 1.0, -1.0], 0.0)
        for t in terminals
        for o, pair in index.edge_offsets
    ), "<=")
    return x


def _add_directed_block(
    model: MilpModel, inst: Instance, suffix: str, x_kind: str
) -> dict[tuple[int, int], int]:
    """Variables and constraints of the directed formulation: arborescences
    that merge overlapping groups under a single root, which rules out the
    opposing fractional flow cycles the undirected relaxation admits."""
    x = _add_x_variables(model, inst, suffix, x_kind)
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

    # each arc family by its first handle
    f = {(k, t): index.arc_variables(model, f"fD_{k}_{t}", "binary", suffix) for k, t in commodities}
    yk = {k: index.arc_variables(model, f"yk_{k}", "continuous", suffix) for k in ks}
    y = index.arc_variables(model, "y", "continuous", suffix)
    z_keys = [(k, l) for k in ks for l in ks if l >= k]
    z = dict(zip(z_keys, model.add_columns([f"z_{k}_{l}{suffix}" for k, l in z_keys], "binary")))

    # flow conservation with z on the right-hand side, folded to the left
    def flow_rows() -> Iterator[tuple[str, list[int], list[float], float]]:
        for k, t in commodities:
            root, z_kl = roots[k - 1], z[(k, group_of[t] + 1)]
            for v in index.active:
                handles, coefs = index.net_out(f[(k, t)], v)
                if v in (root, t):
                    handles.append(z_kl)
                    coefs.append(-1.0 if v == root else 1.0)
                yield f"flowD_{k}_{t}_{v}{suffix}", handles, coefs, 0.0

    model.add_rows(flow_rows(), "=")

    # flows activate the per-arborescence arc indicators
    model.add_rows((
        (f"act_{k}_{t}_{tag}{suffix}", [f[(k, t)] + o, yk[k] + o], [1.0, -1.0], 0.0)
        for k, t in commodities
        for o, tag in enumerate(index.arc_tags)
    ), "<=")

    # every arc belongs to at most one arborescence
    model.add_rows((
        (f"arb_{tag}{suffix}", [yk[k] + o for k in ks] + [y + o], [1.0] * num_groups + [-1.0], 0.0)
        for o, tag in enumerate(index.arc_tags)
    ), "<=")

    # one direction per installed edge
    model.add_rows((
        (f"dir_{index.arc_tags[o]}{suffix}", [y + o, y + o + 1, x[pair]], [1.0, 1.0, -1.0], 0.0)
        for o, pair in index.edge_offsets
    ), "<=")

    # every group is rooted exactly once, and only at the root of its own
    # arborescence
    model.add_rows((
        (f"root_{k}{suffix}", [z[(l, k)] for l in range(1, k + 1)], [1.0] * k, 1.0) for k in ks
    ), "=")
    model.add_rows((
        (f"rootdom_{k}_{l}{suffix}", [z[(k, l)], z[(k, k)]], [1.0, -1.0], 0.0)
        for k, l in itertools.combinations(range(2, num_groups + 1), 2)
    ), "<=")

    # strengthening rows: single receiving pipe per vertex, no flow into
    # earlier groups, no flow out of a commodity's own sink, and flow balance
    # at vertices that are not targets
    model.add_rows((
        (f"onepipe_{v}{suffix}", *index.into(y, v), 1.0) for v in index.active
    ), "<=")
    model.add_rows((
        (f"noearly_{k}_{t}{suffix}", *index.into(yk[k], t), 0.0)
        for k in range(2, num_groups + 1)
        for t in sorted(t for g in groups[: k - 1] for t in g)
    ), "=")
    model.add_rows((
        (f"nosinkout_{k}_{t}{suffix}", *index.out_of(f[(k, t)], t), 0.0) for k, t in commodities
    ), "=")

    all_terminals = inst.terminals.all_terminals
    model.add_rows((
        (f"bal_{v}{suffix}", *index.in_minus_out(y, v), 0.0)
        for v in index.active
        if v not in all_terminals
    ), "<=")
    targets = {k: set(tail_union(k)) - {roots[k - 1]} for k in ks}
    model.add_rows((
        (f"balk_{k}_{v}{suffix}", *index.in_minus_out(yk[k], v), 0.0)
        for k in ks
        for v in index.active
        if v not in targets[k]
    ), "<=")

    # an arborescence may enter a later root only if it owns that group
    def rootuse_rows() -> Iterator[tuple[str, list[int], list[float], float]]:
        for (k, l), p in itertools.product(itertools.combinations(ks, 2), index.pipes):
            handles = index.into_by_pipe(yk[k], roots[l - 1], p)
            yield (f"rootuse_{k}_{l}_{p}{suffix}", handles + [z[(k, l)]],
                   [1.0] * len(handles) + [-1.0], 0.0)

    model.add_rows(rootuse_rows(), "<=")
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

    stage_x = [block(model, first, "", "binary" if scenarios else "continuous")]
    model.install([stage_x[0][pair] for pair in existing])
    for s, scenario in enumerate(scenarios, start=1):
        stage_x.append(block(model, scenario, f"_s{s}", "continuous"))

    d_handle = model.add_columns(["d"], "continuous", 0.0)[0] if robust else None
    # installed pairs carry no cost; the retrofit terms add to the prices
    objective = {
        handle: 0.0 if pair in existing else first.pair_cost(*pair)
        for pair, handle in stage_x[0].items()
    }
    if robust:
        objective[d_handle] = 1.0
    pipes = range(1, first.pipes.num_pipe_types + 1)
    pair_tags = [f"{p}_{u}_{v}" for p in pipes for u, v in first.graph.edges]  # stage_x order
    for s, (scenario, rho) in enumerate(zip(scenarios, probabilities), start=1):
        model.add_rows((
            (f"link_{tag}_s{s}", [handle, stage_x[0][pair]], [1.0, -1.0], 0.0)
            for tag, (pair, handle) in zip(pair_tags, stage_x[s].items())
        ), ">=")
        handles, coefs = [d_handle], [1.0]  # the epigraph row, when robust
        for pair, handle in stage_x[s].items():
            inflated = scenario.pair_cost(*pair)
            first_handle = stage_x[0][pair]
            if robust:
                handles += (handle, first_handle)
                coefs += (-inflated, inflated)
            else:
                objective[handle] = objective.get(handle, 0.0) + rho * inflated
                objective[first_handle] -= rho * inflated
        if robust:
            model.add_rows([(f"worst_s{s}", handles, coefs, 0.0)], ">=")
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


ALL_KINDS = tuple(ModelKind(o, f) for o in OPTIMIZATIONS for f in FLOWS)


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
    active = len({v for eid in inst.admissible_edges for v in inst.graph.endpoints(eid)})
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
