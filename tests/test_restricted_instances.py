"""Oracle cross-checks on instances that stress the restricted paths:
admissible-edge subsets, pre-existing pipe sets, per-stage pipe feasibility,
and uneven scenario probabilities."""
from dataclasses import replace

import numpy as np
import pytest

from ssfp.graph_core import (
    EdgePipeSet,
    Instance,
    PipeCatalog,
    TerminalGroups,
    TwoStageInstance,
    UnionFind,
    cost,
    validate_feasible,
)
from ssfp.experiments import evaluate_under
from ssfp.instances import grid_graph, make_rng
from ssfp.models import ALL_KINDS, ModelKind, build_model, dominated_pipes
from ssfp.solver import brute_force, solve_milp
from conftest import criterion_4_corpus


def spanning_subset(graph, rng) -> frozenset[int]:
    """A random spanning tree plus a random half of the remaining edges, so
    every vertex set stays connectable."""
    order = rng.permutation(graph.num_edges)
    uf = UnionFind(graph.num_vertices + 1)
    chosen = set()
    for eid in order:
        u, v = graph.endpoints(int(eid))
        if uf.find(u) != uf.find(v):
            uf.union(u, v)
            chosen.add(int(eid))
        elif rng.random() < 0.5:
            chosen.add(int(eid))
    return frozenset(chosen)


def restricted_instance(seed: int) -> TwoStageInstance:
    rng = make_rng(seed)
    graph = grid_graph(2, 3)
    gamma1 = rng.uniform(1.0, 10.0, size=graph.num_edges)
    catalog = PipeCatalog(2, (tuple(gamma1), tuple(2.0 * gamma1)))

    def stage(multiplier: float) -> Instance:
        size = int(rng.integers(2, 4))
        terminals = tuple(int(t) for t in rng.permutation(np.arange(1, 7))[:size])
        pipes = frozenset({1, 2} if rng.random() < 0.5 else {int(rng.integers(1, 3))})
        return Instance(
            graph, catalog, TerminalGroups((terminals,)), pipes,
            spanning_subset(graph, rng), multiplier,
        )

    first = stage(1.0)
    scenarios = (stage(2.0), stage(2.0))
    rho2 = float(rng.uniform(0.2, 0.8))
    existing = frozenset(
        (p, e)
        for p in (1, 2)
        for e in range(graph.num_edges)
        if rng.random() < 0.1
    )
    return TwoStageInstance(first, scenarios, (1.0 - rho2, rho2), EdgePipeSet(existing))


@pytest.mark.parametrize("seed", range(8))
def test_all_models_match_oracle_on_restricted_instances(seed):
    ts = restricted_instance(seed)
    for mode in ("do", "ro", "so"):
        oracle = brute_force(ts, mode)
        for flow in ("u", "d"):
            built = build_model(ModelKind(mode, flow), ts)
            solution = solve_milp(built.milp)
            assert solution.objective == pytest.approx(oracle.objective, abs=1e-9), (
                f"{mode}-{flow} seed {seed}"
            )
            first, scenario_sets = built.extract_sets(solution)
            assert validate_feasible(ts.first_stage, first)
            if mode != "do":
                for scen_inst, scen_set in zip(ts.scenarios, scenario_sets):
                    assert validate_feasible(scen_inst, scen_set)


#: Seeds 8, 9, 10 and 12 qualify for the pipe-type reduction; the rest do not.
REDUCTION_SEEDS = range(16)


def _dropped(ts: TwoStageInstance) -> frozenset[int]:
    return dominated_pipes((ts.first_stage, *ts.scenarios), ts.existing)


def test_corpus_holds_both_outcomes_of_the_reduction():
    outcomes = {_dropped(restricted_instance(seed)) for seed in REDUCTION_SEEDS}
    assert outcomes == {frozenset(), frozenset({2})}


@pytest.mark.parametrize("seed", REDUCTION_SEEDS)
def test_reduced_solves_match_oracle_on_restricted_instances(seed):
    """The six models on the instance without the dominated pipe types, and
    the reduced recourse solves behind ``evaluate_under``, against the
    oracle."""
    ts = restricted_instance(seed)
    reduced = ts.without_pipes(_dropped(ts))
    for mode in ("do", "ro", "so"):
        oracle = brute_force(ts, mode)
        for flow in ("u", "d"):
            built = build_model(ModelKind(mode, flow), reduced)
            solution = solve_milp(built.milp)
            assert solution.objective == pytest.approx(oracle.objective, abs=1e-9), (
                f"{mode}-{flow} seed {seed}"
            )
        if mode != "do":
            value = evaluate_under(mode, ts, oracle.first_stage)
            assert value == pytest.approx(oracle.objective, abs=1e-9), f"{mode} recourse seed {seed}"


def test_existing_pairs_never_charged():
    ts = restricted_instance(3)
    result = brute_force(ts, "do")
    charged = cost(ts.first_stage, ts.existing, result.first_stage)
    assert charged == pytest.approx(result.objective, abs=1e-9)


def _with_two_existing_pairs(ts: TwoStageInstance, seed: int) -> TwoStageInstance:
    """``ts`` with pipe 1 already laid on two of its first stage's admissible
    edges, picked by ``seed``."""
    edges = sorted(ts.first_stage.admissible_edges)
    picked = make_rng(seed).choice(len(edges), size=2, replace=False)
    return replace(ts, existing=EdgePipeSet(frozenset((1, edges[k]) for k in picked)))


@pytest.mark.parametrize("seed", range(20))
def test_six_models_match_the_oracle_with_existing_pairs(seed):
    """On a criterion-4 instance with two existing pairs, every model's
    optimum equals the oracle's.  The existing pairs' first-stage columns
    sit at [1, 1]; they are binary in the two-stage models, as every other
    first-stage column there is, and continuous in DO.  They cost 0 in DO
    and RO; in SO they keep the retrofit terms' first-stage part,
    -sum(rho_s * c_s), which their scenario copies' +rho_s * c_s cancel."""
    ts = _with_two_existing_pairs(criterion_4_corpus(seed + 1)[seed], seed)
    oracle = {mode: brute_force(ts, mode).objective for mode in ("do", "ro", "so")}
    for kind in ALL_KINDS:
        built = build_model(kind, ts)
        model = built.milp
        installed = [built.stage_x[0][pair] for pair in ts.existing.pairs]
        assert {
            (bool(model.col_binary[h]), model.col_lower[h], model.col_upper[h]) for h in installed
        } == {(kind.optimization != "do", 1.0, 1.0)}, kind.label
        for pair in ts.existing.pairs:
            retrofit = sum(
                rho * scenario.pair_cost(*pair)
                for scenario, rho in zip(ts.scenarios, ts.probabilities)
            )
            expected = -retrofit if kind.optimization == "so" else 0.0
            assert model.col_cost[built.stage_x[0][pair]] == pytest.approx(expected, abs=1e-12), (
                f"{kind.label} {pair}"
            )
        solution = solve_milp(model)
        assert solution.objective == pytest.approx(oracle[kind.optimization], abs=1e-9), (
            f"{kind.label} seed {seed}"
        )
