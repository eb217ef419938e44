"""Exact optimization: branch and bound over HiGHS LPs, and an exhaustive oracle.

One branch and bound loads its model once into a HiGHS instance and re-solves
it at every node with that node's column bounds, warm from the last basis
(dual simplex).  The HiGHS binding is scipy's private
``scipy.optimize._highspy._core``.  The branch-and-bound search, node
bookkeeping, and the subset-enumeration oracle live here.  The value of the LP
relaxation is a solve's ``root_bound``; ``solve_milp(model, node_limit=1)``
stops after that LP.  A solve of a ``MilpModel`` loads it into a HiGHS
instance of its own, so such solves may run concurrently.  A ``LoadedModel``
keeps one HiGHS instance across solves and is changed by each, so it serves
one solve at a time.
"""
from __future__ import annotations

import functools
import heapq
import importlib.machinery
import importlib.metadata
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS extension module, loaded from its file.

    ``import scipy.optimize._highspy._core`` first runs scipy.optimize's
    package init, which imports scipy.optimize, scipy.linalg, scipy.sparse and
    more, none of which ssfp uses: on a 2-core host, 0.4 s or more and some
    40 MiB per process.  Loading the file directly skips all of that.  The
    module is not put into ``sys.modules``: registered there, a later normal
    import would leave the parent package without its ``_core`` attribute.
    CPython initialises the extension once per process, so a later normal
    import gets the same types.  A module that is already imported is reused.
    """
    if _CORE in sys.modules:
        core = sys.modules[_CORE]
    else:
        scipy_spec = importlib.util.find_spec("scipy")  # finds scipy without importing it
        locations = scipy_spec.submodule_search_locations if scipy_spec else None
        dirs = [os.path.join(d, "optimize", "_highspy") for d in locations or ()]
        spec = importlib.machinery.PathFinder.find_spec(_CORE, dirs)
        core = None
        if spec is not None:
            core = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(core)
    if core is None:  # pragma: no cover - depends on the installed scipy
        try:
            found = f"which scipy {importlib.metadata.version('scipy')} does not provide"
        except importlib.metadata.PackageNotFoundError:
            found = "but scipy is not installed"
        raise ImportError(
            f"ssfp needs scipy's HiGHS binding {_CORE}._Highs, {found}; install scipy>=1.15"
        )
    return core


_core = _highs_core()
HighsLp, HighsModelStatus, HighsStatus, MatrixFormat, _Highs = (
    _core.HighsLp, _core.HighsModelStatus, _core.HighsStatus, _core.MatrixFormat, _core._Highs
)

from .graph_core import EdgePipeSet, Instance, TwoStageInstance, is_integer, is_number
from .milp_core import SENSES, MilpModel, MilpSolution, checked_columns
from .models import OPTIMIZATIONS, Optimization

#: Largest pipe-edge universe the exhaustive oracle will enumerate.
BRUTE_FORCE_PAIR_LIMIT = 22
#: A binary whose LP value is this close to 0 or 1 counts as integral.
INTEGRALITY_TOL = 1e-6
#: A node must beat the incumbent by more than this to be explored.
PRUNE_TOL = 1e-9

#: The bound of a node LP that ends without an optimum.  Any HiGHS status
#: other than these and kOptimal is numerical trouble, kUnboundedOrInfeasible
#: included: reading it as unbounded would end the search.
_NO_OPTIMUM_BOUND = {HighsModelStatus.kInfeasible: math.inf, HighsModelStatus.kUnbounded: -math.inf}


class SolverError(RuntimeError):
    pass


class SolverNumericalError(SolverError):
    """The LP backend reported numerical trouble; no answer is returned."""


class BruteForceBudgetError(SolverError):
    """The instance exceeds the exhaustive-search budget."""


class LoadedModel:
    """A model loaded once into HiGHS, to be solved any number of times:
    columns with their bounds and costs, and one ranged row
    ``row_lower <= a x <= row_upper`` per constraint.

    ``install`` lays exactly the given columns, as ``MilpModel.install``
    does on the model as loaded, with its checks and error text; it never
    touches the model it was loaded from.  ``install(())`` gives every
    column back the bounds and cost it was loaded with.  HiGHS gets the
    change at the next LP: ``linprog`` passes it the columns whose bounds or
    cost differ from what it holds, never the rows.  Presolve is off, so
    every solve starts from the basis the last one left."""

    def __init__(self, model: MilpModel) -> None:
        n, m = model.num_variables, model.num_constraints
        self.name = model.name
        self.col_names = list(model.col_names)  # for error text
        # np.array copies the model's buffers; a view would lock them against
        # appends for as long as this form lives
        self.lb = np.array(model.col_lower, dtype=float)
        self.ub = np.array(model.col_upper, dtype=float)
        self.binary = np.array(model.col_binary, dtype=bool)
        self.cost = np.array(model.col_cost, dtype=float)
        coefficients = np.array(model.row_coef, dtype=float)
        rhs = np.array(model.row_rhs, dtype=float)
        if not all(np.isfinite(values).all() for values in (self.cost, coefficients, rhs)):
            raise ValueError(
                f"model {model.name!r}: objective coefficients, constraint coefficients "
                "and right-hand sides must be finite"
            )
        # a constraint with no terms stays a zero row; HiGHS decides it
        sense = np.array(model.row_sense, dtype=np.int8)
        self.row_lower = np.where(sense == SENSES.index("<="), -math.inf, rhs)
        self.row_upper = np.where(sense == SENSES.index(">="), math.inf, rhs)

        lp = HighsLp()
        lp.num_col_, lp.num_row_ = n, m
        lp.col_cost_ = self.cost
        lp.col_lower_, lp.col_upper_ = self.lb, self.ub
        lp.row_lower_, lp.row_upper_ = self.row_lower, self.row_upper
        lp.a_matrix_.format_ = MatrixFormat.kRowwise
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = n, m
        lp.a_matrix_.start_ = np.array(model.row_start, dtype=np.int32)
        lp.a_matrix_.index_ = np.array(model.row_index, dtype=np.int32)
        lp.a_matrix_.value_ = coefficients
        # the columns as loaded, for install, and as HiGHS holds them now
        self.loaded_lb, self.loaded_cost = self.lb.copy(), self.cost.copy()
        self.sent_lb, self.sent_ub, self.sent_cost = self.lb.copy(), self.ub.copy(), self.cost.copy()
        self.highs = _Highs()
        # before passModel, or HiGHS writes its banner and log to stdout
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("presolve", "off")
        if self.highs.passModel(lp) == HighsStatus.kError:
            raise SolverNumericalError(f"model {model.name!r}: HiGHS rejected the model")

    def install(self, handles: Iterable[int]) -> None:
        """Lay exactly the columns in ``handles``: lower bound 1 and no cost,
        as ``MilpModel.install`` does; every other column gets back its
        bounds and cost as loaded.  All are checked before any is written."""
        picked = np.array(checked_columns(self.col_names, self.ub, handles), dtype=np.intp)
        self.lb[:], self.cost[:] = self.loaded_lb, self.loaded_cost
        self.lb[picked], self.cost[picked] = 1.0, 0.0


@dataclass(frozen=True)
class LpResult:
    """One node LP: the HiGHS model status, its objective and column values
    (``x`` only when optimal), and the simplex iterations it took."""

    status: HighsModelStatus
    fun: float
    x: np.ndarray | None
    nit: int


def linprog(form: LoadedModel, lb: np.ndarray, ub: np.ndarray) -> LpResult:
    """Re-solve the loaded LP under column bounds ``lb``/``ub`` and the
    form's costs, warm from the last basis.  Only the columns whose cost or
    bounds differ from what HiGHS holds are sent to it; this is the one
    function that changes the columns HiGHS holds.

    This is the one LP call of a branch-and-bound node.  The benchmark in
    ``perfbench/`` traces it by this name, ``ssfp.solver.linprog``, to count
    LPs and simplex iterations, so ``solve_milp`` calls it as a module global.
    """
    highs = form.highs
    changed = np.flatnonzero(form.cost != form.sent_cost)
    if changed.size:
        new_cost = form.cost[changed]
        highs.changeColsCost(changed.size, changed.astype(np.int32), new_cost)
        form.sent_cost[changed] = new_cost
    changed = np.flatnonzero((lb != form.sent_lb) | (ub != form.sent_ub))
    if changed.size:
        new_lb, new_ub = lb[changed], ub[changed]
        highs.changeColsBounds(changed.size, changed.astype(np.int32), new_lb, new_ub)
        form.sent_lb[changed], form.sent_ub[changed] = new_lb, new_ub
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    x = np.array(highs.getSolution().col_value) if status == HighsModelStatus.kOptimal else None
    return LpResult(status, info.objective_function_value, x, info.simplex_iteration_count)


def solve_milp(
    model: MilpModel | LoadedModel,
    *,
    node_limit: int | None = None,
    cutoff: float | None = None,
    order: Literal["best", "depth"] = "best",
) -> MilpSolution:
    """Branch and bound over the declared binary variables.

    Branching fixes the most fractional binary (lowest declaration index on
    ties) to 0/1 in the two children.  ``order`` picks the next open node:
    ``"best"`` takes the least parent bound, nodes of equal bound in push
    order; ``"depth"`` takes the node pushed last, so the up-child of the node
    just solved goes next and its LP starts from its parent's basis.  Depth
    first pays only when ``cutoff`` is already the optimum, as when an
    undirected twin re-proves its directed twin's optimum: then every node
    below the cutoff is solved in any order.  A node is pruned only when its
    LP bound comes within ``PRUNE_TOL`` of the incumbent; there is no
    optimality-gap setting, so an ``optimal`` status carries the optimum of
    the model as declared.

    ``node_limit`` (``None``: no limit; else an integer of at least 1) stops
    the search with status ``node_limit`` and the least open bound: the least
    parent bound over the popped node and the open nodes (under ``"best"``,
    the popped node's).  ``cutoff`` (a number, not NaN) seeds the incumbent
    objective, so nodes that cannot beat it are pruned; if no solution beats
    it, ``SolverError`` is raised.

    A ``MilpModel`` is loaded into a HiGHS instance of this solve's own.  A
    ``LoadedModel`` is solved in place: the root LP sends HiGHS the columns
    whose bounds or cost changed since its last LP, and starts from the basis
    that LP left.

    Every node solves one LP, so ``lp_count`` equals ``node_count``;
    ``simplex_iterations`` is the sum of their ``LpResult.nit``, and
    ``lp_time`` the seconds spent in their ``linprog`` calls.
    """
    if node_limit is not None and not is_integer(node_limit):
        raise ValueError(f"node_limit must be an integer, not {node_limit!r}")
    if node_limit is not None and node_limit < 1:
        raise ValueError("node_limit must be at least 1")
    if cutoff is not None and not (is_number(cutoff) and not math.isnan(cutoff)):
        raise ValueError(f"cutoff must be a number, not {cutoff!r}")
    if order not in ("best", "depth"):
        raise ValueError(f"order must be 'best' or 'depth', not {order!r}")
    depth = order == "depth"
    started = time.perf_counter()
    form = model if isinstance(model, LoadedModel) else LoadedModel(model)
    binary_idx = np.flatnonzero(form.binary)

    incumbent_obj = math.inf if cutoff is None else float(cutoff)
    incumbent_x: np.ndarray | None = None
    root_bound, node_count, simplex_iterations, lp_time = math.nan, 0, 0, 0.0
    # heap entries: (key, push tag, parent LP bound, branch decisions); the
    # push tag 2 * parent node + side grows with push order, and the key is
    # the parent bound (best first) or minus the tag (depth first)
    heap: list[tuple[float, int, float, tuple[tuple[int, int], ...]]] = [
        (-math.inf, 0, -math.inf, ())
    ]
    if not form.lb.size:
        # HiGHS calls a model with no columns empty and solves nothing; its
        # one point x = () is optimal at 0 unless some (empty) row excludes 0
        heap.clear()
        feasible = (form.row_lower <= 0.0).all() and (form.row_upper >= 0.0).all()
        root_bound = 0.0 if feasible else math.inf
        if feasible and 0.0 < incumbent_obj - PRUNE_TOL:
            incumbent_obj, incumbent_x = 0.0, np.empty(0)

    stop = None  # "node_limit" or "unbounded" when the search ends early
    while heap:
        _, _, parent_bound, decisions = heapq.heappop(heap)
        if parent_bound >= incumbent_obj - PRUNE_TOL:
            continue
        if node_count == node_limit:
            stop = "node_limit"
            break
        node_count += 1
        lb, ub = form.lb.copy(), form.ub.copy()
        for var, side in decisions:
            if side == 0:
                ub[var] = 0.0
            else:
                lb[var] = 1.0
        lp_started = time.perf_counter()
        lp = linprog(form, lb, ub)
        lp_time += time.perf_counter() - lp_started
        simplex_iterations += lp.nit
        if lp.status == HighsModelStatus.kOptimal:
            objective = lp.fun
        elif lp.status in _NO_OPTIMUM_BOUND:
            objective = _NO_OPTIMUM_BOUND[lp.status]
        else:
            raise SolverNumericalError(
                f"model {form.name!r}, node {node_count}: HiGHS ended the LP with "
                f"status {form.highs.modelStatusToString(lp.status)!r}"
            )
        if not decisions:
            root_bound = objective
        if objective == -math.inf:  # only the root can be unbounded: children restrict it
            stop = "unbounded"
            break
        if objective >= incumbent_obj - PRUNE_TOL:  # infeasible, or no better
            continue
        binaries = lp.x[binary_idx]
        fractional = np.flatnonzero(np.abs(binaries - np.round(binaries)) > INTEGRALITY_TOL)
        if fractional.size == 0:
            incumbent_obj, incumbent_x = objective, lp.x
            continue
        # fractional is ascending and argmin takes the first minimum
        branch_var = int(binary_idx[fractional[np.argmin(np.abs(binaries[fractional] - 0.5))]])
        for side in (0, 1):
            tag = 2 * node_count + side
            child = decisions + ((branch_var, side),)
            heapq.heappush(heap, (-tag if depth else objective, tag, objective, child))

    found = incumbent_x is not None
    if stop == "unbounded":
        status, objective, bound = stop, -math.inf, -math.inf
    elif stop == "node_limit":
        bound = min([parent_bound] + [entry[2] for entry in heap])
        status, objective = stop, incumbent_obj if found else math.inf
    elif found:
        status, objective, bound = "optimal", incumbent_obj, incumbent_obj
    elif cutoff is not None:
        raise SolverError(
            f"model {form.name!r}: no solution found below the cutoff {cutoff!r}; the model "
            "is infeasible or the cutoff undercuts the optimum"
        )
    else:
        status, objective, bound = "infeasible", math.inf, math.inf
    x = tuple(incumbent_x.tolist()) if found else ()
    elapsed = time.perf_counter() - started
    return MilpSolution(
        status, objective, x, bound, node_count, elapsed, root_bound,
        lp_count=node_count, simplex_iterations=simplex_iterations, lp_time=lp_time,
    )


@dataclass(frozen=True)
class BruteForceResult:
    objective: float
    first_stage: EdgePipeSet
    scenario_sets: tuple[EdgePipeSet, ...]


def _subset_costs(inst: Instance, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """cost[mask]: the price of the pairs in ``mask`` at this stage's prices.
    Bit i of a mask is ``pairs[i]``."""
    cost = np.zeros(1 << len(pairs))
    for i, (p, e) in enumerate(pairs):
        cost[1 << i : 2 << i] = cost[: 1 << i] + inst.pair_cost(p, e)
    return cost


def _connecting(
    inst: Instance, pairs: Sequence[tuple[int, int]], existing: frozenset[tuple[int, int]]
) -> np.ndarray:
    """connecting[mask]: the pairs in ``mask`` together with ``existing``
    connect every terminal group of ``inst``.  Bit i of a mask is
    ``pairs[i]``; a pair with an infeasible pipe or an inadmissible edge
    connects nothing.

    ``first_disconnected`` answers one edge set at a time, and calling it once
    per mask was the oracle's whole cost.  Here the vertices reached from each
    group's first terminal are a bitset per mask, grown for all masks at once
    until no edge adds a vertex.  An int64 bitset is enough: at most 22 pairs
    touch at most 44 vertices, and instance validation puts every terminal on
    an admissible edge.
    """
    graph = inst.graph
    usable = {(p, e) for p in inst.feasible_pipes for e in inst.admissible_edges}
    vbit = {v: 1 << k for k, v in enumerate(sorted({v for edge in graph.edges for v in edge}))}
    laying = [(None, pe) for pe in sorted(existing)] + list(enumerate(pairs))
    links = [  # (endpoint bits, the bit of the pair that lays the edge; None: always laid)
        (sum(vbit[v] for v in graph.edges[e]), i) for i, (p, e) in laying if (p, e) in usable
    ]
    connecting = np.ones(1 << len(pairs), dtype=bool)
    for group in inst.terminals.groups:
        reach = np.full(len(connecting), vbit[group[0]], dtype=np.int64)
        grown = True
        while grown:
            before = reach.copy()
            for ends, i in links:
                # the masks holding pair i are the upper half of each 2^(i+1) block
                part = reach if i is None else reach.reshape(-1, 2, 1 << i)[:, 1]
                np.bitwise_or(part, ends, out=part, where=part & ends != 0)
            grown = not np.array_equal(before, reach)
            links.reverse()  # alternate sweep directions: fewer rounds
        want = sum(vbit[t] for t in group)
        connecting &= reach & want == want
    return connecting


def brute_force(two_stage: TwoStageInstance, mode: Optimization) -> BruteForceResult:
    """Exhaustive optimum over every subset of the pipe-edge pairs not yet
    installed.

    Each stage has one table of the subsets that connect its groups
    (``_connecting``).  A scenario completes a first-stage subset with its
    cheapest connecting superset: a superset minimum, taken in one array pass
    per pair.  The result is exact; among equal totals the lowest mask wins
    (bit i is the i-th pair in (pipe, edge) order).  Refuses instances whose
    pipe-edge universe exceeds ``BRUTE_FORCE_PAIR_LIMIT``; this is an oracle
    for tiny instances, never a silent approximation.
    """
    if mode not in OPTIMIZATIONS:
        raise ValueError(f"unknown mode {mode!r}")
    first = two_stage.first_stage
    universe = [
        (p, e)
        for p in range(1, first.pipes.num_pipe_types + 1)
        for e in range(first.graph.num_edges)
    ]
    if len(universe) > BRUTE_FORCE_PAIR_LIMIT:
        raise BruteForceBudgetError(
            f"{len(universe)} pipe-edge pairs exceed the exhaustive budget of "
            f"{BRUTE_FORCE_PAIR_LIMIT}"
        )
    existing = two_stage.existing.pairs
    pairs = [pe for pe in universe if pe not in existing]
    n = len(pairs)

    total = np.where(_connecting(first, pairs, existing), _subset_costs(first, pairs), np.inf)
    plans: list[np.ndarray] = []
    if mode in ("ro", "so"):
        if not two_stage.scenarios:
            raise ValueError("RO/SO need at least one scenario")
        recourse = []
        for inst in two_stage.scenarios:
            cost = _subset_costs(inst, pairs)
            plan = np.where(_connecting(inst, pairs, existing), cost, np.inf)
            completion = plan.copy()  # becomes the cost of the cheapest connecting superset
            for i in range(n):
                halves = completion.reshape(-1, 2, 1 << i)  # [:, 1] are the masks with bit i
                np.minimum(halves[:, 0], halves[:, 1], out=halves[:, 0])
            completion -= cost
            plans.append(plan)
            recourse.append(completion)
        if mode == "ro":
            total += functools.reduce(np.maximum, recourse)
        else:
            total += sum(r * g for r, g in zip(two_stage.probabilities, recourse))
    best_mask = int(np.argmin(total))
    if total[best_mask] == np.inf:
        raise SolverError("no feasible first-stage solution exists")

    def pair_set(mask: int) -> EdgePipeSet:
        return EdgePipeSet(frozenset(pairs[i] for i in range(n) if mask >> i & 1) | existing)

    supersets = np.arange(1 << n) & best_mask == best_mask
    scenario_sets = tuple(
        pair_set(int(np.where(supersets, plan, np.inf).argmin())) for plan in plans
    )
    return BruteForceResult(float(total[best_mask]), pair_set(best_mask), scenario_sets)
