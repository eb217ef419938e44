"""Exact optimization: branch and bound over HiGHS LPs, and an exhaustive oracle.

One branch and bound loads its model once into a HiGHS instance and re-solves
it at every node with that node's column bounds, warm from the last basis
(dual simplex).  The HiGHS binding is scipy's private
``scipy.optimize._highspy._core``.  The branch-and-bound search, node
bookkeeping, and the subset-enumeration oracle live here.  A pure LP is solved
as ``solve_milp(relax(model))``: with no binaries the search ends at the root.
One solve owns its data; separate solves may run concurrently.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np
from scipy.sparse import csr_matrix

try:
    from scipy.optimize._highspy._core import (
        HighsLp,
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        _Highs,
    )
except ImportError as err:  # pragma: no cover - depends on the installed scipy
    import scipy

    raise ImportError(
        f"ssfp needs scipy's HiGHS binding scipy.optimize._highspy._core._Highs, "
        f"which scipy {scipy.__version__} does not provide; install scipy>=1.15"
    ) from err

from .graph_core import EdgePipeSet, Instance, TwoStageInstance, first_disconnected
from .milp_core import MilpModel, MilpSolution

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


@dataclass(frozen=True)
class BnbConfig:
    """Branch-and-bound settings.  The search strategy is fixed: branching
    picks the most fractional binary (lowest declaration index on ties) and
    node selection is best-bound.

    ``cutoff``, when set, seeds the incumbent objective so nodes that cannot
    beat a known value are pruned; the reported optimum is unaffected as long
    as the true optimum lies below the cutoff.
    """

    node_limit: int = 10_000_000
    cutoff: float | None = None

    def __post_init__(self) -> None:
        if self.node_limit < 1:
            raise ValueError("node_limit must be at least 1")


class _ArrayForm:
    """The model loaded once into HiGHS: columns with their declared bounds,
    and one ranged row ``row_lower <= a x <= row_upper`` per constraint.
    Presolve is off, so every re-solve starts from the basis the last one
    left."""

    def __init__(self, model: MilpModel) -> None:
        n, m = model.num_variables, model.num_constraints
        self.names = [v.name for v in model.variables]
        self.lb = np.array([v.lower for v in model.variables], dtype=float)
        self.ub = np.array([v.upper for v in model.variables], dtype=float)
        self.binary = np.array([v.kind == "binary" for v in model.variables], dtype=bool)
        self.columns = np.arange(n, dtype=np.int32)

        # a constraint with no terms stays a zero row; HiGHS decides it
        data, indices, indptr = [], [], [0]
        for con in model.constraints:
            for h, c in con.terms:
                indices.append(h)
                data.append(c)
            indptr.append(len(indices))
        matrix = csr_matrix(
            (np.array(data, dtype=float), np.array(indices, dtype=np.int32), np.array(indptr)),
            shape=(m, n),
        ).tocsc()
        cost = np.array([v.objective for v in model.variables], dtype=float)
        rhs = np.array([con.rhs for con in model.constraints], dtype=float)
        if not all(np.isfinite(values).all() for values in (cost, matrix.data, rhs)):
            raise ValueError(
                f"model {model.name!r}: objective coefficients, constraint coefficients "
                "and right-hand sides must be finite"
            )
        cons = model.constraints
        self.row_lower = np.array([-math.inf if c.sense == "<=" else c.rhs for c in cons], dtype=float)
        self.row_upper = np.array([math.inf if c.sense == ">=" else c.rhs for c in cons], dtype=float)

        lp = HighsLp()
        lp.num_col_, lp.num_row_ = n, m
        lp.col_cost_ = cost
        lp.col_lower_, lp.col_upper_ = self.lb, self.ub
        lp.row_lower_, lp.row_upper_ = self.row_lower, self.row_upper
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = n, m
        lp.a_matrix_.start_ = matrix.indptr.astype(np.int32)
        lp.a_matrix_.index_ = matrix.indices.astype(np.int32)
        lp.a_matrix_.value_ = matrix.data
        self.highs = _Highs()
        # before passModel, or HiGHS writes its banner and log to stdout
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("presolve", "off")
        if self.highs.passModel(lp) == HighsStatus.kError:
            raise SolverNumericalError(f"model {model.name!r}: HiGHS rejected the model")


@dataclass(frozen=True)
class LpResult:
    """One node LP: the HiGHS model status, its objective and column values
    (``x`` only when optimal), and the simplex iterations it took."""

    status: HighsModelStatus
    fun: float
    x: np.ndarray | None
    nit: int


def linprog(form: _ArrayForm, lb: np.ndarray, ub: np.ndarray) -> LpResult:
    """Re-solve the loaded LP under column bounds ``lb``/``ub``, warm from the
    last basis.

    This is the one LP call of a branch-and-bound node.  The benchmark in
    ``perfbench/`` traces it by this name, ``ssfp.solver.linprog``, to count
    LPs and simplex iterations, so ``solve_milp`` calls it as a module global.
    """
    highs = form.highs
    highs.changeColsBounds(len(form.columns), form.columns, lb, ub)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    x = np.array(highs.getSolution().col_value) if status == HighsModelStatus.kOptimal else None
    return LpResult(status, info.objective_function_value, x, info.simplex_iteration_count)


def _values_dict(form: _ArrayForm, x: np.ndarray) -> dict[str, float]:
    return {name: float(v) for name, v in zip(form.names, x)}


def solve_milp(model: MilpModel, config: BnbConfig = BnbConfig()) -> MilpSolution:
    """Best-bound branch and bound over the declared binary variables.

    Branching fixes the most fractional binary to 0/1 in the two children;
    the incumbent is updated whenever a node's LP solution is integral in the
    binaries.  With the default zero gap the returned objective is the exact
    optimum of the model as declared.
    """
    started = time.perf_counter()
    form = _ArrayForm(model)
    binary_idx = np.flatnonzero(form.binary)

    incumbent_obj = math.inf if config.cutoff is None else float(config.cutoff)
    incumbent_x: np.ndarray | None = None
    root_bound = math.nan
    node_count = 0
    counter = 0
    # heap entries: (parent LP bound, insertion counter, branch decisions)
    heap: list[tuple[float, int, tuple[tuple[int, int], ...]]] = [(-math.inf, 0, ())]
    hit_limit = False
    if not model.variables:
        # HiGHS calls a model with no columns empty and solves nothing; its
        # one point x = () is optimal at 0 unless some (empty) row excludes 0
        heap.clear()
        feasible = (form.row_lower <= 0.0).all() and (form.row_upper >= 0.0).all()
        if feasible and 0.0 < incumbent_obj - PRUNE_TOL:
            incumbent_obj, incumbent_x, root_bound = 0.0, np.empty(0), 0.0

    while heap:
        parent_bound, _, decisions = heapq.heappop(heap)
        if parent_bound >= incumbent_obj - PRUNE_TOL:
            continue
        if node_count >= config.node_limit:
            hit_limit = True
            heapq.heappush(heap, (parent_bound, 0, decisions))
            break
        node_count += 1
        lb, ub = form.lb.copy(), form.ub.copy()
        for var, side in decisions:
            if side == 0:
                ub[var] = 0.0
            else:
                lb[var] = 1.0
        lp = linprog(form, lb, ub)
        if lp.status == HighsModelStatus.kOptimal:
            objective = lp.fun
        elif lp.status in _NO_OPTIMUM_BOUND:
            objective = _NO_OPTIMUM_BOUND[lp.status]
        else:
            raise SolverNumericalError(
                f"model {model.name!r}, node {node_count}: HiGHS ended the LP with "
                f"status {form.highs.modelStatusToString(lp.status)!r}"
            )
        if not decisions:
            root_bound = objective
        if objective == -math.inf:  # unbounded; only the root can be: children restrict it
            break
        if objective >= incumbent_obj - PRUNE_TOL:  # infeasible, or no better
            continue
        values = lp.x[binary_idx]
        frac = np.abs(values - np.round(values))
        fractional = np.flatnonzero(frac > INTEGRALITY_TOL)
        if fractional.size == 0:
            incumbent_obj = objective
            incumbent_x = lp.x
            continue
        # most fractional binary, lowest declaration index on ties
        scores = np.abs(values[fractional] - 0.5)
        pick = fractional[np.lexsort((fractional, scores))[0]]
        branch_var = int(binary_idx[pick])
        for side in (0, 1):
            counter += 1
            heapq.heappush(heap, (objective, counter, decisions + ((branch_var, side),)))

    found = incumbent_x is not None
    if root_bound == -math.inf:
        status, bound = "unbounded", -math.inf
    elif hit_limit:
        status, bound = "node_limit", min(entry[0] for entry in heap)
    elif found:
        status, bound = "optimal", incumbent_obj
    elif config.cutoff is not None:
        raise SolverError(
            "no solution found below the cutoff; the model is infeasible "
            "or the cutoff undercuts the optimum"
        )
    else:
        status, bound = "infeasible", math.inf
    return MilpSolution(
        status,
        incumbent_obj if found else -math.inf if status == "unbounded" else math.inf,
        _values_dict(form, incumbent_x) if found else {},
        bound,
        node_count,
        time.perf_counter() - started,
        root_bound=root_bound if found else math.nan,
    )


@dataclass(frozen=True)
class BruteForceResult:
    objective: float
    first_stage: EdgePipeSet
    scenario_sets: tuple[EdgePipeSet, ...]


def _usable_edges(inst: Instance, pairs: Iterable[tuple[int, int]]) -> list[int]:
    return [e for p, e in pairs if p in inst.feasible_pipes and e in inst.admissible_edges]


def _completion_costs(
    inst: Instance, pairs: Sequence[tuple[int, int]], base: frozenset[tuple[int, int]]
) -> list[float]:
    """g[mask] = cheapest cost of extra pairs (at this instance's inflated
    costs) so that mask + base becomes feasible for ``inst``."""
    n = len(pairs)
    costs = [inst.pair_cost(p, e) for p, e in pairs]
    usable = [p in inst.feasible_pipes and e in inst.admissible_edges for p, e in pairs]
    base_edges = _usable_edges(inst, base)
    g = [math.inf] * (1 << n)
    for mask in range((1 << n) - 1, -1, -1):
        edges = base_edges + [pairs[i][1] for i in range(n) if mask >> i & 1 and usable[i]]
        if first_disconnected(inst.graph, inst.terminals.groups, edges) is None:
            g[mask] = 0.0
            continue
        best = math.inf
        for i in range(n):
            if not mask >> i & 1:
                candidate = costs[i] + g[mask | 1 << i]
                if candidate < best:
                    best = candidate
        g[mask] = best
    return g


def _completion_witness(
    inst: Instance,
    pairs: Sequence[tuple[int, int]],
    base: frozenset[tuple[int, int]],
    g: list[float],
    mask: int,
) -> int:
    """Follow the DP back to an optimal completion; returns the final mask."""
    costs = [inst.pair_cost(p, e) for p, e in pairs]
    while g[mask] > 0.0:
        for i in range(len(pairs)):
            if not mask >> i & 1 and math.isclose(
                costs[i] + g[mask | 1 << i], g[mask], rel_tol=0.0, abs_tol=1e-9
            ):
                mask |= 1 << i
                break
        else:  # pragma: no cover - DP invariant
            raise SolverError("failed to reconstruct a brute-force witness")
    return mask


def brute_force(
    two_stage: TwoStageInstance,
    mode: Literal["do", "ro", "so"],
    probabilities: Sequence[float] | None = None,
) -> BruteForceResult:
    """Exhaustive optimum by enumerating first-stage pipe-edge subsets.

    Scenario completions come from a full-subset dynamic program, so the
    result is exact.  Refuses instances whose pipe-edge universe exceeds
    ``BRUTE_FORCE_PAIR_LIMIT``; this is an oracle for tiny instances, never a
    silent approximation.
    """
    if mode not in ("do", "ro", "so"):
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
    cost1 = [first.pair_cost(p, e) for p, e in pairs]
    usable1 = [p in first.feasible_pipes and e in first.admissible_edges for p, e in pairs]
    base1 = _usable_edges(first, existing)

    rho: tuple[float, ...] = ()
    scenario_g: list[list[float]] = []
    if mode in ("ro", "so"):
        if not two_stage.scenarios:
            raise ValueError("RO/SO need at least one scenario")
        rho = tuple(probabilities) if probabilities is not None else two_stage.probabilities
        if len(rho) != two_stage.num_scenarios:
            raise ValueError("need one probability per scenario")
        scenario_g = [_completion_costs(s, pairs, existing) for s in two_stage.scenarios]

    # subset sums over the pair universe, shared by all modes
    mask_cost = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        mask_cost[mask] = mask_cost[mask & mask - 1] + cost1[low]

    best = math.inf
    best_mask = -1
    for mask in range(1 << n):
        stage_cost = mask_cost[mask]
        if stage_cost >= best:
            continue
        if mode == "ro":
            total = stage_cost + max(g[mask] for g in scenario_g)
        elif mode == "so":
            total = stage_cost + sum(r * g[mask] for r, g in zip(rho, scenario_g))
        else:
            total = stage_cost
        if total >= best:
            continue
        edges = base1 + [pairs[i][1] for i in range(n) if mask >> i & 1 and usable1[i]]
        if first_disconnected(first.graph, first.terminals.groups, edges) is None:
            best = total
            best_mask = mask
    if best_mask < 0:
        raise SolverError("no feasible first-stage solution exists")

    chosen = frozenset(pairs[i] for i in range(n) if best_mask >> i & 1)
    first_set = EdgePipeSet(chosen | existing)
    scenario_sets: list[EdgePipeSet] = []
    if mode in ("ro", "so"):
        for s, inst in enumerate(two_stage.scenarios):
            final = _completion_witness(inst, pairs, existing, scenario_g[s], best_mask)
            pairs_in = frozenset(pairs[i] for i in range(n) if final >> i & 1)
            scenario_sets.append(EdgePipeSet(pairs_in | existing))
    return BruteForceResult(best, first_set, tuple(scenario_sets))
