"""Comparative analyses: cross-objective matrix, VSS, expected-cost curves,
and the seeded artificial sweep with CSV outputs.

CSV column orders are fixed and documented in the README; all outputs are
deterministic given configs and seeds, except for the timing columns of
``sweep.csv``, which necessarily vary between runs.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Literal, Sequence

from .graph_core import EdgePipeSet, TwoStageInstance, cost
from .instances import SweepConfig, random_artificial
from .milp_core import MilpSolution
from .models import (
    ALL_KINDS, BuiltModel, ModelKind, build_do, build_model, dominated_pipes, expected_size,
)
from .solver import SolverError, solve_milp

Objective = Literal["do", "ro", "so"]
OBJECTIVE_ORDER: tuple[Objective, ...] = ("do", "ro", "so")
MODEL_LABELS = tuple(k.label for k in ALL_KINDS)
#: How far U and D optima, and a re-evaluated optimum and its model's
#: objective, may differ before a sweep record is refused.
AGREEMENT_TOL = 1e-6
#: Added to a seeded cutoff, so the plan that set it stays inside the search.
CUTOFF_SLACK = 1e-6


def _solve(
    built: BuiltModel, cutoff: float | None = None, order: Literal["best", "depth"] = "best"
) -> tuple[MilpSolution, EdgePipeSet | None]:
    """Solve to optimality or raise, and give the first-stage pipe set of a
    directed model; an undirected twin only confirms its objective."""
    solution = solve_milp(built.milp, cutoff=cutoff, order=order)
    if solution.status != "optimal":
        raise SolverError(f"{built.kind.label} solve ended with status {solution.status}")
    first = built.extract_sets(solution)[0] if built.kind.flow == "d" else None
    return solution, first


class RecourseModels:
    """The recourse models of one two-stage instance: for each scenario and
    each set of pipe types it can do without, one DO-D model of the scenario
    without those pipes, built once with no pair installed.  A recourse solve
    runs on a copy with the installed pairs laid (``BuiltModel.with_installed``),
    the same program as a build with them existing.  A table serves one
    record or one call and is dropped with it."""

    def __init__(self, two_stage: TwoStageInstance) -> None:
        self.two_stage = two_stage
        self.built: dict[tuple[int, frozenset[int]], BuiltModel] = {}

    def costs(self, first_stage_solution: EdgePipeSet) -> tuple[float, ...]:
        """Optimal retrofit cost per scenario, at inflated prices, given the
        first-stage installation.  Only the values are read, so each solve
        runs on the scenario without the pipe types that it can do without
        once those pairs are installed."""
        two_stage = self.two_stage
        installed = first_stage_solution | two_stage.existing
        installed.check(two_stage.first_stage.graph, two_stage.first_stage.pipes.num_pipe_types)
        out: list[float] = []
        for s, scenario in enumerate(two_stage.scenarios):
            dropped = dominated_pipes((scenario,), installed)
            built = self.built.get((s, dropped))
            if built is None:
                built = build_do(scenario.without_pipes(dropped), EdgePipeSet(), "d")
                self.built[(s, dropped)] = built
            solution = solve_milp(built.with_installed(installed))
            if solution.status != "optimal":
                raise SolverError(f"scenario {s} recourse solve ended with {solution.status}")
            out.append(solution.objective)
        return tuple(out)


def evaluate_under(
    objective: Objective,
    two_stage: TwoStageInstance,
    first_stage_solution: EdgePipeSet,
    recourse: RecourseModels | None = None,
) -> float:
    """Value of a fixed first-stage solution under one of the three
    objectives: first-stage cost alone (DO), plus worst-case optimal recourse
    (RO), or plus probability-weighted optimal recourse (SO).  The recourse
    solves use ``recourse``, a table of this very ``two_stage``, or a table
    of their own."""
    if objective not in OBJECTIVE_ORDER:
        raise ValueError(f"unknown objective {objective!r}")
    if recourse is not None and recourse.two_stage is not two_stage:
        raise ValueError("the recourse models belong to another instance")
    if objective != "do" and not two_stage.scenarios:
        raise ValueError(f"{objective.upper()} evaluation needs at least one scenario")
    first_cost = cost(two_stage.first_stage, two_stage.existing, first_stage_solution)
    if objective == "do":
        return first_cost
    costs = (recourse or RecourseModels(two_stage)).costs(first_stage_solution)
    if objective == "ro":
        return first_cost + max(costs)
    return first_cost + sum(r * c for r, c in zip(two_stage.probabilities, costs))


def vss(two_stage: TwoStageInstance) -> float:
    """Value of the stochastic solution: the expected cost of deploying the
    deterministic solution (EEVS) minus the stochastic optimum."""
    _, deterministic = _solve(build_do(two_stage.first_stage, two_stage.existing, "d"))
    eevs = evaluate_under("so", two_stage, deterministic)
    stochastic, _ = _solve(build_model(ModelKind("so", "d"), two_stage))
    return eevs - stochastic.objective


@dataclass(frozen=True)
class CandidateLine:
    """Expected total cost of one first-stage solution as a function of the
    second-scenario probability: value(rho2) = intercept + slope * rho2."""

    first_stage: EdgePipeSet
    intercept: float
    slope: float

    def value(self, rho2: float) -> float:
        return self.intercept + self.slope * rho2


def _line_for(recourse: RecourseModels, first_set: EdgePipeSet) -> CandidateLine:
    two_stage = recourse.two_stage
    first_cost = cost(two_stage.first_stage, two_stage.existing, first_set)
    r1, r2 = recourse.costs(first_set)
    return CandidateLine(first_set, first_cost + r1, r2 - r1)


@dataclass(frozen=True)
class CurveTable:
    """Expected-cost lines of the envelope candidates over a rho2 grid."""

    rho_values: tuple[float, ...]
    candidates: tuple[CandidateLine, ...]
    intersections: tuple[Fraction, ...]

    def so_value(self, rho2: float) -> float:
        return min(line.value(rho2) for line in self.candidates)

    def rows(self) -> list[tuple[float, ...]]:
        return [
            (rho, *(line.value(rho) for line in self.candidates), self.so_value(rho))
            for rho in self.rho_values
        ]


def cost_curves(two_stage: TwoStageInstance, rho_grid: Sequence[float]) -> CurveTable:
    """Expected cost over the grid of every first-stage solution on the lower
    envelope of the stochastic value function of a two-scenario instance,
    the stochastic optimum (their pointwise minimum), and the exact crossing
    points of consecutive minimizers.  The envelope comes from exact
    parametric refinement: solve at rho2 = 0 and 1, then at each crossing
    where a solve still undercuts the lines found so far."""
    return _cost_curves(RecourseModels(two_stage), rho_grid)


def _cost_curves(recourse: RecourseModels, rho_grid: Sequence[float]) -> CurveTable:
    two_stage = recourse.two_stage
    if two_stage.num_scenarios != 2:
        raise ValueError("candidate lines require exactly two scenarios")

    def solve_at(rho2: float) -> tuple[float, EdgePipeSet]:
        built = build_model(ModelKind("so", "d"), two_stage.with_probabilities((1.0 - rho2, rho2)))
        solution, first = _solve(built)
        return solution.objective, first

    def envelope(
        left: CandidateLine, right: CandidateLine, lo: Fraction, hi: Fraction
    ) -> tuple[list[CandidateLine], list[Fraction]]:
        """The envelope lines from ``left`` (optimal at ``lo``) to ``right``
        (optimal at ``hi``), left to right, and each adjacent crossing."""
        if left.first_stage == right.first_stage or left.slope == right.slope:
            return [left], []
        crossing = (Fraction(right.intercept) - Fraction(left.intercept)) / (
            Fraction(left.slope) - Fraction(right.slope)
        )
        if lo < crossing < hi:
            rho = float(crossing)
            value, first = solve_at(rho)
            if value < min(left.value(rho), right.value(rho)) - 1e-9:
                middle = _line_for(recourse, first)
                left_lines, left_crossings = envelope(left, middle, lo, crossing)
                right_lines, right_crossings = envelope(middle, right, crossing, hi)
                return left_lines + right_lines[1:], left_crossings + right_crossings
        return [left, right], [crossing]

    left = _line_for(recourse, solve_at(0.0)[1])
    right = _line_for(recourse, solve_at(1.0)[1])
    lines, crossings = envelope(left, right, Fraction(0), Fraction(1))
    return CurveTable(tuple(float(r) for r in rho_grid), tuple(lines), tuple(crossings))


def vss_curve(
    two_stage: TwoStageInstance, rho_grid: Sequence[float]
) -> list[tuple[float, float, float]]:
    """(rho2, VSS, stochastic optimum) along a grid, via the exact envelope."""
    recourse = RecourseModels(two_stage)
    table = _cost_curves(recourse, rho_grid)
    _, deterministic = _solve(build_do(two_stage.first_stage, two_stage.existing, "d"))
    eevs = _line_for(recourse, deterministic)
    return [
        (rho, eevs.value(rho) - table.so_value(rho), table.so_value(rho))
        for rho in table.rho_values
    ]


@dataclass(frozen=True)
class CrossObjectiveMatrix:
    """Rows: model whose solution is evaluated; columns: objective used; each
    entry normalized by the column owner's optimum."""

    values: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        # each check fails on a NaN entry, which fails every comparison
        for i in range(3):
            if not abs(self.values[i][i] - 1.0) <= 1e-9:
                raise ValueError(f"diagonal entry {i} is {self.values[i][i]}, expected 1")
            for j in range(3):
                if not self.values[i][j] >= 1.0 - 1e-9:
                    raise ValueError(
                        f"entry ({i},{j}) = {self.values[i][j]} undercuts the column optimum"
                    )


@dataclass(frozen=True)
class SweepRecord:
    """Everything measured on one (setting, seed) instance."""

    setting_id: str
    seed: int
    objectives: tuple[float, ...]  # per MODEL_LABELS
    #: row: the directed optimum's first stage of one objective (do, ro, so);
    #: column: its value under each objective
    evaluations: tuple[tuple[float, float, float], ...]
    variable_counts: tuple[int, ...]  # per MODEL_LABELS
    constraint_counts: tuple[int, ...]
    build_times: tuple[float, ...]
    solve_times: tuple[float, ...]
    node_counts: tuple[int, ...]

    @property
    def matrix(self) -> tuple[tuple[float, float, float], ...]:
        """The evaluations, each normalized by its column owner's optimum
        (the diagonal)."""
        e = self.evaluations
        return tuple(tuple(e[i][j] / e[j][j] for j in range(3)) for i in range(3))

    @property
    def ro_do_ratio(self) -> float:
        """First-stage cost of the robust plan over the deterministic optimum,
        ``matrix[1][0]``."""
        return self.matrix[1][0]


def _solve_six(
    two_stage: TwoStageInstance, recourse: RecourseModels | None = None
) -> tuple[dict[str, MilpSolution], dict[str, BuiltModel], dict[Objective, EdgePipeSet]]:
    """Solve all six models with incumbent seeding: each directed solve seeds
    its undirected twin's cutoff, the deterministic solution evaluated under
    the expectation seeds the stochastic solves, and the stochastic solution
    evaluated under the worst case seeds the robust solves.  Cutoffs are
    upper bounds from feasible solutions, so they only prune nodes that
    cannot beat a known plan and never change the reported optimum.

    An undirected twin's cutoff is already its optimum, so it must solve
    every node below it in any order; it searches depth first, which starts
    each LP from its parent's basis.  Its plan is never read, so it is built
    on the instance without the dominated pipe types (``dominated_pipes``
    over every stage), which leaves its optimum as it is.  The directed
    models search best first on the declared model, so the plans they report
    do not change.

    The two seeding evaluations use ``recourse``, the record's table, or one
    of their own.  Returns the solutions and builds by model label, and the
    first stage of each directed optimum by objective."""
    recourse = recourse or RecourseModels(two_stage)
    solutions: dict[str, MilpSolution] = {}
    builds: dict[str, BuiltModel] = {}
    first_sets: dict[Objective, EdgePipeSet] = {}
    cutoff: float | None = None
    stages = (two_stage.first_stage, *two_stage.scenarios)
    reduced = two_stage.without_pipes(dominated_pipes(stages, two_stage.existing))
    for optimization, next_objective in (("do", "so"), ("so", "ro"), ("ro", None)):
        for flow in ("d", "u"):
            kind = ModelKind(optimization, flow)
            built = build_model(kind, reduced if flow == "u" else two_stage)
            solutions[kind.label], first = _solve(built, cutoff, "depth" if flow == "u" else "best")
            builds[kind.label] = built
            if flow == "d":
                first_sets[optimization] = first
                cutoff = solutions[kind.label].objective + CUTOFF_SLACK
        if next_objective is not None:
            value = evaluate_under(next_objective, two_stage, first_sets[optimization], recourse)
            cutoff = value + CUTOFF_SLACK
    return solutions, builds, first_sets


def sweep_record(
    config: SweepConfig, seed: int, two_stage: TwoStageInstance | None = None
) -> SweepRecord:
    """The record of one (setting, seed) instance, generated unless given.
    Any error raised on the way keeps its class and gains the setting and
    seed as a message prefix."""
    if two_stage is None:
        two_stage = random_artificial(config, seed)
    try:
        return _measure(config, seed, two_stage)
    except (SolverError, ValueError) as err:
        raise type(err)(f"{config.setting_id} seed {seed}: {err}") from err


def _measure(config: SweepConfig, seed: int, two_stage: TwoStageInstance) -> SweepRecord:
    recourse = RecourseModels(two_stage)  # this record's, dropped with it
    solutions, builds, first_sets = _solve_six(two_stage, recourse)
    for optimization in OBJECTIVE_ORDER:
        d_obj = solutions[ModelKind(optimization, "d").label].objective
        u_obj = solutions[ModelKind(optimization, "u").label].objective
        if abs(d_obj - u_obj) > AGREEMENT_TOL:
            raise SolverError(
                f"{optimization.upper()} flow formulations disagree ({u_obj} vs {d_obj})"
            )
    evaluations = tuple(
        tuple(
            evaluate_under(column, two_stage, first_sets[row], recourse)
            for column in OBJECTIVE_ORDER
        )
        for row in OBJECTIVE_ORDER
    )
    for i, optimization in enumerate(OBJECTIVE_ORDER):
        model_obj = solutions[ModelKind(optimization, "d").label].objective
        if abs(evaluations[i][i] - model_obj) > AGREEMENT_TOL:
            raise SolverError(
                f"re-evaluated {optimization.upper()} optimum {evaluations[i][i]} disagrees with "
                f"the model objective {model_obj}"
            )
    sizes = [expected_size(kind, two_stage) for kind in ALL_KINDS]  # the declared models
    record = SweepRecord(
        setting_id=config.setting_id,
        seed=seed,
        objectives=tuple(solutions[label].objective for label in MODEL_LABELS),
        evaluations=evaluations,
        variable_counts=tuple(num_vars for num_vars, _ in sizes),
        constraint_counts=tuple(num_cons for _, num_cons in sizes),
        build_times=tuple(builds[label].build_time for label in MODEL_LABELS),
        solve_times=tuple(solutions[label].solve_time for label in MODEL_LABELS),
        node_counts=tuple(solutions[label].node_count for label in MODEL_LABELS),
    )
    CrossObjectiveMatrix(record.matrix)  # raises on a violated bound
    return record


def core_count() -> int:
    """The CPU cores of this machine: the most sweep workers that can run at once."""
    return os.cpu_count() or 1


def run_sweep(configs: Sequence[SweepConfig], threads: int) -> list[SweepRecord]:
    """The record of every (setting, seed) instance, in that order, computed
    in up to ``threads`` worker processes, never more than there are tasks or
    cores.  Any failed solve raises with the setting and seed in the message.
    """
    tasks = [(config, seed) for config in configs for seed in config.seeds]
    workers = min(threads, len(tasks), core_count())
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            return pool.starmap(sweep_record, tasks, chunksize=1)
    return [sweep_record(*task) for task in tasks]


def _entrywise_mean(matrices: Sequence[Sequence[Sequence[float]]]) -> tuple[tuple[float, ...], ...]:
    """The entry-by-entry mean of 3x3 matrices, one per record."""
    if not matrices:
        raise ValueError("cannot aggregate an empty record list")
    n = len(matrices)
    return tuple(tuple(sum(m[i][j] for m in matrices) / n for j in range(3)) for i in range(3))


def aggregate_matrix(records: Sequence[SweepRecord]) -> CrossObjectiveMatrix:
    return CrossObjectiveMatrix(_entrywise_mean([r.matrix for r in records]))


def aggregate_matrix_of_means(records: Sequence[SweepRecord]) -> tuple[tuple[float, ...], ...]:
    """Alternative aggregation: ratio of mean evaluations to mean optima."""
    mean_eval = _entrywise_mean([r.evaluations for r in records])
    return tuple(
        tuple(mean_eval[i][j] / mean_eval[j][j] for j in range(3)) for i in range(3)
    )


def _label_columns(prefix: str) -> list[str]:
    return [f"{prefix}_{label.lower().replace('-', '_')}" for label in MODEL_LABELS]


SWEEP_COLUMNS = (
    ["setting", "seed"]
    + _label_columns("obj")
    + [f"m_{r}_{c}" for r in OBJECTIVE_ORDER for c in OBJECTIVE_ORDER]
    + ["ro_do_ratio"]
    + _label_columns("vars")
    + _label_columns("cons")
    + _label_columns("build_time")
    + _label_columns("solve_time")
    + _label_columns("nodes")
)


def write_sweep_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_COLUMNS)
        for r in records:
            row: list[object] = [r.setting_id, r.seed]
            row += [repr(v) for v in r.objectives]
            row += [repr(v) for line in r.matrix for v in line]
            row += [repr(r.ro_do_ratio)]
            row += list(r.variable_counts)
            row += list(r.constraint_counts)
            row += [f"{v:.6f}" for v in r.build_times]
            row += [f"{v:.6f}" for v in r.solve_times]
            row += list(r.node_counts)
            writer.writerow(row)


def write_matrix_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    mean_of_ratios = aggregate_matrix(records).values
    ratio_of_means = aggregate_matrix_of_means(records)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["aggregation", "model", "do", "ro", "so"])
        for name, matrix in (("mean_of_ratios", mean_of_ratios), ("ratio_of_means", ratio_of_means)):
            for i, row_name in enumerate(OBJECTIVE_ORDER):
                writer.writerow([name, row_name, *(repr(v) for v in matrix[i])])


def write_ratios_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["setting", "seed", "ro_do_ratio"])
        for r in records:
            writer.writerow([r.setting_id, r.seed, repr(r.ro_do_ratio)])


def write_curves_csv(table: CurveTable, path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        names = [f"route_{i + 1}" for i in range(len(table.candidates))]
        writer.writerow(["rho2", *names, "so_optimum"])
        for row in table.rows():
            writer.writerow([repr(v) for v in row])
