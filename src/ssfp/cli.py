"""Command-line entry point: solve, sweep, curves, validate, export-lp, gen.

Exit codes: 0 success, 1 solver failure or refused record, 2 usage error
(including a path that cannot be read or written), 3 infeasible instance or
solution, 4 solver node limit.
Diagnostics go to standard error, one line each.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .graph_core import (
    EdgePipeSet,
    InfeasibleInstanceError,
    TwoStageInstance,
    ValidationError,
    validate_feasible,
)
from .instances import (
    SweepConfig,
    all_settings,
    fig2_instance,
    four_cycle_instance,
    json_integers,
    load_instance,
    random_artificial,
    save_instance,
)
from .milp_core import export_lp
from .models import FLOWS, OPTIMIZATIONS, BuiltModel, ModelKind, build_model
from .solver import SolverError, solve_milp
from .experiments import (
    core_count,
    cost_curves,
    run_sweep,
    write_curves_csv,
    write_matrix_csv,
    write_ratios_csv,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NODE_LIMIT = 4
#: Most points ``ssfp curves --grid`` may ask for.
MAX_GRID_POINTS = 10_001
#: The rho2 grid of fig2's curves: ``curves --grid`` by default, and ``sweep``.
FIG2_GRID = "0:1:0.01"


class CliError(Exception):
    """A usage error: one line on standard error and exit 2."""


def _load_target(spec: str, rho2: float | None) -> TwoStageInstance:
    if rho2 is not None and not 0.0 <= rho2 <= 1.0:
        raise CliError(f"--rho2 must lie in [0, 1], got {rho2}")
    if spec == "builtin:fig2":
        target = fig2_instance()
    elif spec == "builtin:four-cycle":
        target = TwoStageInstance(four_cycle_instance(), (), ())
    elif spec.startswith("builtin:"):
        raise CliError(f"unknown builtin instance {spec!r}")
    else:
        try:
            target = load_instance(spec)
        except FileNotFoundError:
            raise CliError(f"instance file not found: {spec}") from None
    if rho2 is not None:
        if target.num_scenarios != 2:
            raise CliError("--rho2 needs an instance with exactly two scenarios")
        target = target.with_probabilities((1.0 - rho2, rho2))
    return target


def _load_model(args: argparse.Namespace) -> tuple[TwoStageInstance, BuiltModel]:
    """The instance and the model named by ``--instance``, ``--model``,
    ``--flow`` and ``--rho2``."""
    target = _load_target(args.instance, args.rho2)
    try:
        return target, build_model(ModelKind(args.model, args.flow), target)
    except ValueError as err:
        raise CliError(str(err)) from None


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.node_limit is not None and args.node_limit < 1:
        raise CliError("--node-limit must be at least 1")
    target, built = _load_model(args)
    solution = solve_milp(built.milp, node_limit=args.node_limit)
    if solution.status == "node_limit":
        best = "none" if solution.objective == math.inf else f"{solution.objective:.6f}"
        print(
            f"node limit reached after {solution.node_count} nodes: best objective {best}, "
            f"proven bound {solution.bound:.6f}, root lp bound {solution.root_bound:.6f}",
            file=sys.stderr,
        )
        return EXIT_NODE_LIMIT
    if solution.status != "optimal":
        print(f"solve ended with status {solution.status}", file=sys.stderr)
        return EXIT_INFEASIBLE
    graph = target.first_stage.graph
    first, per_scenario = built.extract_sets(solution)
    report = {
        "model": built.kind.label,
        "status": solution.status,
        "objective": solution.objective,
        "lp_bound": solution.root_bound,
        "node_count": solution.node_count,
        "solve_time": solution.solve_time,
        "stage_one": [[p, list(graph.endpoints(e))] for p, e in first],
        "scenarios": [
            [[p, list(graph.endpoints(e))] for p, e in pipe_set] for pipe_set in per_scenario
        ],
        "variables": built.milp.num_variables,
        "constraints": built.milp.num_constraints,
    }
    print(f"objective {solution.objective:.6f}")
    print(f"lp bound  {solution.root_bound:.6f}")
    print(f"nodes     {solution.node_count}")
    print("stage one pipes: " + json.dumps(report["stage_one"]))
    for s, pipe_set in enumerate(report["scenarios"], start=1):
        print(f"scenario {s} pipes: " + json.dumps(pipe_set))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def _parse_settings(spec: str, seeds: list[int], flag: str) -> list[SweepConfig]:
    """The settings of ``spec``, given to the option ``flag``, which a
    refusal names."""
    if spec == "all":
        return list(all_settings(seeds))
    try:
        s, g, t = (int(part) for part in spec.split(","))
        return [SweepConfig(s, g, t, tuple(seeds))]
    except (ValueError, ValidationError) as err:
        raise CliError(f"bad {flag} value {spec!r}: {err}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise CliError("--seeds must be at least 1")
    if args.threads < 1:
        raise CliError("--threads must be at least 1")
    configs = _parse_settings(args.settings, list(range(args.seeds)), "--settings")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_sweep(configs, args.threads)
    write_sweep_csv(records, out_dir / "sweep.csv")
    write_matrix_csv(records, out_dir / "matrix.csv")
    write_ratios_csv(records, out_dir / "ratios.csv")
    table = cost_curves(fig2_instance(), _parse_grid(FIG2_GRID))
    write_curves_csv(table, out_dir / "curves.csv")
    print(f"wrote {len(records)} records to {out_dir}")
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    try:
        start, end, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise CliError(f"bad --grid value {spec!r}; expected start:end:step") from None
    if not (0.0 <= start <= end <= 1.0 and 0.0 < step < math.inf):
        raise CliError("grid needs 0 <= start <= end <= 1 and a positive finite step")
    # the points are start + k * step for k >= 0 up to end (+1e-12)
    last = (end - start + 1e-12) / step
    if last >= MAX_GRID_POINTS:
        raise CliError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [round(start + k * step, 12) for k in range(int(last) + 1)]


def _cmd_curves(args: argparse.Namespace) -> int:
    target = _load_target(args.instance, None)
    if target.num_scenarios != 2:
        raise CliError("curves need a two-scenario instance")
    table = cost_curves(target, _parse_grid(args.grid))
    write_curves_csv(table, args.out)
    crossings = ", ".join(str(f) for f in table.intersections)
    print(f"candidates: {len(table.candidates)}; minimizer crossings at rho2 = {crossings}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    target = _load_target(args.instance, None)
    try:
        pairs = json.loads(Path(args.solution).read_text())["pairs"]
        solution = EdgePipeSet(frozenset(
            tuple(json_integers(pair, f"pairs[{i}]", "must be a [pipe, edge] pair", 2))
            for i, pair in enumerate(pairs)
        ))
    except FileNotFoundError:
        raise CliError(f"solution file not found: {args.solution}") from None
    except (KeyError, TypeError, ValueError) as err:
        raise CliError(f"bad solution file: {err}") from None
    result = validate_feasible(target.first_stage, solution)
    if result.ok:
        print("feasible")
        return EXIT_OK
    print(result.detail, file=sys.stderr)
    return EXIT_INFEASIBLE


def _cmd_export_lp(args: argparse.Namespace) -> int:
    _, built = _load_model(args)
    Path(args.out).write_text(export_lp(built.milp))
    print(f"wrote {built.kind.label} model ({built.milp.num_variables} variables, "
          f"{built.milp.num_constraints} constraints) to {args.out}")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise CliError("--seed must be non-negative")
    configs = _parse_settings(args.config, [args.seed], "--config")
    if len(configs) != 1:
        raise CliError("gen needs a single setting, e.g. --config 2,1,3")
    save_instance(random_artificial(configs[0], args.seed), args.out)
    print(f"wrote {configs[0].setting_id} seed {args.seed} to {args.out}")
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssfp", description="Two-stage stochastic Steiner forest pipe routing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --instance, --model, --flow and --rho2 of solve and export-lp
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--instance", required=True, help="path or builtin:fig2 / builtin:four-cycle")
    model.add_argument("--model", choices=OPTIMIZATIONS, required=True)
    model.add_argument("--flow", choices=FLOWS, default="u")
    model.add_argument("--rho2", type=float, default=None)

    solve = sub.add_parser("solve", parents=[model], help="build and solve one model")
    solve.add_argument("--node-limit", type=int, default=None)
    solve.add_argument("--out", default=None, help="write a JSON report here")
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="run the artificial-instance sweep")
    sweep.add_argument("--settings", default="all", help='"all" or "S,G,T"')
    sweep.add_argument("--seeds", type=int, required=True, help="seeds 0..N-1 per setting")
    sweep.add_argument("--out-dir", required=True)
    sweep.add_argument("--threads", type=int, default=core_count(),
                       help="worker processes, at most one per usable CPU (default: all of them)")
    sweep.set_defaults(func=_cmd_sweep)

    curves = sub.add_parser("curves", help="expected-cost curves over rho2")
    curves.add_argument("--instance", default="builtin:fig2")
    curves.add_argument("--grid", default=FIG2_GRID)
    curves.add_argument("--out", required=True)
    curves.set_defaults(func=_cmd_curves)

    validate = sub.add_parser("validate", help="check a solution file for feasibility")
    validate.add_argument("--instance", required=True)
    validate.add_argument("--solution", required=True, help='JSON: {"pairs": [[pipe, edge], ...]}')
    validate.set_defaults(func=_cmd_validate)

    export = sub.add_parser("export-lp", parents=[model], help="write a model in CPLEX LP format")
    export.add_argument("--out", required=True)
    export.set_defaults(func=_cmd_export_lp)

    gen = sub.add_parser("gen", help="generate an artificial instance file")
    gen.add_argument("--config", required=True, help='sweep setting "S,G,T"')
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        # refuse an unwritable --out before any work is done
        out = getattr(args, "out", None)
        if out is not None and not Path(out).parent.is_dir():
            raise CliError(f"cannot write {out}: {Path(out).parent} is not a directory")
        return args.func(args)
    except SolverError as err:
        print(str(err), file=sys.stderr)
        return EXIT_SOLVER
    except InfeasibleInstanceError as err:
        print(str(err), file=sys.stderr)
        return EXIT_INFEASIBLE
    # OSError: a path that cannot be read or written
    except (CliError, ValidationError, OSError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
