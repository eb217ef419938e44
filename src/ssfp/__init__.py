"""Exact deterministic, robust, and stochastic Steiner-forest optimization
for ship pipe routing under fuel-transition uncertainty."""

from .graph_core import (
    EdgePipeSet,
    Graph,
    InfeasibleInstanceError,
    Instance,
    PipeCatalog,
    TerminalGroups,
    TwoStageInstance,
    ValidationError,
    cost,
    validate_feasible,
)
from .instances import (
    SweepConfig,
    all_settings,
    fig2_instance,
    four_cycle_instance,
    grid_graph,
    load_instance,
    load_realistic,
    random_artificial,
    random_grid_instance,
    save_instance,
)
from .milp_core import MilpModel, MilpSolution, export_lp
from .models import (
    ALL_KINDS,
    BuiltModel,
    ModelKind,
    build_do,
    build_model,
    expected_size,
)
from .solver import BruteForceResult, brute_force, solve_milp
from .experiments import (
    SweepRecord,
    cost_curves,
    evaluate_under,
    run_sweep,
    vss,
    vss_curve,
)

__version__ = "0.1.0"
