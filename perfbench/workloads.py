"""The benchmark's three fixed batch workloads: their inputs, the work one pass
does, and the checks that every output is right.

Each workload is a list of items.  One pass runs every item once, in an
order drawn from the benchmark seed; the instances themselves are fixed, so
a pass does the same work under every seed (see README.md for why).
"""
from __future__ import annotations

import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("oracle-3x3", "pilot-3x3", "record-5x5")
ORACLE_INSTANCES = 20  # the first 20 instances of the criterion-4 corpus
PILOT_SEEDS = tuple(range(12))  # the criterion-5/6 pilot
RECORD_SETTING = (2, 1, 3)  # s2g1t3: scenarios, groups, terminals per group
RECORD_DEFAULT_SEED = 2
#: record-5x5 instance seeds with stored reference optima: the default and
#: the held-out seeds for later claims.
RECORD_SEEDS = (RECORD_DEFAULT_SEED, 4, 5, 6)
ORACLE_TOL = 1e-9  # criterion 4's tolerance against brute_force
REFERENCE_TOL = 1e-6  # sweep_record's own U/D and re-evaluation tolerance


def load_ssfp():
    """Import ssfp from the sources next to the benchmark, never from an
    installed copy, so the benchmark always measures the code it sits beside."""
    package = SRC / "ssfp" / "__init__.py"
    if not package.is_file():
        raise ImportError(f"no ssfp sources at {package.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ssfp

    if Path(ssfp.__file__).resolve() != package:
        raise ImportError(f"imported ssfp from {ssfp.__file__}, expected {package}")
    return ssfp


class Checks:
    """Counts output checks; a failed check is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            print(f"perfbench: check failed: {what}", file=sys.stderr)


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[Checks], None]


def corpus_instance(index: int):
    """Instance ``index`` of the criterion-4 oracle corpus."""
    from ssfp import instances

    return instances.random_grid_instance(
        3, 3, num_pipe_types=1, num_groups=1 + index % 2,
        terminals_per_group=2 + (index // 2) % 2, num_scenarios=2, seed=index,
    )


def pilot_instance(seed: int):
    """Record ``seed`` of the criterion-5/6 pilot (3x3, 2 pipe types, 2 groups)."""
    from ssfp import instances

    return instances.random_grid_instance(
        3, 3, num_pipe_types=2, num_groups=2, terminals_per_group=2,
        num_scenarios=2, seed=seed,
    )


def pilot_config():
    from ssfp import instances

    return instances.SweepConfig(2, 2, 3, PILOT_SEEDS)


def record_config():
    from ssfp import instances

    return instances.SweepConfig(*RECORD_SETTING)


def record_instance(seed: int):
    from ssfp import instances

    return instances.random_artificial(record_config(), seed)


def load_reference(workload: str) -> dict[str, dict[str, float]]:
    """Stored optima per model label, keyed by instance seed."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)[workload]


def _oracle_item(index: int, two_stage) -> Item:
    from ssfp import models, solver

    label = f"instance {index}"

    def run(checks: Checks) -> None:
        for mode in ("do", "ro", "so"):
            try:
                oracle = solver.brute_force(two_stage, mode).objective
            except Exception:
                traceback.print_exc()
                checks.record(False, f"{label} {mode}: oracle raised", count=2)
                continue
            for flow in ("u", "d"):
                what = f"{label} {mode}-{flow}"
                try:
                    built = models.build_model(models.ModelKind(mode, flow), two_stage)
                    solution = solver.solve_milp(built.milp)
                except Exception:
                    traceback.print_exc()
                    checks.record(False, f"{what}: solve raised")
                    continue
                checks.record(
                    solution.status == "optimal"
                    and abs(solution.objective - oracle) <= ORACLE_TOL,
                    f"{what}: {solution.status} {solution.objective!r} vs oracle {oracle!r}",
                )

    return Item(label, run)


def _hard_invariants_hold(record) -> bool:
    """The bounds every sweep record must meet (as in the acceptance suite)."""
    m = record.matrix
    return (
        all(abs(m[i][i] - 1.0) <= 1e-9 for i in range(3))
        and all(m[i][j] >= 1.0 - 1e-7 for i in range(3) for j in range(3))
        and record.ro_do_ratio >= 1.0 - 1e-9
    )


def _record_item(config, seed: int, two_stage, reference: dict[str, float]) -> Item:
    from ssfp import experiments

    label = f"record {seed}"
    checks_per_record = 1 + len(experiments.MODEL_LABELS)

    def run(checks: Checks) -> None:
        try:
            record = experiments.sweep_record(config, seed, two_stage)
        except Exception:
            traceback.print_exc()
            checks.record(False, f"{label}: sweep_record raised", count=checks_per_record)
            return
        checks.record(_hard_invariants_hold(record), f"{label}: hard invariants")
        for model, objective in zip(experiments.MODEL_LABELS, record.objectives):
            expected = reference[model]
            checks.record(
                abs(objective - expected) <= REFERENCE_TOL,
                f"{label} {model}: {objective!r} vs reference {expected!r}",
            )

    return Item(label, run)


def setup(workload: str, instance_seed: int | None = None, limit: int | None = None) -> list[Item]:
    """Generate the workload's instances and load its reference optima.

    ``instance_seed`` picks the record-5x5 instance; ``limit`` keeps only the
    first items, for the benchmark's own tests.
    """
    if instance_seed is not None and workload != "record-5x5":
        raise ValueError("only record-5x5 takes an instance seed")
    if workload == "oracle-3x3":
        items = [_oracle_item(i, corpus_instance(i)) for i in range(ORACLE_INSTANCES)]
    elif workload == "pilot-3x3":
        reference = load_reference(workload)
        config = pilot_config()
        items = [
            _record_item(config, seed, pilot_instance(seed), reference[str(seed)])
            for seed in PILOT_SEEDS
        ]
    elif workload == "record-5x5":
        seed = RECORD_DEFAULT_SEED if instance_seed is None else instance_seed
        reference = load_reference(workload)
        items = [_record_item(record_config(), seed, record_instance(seed), reference[str(seed)])]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return items[:limit]
