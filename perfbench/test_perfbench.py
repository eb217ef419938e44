"""The benchmark's own tests: counters repeat, tracing changes no result, and
the result line keeps its contract.

    python3 -m pytest -q perfbench
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

workloads.load_ssfp()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_counters(workload, limit, targets=tracing.TRACED):
    tracer = tracing.Tracer(targets)
    checks = workloads.Checks()
    with tracer.installed():
        items = workloads.setup(workload, limit=limit)
        run.run_passes(items, random.Random(7), tracer, checks, seconds=0)
    metrics, notes = tracing.layer_metrics(tracer)
    assert checks.failed == 0
    return metrics, notes


def _untraced_nodes(workload, limit):
    probe = tracing.Tracer(tracing.LATENCY_ONLY)
    checks = workloads.Checks()
    items = workloads.setup(workload, limit=limit)
    with probe.installed():
        run.run_passes(items, random.Random(8), probe, checks, seconds=0)
    assert checks.failed == 0
    return run.nodes_per_pass(probe)[0]


@pytest.mark.parametrize("workload,limit", [("oracle-3x3", 4), ("pilot-3x3", 2)])
def test_counters_repeat_and_tracing_changes_nothing(workload, limit):
    first, notes = _traced_counters(workload, limit)
    second, _ = _traced_counters(workload, limit)
    for name in tracing.COUNTERS:
        assert first[name] == second[name] > 0, name
    assert first["solver.nodes"] == _untraced_nodes(workload, limit)
    assert notes["unavailable"] == {}


def test_paired_passes_trace_one_half_and_repeat_its_counters():
    probe = tracing.Tracer(tracing.LATENCY_ONLY)
    tracer = tracing.Tracer()
    checks = workloads.Checks()
    items = workloads.setup("oracle-3x3", limit=2)
    passes = run.run_paired_passes(items, random.Random(9), probe, tracer, checks, seconds=0)
    assert checks.failed == 0 and checks.attempted == 2 * 12
    assert len(passes) == 1 and len(passes[0]) == 2
    assert all(u > 0 and t > 0 for u, t in passes[0])
    metrics, _ = tracing.layer_metrics(tracer)
    assert metrics["solver.nodes"] == run.nodes_per_pass(probe)[0] > 0
    assert {s.group for s in probe.spans} == {"solve"}


def test_lp_metrics_read_unavailable_when_the_lp_entry_sees_no_calls():
    without_lp = tuple(t for t in tracing.TRACED if t[0] != "lp")
    metrics, notes = _traced_counters("oracle-3x3", 1, without_lp)
    assert metrics["solver.nodes"] > 0
    for name in tracing.LP_METRICS:
        assert metrics[name] is None and name in notes["unavailable"]


def test_tracer_restores_every_namespace():
    from ssfp import experiments, solver

    originals = (solver.solve_milp, experiments.solve_milp, solver.linprog,
                 experiments.build_do, experiments.evaluate_under)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert experiments.solve_milp is not originals[1]
        assert experiments.build_do is not originals[3]
    assert (solver.solve_milp, experiments.solve_milp, solver.linprog,
            experiments.build_do, experiments.evaluate_under) == originals
    assert tracer.missing == []


def test_per_layer_names_and_units_match_benchmark_json():
    metrics, _ = _traced_counters("pilot-3x3", 1)
    metrics["trace.overhead_s"] = 0.0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: tracing.unit_of(name) for name in metrics} == declared


def test_reference_u_optima_match_their_d_twins():
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    assert sorted(reference["pilot-3x3"], key=int) == [str(s) for s in workloads.PILOT_SEEDS]
    assert sorted(reference["record-5x5"], key=int) == [str(s) for s in workloads.RECORD_SEEDS]
    for records in reference.values():
        for optima in records.values():
            for objective in ("DO", "RO", "SO"):
                assert abs(optima[f"{objective}-U"] - optima[f"{objective}-D"]) <= 1e-6


def test_result_line_reports_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-3x3", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 120
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-3x3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
