"""Benchmark of the ssfp solver.

One closed-loop caller drives a fixed batch workload through the public ssfp
API: each call starts when the previous one returns.  The run repeats whole
passes over the workload until another pass would end past ``--seconds``
(at least one pass) and prints one JSON result line last.

    python3 perfbench/run.py --workload pilot-3x3 --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces the calls
into each layer and reports per-layer metrics, and the tracing overhead from
running each item untraced and traced back to back.  README.md explains the
workloads and metrics.  Run it from the repository root; it imports ``ssfp``
from ``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

#: One in-process set-up plus the rest in fresh interpreters; setup_s is
#: their median.
SETUP_SAMPLES = 5
OUT_DIR = workloads.HERE / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark of the ssfp solver.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the items of every pass (default 0)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure whole passes for about this long (default 35)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=None,
                        choices=workloads.RECORD_SEEDS,
                        help="record-5x5 instance seed, one with stored reference "
                             f"optima (default {workloads.RECORD_DEFAULT_SEED})")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def run_pass(items, rng: random.Random, tracer, checks) -> float:
    order = list(items)
    rng.shuffle(order)
    started = perf_counter()
    for item in order:
        tracer.item = item.label
        item.run(checks)
    return perf_counter() - started


def run_passes(items, rng: random.Random, tracer, checks, seconds: float) -> list[float]:
    """Whole passes until another would end past ``seconds``; at least one."""
    durations: list[float] = []
    started = perf_counter()
    while True:
        tracer.pass_no = len(durations)
        durations.append(run_pass(items, rng, tracer, checks))
        if perf_counter() - started + durations[-1] > seconds:
            return durations


def run_paired_passes(items, rng: random.Random, probe, tracer, checks,
                      seconds: float) -> list[list[tuple[float, float]]]:
    """Whole passes, as in ``run_passes``, that run each item twice back to
    back: once under ``probe`` (untraced) and once under ``tracer``.  Which of
    the two goes first alternates from item to item, so the host's speed
    drifting over minutes and any warm-up of the second run cancel out of
    the difference.  Returns, per pass, the untraced and traced seconds of
    each item."""
    passes: list[list[tuple[float, float]]] = []
    turn = 0
    started = perf_counter()
    while True:
        order = list(items)
        rng.shuffle(order)
        probe.pass_no = tracer.pass_no = len(passes)
        pairs = []
        for item in order:
            spent = {}
            for side in ((probe, tracer) if turn % 2 == 0 else (tracer, probe)):
                with side.installed():
                    side.item = item.label
                    began = perf_counter()
                    item.run(checks)
                    spent[side] = perf_counter() - began
            turn += 1
            pairs.append((spent[probe], spent[tracer]))
        passes.append(pairs)
        if perf_counter() - started + sum(map(sum, pairs)) > seconds:
            return passes


def setup_in_child(args: argparse.Namespace) -> float:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--setup-only"]
    if args.instance_seed is not None:
        command += ["--instance-seed", str(args.instance_seed)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def percentile(samples: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: a beta-weighted mean of
    all order statistics.  The samples are a few hundred distinct solves with
    wide gaps between neighbours, where interpolating between two order
    statistics swings with the jitter of single solves."""
    import numpy
    from scipy.special import betainc

    n = len(samples)
    p = q / 100
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.diff(edges) @ numpy.sort(samples))


def nodes_per_pass(tracer) -> list[int]:
    totals: dict[int, int] = {}
    for span in tracer.spans:
        if span.group == "solve" and span.pass_no >= 0 and span.info:
            totals[span.pass_no] = totals.get(span.pass_no, 0) + span.info["nodes"]
    return [totals.get(p, 0) for p in range(max(totals, default=-1) + 1)]


def run_untraced(args, import_s: float) -> tuple[dict, dict, workloads.Checks]:
    started = perf_counter()
    items = workloads.setup(args.workload, args.instance_seed)
    setup_samples = [import_s + perf_counter() - started]
    setup_samples += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    checks = workloads.Checks()
    probe = tracing.Tracer(tracing.LATENCY_ONLY)
    with probe.installed():
        passes = run_passes(items, random.Random(args.seed), probe, checks, args.seconds)
    latencies = [span.duration * 1e3 for span in probe.spans if span.group == "solve"]
    p90 = percentile(latencies, 90)
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "solve_p50_ms": (percentile(latencies, 50), "ms"),
        "solve_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    nodes = nodes_per_pass(probe)
    context = {
        "pass_s": passes,
        "setup_samples_s": setup_samples,
        "solve_samples": len(latencies),
        "solve_samples_beyond_p90": sum(v > p90 for v in latencies),
        "solve_ms": latencies,
        "solver.nodes": nodes[0],
        "counters_repeat_across_passes": len(set(nodes)) == 1,
    }
    if context["solve_samples_beyond_p90"] < 10:
        context["note"] = "fewer than 10 solve samples lie beyond p90; solve_p90_ms is not a claim here"
    return metrics, context, checks


def run_traced(args) -> tuple[dict, dict, workloads.Checks]:
    tracer = tracing.Tracer()
    with tracer.installed():
        items = workloads.setup(args.workload, args.instance_seed)
    checks = workloads.Checks()
    probe = tracing.Tracer(tracing.LATENCY_ONLY)
    passes = run_paired_passes(items, random.Random(args.seed), probe, tracer,
                               checks, args.seconds)
    untraced = [sum(u for u, _ in pairs) for pairs in passes]
    traced = [sum(t for _, t in pairs) for pairs in passes]
    overheads = [t - u for u, t in zip(untraced, traced)]
    layer, context = tracing.layer_metrics(tracer)
    layer["trace.overhead_s"] = statistics.median(overheads)
    item_overheads = [t - u for pairs in passes for u, t in pairs]
    if len(item_overheads) > 1:
        # Standard error of one pass's overhead, from the spread of the
        # paired per-item differences.
        noise = statistics.stdev(item_overheads) * len(items) ** 0.5
        context["trace_overhead_noise_s"] = noise
        if abs(layer["trace.overhead_s"]) < 2 * noise:
            context["trace_overhead_note"] = "within two standard errors of 0: below the noise floor"
    else:
        context["trace_overhead_note"] = "one paired item: no noise estimate"
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
    untraced_nodes = nodes_per_pass(probe)[0]
    context.update({
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "trace_overhead_per_pass_s": overheads,
        "untraced_pass_solver.nodes": untraced_nodes,
        "nodes_match_untraced": untraced_nodes == layer["solver.nodes"],
        "missing_trace_targets": tracer.missing,
        "self_time": tracing.self_time_table(tracer),
    })
    write_spans(args, tracer)
    return metrics, context, checks


def write_spans(args, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as handle:
        for index, span in enumerate(tracer.spans):
            handle.write(json.dumps(span.as_dict(index)) + "\n")


def run_context(args) -> dict:
    import numpy
    import scipy

    instance_seed = args.instance_seed
    if args.workload == "record-5x5" and instance_seed is None:
        instance_seed = workloads.RECORD_DEFAULT_SEED
    return {
        "workload": args.workload,
        "seed": args.seed,
        "instance_seed": instance_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "lp_entry": ".".join(tracing.LP_ENTRY),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    try:
        workloads.load_ssfp()
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import_s = perf_counter() - started
    if args.setup_only:
        started = perf_counter()
        workloads.setup(args.workload, args.instance_seed)
        print(json.dumps({"setup_s": import_s + perf_counter() - started}))
        return 0

    if args.trace:
        metrics, details, checks = run_traced(args)
    else:
        metrics, details, checks = run_untraced(args, import_s)
    context = run_context(args) | details
    context["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                         "fail_frac": checks.failed / checks.attempted}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump({"result": result, "context": context}, handle, indent=1)
    for name, (value, unit) in metrics.items():
        shown = "unavailable" if value is None else f"{value:.6g}"
        print(f"{args.workload:<11} {name:<36} {shown:>12} {unit}")
    print(f"{args.workload:<11} {'fail_frac':<36} {checks.failed / checks.attempted:>12.6g} "
          f"ratio ({checks.failed} of {checks.attempted} checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
