"""Recompute reference.json: the optimum of each of the six models on every
pilot-3x3 record and on the stored record-5x5 instance seeds.

    python3 perfbench/capture_reference.py

Run it only on a commit whose answers are trusted; the benchmark fails any
later solve that disagrees with these values by more than 1e-6.
"""
from __future__ import annotations

import json
import sys

import workloads


def optima(config, seed: int, two_stage) -> dict[str, float]:
    from ssfp import experiments

    record = experiments.sweep_record(config, seed, two_stage)
    values = dict(zip(experiments.MODEL_LABELS, record.objectives))
    for objective in ("DO", "RO", "SO"):
        u, d = values[f"{objective}-U"], values[f"{objective}-D"]
        if abs(u - d) > workloads.REFERENCE_TOL:
            raise SystemExit(f"{config.setting_id} seed {seed}: {objective}-U {u!r} vs -D {d!r}")
    return values


def main() -> int:
    workloads.load_ssfp()
    reference = {"pilot-3x3": {}, "record-5x5": {}}
    config = workloads.pilot_config()
    for seed in workloads.PILOT_SEEDS:
        reference["pilot-3x3"][str(seed)] = optima(config, seed, workloads.pilot_instance(seed))
    config = workloads.record_config()
    for seed in workloads.RECORD_SEEDS:
        reference["record-5x5"][str(seed)] = optima(config, seed, workloads.record_instance(seed))
        print(f"record-5x5 seed {seed} done", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
