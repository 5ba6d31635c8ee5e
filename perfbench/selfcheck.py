"""Checks on the benchmark itself; exits 1 if any fails.

    python3 perfbench/selfcheck.py

- BENCHMARK.json names the workloads of workloads.CHECKS, in order. (run.py
  takes the metric names and units from BENCHMARK.json itself.)
- The grid10 defect still stands: count_prefixes(grid10, 20) exceeds
  oracle.ENUMERATION_CAP, so driver.check would enumerate every prefix
  before giving up on the witness re-check. When this pin fails, move
  grid10-plan onto driver.check as a benchmark change of its own.
- Every count of the traced run (calls, nodes, variables, bytes) repeats
  exactly across runs and PYTHONHASHSEED values, and the known answers
  hold, on the default and the held-out seed.
"""

import sys

import run
import workloads
from tracing import merge_layers
from worker import load_hyperbmc

HASH_SEEDS = ("0", "1")


def check_benchmark_json(failures):
    declared = [w["name"] for w in run.SPEC["workloads"]]
    if declared != list(workloads.CHECKS):
        failures.append(f"BENCHMARK.json workloads {declared} != {list(workloads.CHECKS)}")


def check_grid10_pin(failures):
    hb = load_hyperbmc(run.ROOT)
    grid = hb.models.gen_grid(*hb.models.parse_grid_map(hb.models.PAPER_GRID_10))
    count = hb.kripke.count_prefixes(grid, workloads.GRID_K)
    print(f"count_prefixes(grid10, {workloads.GRID_K}) = {count}, cap {hb.oracle.ENUMERATION_CAP}")
    if count <= hb.oracle.ENUMERATION_CAP:
        failures.append("grid10 no longer exceeds ENUMERATION_CAP: revisit grid10-plan")


def check_counts(workload, seed, failures):
    counted = [n for n, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]
    seen = {}
    for hash_seed in HASH_SEEDS:
        parts = []
        for index in range(len(workloads.CHECKS[workload])):
            out = run.run_worker(
                workload, seed, "traced", run.CHECK_DEADLINE_S, index, hash_seed=hash_seed
            )
            if out is None:
                failures.append(f"{workload} seed {seed}: traced check {index} failed")
                return
            if out["status"] != "ok":
                failures.append(f"{workload} seed {seed}: {out['check']} {out['status']}: {out['detail']}")
            parts.append(out["layers"])
        layers = merge_layers(parts)
        seen[hash_seed] = {n: layers[n] for n in counted}
    first, *rest = seen.values()
    for other in rest:
        if other != first:
            failures.append(f"{workload} seed {seed}: counts differ by hash seed: {seen}")
    print(f"{workload} seed {seed}: {first}")


def main():
    failures = []
    check_benchmark_json(failures)
    check_grid10_pin(failures)
    for workload in workloads.CHECKS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            check_counts(workload, seed, failures)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
