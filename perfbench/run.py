"""hyperbmc benchmark: times whole checks end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload paper-cases --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout. A pass runs each check of the workload
once, each in a fresh worker process (perfbench/worker.py), one at a time:
a closed loop with one client. Passes repeat while another is expected to
end within --seconds; at least one always runs. Each worker gets a deadline
and an address-space ceiling. A check that hangs, dies, raises or gives an
answer other than the known one counts as failed.

--trace 0 reports verdict_s (time in the checker calls of a pass), as the
mean over the passes, peak_rss_mb (largest worker of a pass), as the
median over the passes, and setup_s (import hyperbmc and build the
inputs), as the median of at least SETUP_SAMPLES workers. Both times are
scaled to the machine's speed: multiplied by calibrate.REFERENCE_S over
the mean time of the calibration slices that ran during the run's checks
(see calibrate.py); the unscaled figures go to standard error.
--trace 1 runs each check untraced and then traced, and reports the traced
passes' layer metrics and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads
from calibrate import REFERENCE_S
from tracing import merge_layers
from worker import SETUP_FAILED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

# Metric names and units come from BENCHMARK.json, at the root of the checkout.
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_SAMPLES = 25
SETUP_PER_CHECK = 4  # set-up samples taken before each check, up to SETUP_SAMPLES
CHECK_DEADLINE_S = 120  # about ten times the slowest check on a 2-core x86 VM
RUN_LIMIT_S = 165  # the whole run must end well within 180 s
MEMORY_CEILING_MB = 2048  # about ten times the largest check's peak RSS


class SetupFailed(Exception):
    pass


def _limit_memory():
    cap = MEMORY_CEILING_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_worker(workload, seed, mode, deadline, index=0, spans_path=None, hash_seed="0"):
    """One worker process; returns its parsed JSON line, or None if it died or hung."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, WORKER, ROOT, workload, str(seed), mode, str(index)]
    if spans_path:
        argv.append(spans_path)
    try:
        proc = subprocess.run(
            argv, stdout=subprocess.PIPE, text=True, env=env, timeout=max(deadline, 1),
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} worker passed its {deadline:.0f}s deadline", file=sys.stderr)
        return None
    if proc.returncode == SETUP_FAILED:
        raise SetupFailed(f"{workload} set-up failed in the worker")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {mode} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


class Tally:
    """Checks attempted, failed and wrong over the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, out):
        self.attempted += 1
        if out is None:
            self.failed += 1
        elif out["status"] != "ok":
            self.failed += 1
            self.wrong += out["status"] == "wrong"
            print(f"perfbench: {out['check']} {out['status']}: {out['detail']}", file=sys.stderr)


def measure(workload, seed, seconds, trace):
    names = workloads.CHECKS[workload]
    tally = Tally()
    setups = []
    slices = [0, 0.0]  # calibration slices run during the checks, and their seconds
    start = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    def check(mode, index, spans_path=None):
        t = time.perf_counter()
        out = run_worker(workload, seed, mode, min(CHECK_DEADLINE_S, remaining()), index, spans_path)
        tally.add(out)
        return out, time.perf_counter() - t

    def setup_sample():
        out = run_worker(workload, seed, "setup", min(30, remaining()))
        if out is not None:
            setups.append(out["setup_s"])

    def another_fits(durations):
        elapsed = time.perf_counter() - start
        return elapsed + statistics.median(durations) <= min(seconds, RUN_LIMIT_S)

    durations = []
    if not trace:
        verdicts, peaks = [], []
        while not durations or another_fits(durations):
            t = time.perf_counter()
            verdict, peak = 0.0, 0.0
            for index in range(len(names)):
                # The machine's speed changes within seconds, so set-up
                # samples are spread over the run rather than taken together.
                for _ in range(SETUP_PER_CHECK):
                    if len(setups) < SETUP_SAMPLES:
                        setup_sample()
                out, took = check("plain", index)
                if out is None:  # a worker that hung or died counts with its whole time
                    verdict, peak = verdict + took, float(MEMORY_CEILING_MB)
                else:
                    verdict += out["verdict_s"]
                    slices[0] += out["slices"]
                    slices[1] += out["slices_s"]
                    peak = max(peak, out["peak_rss_mb"])
                    setups.append(out["setup_s"])
            verdicts.append(verdict)
            peaks.append(peak)
            durations.append(time.perf_counter() - t)
        while len(setups) < SETUP_SAMPLES and remaining() > 30:
            setup_sample()
        verdict = statistics.fmean(verdicts)
        setup = statistics.median(setups) if setups else float(RUN_LIMIT_S)
        scale = REFERENCE_S * slices[0] / slices[1] if slices[0] else 1.0
        print(f"perfbench: unscaled verdict_s {verdict:.4f}, setup_s {setup:.4f}; scale {scale:.4f} "
              f"from {slices[0]} slices; passes {[round(v, 3) for v in verdicts]}", file=sys.stderr)
        metrics = {
            "verdict_s": verdict * scale,
            "setup_s": setup * scale,
            "peak_rss_mb": statistics.median(peaks),
        }
    else:
        os.makedirs(SPANS_DIR, exist_ok=True)
        layers, overheads = [], []
        while not durations or another_fits(durations):
            t = time.perf_counter()
            parts, overhead = [], 0.0
            for index, name in enumerate(names):
                plain = check("plain", index)[0]
                spans = os.path.join(SPANS_DIR, f"{workload}-seed{seed}-pass{len(durations)}-{name}.jsonl")
                traced = check("traced", index, spans)[0]
                if plain is not None and traced is not None:
                    parts.append(traced["layers"])
                    overhead += traced["verdict_s"] - plain["verdict_s"]
            if len(parts) == len(names):
                layers.append(merge_layers(parts))
                overheads.append(overhead)
            durations.append(time.perf_counter() - t)
        # median_low keeps counts whole: they repeat exactly from pass to pass.
        metrics = {name: statistics.median_low(p[name] for p in layers) if layers else 0
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CHECKS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "hyperbmc", "__init__.py")):
        print(f"perfbench: no hyperbmc sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except SetupFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
