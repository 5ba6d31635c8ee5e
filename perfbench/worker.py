"""One check of one workload, in a process of its own; prints its outcome as one JSON line.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE [CHECK [SPANS_PATH]]

The worker imports hyperbmc from ROOT/src and builds the workload's inputs
(set-up), then runs check number CHECK of the workload. MODE is `setup`
(set-up only), `plain` (time the check, with calibration slices running
during it and left out of its time; see calibrate.py) or `traced` (time
the check with every layer wrapped and no slices; the spans go to
SPANS_PATH). Like a `hyperbmc check` invocation, each check has a process,
and so a heap, of its own. run.py starts this script and limits its time
and memory. Exit code 3 means the set-up failed.
"""

import contextlib
import importlib
import json
import os
import resource
import sys
import time
import types

import workloads
from calibrate import Sampler
from tracing import Tracer, layer_metrics

SETUP_FAILED = 3


def load_hyperbmc(root):
    """Import the package from ROOT/src and refuse any other copy of it."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    pkg = importlib.import_module("hyperbmc")
    where = os.path.dirname(os.path.realpath(pkg.__file__))
    if where != os.path.realpath(os.path.join(src, "hyperbmc")):
        raise ImportError(f"hyperbmc was imported from {where}, not from {src}")
    names = ("circuit", "driver", "encoder", "hyperltl", "kripke", "models", "oracle", "qbf")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"hyperbmc.{n}") for n in names}
    )


def main(argv):
    root, workload, seed, mode = argv[:4]
    index = int(argv[4]) if len(argv) > 4 else 0
    spans_path = argv[5] if len(argv) > 5 else None
    tracer = Tracer() if mode == "traced" else None

    t0 = time.perf_counter()
    try:
        hb = load_hyperbmc(root)
        if tracer:
            tracer.install(hb)
        check = workloads.build(workload, hb, int(seed))[index]
    except Exception as e:
        print(f"perfbench: set-up failed: {type(e).__name__}: {e}", file=sys.stderr)
        return SETUP_FAILED
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sampler = Sampler()
    start = time.perf_counter()
    try:
        with sampler if mode == "plain" else contextlib.nullcontext():
            result = tracer.root(check.name, check.run) if tracer else check.run()
        raised = None
    except Exception as e:
        result, raised = None, f"raised {type(e).__name__}: {e}"
    verdict_s = time.perf_counter() - start
    verdict_s -= sum(sampler.slices)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.probe_emit(hb.qbf.emit_qcir)
        tracer.uninstall()

    # Judging runs untimed and untraced: it may call the checker again.
    if raised:
        status, detail = "raised", raised
    else:
        try:
            detail = check.judge(result)
        except Exception as e:
            detail = f"judging raised {type(e).__name__}: {e}"
        status = "wrong" if detail else "ok"
    out = {
        "check": check.name,
        "status": status,
        "detail": detail,
        "setup_s": setup_s,
        "slices": len(sampler.slices),
        "slices_s": sum(sampler.slices),
        "verdict_s": verdict_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer.spans)
        if spans_path:
            tracer.write(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
