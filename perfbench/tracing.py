"""Spans around the calls into each layer, kept in memory and summed into layer metrics.

The tracer replaces module attributes and Circuit methods with wrappers
that record one span per call: name, start, end, parent span, the bound
being checked and the run id (the check it belongs to). Nothing inside the
program changes; the wrappers sit on the names the driver looks up.
"""

import json
import statistics
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "bound", "run", "info")

    def __init__(self, name, start, parent, bound, run):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.bound = bound
        self.run = run
        self.info = None


def _assemble_info(args, q):
    return {
        "vars": sum(len(ids) for _, ids in q.blocks),
        "outer_vars": len(q.blocks[0][1]) if q.blocks else 0,
        "nodes": len(q.circuit),
    }


def _solve_info(args, result):
    return {"nodes": len(args[0].circuit)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = "setup"
        self.bound = None
        self.last_qbf = None  # the newest assembled QBF, for the QCIR probe
        self._open = []
        self._undo = []

    def install(self, hb):
        """Wrap the layer entry points that the driver and the workloads call."""
        self.wrap(hb.models, "gen_bakery", "models.gen")
        self.wrap(hb.models, "gen_nonrepudiation", "models.gen")
        self.wrap(hb.models, "gen_grid", "models.gen")
        self.wrap(hb.kripke, "parse_kripke", "models.gen")
        self.wrap(hb.driver, "build_layout", "encoder.layout", sets_bound=True)
        self.wrap(hb.driver, "assemble_qbf", "encoder.assemble", info=_assemble_info, keep=True)
        self.wrap(hb.qbf, "solve", "qbf.solve", info=_solve_info)
        self.wrap(hb.driver, "extract_witness", "driver.decode")
        self.wrap(hb.oracle, "verify_witness", "oracle.verify")
        self.wrap(hb.circuit.Circuit, "cofactors", "circuit.cofactors")
        self.wrap(hb.circuit.Circuit, "restrict", "circuit.restrict")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr, name, info=None, sets_bound=False, keep=False):
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if sets_bound:
                self.bound = args[2]
            span = Span(name, clock(), stack[-1] if stack else None, self.bound, self.run)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as e:
                span.info = {"raised": type(e).__name__}
                raise
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            if keep:
                self.last_qbf = result
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def root(self, run, fn):
        """Call fn as the root span of one check and return its result."""
        self.run = run
        self.bound = None
        span = Span("bench.check", time.perf_counter(), None, None, run)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn()
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def probe_emit(self, emit_qcir):
        """Emit QCIR for the last assembled bound, outside the check's root span."""
        q, self.last_qbf = self.last_qbf, None
        if q is None:
            return
        span = Span("qbf.emit", time.perf_counter(), None, self.bound, self.run)
        self.spans.append(span)
        span.info = {"bytes": len(emit_qcir(q).encode())}
        span.end = time.perf_counter()

    def write(self, path):
        """Write every span once, as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "bound": s.bound, "run": s.run, "info": s.info,
                }) + "\n")


def layer_metrics(spans):
    """Per-layer counts and times of one traced check."""
    covered = [0.0] * len(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            covered[s.parent] += s.end - s.start

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def info_sum(name, key):
        return sum(s.info[key] for s in by_name[name] if s.info and key in s.info)

    roots = [i for i, s in enumerate(spans) if s.name == "bench.check"]
    return {
        # Circuit.cofactors never calls itself, so summing its spans counts
        # each traversal once, including the one inside every restrict.
        "circuit.cofactors_calls": len(by_name["circuit.cofactors"]),
        "circuit.restrict_calls": len(by_name["circuit.restrict"]),
        "circuit.cofactors_s": total("circuit.cofactors"),
        "qbf.solve_s": total("qbf.solve"),
        "qbf.nodes_peak": max((s.info["nodes"] for s in by_name["qbf.solve"] if s.info), default=0),
        "encoder.layout_s": total("encoder.layout"),
        "encoder.assemble_s": total("encoder.assemble"),
        "encoder.vars": info_sum("encoder.assemble", "vars"),
        "encoder.outer_vars": info_sum("encoder.assemble", "outer_vars"),
        "encoder.nodes": info_sum("encoder.assemble", "nodes"),
        "qbf.emit_s": total("qbf.emit"),
        "qbf.qcir_bytes": info_sum("qbf.emit", "bytes"),
        "oracle.verify_s": total("oracle.verify"),
        "oracle.verify_calls": len(by_name["oracle.verify"]),
        "oracle.guard_skips": sum(
            1 for s in by_name["oracle.verify"]
            if s.info and s.info.get("raised") == "ExplosionGuardError"
        ),
        "driver.bounds": len(by_name["encoder.layout"]),
        "driver.decode_s": total("driver.decode"),
        "driver.self_s": sum(spans[i].end - spans[i].start - covered[i] for i in roots),
        "models.gen_s": total("models.gen"),
    }


# How a pass combines its checks' layer metrics; the rest add up. Every
# worker builds all of a workload's inputs, so models.gen_s is per set-up.
_COMBINE = {"qbf.nodes_peak": max, "models.gen_s": statistics.median}


def merge_layers(parts):
    """Layer metrics of a pass from those of its checks."""
    return {name: _COMBINE.get(name, sum)(p[name] for p in parts) for name in parts[0]}
