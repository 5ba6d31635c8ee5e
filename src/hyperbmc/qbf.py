"""Prenex QBF: representation, built-in solver, QCIR text format, external solvers.

The built-in solver eliminates variables by expansion from the innermost
block outward (AND of cofactors for a universal, OR for an existential),
keeping the outermost block, then decides the residual propositional
formula with a small unit-propagating DPLL over that block. That makes
the outer witness (or countermodel) fall out of the search directly.
"""

import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass

from . import circuit as ct
from .circuit import Circuit, CircuitCapError

DEFAULT_NODE_CAP = 50 * 10**6

EXISTS = "exists"
FORALL = "forall"


class QbfError(Exception):
    pass


class ResourceLimitError(QbfError):
    def __init__(self, nodes):
        super().__init__(f"builtin solver exceeded the node cap ({nodes} nodes)")
        self.nodes = nodes


class SolverNotFoundError(QbfError):
    pass


class SolverTimeoutError(QbfError):
    def __init__(self, seconds):
        super().__init__(f"external solver timed out after {seconds}s")
        self.seconds = seconds


class UnparsableOutputError(QbfError):
    def __init__(self, head):
        super().__init__(f"cannot parse external solver output: {head!r}")
        self.head = head


@dataclass(frozen=True)
class PrenexQBF:
    circuit: Circuit
    blocks: tuple  # ((quantifier, (var id, ...)), ...)
    matrix: int
    var_names: dict  # var id -> display name


@dataclass(frozen=True)
class SolveResult:
    value: bool
    outer_witness: dict | None  # var id -> bool; see solve()


def make_prenex(circuit, blocks, matrix, var_names) -> PrenexQBF:
    """Normalize blocks: drop empty ones, merge same-quantifier neighbors."""
    merged = []
    seen = set()
    for quant, variables in blocks:
        if quant not in (EXISTS, FORALL):
            raise QbfError(f"bad quantifier {quant!r}")
        variables = tuple(variables)
        for v in variables:
            if v in seen:
                raise QbfError(f"variable {v} appears in two blocks")
            seen.add(v)
        if not variables:
            continue
        if merged and merged[-1][0] == quant:
            merged[-1] = (quant, merged[-1][1] + variables)
        else:
            merged.append((quant, variables))
    free = circuit.support(matrix)
    if not free <= seen:
        raise QbfError(f"matrix mentions unquantified variables {sorted(free - seen)}")
    return PrenexQBF(circuit=circuit, blocks=tuple(merged), matrix=matrix, var_names=dict(var_names))


def _dpll(circ, node, variables):
    """Deterministic DPLL: lowest-numbered variable first, false before true.

    Returns a satisfying assignment over all of `variables`, or None.
    Unit propagation forces literal children of a conjunctive root, and
    unsatisfiable residuals are cached by node id: hash consing makes a
    node's satisfiability intrinsic, so converging branches are pruned.
    """
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000 + 20 * len(variables)))
    unsat = set()

    def forced_literals(n):
        lits = []
        if circ.kinds[n] == ct.K_AND:
            for c in circ.payloads[n]:
                if circ.kinds[c] == ct.K_VAR:
                    lits.append((circ.payloads[c], True))
                elif circ.kinds[c] == ct.K_NOT and circ.kinds[circ.payloads[c]] == ct.K_VAR:
                    lits.append((circ.payloads[circ.payloads[c]], False))
        return lits

    def search(n, idx):
        if n == ct.TRUE:
            return {}
        if n == ct.FALSE or n in unsat:
            return None
        lits = forced_literals(n)
        if lits:
            m = n
            out = {}
            for v, val in lits:
                m = circ.restrict(m, v, val)
                out[v] = val
            sub = search(m, idx)
            if sub is None:
                unsat.add(n)
                return None
            sub.update(out)
            return sub
        mask = circ.masks[n]
        while idx < len(variables) and not (mask >> variables[idx]) & 1:
            idx += 1
        if idx == len(variables):
            unsat.add(n)
            return None
        v = variables[idx]
        lo, hi = circ.cofactors(n, v)
        sub = search(lo, idx + 1)
        if sub is not None:
            sub[v] = False
            return sub
        if hi != lo:
            sub = search(hi, idx + 1)
            if sub is not None:
                sub[v] = True
                return sub
        unsat.add(n)
        return None

    try:
        assignment = search(node, 0)
    finally:
        # search refers to itself through its closure cell; emptying the cell
        # frees the arena now instead of at the next cyclic collection
        del search
    if assignment is None:
        return None
    for v in variables:
        assignment.setdefault(v, False)
    return assignment


def _combine(circ, quant, lo, hi):
    """Join the two cofactors of an eliminated variable, factoring shared parts.

    (c & x) | (c & y) == c & (x | y) and (c | x) & (c | y) == c | (x & y);
    without these the expansion loses all sharing between branches.
    """
    if lo == hi:
        return lo
    if quant == EXISTS:
        inner, outer, gate_kind = circ.or_, circ.and_, ct.K_AND
    else:
        inner, outer, gate_kind = circ.and_, circ.or_, ct.K_OR
    if circ.kinds[lo] == gate_kind and hi in circ.payloads[lo]:
        return hi  # absorption: the stronger side is redundant
    if circ.kinds[hi] == gate_kind and lo in circ.payloads[hi]:
        return lo
    if circ.kinds[lo] == gate_kind and circ.kinds[hi] == gate_kind:
        a = set(circ.payloads[lo])
        b = set(circ.payloads[hi])
        common = a & b
        if common:
            rest_a = outer([n for n in circ.payloads[lo] if n not in common])
            rest_b = outer([n for n in circ.payloads[hi] if n not in common])
            return outer(list(common) + [inner([rest_a, rest_b])])
    return inner([lo, hi])


def solve(q: PrenexQBF, node_cap: int = DEFAULT_NODE_CAP) -> SolveResult:
    """Decide a prenex QBF; extract a witness for the outer block when one exists.

    The outer witness is present iff the first block is existential and the
    value is true, or the first block is universal and the value is false;
    it then assigns every variable of that block (a model, respectively a
    countermodel, of the outer block).
    """
    circ = q.circuit
    matrix = q.matrix
    if not q.blocks:
        return SolveResult(value=matrix == ct.TRUE, outer_witness=None)

    inner = []
    for quant, variables in q.blocks[1:]:
        for v in variables:
            inner.append((v, quant))
    saved_cap = circ.node_cap
    circ.node_cap = node_cap
    try:
        for v, quant in reversed(inner):
            lo, hi = circ.cofactors(matrix, v)
            matrix = _combine(circ, quant, lo, hi)

        outer_quant, outer_vars = q.blocks[0]
        ordered = sorted(outer_vars)
        if outer_quant == EXISTS:
            assignment = _dpll(circ, matrix, ordered)
            if assignment is None:
                return SolveResult(value=False, outer_witness=None)
            return SolveResult(value=True, outer_witness=assignment)
        assignment = _dpll(circ, circ.not_(matrix), ordered)
        if assignment is None:
            return SolveResult(value=True, outer_witness=None)
        return SolveResult(value=False, outer_witness=assignment)
    except CircuitCapError as e:
        raise ResourceLimitError(e.nodes) from None
    finally:
        circ.node_cap = saved_cap


def _emit_names(q: PrenexQBF):
    """QCIR-safe display names: sanitize and deterministically deduplicate."""
    names = {}
    used = set()
    for _, variables in q.blocks:
        for v in variables:
            raw = q.var_names.get(v, f"v{v}")
            name = re.sub(r"[^A-Za-z0-9_]", "_", raw) or f"v{v}"
            if re.fullmatch(r"g\d+", name):
                name += "_"
            if name in used:
                n = 2
                while f"{name}__{n}" in used:
                    n += 1
                name = f"{name}__{n}"
            used.add(name)
            names[v] = name
    return names


def emit_qcir(q: PrenexQBF) -> str:
    """Render as a QCIR-G14 document; byte-deterministic for a given input."""
    circ = q.circuit
    names = _emit_names(q)
    gate_no = {}
    order = []

    def visit(root):
        stack = [(root, False)]
        while stack:
            n, ready = stack.pop()
            k = circ.kinds[n]
            if k == ct.K_NOT:
                stack.append((circ.payloads[n], ready))
                continue
            if k in (ct.K_CONST, ct.K_VAR) or n in gate_no:
                continue
            if not ready:
                stack.append((n, True))
                for c in reversed(circ.payloads[n]):
                    stack.append((c, False))
            elif n not in gate_no:
                gate_no[n] = len(order) + 1
                order.append(n)

    def literal(n):
        k = circ.kinds[n]
        if k == ct.K_VAR:
            return names[circ.payloads[n]]
        if k == ct.K_NOT:
            return "-" + literal(circ.payloads[n])
        return f"g{gate_no[n]}"

    visit(q.matrix)
    lines = ["#QCIR-G14"]
    for quant, variables in q.blocks:
        lines.append(f"{quant}({', '.join(names[v] for v in variables)})")

    root = q.matrix
    if circ.kinds[root] in (ct.K_AND, ct.K_OR):
        out = f"g{gate_no[root]}"
        wrap = None
    else:
        out = f"g{len(order) + 1}"
        if root == ct.TRUE:
            wrap = f"{out} = and()"
        elif root == ct.FALSE:
            wrap = f"{out} = or()"
        else:
            wrap = f"{out} = and({literal(root)})"
    lines.append(f"output({out})")
    for n in order:
        op = "and" if circ.kinds[n] == ct.K_AND else "or"
        args = ", ".join(literal(c) for c in circ.payloads[n])
        lines.append(f"g{gate_no[n]} = {op}({args})")
    if wrap is not None:
        lines.append(wrap)
    return "\n".join(lines) + "\n"


def parse_qcir(text: str) -> PrenexQBF:
    """Parse a QCIR-G14 document (the subset emit_qcir produces); for tests."""
    circ = Circuit()
    blocks = []
    var_ids = {}
    var_names = {}
    gates = {}
    output_ref = None

    def var_of(name):
        if name not in var_ids:
            v = len(var_ids)
            var_ids[name] = v
            var_names[v] = name
        return var_ids[name]

    def literal(tok):
        tok = tok.strip()
        neg = tok.startswith("-")
        if neg:
            tok = tok[1:]
        if tok in gates:
            n = gates[tok]
        elif tok in var_ids:
            n = circ.var(var_ids[tok])
        else:
            raise QbfError(f"undefined reference {tok!r} in QCIR input")
        return circ.not_(n) if neg else n

    lines = [ln.strip() for ln in text.splitlines()]
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        m = re.match(r"(exists|forall)\((.*)\)\Z", ln)
        if m:
            variables = tuple(var_of(t.strip()) for t in m.group(2).split(",") if t.strip())
            blocks.append((m.group(1), variables))
            continue
        m = re.match(r"output\((.*)\)\Z", ln)
        if m:
            output_ref = m.group(1).strip()
            continue
        m = re.match(r"([A-Za-z0-9_]+)\s*=\s*(and|or)\((.*)\)\Z", ln)
        if m:
            name, op, args = m.group(1), m.group(2), m.group(3)
            items = [literal(t) for t in args.split(",") if t.strip()]
            gates[name] = circ.and_(items) if op == "and" else circ.or_(items)
            continue
        raise QbfError(f"cannot parse QCIR line {ln!r}")
    if output_ref is None:
        raise QbfError("QCIR input has no output statement")
    matrix = literal(output_ref)
    return make_prenex(circ, blocks, matrix, var_names)


def run_external(command_template: str, q: PrenexQBF, timeout: float | None = None) -> SolveResult:
    """Write QCIR to a temp file, run the command, map its verdict.

    Exit status 10 means true and 20 false (the usual solver convention);
    otherwise the first output line must read `r SAT` or `r UNSAT`.
    External solvers yield no witness.
    """
    if "{file}" not in command_template:
        raise QbfError("external solver command must contain a {file} placeholder")
    with tempfile.NamedTemporaryFile(mode="w", suffix=".qcir", delete=False) as fh:
        fh.write(emit_qcir(q))
        path = fh.name
    argv = [part.replace("{file}", path) for part in shlex.split(command_template)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except FileNotFoundError as e:
        raise SolverNotFoundError(f"external solver not found: {argv[0]!r}") from e
    except subprocess.TimeoutExpired:
        raise SolverTimeoutError(timeout) from None
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
    if proc.returncode == 10:
        return SolveResult(value=True, outer_witness=None)
    if proc.returncode == 20:
        return SolveResult(value=False, outer_witness=None)
    first = (proc.stdout or "").strip().splitlines()
    head = first[0].strip() if first else ""
    if head == "r SAT":
        return SolveResult(value=True, outer_witness=None)
    if head == "r UNSAT":
        return SolveResult(value=False, outer_witness=None)
    raise UnparsableOutputError((proc.stdout or proc.stderr or "")[:200])
