"""Prenex QBF: representation, built-in solver, QCIR text format, external solvers.

The built-in solver decides a QBF on reduced ordered BDDs (bdd.py), with
a variable's id as its level. It compiles the matrix circuit bottom-up,
quantifying the innermost block on the way (see _compile), quantifies
the remaining inner blocks on the resulting BDD, inner to outer, and is
left with a BDD over the outer block. Its value is decided at once, and
the outer witness (or countermodel) is that BDD's lowest path to the
deciding terminal.

Where the outer block is one trace whose recorded unrolling is a
conjunct of the matrix (∃), or whose negated unrolling is a disjunct
(∀), that unrolling's path set is never built: the solver compiles the
other operand, F, and walks the trace's live codes through F (BDD.walk,
_decide). The first run it finds is the lowest path that the path set
AND F would give; without one, the value is the other one. An outer
block of several traces, a root of another shape, or a circuit without
records (a parsed QCIR document) keeps the path set. The walk, the
backward pass below and every path set read one walk of each recorded
unrolling's tables per solve (Circuit.unrolled).

Where the innermost block is one trace whose unrolling the circuit
records, and the body reaches each next step through one link, that
block is quantified by a backward pass over the trace's reachable
states (_links, _backward): V_i(c) = F0 ∨ (F1 ∧ W) per step i and code
c, with W the AND (∀) or OR (∃) of V_{i+1} over c's successors, so only
the outer traces stay symbolic. Any other innermost block falls back to
relational products at the quantifier's stops.
"""

import os
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass

from . import circuit as ct
from .circuit import Circuit

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


_PLAIN, _EXISTS, _FORALL = range(3)


def _guard(circ, node, quant, mask):
    """The recorded unrolling over just the bits `mask` that `node` is (∃) or negates (∀); else None."""
    u = node if quant == _EXISTS else circ.payloads[node] if circ.kinds[node] == ct.K_NOT else None
    return u if u in circ.unrollings and circ.masks[u] == mask else None


def _links(circ, stop, quant, qmask):
    """The body that the innermost trace's guard meets at `stop`, one slice per step; or None.

    `stop` is a node where the quantifier `quant` over the variables in
    `qmask` stops. This applies where one of its operands is the guard of
    a trace B whose variables are exactly `qmask`: B's recorded unrolling
    (Circuit.unrollings) under an existential, its NOT under a universal.
    The other operands are the roots of step 0. Below step i's roots, a
    node without B's bits is an outer leaf; one that mentions B's bits of
    step i is in step i's slice; one that mentions B's bits of later
    steps only is the link, which is the root of step i+1.

    Returns (B's unrolling, the slices, every outer leaf). A slice is
    (roots, outer leaves, B leaves, AND/OR/NOT nodes in post-order, link,
    the nodes of that order above the link); a B leaf (a table gate or a
    variable) is (node, the places in B's window of the bits it reads, or
    None where it reads the window as it is, its rows). The last slice
    has no link. None where there is no such guard, where a step has a
    second link, where a B leaf reads outer bits or another step, or
    where the link sits under a NOT, so that each slice is monotone in
    its link.
    """
    kinds, payloads, masks = circ.kinds, circ.payloads, circ.masks
    for guard in circ.children(stop):
        u = _guard(circ, guard, quant, qmask)
        if u is not None:
            break
    else:
        return None
    init, _, base, stride, steps = circ.unrollings[u]
    window = circ.tables[init][0]
    identity = tuple(range(len(window)))
    roots = [c for c in payloads[stop] if c != guard]
    slices, every, rowsets = [], set(), {}
    seen = qmask  # B's bits of this step and later ones
    for i in range(steps + 1):
        at = base + i * stride
        low = at + stride + window[0]
        later = qmask >> low << low
        now, earlier = seen ^ later, qmask ^ seen
        outer, tests, order, link = [], [], [], None
        done = set()
        todo = list(roots)  # a node, or ~node once its children are done
        while todo:
            c = todo.pop()
            if c < 0:
                order.append(~c)
                continue
            if c in done:
                continue
            done.add(c)
            b = masks[c] & qmask
            k = kinds[c]
            if not b:
                outer.append(c)
            elif b & earlier:
                return None
            elif not b & now:
                if link is not None:
                    return None  # a second link: give up at once
                link = c
            elif k == ct.K_VAR or k == ct.K_TABLE:
                if masks[c] != b or b & later:
                    return None
                tid, tb = (-1, payloads[c]) if k == ct.K_VAR else payloads[c]
                offsets, rows = circ.tables[tid] if tid >= 0 else ((0,), (1,))
                spots = tuple(window.index(tb + o - at) for o in offsets)
                if tid not in rowsets:
                    rowsets[tid] = frozenset(rows)
                tests.append((c, None if spots == identity else spots, rowsets[tid]))
            elif k == ct.K_NOT:
                if b & later:
                    return None  # the link under a NOT
                todo += (~c, payloads[c])
            else:
                todo.append(~c)
                todo += payloads[c]
        every.update(outer)
        slices.append((roots, outer, tests, order, link, [c for c in order if masks[c] & later]))
        if link is None:
            break
        roots, seen = [link], later
    return u, slices, every


def _backward(mgr, circ, chain, quant, memo):
    """The stop of _links' `chain`: its body quantified over the trace B's reachable codes.

    For each step i from the last slice back and each code c that B
    reaches at step i on a path to the last step (Circuit.unrolled, the
    live codes that BDD.paths and BDD.walk read), V_i(c) is
    F0 OR (F1 AND W). F0 and F1 are step i's slice with its link FALSE and
    TRUE and its B leaves read at c: BDDs over the outer leaves (memo's
    plain BDDs), built once per (step, values of the B leaves). W is the
    AND (under a universal; the OR under an existential) of V_{i+1} over
    c's live successors, built once per set of successor BDDs. A slice is
    monotone in its link, so this is the slice with its link read on
    every suffix from c (on some). The last slice has no link: its V is
    F0. The result is the AND (the OR) of V_0 over B's initial codes.
    Every AND and OR goes through BDD.join and every NOT is a negated
    BDD.copy, which fold the constants that the link and the B leaves
    put into a slice.
    """
    from . import bdd

    kinds, payloads = circ.kinds, circ.payloads
    join, copy = mgr.join, mgr.copy
    u, slices, _ = chain
    live = circ.unrolled(u)[1]
    root_op, wop = (bdd.OR, bdd.AND) if quant == _FORALL else (bdd.AND, bdd.OR)
    joins, combined = {}, {}
    values = {}  # code -> V at the step after this one

    def slice_pair(roots, outer, tests, order, link, relink, bits):
        """(F0, F1) of a slice at the B leaves' values `bits`."""
        vals = {n: memo[3 * n] for n in outer}
        vals.update(zip([t[0] for t in tests], map(int, bits)))
        pair = []
        for value, nodes in ((bdd.FALSE, order), (bdd.TRUE, relink))[:1 + (link is not None)]:
            vals[link] = value
            for n in nodes:
                k = kinds[n]
                if k == ct.K_NOT:
                    vals[n] = copy(vals[payloads[n]], 0, True)
                else:
                    vals[n] = join(bdd.AND if k == ct.K_AND else bdd.OR, [vals[d] for d in payloads[n]])
            pair.append(join(root_op, [vals[r] for r in roots]))
        return pair[0], pair[-1]

    for piece, step in reversed(list(zip(slices, live))):
        pairs, new = {}, {}  # the B leaves' values -> (F0, F1); code -> V at this step
        for c, successors in step.items():
            bits = tuple((c if spots is None else sum((c >> s & 1) << j for j, s in enumerate(spots))) in rows
                         for _, spots, rows in piece[2])
            pair = pairs.get(bits)
            if pair is None:
                pair = pairs[bits] = slice_pair(*piece, bits)
            f0, f1 = pair
            if f0 == f1 or f0 == bdd.TRUE or f1 == bdd.FALSE:
                new[c] = f0
                continue
            heads = frozenset(values[t] for t in successors)
            link_value = joins.get(heads)
            if link_value is None:
                link_value = joins[heads] = join(wop, heads)
            v = combined.get((f0, f1, link_value))
            if v is None:
                v = combined[(f0, f1, link_value)] = join(bdd.OR, [f0, join(bdd.AND, [f1, link_value])])
            new[c] = v
        values = new
    return join(wop, values.values())


def _compile(circ, mgr, root, quant=_PLAIN, variables=()):
    """BDD of the circuit at root, with `variables` quantified by `quant` if given.

    The quantifier is pushed down the circuit before any BDD is built, by
    early quantification (Burch, Clarke, Long 1991): operands that do not
    mention `variables` stay outside it. Under it, a node is one of three
    cases. A NOT flips it. It passes an AND or OR that is not a recorded
    unrolling where it distributes (a universal over AND, an existential
    over OR), or where exactly one operand mentions `variables` and also
    reads other bits; the other operands are built plain. Anything else
    is a stop: a gate with two operands over `variables`, or whose one
    such operand reads them alone (the block's guard, beside a body that
    never reads the block), a variable, a table gate or an unrolling. So
    a block's quantifier meets its own unrolling and the body, never the
    unrollings of outer traces. A gate keeps its operands as built
    (circuit.py), so a stop's children, and the split body's below, are
    read through the nested gates of the same kind that mix `variables`
    with others. A nested gate over `variables` alone, or over none of
    them, stays one operand: the block's unrolling is then one BDD, like
    the unrollings of the traces outside it (see below).

    A stop where `variables` are one trace B, whose recorded unrolling
    (negated under a universal) is one of its operands, is one backward
    pass over B's reachable codes (_backward) if _links cuts the body
    into one slice per step, each tied to the next by a single link
    outside any NOT: the relational product of Burch, Clarke and Long
    (1991) taken state by state, without B's path set or its negation.
    Every other stop, such as a body with several links per step or a
    circuit without records, is a split.

    A split's other children that mention `variables` join into a guard
    G, and each part meets G in a relational product of its own. If
    exactly one child of the stop mixes `variables` with others, that
    child is an OR under an existential (an AND under a universal), and
    at least two of its own children mix them too, that child's children
    are the parts: ∃Q (G ∧ ∨ d) = ∨ ∃Q (G ∧ d), so the whole body is never
    built. Dually under a universal, with conjuncts and a guard joined by
    OR. Otherwise the one part is the last mixed child, or the last child
    over `variables` alone if none mixes; a variable, a table gate or an
    unrolling is its own one part, with no guard.

    Each node has a shape: the node up to a constant shift of its
    variables, with an offset. A variable's shape is its kind at offset
    its id; a table gate's is its table at offset its base; a NOT's is its
    child's shape negated (~), at the child's offset; an AND/OR gate's
    offset is its least child offset, and its shape is its kind with the
    set of (child shape, child offset - own offset) pairs. Nodes of one
    shape are the same function shifted by the difference of their
    offsets. So only the first gate of each shape that is built without a
    quantifier is built from its children (a table gate by BDD.relation
    over its offsets shifted by its base); every later one copies that BDD
    moved by that difference (BDD.copy), the current/next renaming of
    symbolic model checking applied to any gate. A NOT copies the first
    node of its child's shape, moved and negated in one pass (its child
    becomes that node if there is none yet), so a ∀ trace's guard is one
    negated copy of an outer trace's unrolling over the same model; under
    a quantifier it is the unmoved negated copy of its child under the
    dual one. Two traces of one model unroll it into one shape, and each
    step of the body repeats the shapes of the last. A copy lists what it
    copies as its only child, so that BDD lives until its last copy is
    made, and no shape equals a descendant's, so it is built first.

    An AND gate that circ.unrollings records (see Circuit.unrolling: an
    initial state and m > 0 steps of a transition relation) is one BDD.paths
    call on its live codes (Circuit.unrolled), which makes only the nodes
    its result reaches; its step gates are never built, not even where it
    is a stop (when the body folds to a constant). The outermost trace's unrolling is not
    compiled at all where solve walks it. Every other AND and OR joins its
    operands.

    Shapes take one pass over the arena in id order (children first).
    The circuit is then walked twice without recursion: once to list each
    (node, quantifier) pair below root in post-order with its children,
    and once to build their BDDs. A pair's BDD is dropped as soon as its
    last parent is built, and each pair is built by BDD.run, which may
    collect the arena on the live ones first.
    """
    from . import bdd

    kinds, payloads, masks, unrollings = circ.kinds, circ.payloads, circ.masks, circ.unrollings
    qmask = 0
    for v in variables:
        qmask |= 1 << v
    flip = (_PLAIN, _FORALL, _EXISTS)

    def key_of(n, mode):
        return 3 * n if mode == _PLAIN or not masks[n] & qmask else 3 * n + mode

    def mixes(n):
        return masks[n] & qmask and masks[n] & ~qmask

    def operands(n):
        """A gate's operands, read through the nested gates of its own kind that mix."""
        out, gates, todo = set(), {n}, [n]
        while todo:
            for c in payloads[todo.pop()]:
                if kinds[c] != kinds[n] or not mixes(c):
                    out.add(c)
                elif c not in gates:
                    gates.add(c)
                    todo.append(c)
        return sorted(out)

    def gate(n):
        return kinds[n] in (ct.K_AND, ct.K_OR) and n not in unrollings

    def passes(n, mode):
        """Whether the quantifier `mode` moves past the gate n to its operands (see above)."""
        if mode in (_PLAIN, _FORALL if kinds[n] == ct.K_AND else _EXISTS):
            return True
        over = [c for c in payloads[n] if masks[c] & qmask]
        return len(over) == 1 and mixes(over[0])

    def stop_operands(n):
        """(the others, the parts) of a stop: each part gets a product of its own (see above)."""
        own = operands(n) if gate(n) else [n]
        mixed = [c for c in own if mixes(c)]
        if len(mixed) == 1 and kinds[mixed[0]] == (ct.K_OR if kinds[n] == ct.K_AND else ct.K_AND):
            parts = operands(mixed[0])
            if sum(1 for d in parts if mixes(d)) >= 2:
                return [c for c in own if c != mixed[0]], parts
        last = (mixed or [c for c in own if masks[c] & qmask])[-1]
        return [c for c in own if c != last], [last]

    # Each node's shape, interned to an int, and its offset (see above).
    shape, off = [0] * len(kinds), [0] * len(kinds)
    shapes = {}
    for n in range(2, len(kinds)):
        k, p = kinds[n], payloads[n]
        if k == ct.K_VAR:
            s, off[n] = (k,), p
        elif k == ct.K_TABLE:
            s, off[n] = (k, p[0]), p[1]
        elif k == ct.K_NOT:
            shape[n], off[n] = ~shape[p], off[p]
            continue
        else:
            o = off[n] = min(off[c] for c in p)
            s = (k, *sorted((shape[c], off[c] - o) for c in p))
        shape[n] = shapes.setdefault(s, len(shapes))

    kids = {}
    stops = {}  # stop's key -> (the others, the parts) of its node (see above)
    chains = {}  # stop's key -> the slices of its body, per step (see _links)
    first = {}  # shape -> the key of its first PLAIN node, which later ones copy
    moved = {}  # key of a copy -> (its shift from the copied key, whether it negates)
    order = []
    stack = [(key_of(root, quant), False)]
    while stack:
        key, ready = stack.pop()
        if ready:
            order.append(key)
            continue
        if key in kids:
            continue
        n, mode = divmod(key, 3)
        k = kinds[n]
        m = payloads[n] if k == ct.K_NOT else n  # the node whose shape a copy shares
        if (mode == _PLAIN and k in (ct.K_NOT, ct.K_AND, ct.K_OR, ct.K_TABLE)
                and (origin := first.setdefault(shape[m], 3 * m)) != key):
            moved[key] = (off[n] - off[origin // 3], k == ct.K_NOT)
            ks = (origin,)
        elif k == ct.K_NOT:
            moved[key] = (0, True)
            ks = (key_of(m, flip[mode]),)
        elif gate(n) and passes(n, mode):
            ks = tuple(key_of(c, mode) for c in payloads[n])
        elif mode != _PLAIN:  # the quantifier stops here
            chain = _links(circ, n, mode, qmask)
            if chain is not None:
                chains[key] = chain
                ks = tuple(3 * c for c in sorted(chain[2]))
            else:
                others, parts = stops[key] = stop_operands(n)
                ks = tuple(3 * c for c in others + parts)
        else:
            ks = ()
        kids[key] = ks
        stack.append((key, True))
        stack.extend((c, False) for c in ks if c not in kids)

    memo = {}  # the BDDs of the live (node, quantifier) pairs

    def build(key):
        """BDD of one (node, quantifier) pair from its children's BDDs."""
        n, mode = divmod(key, 3)
        k = kinds[n]
        ks = kids[key]
        if key in moved:
            return mgr.copy(memo[ks[0]], *moved[key])
        if key in chains:
            return _backward(mgr, circ, chains[key], mode, memo)
        if key in stops:
            # The quantifier stops here: the other children that mention its
            # variables join into a guard, each part meets the guard in one
            # product, and the other children without them are added last.
            others, parts = stops[key]
            op, qop = (bdd.AND, bdd.OR) if mode == _EXISTS else (bdd.OR, bdd.AND)
            guard = mgr.join(op, [memo[3 * c] for c in others if masks[c] & qmask])
            node = mgr.join(qop, [mgr.quantify(op, guard, memo[3 * d], variables) for d in parts])
            return mgr.join(op, [node, *(memo[3 * c] for c in others if not masks[c] & qmask)])
        if k == ct.K_CONST:
            return n
        if k == ct.K_VAR:
            return mgr.var(payloads[n])
        if k == ct.K_TABLE:
            tid, base = payloads[n]
            offsets, rows = circ.tables[tid]
            return mgr.relation([base + o for o in offsets], rows)
        if n in unrollings:
            return mgr.paths(*circ.unrolled(n))
        return mgr.join(bdd.AND if k == ct.K_AND else bdd.OR, [memo[c] for c in ks])

    refs = dict.fromkeys(kids, 0)
    for ks in kids.values():
        for c in ks:
            refs[c] += 1
    for key in order:
        memo[key] = mgr.run(memo, build, key)
        for c in kids[key]:
            refs[c] -= 1
            if not refs[c]:
                del memo[c]
    return memo[order[-1]]


def solve(q: PrenexQBF, node_cap: int = DEFAULT_NODE_CAP) -> SolveResult:
    """Decide a prenex QBF; extract a witness for the outer block when one exists.

    The matrix becomes a BDD over the outer block: the innermost block is
    quantified while the circuit is compiled (see _compile), the blocks
    between it and the outer one on the BDD, inner to outer. The outer
    witness is present iff the first block is existential and the value
    is true, or the first block is universal and the value is false; it
    then assigns every variable of that block (a model, respectively a
    countermodel, of the outer block): the lowest path of that BDD to
    TRUE, respectively FALSE, with variables off the path false.

    Where the outer block is one trace whose recorded unrolling u meets
    the rest F at the root (_outer_unrolling), the BDD compiled is F's,
    not u's AND (OR) F's, and BDD.walk finds that same lowest path by
    walking u's reachable codes through F. node_cap bounds the live BDD
    nodes.
    """
    if not q.blocks:
        return SolveResult(value=q.matrix == ct.TRUE, outer_witness=None)
    # Imported here, not with this module: QCIR emission, external solvers
    # and the other subcommands never need it, and it is compiled at each
    # start-up where bytecode is not cached.
    from . import bdd

    try:
        return _decide(q, bdd.BDD(node_cap))
    except bdd.NodeCapError as e:
        raise ResourceLimitError(e.nodes) from None


def _outer_unrolling(circ, root, quant, variables):
    """(u, rest) where the root is u AND rest (∃) or NOT u OR rest (∀); else None.

    u is the recorded unrolling (Circuit.unrollings) of the one trace that
    makes up the outer block `variables`. A root that is u (NOT u) alone
    has rest TRUE (FALSE).
    """
    mode, kind, unit = (_EXISTS, ct.K_AND, ct.TRUE) if quant == EXISTS else (_FORALL, ct.K_OR, ct.FALSE)
    pairs = [(root, unit)]
    if circ.kinds[root] == kind and len(circ.payloads[root]) == 2:
        a, b = circ.payloads[root]
        pairs += [(a, b), (b, a)]
    mask = sum(1 << v for v in variables)
    for guard, rest in pairs:
        u = _guard(circ, guard, mode, mask)
        if u is not None:
            return u, rest
    return None


def _decide(q, mgr):
    """solve(q) in the manager `mgr`, whose NodeCapError it lets through."""
    from . import bdd

    circ = q.circuit
    outer_quant, outer_vars = q.blocks[0]
    target = bdd.TRUE if outer_quant == EXISTS else bdd.FALSE
    outer = _outer_unrolling(circ, q.matrix, outer_quant, outer_vars)
    root = q.matrix if outer is None else outer[1]
    pinned = {}

    def eliminate(quant, variables):
        op, unit = (bdd.AND, bdd.TRUE) if quant == EXISTS else (bdd.OR, bdd.FALSE)
        return mgr.quantify(op, pinned["f"], unit, variables)

    if len(q.blocks) == 1:
        f = _compile(circ, mgr, root)
    else:
        quant, variables = q.blocks[-1]
        f = _compile(circ, mgr, root, _EXISTS if quant == EXISTS else _FORALL, variables)
    for quant, variables in reversed(q.blocks[1:-1]):
        pinned["f"] = f
        f = mgr.run(pinned, eliminate, quant, variables)
    if f == bdd.TRUE - target:
        path = None
    elif outer is None:
        path = mgr.path(f, target)
    else:
        path = mgr.walk(f, target, *circ.unrolled(outer[0]))
    if path is None:
        return SolveResult(value=outer_quant == FORALL, outer_witness=None)
    witness = dict.fromkeys(sorted(outer_vars), False)
    witness.update(path)
    return SolveResult(value=outer_quant == EXISTS, outer_witness=witness)


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
    """Render as a QCIR-G14 document; byte-deterministic for a given input.

    A table gate is written as its expansion into AND/OR gates (see
    Circuit.expand), made in a copy of q.circuit, which does not grow; an
    expansion that folds to a constant becomes an empty gate.
    """
    circ = q.circuit.copy()
    names = _emit_names(q)
    gate_no = {}
    order = []
    kinds, payloads = circ.kinds, circ.payloads
    # a table gate, or the NOT of one, is written as its expansion
    sub = {}
    for n in range(len(circ)):
        if kinds[n] == ct.K_TABLE:
            sub[n] = circ.expand(n)
        elif kinds[n] == ct.K_NOT and payloads[n] in sub:
            sub[n] = circ.not_(sub[payloads[n]])  # folds --x and constants

    def visit(root):
        stack = [(root, False)]
        while stack:
            n, ready = stack.pop()
            n = sub.get(n, n)
            k = kinds[n]
            if k == ct.K_NOT:
                stack.append((payloads[n], ready))
                continue
            if k == ct.K_VAR or n in gate_no:
                continue
            if not ready:
                stack.append((n, True))
                for c in reversed(circ.children(n)):
                    stack.append((c, False))
            else:
                gate_no[n] = len(order) + 1
                order.append(n)

    def literal(n):
        n = sub.get(n, n)
        k = kinds[n]
        if k == ct.K_VAR:
            return names[payloads[n]]
        if k == ct.K_NOT:
            return "-" + literal(payloads[n])
        return f"g{gate_no[n]}"

    root = sub.get(q.matrix, q.matrix)
    visit(root)
    lines = ["#QCIR-G14"]
    for quant, variables in q.blocks:
        lines.append(f"{quant}({', '.join(names[v] for v in variables)})")

    out = gate_no.get(root, len(order) + 1)
    lines.append(f"output(g{out})")
    for n in order:
        # a constant is an empty gate: and() is true, or() is false
        op = "and" if kinds[n] == ct.K_AND or n == ct.TRUE else "or"
        args = ", ".join(literal(c) for c in circ.children(n))
        lines.append(f"g{gate_no[n]} = {op}({args})")
    if root not in gate_no:  # a literal output gets a gate of its own
        lines.append(f"g{out} = and({literal(root)})")
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


def external_argv(command_template: str) -> list:
    """The words of an external solver command, split as a shell would.

    {file} stands for the QCIR file's path. It must appear in a word after
    the first, which names the program, so the file is never run itself.
    """
    try:
        argv = shlex.split(command_template)
    except ValueError as e:
        raise QbfError(f"cannot split external solver command {command_template!r}: {e}") from None
    if not any("{file}" in word for word in argv):
        raise QbfError("external solver command must contain a {file} placeholder")
    if "{file}" in argv[0]:
        raise QbfError(f"external solver command {command_template!r} must name a program before {{file}}")
    return argv


def run_external(command_template: str, q: PrenexQBF | str, timeout: float | None = None) -> SolveResult:
    """Write q's QCIR (q itself if it is that text) to a temp file, run the command, map its verdict.

    The command is checked by external_argv. Exit status 10 means true and
    20 false (the usual solver convention); otherwise the first output line
    must read `r SAT` or `r UNSAT`. External solvers yield no witness.
    """
    argv = external_argv(command_template)
    with tempfile.NamedTemporaryFile(mode="w", suffix=".qcir", delete=False) as fh:
        fh.write(q if isinstance(q, str) else emit_qcir(q))
        path = fh.name
    argv = [word.replace("{file}", path) for word in argv]
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
