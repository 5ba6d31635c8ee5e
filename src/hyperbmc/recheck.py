"""Witness re-check by a backward tableau over the residual traces' states.

Once a leading block of the quantifiers is pinned to concrete prefixes,
and the quantifiers left form at most one block of one kind, the bounded
truth of the rest does not need their prefixes enumerated. This is the
finite-trace tableau (Lichtenstein and Pnueli 1985; Vardi and Wolper
1986), evaluated with the bounded rules of the five semantics:

- forward, list the tuples of residual states reachable at each step;
- backward from step k, keep for each (step, tuple) the set of truth
  vectors that some suffix from that tuple gives the subformulas the step
  before reads: each Next's operand, and each Until and Release itself;
- the block accepts iff every vector at step 0 makes the body true (for
  all), or some vector does (exists).

The rules are written out here, apart from oracle.eval_body, so that the
naive oracle stays the independent reference this module is tested
against. The cost is about k times the reachable tuples times the vectors
per tuple, instead of the product of the residual traces' prefix counts.
"""

from itertools import product

from . import hyperltl as hl
from . import oracle
from .kripke import HALT_AP

_CONST, _PINNED, _RESIDUAL, _AND, _OR, _NEXT, _UNTIL, _RELEASE = range(8)

_KIND = {hl.And: _AND, hl.Or: _OR, hl.Until: _UNTIL, hl.Release: _RELEASE}


def verify_witness(witness, models, formula, k, sem, paper_literal=False):
    """Bounded truth of `formula` with a leading block of variables pinned.

    The contract of oracle.verify_witness, for a formula whose remaining
    quantifiers form at most one block; a second block raises OracleError.
    Each (step, tuple) the forward pass lists and each (step, tuple,
    vector) the backward pass keeps counts as one entry; past
    oracle.ENUMERATION_CAP entries, ExplosionGuardError is raised.
    """
    if sem not in oracle.SEMANTICS + (oracle.CLASSIC_DUAL,):
        raise oracle.OracleError(f"unknown semantics {sem!r}")
    if k < 0:
        raise oracle.OracleError(f"bound {k} is negative")
    if {v for _, v in formula.prefix[: len(witness)]} != set(witness):
        raise oracle.OracleError("witness must cover a leading block of the prefix")
    rest = formula.prefix[len(witness) :]
    if len({q for q, _ in rest}) > 1:
        raise oracle.OracleError("more than one quantifier block remains")

    slots = {var: j for j, (_, var) in enumerate(rest)}
    residual = [models[var] for _, var in rest]
    made = 0

    def count(n):
        nonlocal made
        made += n
        if made > oracle.ENUMERATION_CAP:
            raise oracle.ExplosionGuardError(made)

    # Number the body's subformulas, each after its operands. A leaf is a
    # constant or an atom read from a pinned prefix or from a residual slot.
    plan = []

    def number(b):
        if isinstance(b, hl.Const):
            plan.append((_CONST, b.value, None))
        elif isinstance(b, (hl.Atom, hl.NegAtom)):
            positive = isinstance(b, hl.Atom)
            if b.var in witness:
                plan.append((_PINNED, witness[b.var], (b.ap, positive)))
            elif b.var in slots:
                plan.append((_RESIDUAL, slots[b.var], (b.ap, positive)))
            else:
                raise oracle.UnassignedVariableError(b.var)
        elif isinstance(b, hl.Next):
            plan.append((_NEXT, (yield b.sub), None))
        elif type(b) in _KIND:
            plan.append((_KIND[type(b)], (yield b.left), (yield b.right)))
        else:
            raise oracle.OracleError(f"body not in NNF core: {b!r}")
        return len(plan) - 1

    root = hl.rewrite(formula.body, number, key=id)
    # the bits step i+1 hands to step i, each a node index: its position
    carried = {}
    for n, (kind, a, _) in enumerate(plan):
        if kind == _NEXT:
            carried.setdefault(a, len(carried))
        elif kind in (_UNTIL, _RELEASE):
            carried.setdefault(n, len(carried))

    # A residual state is read through its signature: its labels and halt
    # flag, numbered in the order they are met.
    sig_ids = {}
    sig_of = [
        {s: sig_ids.setdefault((m.labels[s], s in m.halt), len(sig_ids)) for s in m.states}
        for m in residual
    ]
    signatures = list(sig_ids)
    succ = []
    for m in residual:
        out = {s: [] for s in m.states}
        for s, d in m.trans:
            out[s].append(d)
        succ.append(out)
    pinned_halted = all(p.halted[k] for p in witness.values())

    def evaluate(i, sig, bits):
        """The step-i vector (the root's value at step 0) of one tuple's signature."""
        vals = []
        for n, (kind, a, b) in enumerate(plan):
            if kind == _CONST:
                x = a
            elif kind == _PINNED:
                ap, positive = b
                x = (a.halted[i] if ap == HALT_AP else ap in a.letters[i]) == positive
            elif kind == _RESIDUAL:
                ap, positive = b
                letters, halted = signatures[sig[a]]
                x = (halted if ap == HALT_AP else ap in letters) == positive
            elif kind == _AND:
                x = vals[a] and vals[b]
            elif kind == _OR:
                x = vals[a] or vals[b]
            elif i < k:
                later = bits >> carried[a if kind == _NEXT else n] & 1 == 1
                if kind == _NEXT:
                    x = later
                elif kind == _UNTIL:
                    x = vals[b] or (vals[a] and later)
                else:
                    x = vals[b] and (vals[a] or later)
            else:
                x = at_bound(kind, vals[a], None if b is None else vals[b], sig)
            vals.append(x)
        if i == 0:
            return vals[root]
        return sum(1 << j for n, j in carried.items() if vals[n])

    def at_bound(kind, left, right, sig):
        """A temporal node's value at step k; a Next's operand comes as `left`."""
        if sem == oracle.PES:
            return False
        if sem == oracle.OPT:
            return True
        if sem == oracle.CLASSIC:
            if kind == _NEXT:
                return False
            return right if kind == _UNTIL else right and left
        if sem == oracle.CLASSIC_DUAL:
            if kind == _NEXT:
                return True
            return right or left if kind == _UNTIL else right
        if kind == _NEXT:
            value = left
        elif kind == _UNTIL:
            value = right
        else:
            # the printed rule tests the left argument; see oracle.eval_body
            value = left if paper_literal else right
        halted = pinned_halted and all(signatures[s][1] for s in sig)
        return halted and value if sem == oracle.HPES else not halted or value

    def successors(t):
        return product(*(succ[j][s] for j, s in enumerate(t)))

    start = tuple(m.init for m in residual)
    layers = [[start]]
    count(1)
    for _ in range(k):
        reached = set()
        for t in layers[-1]:
            reached.update(successors(t))
            if made + len(reached) > oracle.ENUMERATION_CAP:
                raise oracle.ExplosionGuardError(made + len(reached))
        count(len(reached))
        layers.append(list(reached))

    vectors = None
    for i in range(k, -1, -1):
        memo, kept = {}, {}
        for t in layers[i]:
            sig = tuple(sig_of[j][s] for j, s in enumerate(t))
            incoming = {0} if i == k else set().union(*(vectors[u] for u in successors(t)))
            out = set()
            for bits in incoming:
                key = (sig, bits)
                v = memo.get(key)
                if v is None:
                    v = memo[key] = evaluate(i, sig, bits)
                out.add(v)
            count(len(out))
            kept[t] = out
        vectors = kept
    values = vectors[start]
    if rest and rest[0][0] == hl.EXISTS:
        return any(values)
    return all(values)
