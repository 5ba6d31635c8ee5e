"""Shared helpers: random instance generators and independent reference oracles."""

import dataclasses
import random
from collections import deque
from functools import cache, reduce
from operator import and_, or_

import pytest

from hyperbmc import bdd
from hyperbmc import circuit as ct
from hyperbmc import hyperltl as hl
from hyperbmc import oracle
from hyperbmc.bdd import TRUE
from hyperbmc.kripke import KripkeStructure, validate
from hyperbmc.models import DIRS
from hyperbmc.qbf import EXISTS, make_prenex, solve


# Two states, each with both as successors: every path of every length.
COMPLETE_KR = (
    "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; "
    "trans s0 -> s0; trans s0 -> s1; trans s1 -> s0; trans s1 -> s1;"
)


def rand_kripke(rng, max_states=4, max_aps=2, halting=False, dense=False):
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    aps = tuple("ab"[: rng.randint(1, max_aps)])
    labels = {s: frozenset(a for a in aps if rng.random() < 0.5) for s in states}
    trans = set()
    fanout = rng.randint(1, min(3 if dense else 2, n))
    for s in states:
        for d in rng.sample(states, rng.randint(1, fanout)):
            trans.add((s, d))
    halt = set()
    if halting:
        # halting states must truly absorb (only the self-loop), otherwise
        # the halting semantics' one-sided conclusions are unsound
        for s in rng.sample(states, rng.randint(1, n)):
            halt.add(s)
            trans = {(a, b) for a, b in trans if a != s}
            trans.add((s, s))
    k = KripkeStructure(
        states=states,
        init="s0",
        trans=frozenset(trans),
        labels=labels,
        halt=frozenset(halt),
        aps=aps,
    )
    validate(k)
    return k


def permuted(structure, rng):
    """structure with its other states declared in rng's shuffled order, init kept in place.

    perfbench/workloads.py permutes its models the same way, one shuffle per
    model from random.Random(seed).
    """
    order = [s for s in structure.states if s != structure.init]
    rng.shuffle(order)
    order.insert(structure.states.index(structure.init), structure.init)
    return dataclasses.replace(structure, states=tuple(order))


def rand_acyclic_halting(rng, max_states=4, max_aps=2):
    """DAG whose leaves carry halting self-loops: full-depth truth is computable."""
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    aps = tuple("ab"[: rng.randint(1, max_aps)])
    labels = {s: frozenset(a for a in aps if rng.random() < 0.5) for s in states}
    trans = set()
    for i in range(n):
        succs = [j for j in range(i + 1, n) if rng.random() < 0.6]
        for j in succs:
            trans.add((states[i], states[j]))
    halt = set()
    for i in range(n):
        if not any(s == states[i] for s, _ in trans):
            trans.add((states[i], states[i]))
            halt.add(states[i])
    k = KripkeStructure(
        states=states,
        init="s0",
        trans=frozenset(trans),
        labels=labels,
        halt=frozenset(halt),
        aps=aps,
    )
    validate(k)
    return k


def halt_depth(k: KripkeStructure) -> int:
    """Smallest bound by which every initialized path sits on a halt state."""
    depth = 0
    frontier = {k.init}
    while not frontier <= k.halt:
        depth += 1
        frontier = {d for s, d in k.trans if s in frontier}
        if depth > 3 * len(k.states):
            raise AssertionError("structure does not halt on all paths")
    return depth


_SUGARED = ("not", "and", "or", "implies", "iff", "next", "until", "release", "F", "G", "W")


def rand_body(rng, variables, aps, depth):
    if depth == 0 or rng.random() < 0.15:
        r = rng.random()
        if r < 0.08:
            return hl.TRUE
        if r < 0.16:
            return hl.FALSE
        atom = hl.Atom(rng.choice(aps), rng.choice(variables))
        return hl.Not(atom) if rng.random() < 0.3 else atom
    op = rng.choice(_SUGARED)
    a = rand_body(rng, variables, aps, depth - 1)
    if op == "not":
        return hl.Not(a)
    if op == "next":
        return hl.Next(a)
    if op == "F":
        return hl.Eventually(a)
    if op == "G":
        return hl.Always(a)
    b = rand_body(rng, variables, aps, depth - 1)
    return {
        "and": hl.And,
        "or": hl.Or,
        "implies": hl.Implies,
        "iff": hl.Iff,
        "until": hl.Until,
        "release": hl.Release,
        "W": hl.WeakUntil,
    }[op](a, b)


def rand_instance(rng, max_quants=2, depth=3, halting=False, dense=False):
    """A random (models, normalized formula) pair over shared propositions."""
    nq = rng.randint(1, max_quants)
    variables = ["A", "B", "C"][:nq]
    models = {}
    shared = None
    for v in variables:
        m = rand_kripke(rng, halting=halting, dense=dense)
        models[v] = m
        shared = set(m.aps) if shared is None else shared & set(m.aps)
    if not shared:
        # regenerate the last model with at least proposition 'a'
        models[variables[-1]] = rand_kripke(rng, max_aps=2, halting=halting, dense=dense)
        shared = {"a"}
    prefix = tuple((rng.choice([hl.FORALL, hl.EXISTS]), v) for v in variables)
    body = rand_body(rng, variables, sorted(shared), rng.randint(1, depth))
    formula = hl.normalize(hl.HyperFormula(prefix=prefix, body=body))
    return models, formula


# ---------------------------------------------------------------------------
# Independent reference: exhaustive QBF evaluation on truth tables
#
# A truth table over the variables 0..n-1 is one int of 2^n bits: bit a is
# the function's value where each variable v takes bit v of a. Bit
# operations on these ints evaluate every assignment at once.


@cache
def variable_table(v, n):
    """Truth table of variable v: the assignments whose bit v is set."""
    width = 1 << v
    return ((1 << width) - 1 << width) * (((1 << (1 << n)) - 1) // ((1 << 2 * width) - 1))


def truth_table(circuit, root, n):
    """Truth table of the circuit's node root over the variables 0..n-1."""
    ones = (1 << (1 << n)) - 1
    below, todo = {root}, [root]
    while todo:
        for c in circuit.children(todo.pop()):
            if c not in below:
                below.add(c)
                todo.append(c)
    table = {}
    for m in sorted(below):  # a node is made after its children
        k, p = circuit.kinds[m], circuit.payloads[m]
        if k == ct.K_CONST:
            table[m] = ones if p else 0
        elif k == ct.K_VAR:
            table[m] = variable_table(p, n)
        elif k == ct.K_NOT:
            table[m] = table[p] ^ ones
        elif k == ct.K_AND:
            table[m] = reduce(and_, map(table.get, p), ones)
        elif k == ct.K_OR:
            table[m] = reduce(or_, map(table.get, p), 0)
        else:  # a table gate: the OR of its rows over its offsets above its base
            tid, base = p
            offsets, rows = circuit.tables[tid]
            columns = [variable_table(base + o, n) for o in offsets]
            table[m] = 0
            for row in rows:  # bit j of a row is its value at offsets[j]
                literals = (x if row >> j & 1 else x ^ ones for j, x in enumerate(columns))
                table[m] |= reduce(and_, literals, ones)
    return table[root]


def row_code(values):
    """The table row whose bit j is values[j]: random tables draw a row value by value."""
    return sum(b << j for j, b in enumerate(values))


def fold(table, n, blocks):
    """Quantify the blocks' variables out of a truth table, innermost first:
    the OR (∃) or AND (∀) of the table and its copy with the variable flipped."""
    ones = (1 << (1 << n)) - 1
    for quant, variables in reversed(blocks):
        for v in variables:
            x = variable_table(v, n)
            flipped = (table >> (1 << v)) & (x ^ ones) | (table << (1 << v)) & x
            table = table | flipped if quant == EXISTS else table & flipped
    return table


def reference(q):
    """The value of a prenex QBF, and the truth table over its outer block
    of the rest of it: all other blocks quantified."""
    n = 1 + max(v for _, vs in q.blocks for v in vs)
    residual = fold(truth_table(q.circuit, q.matrix, n), n, q.blocks[1:])
    return bool(fold(residual, n, q.blocks[:1]) & 1), residual


def check_result(q, r):
    """Check solve's result r on the QBF q against the reference.

    The value must be the reference's. A witness is there exactly when the
    outer block's choice decides the value; it must assign the whole outer
    block, and both the reference with that block pinned to it and a
    solve of what is left once it is substituted must give the value.
    """
    value, residual = reference(q)
    assert r.value == value
    quant, variables = q.blocks[0]
    assert (r.outer_witness is not None) == ((quant == EXISTS) == value)
    if r.outer_witness is not None:
        assert set(r.outer_witness) == set(variables)
        assert (residual >> sum(1 << v for v, b in r.outer_witness.items() if b)) & 1 == value
        m = q.matrix
        for v, b in r.outer_witness.items():
            m = q.circuit.restrict(m, v, b)
        assert solve(make_prenex(q.circuit, q.blocks[1:], m, q.var_names)).value is value


def naive_qbf(q):
    """The value of a prenex QBF by recursion over its variables, outer to
    inner; a small cross-check of the truth-table reference."""
    order = [(quant, v) for quant, vs in q.blocks for v in vs]

    def go(i, env):
        if i == len(order):
            return q.circuit.evaluate(q.matrix, env)
        quant, v = order[i]
        branches = (go(i + 1, {**env, v: b}) for b in (False, True))
        return any(branches) if quant == EXISTS else all(branches)

    return go(0, {})


def bdd_value(mgr, f, assignment):
    """Value of the BDD f under an assignment (level -> bool), read along its path."""
    while f > TRUE:
        f = mgr.hi[f] if assignment[mgr.level[f]] else mgr.lo[f]
    return f == TRUE


def bdd_nodes_since(mgr, f, before):
    """The nodes reachable from the BDD f that were made at or after arena size `before`."""
    seen, todo = set(), [f]
    while todo:
        x = todo.pop()
        if x >= before and x not in seen:
            seen.add(x)
            todo += [mgr.lo[x], mgr.hi[x]]
    return seen


def bdd_table(mgr, f, n):
    """Truth table of the BDD f over the levels 0..n-1, read one path per assignment."""
    return sum(bdd_value(mgr, f, {v: a >> v & 1 for v in range(n)}) << a for a in range(1 << n))


# ---------------------------------------------------------------------------
# Independent reference: LTL on stutter-extended finite traces

def eval_stutter(body, letters, i=0):
    """Truth of a (possibly sugared) single-trace body over a finite trace,
    reading the last letter as repeating forever. Used to validate rewrite
    identities; W is defined directly as (x U y) | G x.
    """
    last = len(letters) - 1

    def ev(b, i):
        j = min(i, last)
        if isinstance(b, hl.Const):
            return b.value
        if isinstance(b, hl.Atom):
            return b.ap in letters[j]
        if isinstance(b, hl.NegAtom):
            return b.ap not in letters[j]
        if isinstance(b, hl.Not):
            return not ev(b.sub, i)
        if isinstance(b, hl.And):
            return ev(b.left, i) and ev(b.right, i)
        if isinstance(b, hl.Or):
            return ev(b.left, i) or ev(b.right, i)
        if isinstance(b, hl.Implies):
            return not ev(b.left, i) or ev(b.right, i)
        if isinstance(b, hl.Iff):
            return ev(b.left, i) == ev(b.right, i)
        if isinstance(b, hl.Next):
            return ev(b.sub, i + 1)
        if isinstance(b, hl.Eventually):
            return any(ev(b.sub, j) for j in range(i, last + 1))
        if isinstance(b, hl.Always):
            return all(ev(b.sub, j) for j in range(i, last + 1))
        if isinstance(b, hl.Until):
            for j in range(i, last + 1):
                if ev(b.right, j):
                    return True
                if not ev(b.left, j):
                    return False
            return False
        if isinstance(b, hl.Release):
            for j in range(i, last + 1):
                if not ev(b.right, j):
                    return False
                if ev(b.left, j):
                    return True
            return True  # right holds through the repeating tail
        if isinstance(b, hl.WeakUntil):
            return ev(hl.Or(hl.Until(b.left, b.right), hl.Always(b.left)), i)
        raise AssertionError(b)

    return ev(body, i)


def all_letter_traces(aps, length):
    letters = []
    n = len(aps)
    for mask in range(2**n):
        letters.append(frozenset(a for j, a in enumerate(aps) if (mask >> j) & 1))
    if length == 1:
        return [(l,) for l in letters]
    out = []
    for rest in all_letter_traces(aps, length - 1):
        for l in letters:
            out.append((l, *rest))
    return out


# ---------------------------------------------------------------------------
# Independent reference: grid BFS

def grid_map(n, seed=0):
    """An n×n map with seeded obstacles on n²//6 cells, from (0, 0) to (n−1, n−1), as in CI."""
    free = [(x, y) for x in range(n) for y in range(n) if (x, y) not in ((0, 0), (n - 1, n - 1))]
    walls = set(random.Random(seed).sample(free, n * n // 6))
    cell = {(0, 0): "I", (n - 1, n - 1): "G", **dict.fromkeys(walls, "#")}
    return "\n".join("".join(cell.get((x, y), ".") for x in range(n)) for y in reversed(range(n)))


def bfs_distance(width, height, obstacles, start, goals):
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        cell, dist = queue.popleft()
        if cell in goals:
            return dist
        x, y = cell
        for dx, dy in DIRS:
            nxt = (x + dx, y + dy)
            if (
                0 <= nxt[0] < width
                and 0 <= nxt[1] < height
                and nxt not in obstacles
                and nxt not in seen
            ):
                seen.add(nxt)
                queue.append((nxt, dist + 1))
    return None


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(params=["default", "small"])
def arena(request, monkeypatch):
    """The BDD manager's collection threshold and cache limit: as shipped, or forced small."""
    if request.param == "small":
        monkeypatch.setattr(bdd, "GC_MIN_NODES", 4)
        monkeypatch.setattr(bdd, "CACHE_LIMIT", 8)
    return request.param
