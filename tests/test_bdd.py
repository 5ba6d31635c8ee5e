import random
from functools import reduce
from itertools import product
from operator import and_, or_

import pytest

from hyperbmc.bdd import AND, BDD, FALSE, OR, TRUE, NodeCapError
from hyperbmc.circuit import Circuit, live_codes
from hyperbmc.qbf import EXISTS, FORALL, ResourceLimitError, make_prenex, solve

from conftest import bdd_nodes_since, bdd_table, bdd_value, fold, row_code, truth_table, variable_table


def rand_expr(rng, n, depth):
    if depth == 0 or rng.random() < 0.2:
        return ("var", rng.randrange(n))
    kind = rng.choice(("not", "and", "or"))
    if kind == "not":
        return ("not", rand_expr(rng, n, depth - 1))
    return (kind, rand_expr(rng, n, depth - 1), rand_expr(rng, n, depth - 1))


def truth(e, n):
    """Truth table of the expression over the variables 0..n-1 (see conftest.truth_table)."""
    if e[0] == "var":
        return variable_table(e[1], n)
    if e[0] == "not":
        return truth(e[1], n) ^ ((1 << (1 << n)) - 1)
    a, b = truth(e[1], n), truth(e[2], n)
    return a & b if e[0] == "and" else a | b


def build(mgr, e):
    if e[0] == "var":
        return mgr.var(e[1])
    if e[0] == "not":
        return mgr.copy(build(mgr, e[1]), 0, True)
    return mgr.apply(AND if e[0] == "and" else OR, build(mgr, e[1]), build(mgr, e[2]))


def test_operations_match_truth_tables():
    rng = random.Random(7)
    mgr = BDD()
    for _ in range(150):
        n = rng.randint(1, 5)
        e1, e2 = rand_expr(rng, n, 4), rand_expr(rng, n, 4)
        f, g = build(mgr, e1), build(mgr, e2)
        qvars = [v for v in range(n) if rng.random() < 0.5]
        t1, t2 = truth(e1, n), truth(e2, n)
        assert bdd_table(mgr, f, n) == t1
        for op in (AND, OR):
            r = mgr.quantify(op, f, g, qvars)
            both = t1 & t2 if op == AND else t1 | t2
            want = fold(both, n, [(EXISTS if op == AND else FORALL, qvars)])
            assert bdd_table(mgr, r, n) == want
            # apply runs the same loop after quantify: no table may be shared
            assert bdd_table(mgr, mgr.apply(op, f, g), n) == both


def test_canonical_and_collect_keeps_pinned_functions():
    mgr = BDD()
    x, y = mgr.var(0), mgr.var(1)
    nx, ny = mgr.copy(x, 0, True), mgr.copy(y, 0, True)
    f = mgr.apply(OR, mgr.apply(AND, x, y), mgr.apply(AND, nx, ny))
    g = mgr.copy(mgr.apply(OR, mgr.apply(AND, x, ny), mgr.apply(AND, nx, y)), 0, True)
    assert f == g  # equal functions share one handle
    assert mgr.apply(OR, f, mgr.copy(f, 0, True)) == TRUE
    mgr.apply(AND, mgr.var(5), mgr.var(7))  # garbage
    before = len(mgr)
    pinned = {"f": f}
    mgr.collect(pinned)
    assert len(mgr) < before
    assert bdd_table(mgr, pinned["f"], 2) == 0b1001  # x0 == x1 at 00 and 11
    assert mgr.var(0) != pinned["f"]


def test_lowest_path():
    mgr = BDD()
    # x0 | (x1 & x2): the least model is x0=0, x1=1, x2=1
    f = mgr.apply(OR, mgr.var(0), mgr.apply(AND, mgr.var(1), mgr.var(2)))
    assert mgr.path(f, TRUE) == {0: False, 1: True, 2: True}
    assert mgr.path(f, FALSE) == {0: False, 1: False}


def test_node_cap_counts_bdd_nodes():
    # two terminals, ten variable nodes, and nine more for the cube above
    # the last variable's node
    def conjunction(cap):
        mgr = BDD(node_cap=cap)
        f = mgr.join(AND, [mgr.var(v) for v in range(10)])
        return mgr, f

    mgr, f = conjunction(21)
    assert len(mgr) == 21
    assert mgr.path(f, TRUE) == dict.fromkeys(range(10), True)
    with pytest.raises(NodeCapError) as e:
        conjunction(20)
    assert e.value.nodes == 20


def test_solve_node_cap_is_in_bdd_nodes():
    # x_i <-> x_(i+8) for i < 8: a small circuit whose BDD under the id
    # order needs hundreds of nodes
    c = Circuit()
    parts = []
    for i in range(8):
        a, b = c.var(i), c.var(i + 8)
        parts.append(c.or_([c.and_([a, b]), c.and_([c.not_(a), c.not_(b)])]))
    q = make_prenex(c, [(EXISTS, tuple(range(16)))], c.and_(parts), {})
    assert len(c) < 100
    with pytest.raises(ResourceLimitError) as e:
        solve(q, node_cap=200)
    assert e.value.nodes == 200
    r = solve(q, node_cap=5000)
    assert r.value is True
    assert r.outer_witness == {v: False for v in range(16)}


def shifted(e, d):
    if e[0] == "var":
        return ("var", e[1] + d)
    return (e[0], *(shifted(x, d) for x in e[1:]))


def test_join_is_independent_of_operand_order():
    rng = random.Random(11)
    mgr = BDD()
    for _ in range(60):
        n = rng.randint(2, 7)
        operands = [build(mgr, rand_expr(rng, n, 3)) for _ in range(rng.randint(1, 5))]
        literals = [mgr.var(rng.randrange(n)) for _ in range(rng.randint(0, 3))]
        operands += [mgr.copy(x, 0, True) if rng.random() < 0.5 else x for x in literals]
        # constants, some as copies: a copy of one, moved or not, is the
        # constant, negated if asked
        constants = [(rng.choice((TRUE, FALSE)), rng.random() < 0.5) for _ in range(rng.randint(0, 2))]
        values = operands + [c ^ negate for c, negate in constants]
        operands += [mgr.copy(c, rng.choice((0, 0, 3)), negate) if rng.random() < 0.7 else c ^ negate
                     for c, negate in constants]
        for op in (AND, OR):
            folded = TRUE if op == AND else FALSE
            for f in values:
                folded = mgr.apply(op, folded, f)
            for _ in range(4):
                rng.shuffle(operands)
                assert mgr.join(op, operands) == folded


def test_join_of_literals_adds_one_node_per_literal():
    # taken deepest first, each literal lies wholly above the result so
    # far, so the fold makes one node for it, whatever the given order
    rng = random.Random(13)
    mgr = BDD()
    for _ in range(40):
        n = rng.randint(1, 8)
        width = n + 2
        ones = (1 << (1 << width)) - 1
        literals, tables = [], []
        for v in rng.sample(range(width), n):
            negated = rng.random() < 0.5
            literals.append(mgr.copy(mgr.var(v), 0, True) if negated else mgr.var(v))
            tables.append(variable_table(v, width) ^ (ones if negated else 0))
        rng.shuffle(literals)
        for op, fold_op, unit in ((AND, and_, ones), (OR, or_, 0)):
            before = len(mgr)
            f = mgr.join(op, literals)
            assert len(mgr) - before <= n
            assert bdd_table(mgr, f, width) == reduce(fold_op, tables, unit)


def test_relocate_matches_direct_build_across_collect():
    rng = random.Random(5)
    mgr = BDD()
    for _ in range(40):
        n = rng.randint(1, 5)
        e = rand_expr(rng, n, 4)
        pinned = {"f": build(mgr, e)}
        for d in (0, 3, rng.randint(1, 40)):
            assert mgr.copy(pinned["f"], d, False) == build(mgr, shifted(e, d))
            mgr.apply(AND, mgr.var(60), mgr.var(61))  # garbage for the collection
            mgr.collect(pinned)
            g = mgr.copy(pinned["f"], d, False)
            t = truth(e, n)
            for a in range(1 << n):
                assert bdd_value(mgr, g, {v + d: a >> v & 1 for v in range(n)}) == bool(t >> a & 1)


def test_compile_keeps_shapes_across_collections(monkeypatch):
    # x_i <-> x_(i+1) at every i: one shape of OR of cubes, built once and
    # relocated per i, with the arena collected after every gate, so each
    # relocation reads the shape's BDD under a new handle
    from hyperbmc.qbf import _compile

    collections = []

    def always_collect(self, pinned):
        collections.append(len(self))
        self.collect(pinned)

    monkeypatch.setattr(BDD, "maybe_collect", always_collect)
    c = Circuit()
    x = [c.var(v) for v in range(10)]
    gates = [
        c.or_([c.and_([x[i], x[i + 1]]), c.and_([c.not_(x[i]), c.not_(x[i + 1])])])
        for i in range(9)
    ]
    root = c.or_([c.and_(gates[:5]), c.and_([gates[5], gates[8], c.not_(gates[6])])])
    mgr = BDD()
    f = _compile(c, mgr, root)
    assert len(collections) > 9
    assert bdd_table(mgr, f, 10) == truth_table(c, root, 10)


def test_negation_and_relocation_commute_across_collect():
    # a copy swaps the terminals, shifts the levels, or both in one pass,
    # and negation and shifting commute
    rng = random.Random(17)
    mgr = BDD()
    for _ in range(60):
        n = rng.randint(1, 5)
        e = rand_expr(rng, n, 4)
        f = build(mgr, e)
        d = rng.randint(1, 30)
        pinned = {"f": f, "nf": mgr.copy(f, 0, True), "moved": mgr.copy(f, d, False)}
        assert mgr.copy(pinned["moved"], 0, True) == mgr.copy(pinned["nf"], d, False)
        assert mgr.copy(f, d, True) == mgr.copy(pinned["nf"], d, False)
        assert mgr.copy(pinned["nf"], 0, True) == f
        assert mgr.copy(f, 0, False) == f
        mgr.apply(AND, mgr.var(60), mgr.var(61))  # garbage for the collection
        mgr.collect(pinned)
        assert mgr.copy(pinned["moved"], 0, True) == mgr.copy(pinned["nf"], d, False)
        assert mgr.copy(pinned["nf"], 0, True) == pinned["f"]
        assert mgr.copy(pinned["f"], 0, True) == pinned["nf"]
        assert mgr.copy(pinned["f"], d, True) == mgr.copy(pinned["moved"], 0, True)
        assert bdd_table(mgr, pinned["nf"], n) == truth(("not", e), n)


def test_not_raises_node_cap_error_at_the_cap():
    # the cube x0 & .. & x9 fills an arena of 21 nodes; its negation needs
    # ten more
    mgr = BDD(node_cap=21)
    f = mgr.join(AND, [mgr.var(v) for v in range(10)])
    assert len(mgr) == 21
    with pytest.raises(NodeCapError) as e:
        mgr.copy(f, 0, True)
    assert e.value.nodes == 21


def test_run_collects_and_retries_once_at_the_cap():
    # garbage first, then the cube x0 & .. & x9 (19 nodes, 10 of them
    # live), pinned; relocating it needs 10 more nodes than the cap leaves
    # until the garbage goes
    mgr = BDD(node_cap=45)
    mgr.join(AND, [mgr.var(v) for v in range(20, 30)])
    pinned = {"f": mgr.join(AND, [mgr.var(v) for v in range(10)])}
    before = pinned["f"]
    assert len(mgr) == 40
    f = mgr.run(pinned, lambda d: mgr.copy(pinned["f"], d, False), 10)
    assert len(mgr) == 22
    assert pinned["f"] < before
    assert mgr.path(pinned["f"], TRUE) == dict.fromkeys(range(10), True)
    assert mgr.path(f, TRUE) == dict.fromkeys(range(10, 20), True)
    # the live nodes alone and the copy do not fit: the error propagates
    mgr = BDD(node_cap=21)
    pinned = {"f": mgr.join(AND, [mgr.var(v) for v in range(10)])}
    with pytest.raises(NodeCapError) as e:
        mgr.run(pinned, lambda: mgr.copy(pinned["f"], 10, False))
    assert e.value.nodes == 21
    assert len(mgr) == 21  # collected to 12 live nodes, then grown to the cap


def test_solve_collects_before_a_middle_block_at_the_cap(monkeypatch):
    # exists x0..x7, forall x8..x15, exists x16..x23 of x_i | (x_(i+8) &
    # x_(i+16)) at every i: compiling fills an arena of exactly the cap, so
    # the middle block, which needs new nodes for its cube x0 & .. & x7,
    # runs again after a collection; a smaller cap ends the solve
    from hyperbmc.qbf import _EXISTS, _compile

    c = Circuit()
    matrix = c.and_([c.or_([c.var(i), c.and_([c.var(i + 8), c.var(i + 16)])]) for i in range(8)])
    blocks = [(EXISTS, tuple(range(8))), (FORALL, tuple(range(8, 16))), (EXISTS, tuple(range(16, 24)))]
    q = make_prenex(c, blocks, matrix, {})
    mgr = BDD()
    _compile(c, mgr, matrix, _EXISTS, blocks[-1][1])
    collections = []
    collect = BDD.collect

    def recording_collect(self, pinned):
        collections.append(sorted(pinned))
        collect(self, pinned)

    monkeypatch.setattr(BDD, "collect", recording_collect)
    r = solve(q, node_cap=len(mgr))
    assert collections == [["f"]]
    assert r.value is True and r.outer_witness == dict.fromkeys(range(8), True)
    with pytest.raises(ResourceLimitError):
        solve(q, node_cap=len(mgr) // 2)


def rand_path_table(rng):
    """A window with gaps between its bits, a stride past it, init rows and step rows.

    The first few codes are states, and step rows start only from them; a
    row may end in a code past the last state or in a state without an
    outgoing row, and an initial code may be either too.
    """
    w = rng.randint(1, 3)
    window = tuple(sorted(rng.sample(range(w + 2), w)))
    stride = window[-1] - window[0] + 1 + rng.randint(0, 2)
    codes = [row_code(t) for t in product((0, 1), repeat=w)]
    states = codes[:rng.randint(1, len(codes))]
    step_rows = [s | t << w for s in states for t in codes if rng.random() < 0.4]
    init_rows = rng.sample(codes, rng.randint(1, 2))
    return window, stride, init_rows, step_rows


def test_paths_is_the_fold_of_relocated_steps():
    # one handle in one manager: the BDD is canonical, so paths must give
    # the handle of init AND every step's relation, relocated i strides
    rng = random.Random(23)
    empty = 0
    for _ in range(300):
        window, stride, init_rows, step_rows = rand_path_table(rng)
        steps, base = rng.randint(1, 6), rng.randint(0, 3)
        mgr = BDD()
        for _ in range(rng.randint(0, 3)):  # nodes made before, some shared with the result
            build(mgr, rand_expr(rng, base + 2 * stride, 3))
        before = len(mgr)
        f = mgr.paths(window, live_codes(len(window), init_rows, step_rows, steps), base, stride)
        assert len(mgr) - before == len(bdd_nodes_since(mgr, f, before))
        init = mgr.relation([base + o for o in window], init_rows)
        step = mgr.relation([base + o for o in window] + [base + stride + o for o in window], step_rows)
        assert f == mgr.join(AND, [init, *(mgr.copy(step, i * stride, False) for i in range(steps))])
        empty += f == FALSE
    assert empty >= 30
    # no step row starts from the initial code: no path of a step or more
    mgr = BDD()
    assert mgr.paths((0, 2), live_codes(2, [0b11], [0b1100, 0b1110], 1), 0, 3) == FALSE
    assert mgr.paths((0, 2), live_codes(2, [0b11], [0b1100], 0), 0, 3) == mgr.relation([0, 2], [0b11])


def test_live_codes_are_the_codes_on_enumerated_paths():
    # every path of `steps` steps from an initial code, enumerated: live[i]
    # maps the codes at step i on one of them to the codes that follow them
    # at step i+1 on one of them, whatever dead ends, unreached codes or
    # initial codes without successors the table has; codes and successors
    # come in lowest-path order, bit 0 first, false before true
    rng = random.Random(29)
    seen = {"dead end": 0, "unreached": 0, "initial without successors": 0, "reordered": 0}
    steps_seen = set()
    for _ in range(400):
        window, _, init_rows, step_rows = rand_path_table(rng)
        w = len(window)
        steps = rng.randint(0, 5)
        live = live_codes(w, init_rows, step_rows, steps)
        pairs = {(row & (1 << w) - 1, row >> w) for row in step_rows}
        paths = [(c,) for c in set(init_rows)]
        reached = [set(init_rows)]
        for _ in range(steps):
            paths = [p + (t,) for p in paths for s, t in sorted(pairs) if s == p[-1]]
            reached.append({t for s, t in pairs if s in reached[-1]})

        def lowest(codes):
            return sorted(codes, key=lambda c: [c >> j & 1 for j in range(w)])

        assert len(live) == steps + 1
        for i in range(steps + 1):
            codes = lowest({p[i] for p in paths})
            after = [lowest({p[i + 1] for p in paths if p[i] == c} if i < steps else ()) for c in codes]
            assert [(c, list(ts)) for c, ts in live[i].items()] == list(zip(codes, after))
            seen["reordered"] += codes != sorted(codes)
        steps_seen.add(steps)
        seen["dead end"] += any(reached[i] - set(live[i]) for i in range(steps + 1))
        seen["unreached"] += any(all(c not in r for r in reached) for pair in pairs for c in pair)
        seen["initial without successors"] += steps > 0 and any(all(s != c for s, _ in pairs) for c in init_rows)
    assert steps_seen == set(range(6))
    assert min(seen.values()) >= 30, seen
