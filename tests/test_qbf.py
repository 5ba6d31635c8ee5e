import stat
import sys
from functools import partial
from itertools import product

import pytest

from hyperbmc import circuit as ct
from hyperbmc.circuit import Circuit
from hyperbmc.qbf import (
    EXISTS,
    FORALL,
    PrenexQBF,
    QbfError,
    SolverNotFoundError,
    UnparsableOutputError,
    emit_qcir,
    make_prenex,
    parse_qcir,
    run_external,
    solve,
)

from conftest import COMPLETE_KR, bdd_nodes_since, bdd_table, check_result, naive_qbf, reference, row_code, truth_table


def simple_qbf(blocks_spec, build):
    """blocks_spec: list of (quant, var ids); build: circuit -> matrix node."""
    c = Circuit()
    matrix = build(c)
    names = {v: f"x{v+1}" for _, vs in blocks_spec for v in vs}
    return make_prenex(c, blocks_spec, matrix, names)


def test_exists_forall_or():
    # EA x.A y. (x | y) is true with x = true
    q = simple_qbf(
        [(EXISTS, (0,)), (FORALL, (1,))],
        lambda c: c.or_([c.var(0), c.var(1)]),
    )
    r = solve(q)
    assert r.value is True
    assert r.outer_witness == {0: True}


def test_forall_exists_iff():
    # A y. E x. (x <-> y) is true; universal outer block and value true: no witness
    def build(c):
        x, y = c.var(1), c.var(0)
        return c.or_([c.and_([x, y]), c.and_([c.not_(x), c.not_(y)])])

    q = simple_qbf([(FORALL, (0,)), (EXISTS, (1,))], build)
    r = solve(q)
    assert r.value is True
    assert r.outer_witness is None


def paper_example():
    """E x1. A x2. E x3 x4. A x5 of a four-clause matrix."""

    def build(c):
        x1, x2, x3, x4, x5 = (c.var(i) for i in range(5))
        return c.and_(
            [
                c.or_([x1, c.not_(x2), x3]),
                c.or_([c.not_(x1), x2, c.not_(x4)]),
                c.or_([c.not_(x3), x4, c.not_(x5)]),
                c.or_([x1, x4, x5]),
            ]
        )

    return simple_qbf(
        [(EXISTS, (0,)), (FORALL, (1,)), (EXISTS, (2, 3)), (FORALL, (4,))], build
    )


def test_worked_five_variable_formula():
    q = paper_example()
    r = solve(q)
    assert r.value is True
    assert set(r.outer_witness) == {0}
    # both x1 values admit a winning strategy, and the solver tries false first
    assert reference(q)[1] & 0b11 == 0b11
    assert r.outer_witness[0] is False
    check_result(q, r)  # which also re-solves with the witness substituted


def test_constant_matrices():
    q = simple_qbf([(EXISTS, (0,))], lambda c: c.const(True))
    assert solve(q).value is True
    q = simple_qbf([(FORALL, (0,))], lambda c: c.const(False))
    r = solve(q)
    assert r.value is False
    assert r.outer_witness == {0: False}


def test_blocks_merge_and_partition():
    c = Circuit()
    m = c.and_([c.var(0), c.var(1)])
    q = make_prenex(c, [(EXISTS, (0,)), (EXISTS, (1,))], m, {0: "a", 1: "b"})
    assert len(q.blocks) == 1
    with pytest.raises(QbfError):
        make_prenex(c, [(EXISTS, (0,))], m, {0: "a"})  # var 1 unquantified
    with pytest.raises(QbfError):
        make_prenex(c, [(EXISTS, (0, 1)), (FORALL, (1,))], m, {})  # overlap


def rand_prenex(rng, max_vars=12):
    n = rng.randint(3, max_vars)
    c = Circuit()

    def build(depth, lo, hi):
        if depth == 0 or rng.random() < 0.25:
            v = c.var(rng.randrange(lo, hi))
            return c.not_(v) if rng.random() < 0.4 else v
        op = c.and_ if rng.random() < 0.5 else c.or_
        return op([build(depth - 1, lo, hi) for _ in range(rng.randint(2, 3))])

    matrix = build(rng.randint(2, 4), 0, n)
    blocks = []
    at = 0
    while at < n:
        size = min(n - at, rng.randint(1, 4))
        blocks.append((rng.choice([EXISTS, FORALL]), tuple(range(at, at + size))))
        at += size
    return make_prenex(c, blocks, matrix, {v: f"x{v}" for v in range(n)})


def test_solver_agrees_with_naive_evaluator(rng):
    for _ in range(800):
        q = rand_prenex(rng)
        check_result(q, solve(q))


def test_reference_agrees_with_naive_evaluator(rng):
    # the truth-table reference that the differentials use, against
    # recursion over every assignment, on circuits with and without tables
    for i in range(300):
        q = rand_prenex(rng, max_vars=8) if i % 2 else rand_table_prenex(rng)
        assert reference(q)[0] == naive_qbf(q)


def test_truth_table_matches_evaluate(rng):
    for _ in range(100):
        q = rand_table_prenex(rng)
        n = 1 + max(v for _, vs in q.blocks for v in vs)
        table = truth_table(q.circuit, q.matrix, n)
        for a in range(1 << n):
            env = {v: bool(a >> v & 1) for v in range(n)}
            assert bool(table >> a & 1) == q.circuit.evaluate(q.matrix, env)


def test_solve_deterministic(rng):
    for _ in range(50):
        q = rand_prenex(rng, max_vars=8)
        a = solve(q)
        b = solve(q)
        assert a == b


# -- QCIR --------------------------------------------------------------------


def test_qcir_smallest_document():
    q = simple_qbf([(EXISTS, (0,))], lambda c: c.var(0))
    q = PrenexQBF(q.circuit, q.blocks, q.matrix, {0: "x"})
    assert emit_qcir(q) == "#QCIR-G14\nexists(x)\noutput(g1)\ng1 = and(x)\n"


def canonical(q):
    """Arena-independent form: variables by name, gate children as sets."""
    circ = q.circuit
    memo = {}

    def canon(n):
        if n in memo:
            return memo[n]
        kind = circ.kinds[n]
        if n < 2:
            out = ("const", n == 1)
        elif kind == 1:  # var
            out = ("var", q.var_names[circ.payloads[n]])
        elif kind == 2:  # not
            out = ("not", canon(circ.payloads[n]))
        else:
            op = "and" if kind == 3 else "or"
            out = (op, frozenset(canon(c) for c in circ.payloads[n]))
        memo[n] = out
        return out

    blocks = tuple((quant, tuple(q.var_names[v] for v in vs)) for quant, vs in q.blocks)
    return blocks, canon(q.matrix)


def test_qcir_round_trip():
    q = paper_example()
    again = parse_qcir(emit_qcir(q))
    assert canonical(again) == canonical(q)
    assert solve(again).value == solve(q).value


def test_qcir_round_trip_random(rng):
    for _ in range(60):
        q = rand_prenex(rng, max_vars=8)
        again = parse_qcir(emit_qcir(q))
        assert canonical(again) == canonical(q)
        assert solve(again).value == solve(q).value


def test_qcir_emit_deterministic(rng):
    q = paper_example()
    assert emit_qcir(q) == emit_qcir(paper_example())


def test_qcir_negated_gate_reference():
    def build(c):
        return c.not_(c.and_([c.var(0), c.var(1)]))

    q = simple_qbf([(EXISTS, (0, 1))], build)
    text = emit_qcir(q)
    assert "-g1" in text
    assert solve(parse_qcir(text)).value is True


# -- external solver adapter ---------------------------------------------------


_counter = iter(range(10**6))


def fake_solver(tmp_path, script_body):
    path = tmp_path / f"fakesolver{next(_counter)}.sh"
    path.write_text(f"#!/bin/sh\n{script_body}\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_external_exit_codes(tmp_path):
    q = paper_example()
    ten = fake_solver(tmp_path, "exit 10")
    twenty = fake_solver(tmp_path, "exit 20")
    assert run_external(f"{ten} {{file}}", q).value is True
    assert run_external(f"{twenty} {{file}}", q).value is False


def test_external_output_line(tmp_path):
    q = paper_example()
    sat = fake_solver(tmp_path, 'echo "r SAT"; exit 0')
    unsat = fake_solver(tmp_path, 'echo "r UNSAT"; exit 0')
    assert run_external(f"{sat} {{file}}", q).value is True
    assert run_external(f"{unsat} {{file}}", q).value is False


def test_external_receives_qcir_file(tmp_path):
    q = paper_example()
    checker = fake_solver(
        tmp_path, 'head -n 1 "$1" | grep -q "#QCIR-G14" && exit 10; exit 1'
    )
    assert run_external(f"{checker} {{file}}", q).value is True


def test_external_unparsable(tmp_path):
    q = paper_example()
    noisy = fake_solver(tmp_path, 'echo "???"; exit 0')
    with pytest.raises(UnparsableOutputError):
        run_external(f"{noisy} {{file}}", q)


def test_external_not_found():
    q = paper_example()
    with pytest.raises(SolverNotFoundError):
        run_external("/nonexistent/solver-binary {file}", q)


def test_external_requires_placeholder():
    q = paper_example()
    with pytest.raises(QbfError):
        run_external("solver", q)
    with pytest.raises(QbfError):
        run_external('"solver {file}', q)  # cannot be split
    with pytest.raises(QbfError):
        run_external("{file} -v", q)  # would run the QCIR file itself


def rand_gate(rng, c, depth, variables):
    """A random gate of the given depth over `variables`, NOT over whole gates too."""
    if depth == 0 or rng.random() < 0.2:
        v = c.var(rng.choice(variables))
        return c.not_(v) if rng.random() < 0.3 else v
    node = (c.and_ if rng.random() < 0.5 else c.or_)(
        [rand_gate(rng, c, depth - 1, variables) for _ in range(rng.randint(2, 3))]
    )
    return c.not_(node) if rng.random() < 0.4 else node


def rand_chained_blocks(rng, last_size):
    """2-3 alternating blocks of 1-3 variables, the last of `last_size` to 3;
    and the number of variables."""
    blocks = []
    at = 0
    count = rng.randint(2, 3)
    for i in range(count):
        size = rng.randint(last_size if i == count - 1 else 1, 3)
        quant = rng.choice([EXISTS, FORALL]) if not blocks else (
            FORALL if blocks[-1][0] == EXISTS else EXISTS
        )
        blocks.append((quant, tuple(range(at, at + size))))
        at += size
    return blocks, at


def rand_guarded_prenex(rng):
    """2-3 blocks chained the way assemble_qbf chains trace unrollings.

    Each block gets a guard over its own variables, entering the matrix
    with AND under an existential and as an implication under a
    universal; the body negates whole gates, not only variables, so the
    solver's quantifier has to flip under NOT on its way down.
    """
    c = Circuit()
    blocks, at = rand_chained_blocks(rng, 1)
    build = partial(rand_gate, rng, c)

    matrix = build(rng.randint(2, 4), list(range(at)))
    for quant, variables in reversed(blocks):
        guard = build(rng.randint(1, 2), list(variables))
        matrix = c.and_([guard, matrix]) if quant == EXISTS else c.implies(guard, matrix)
    return make_prenex(c, blocks, matrix, {v: f"x{v}" for v in range(at)})


def test_guarded_blocks_agree_with_naive_evaluator(rng):
    witnesses = 0
    for _ in range(600):
        q = rand_guarded_prenex(rng)
        r = solve(q)
        check_result(q, r)
        witnesses += r.outer_witness is not None
    assert witnesses >= 100


def _check_ae_on_complete_model(k):
    """The ∀∃ formula on the complete 2-state model under opt, at bound k only."""
    from hyperbmc import oracle
    from hyperbmc.driver import UNKNOWN, CheckConfig, check
    from hyperbmc.hyperltl import parse_formula
    from hyperbmc.kripke import parse_kripke

    complete = parse_kripke(COMPLETE_KR)
    limit = sys.getrecursionlimit()
    v = check(CheckConfig(
        formula=parse_formula("forall A. exists B. G (a[A] <-> a[B])"),
        models={"A": complete, "B": complete}, k_from=k, k_max=k, semantics=oracle.OPT,
    ))
    assert (v.k, v.qbf_value, v.interpretation) == (k, True, UNKNOWN)
    assert sys.getrecursionlimit() == limit


def test_deep_bound_keeps_recursion_limit():
    _check_ae_on_complete_model(200)


def test_encoder_deep_bound_keeps_recursion_limit():
    # the body's fixpoint expansion nests k deep; it once recursed and
    # overflowed the default limit near k=500
    _check_ae_on_complete_model(500)


def test_or_of_cubes_shape_compares_variable_placement():
    # xnor(0, 2) and xnor(4, 5) both have two cubes of two literals with
    # the same values, but their variables sit 2 and 1 apart: a shape key
    # that compared only cube lengths and values would relocate one onto
    # the other. xnor(1, 3) is a true copy of xnor(0, 2), one level down.
    from hyperbmc import bdd
    from hyperbmc.qbf import _compile

    c = Circuit()
    x = [c.var(v) for v in range(7)]

    def xnor(a, b):
        return c.or_([c.and_([x[a], x[b]]), c.and_([c.not_(x[a]), c.not_(x[b])])])

    root = c.and_([xnor(0, 2), c.or_([xnor(4, 5), x[6]]), xnor(1, 3)])
    mgr = bdd.BDD()
    f = _compile(c, mgr, root)
    assert bdd_table(mgr, f, 7) == truth_table(c, root, 7)


def _count_calls(monkeypatch, name):
    """Patch the BDD method `name` to count its calls; returns the one-element count list."""
    from hyperbmc import bdd

    calls = [0]
    method = getattr(bdd.BDD, name)

    def counted(self, *args):
        calls[0] += 1
        return method(self, *args)

    monkeypatch.setattr(bdd.BDD, name, counted)
    return calls


def rand_split_prenex(rng):
    """2-3 blocks whose innermost guard meets a body the guard's quantifier stops at.

    The innermost block enters as assemble_qbf chains it: its guard ANDed
    with the body under an existential, implying it under a universal.
    The body is an OR under an existential (an AND under a universal)
    with at least two children over the block and outer variables, and
    some over outer variables or the block alone, so the solver splits
    its product over the body. About one guard in four is unsatisfiable.
    """
    c = Circuit()
    blocks, at = rand_chained_blocks(rng, 2)
    inner_quant, inner = blocks[-1][0], list(blocks[-1][1])
    outer = [v for _, vs in blocks[:-1] for v in vs]

    build = partial(rand_gate, rng, c)

    def literal(variables):
        v = c.var(rng.choice(variables))
        return c.not_(v) if rng.random() < 0.5 else v

    # the body's own kind, and the kind of its children that mix
    spread, kind = (c.or_, c.and_) if inner_quant == EXISTS else (c.and_, c.or_)
    parts = []
    for _ in range(rng.randint(2, 3)):
        items = [literal(inner), literal(outer)]
        if rng.random() < 0.5:
            items.append(build(1, inner + outer))
        parts.append(kind(items))
    parts += [build(rng.randint(0, 2), outer) for _ in range(rng.randint(0, 2))]
    parts += [build(rng.randint(0, 2), inner) for _ in range(rng.randint(0, 2))]
    matrix = spread(parts)
    for i, (quant, variables) in enumerate(reversed(blocks)):
        extra = []
        if i:
            guard = build(rng.randint(1, 2), list(variables))
        else:
            if rng.random() < 0.25:
                x, y = (c.var(v) for v in rng.sample(inner, 2))
                guard = c.and_([x, c.not_(c.or_([x, y]))])
            else:
                guard = build(rng.randint(1, 2), inner)
            extra = [build(1, outer)] if rng.random() < 0.3 else []
        if quant == EXISTS:
            matrix = c.and_([guard, matrix, *extra])
        else:
            matrix = c.or_([c.not_(guard), matrix, *extra])
    return make_prenex(c, blocks, matrix, {v: f"x{v}" for v in range(at)})


def test_split_bodies_agree_with_naive_evaluator(rng, monkeypatch):
    calls = _count_calls(monkeypatch, "quantify")
    witnesses = split = 0
    for _ in range(600):
        q = rand_split_prenex(rng)
        calls[0] = 0
        r = solve(q)
        # the middle block, if any, takes one product of its own
        split += calls[0] > len(q.blocks) - 1
        check_result(q, r)
        witnesses += r.outer_witness is not None
    assert witnesses >= 100
    assert split >= 100


def test_split_fires_once_per_mixed_disjunct(monkeypatch):
    # The negated fair non-repudiation check: ∃Q meets Q's unrolling and
    # the negated body, an OR with several disjuncts over P and Q, in one
    # AND. Each disjunct gets a product of its own, and the result is the
    # handle of the single product over the whole body.
    from hyperbmc import bdd, circuit, encoder, oracle, qbf
    from hyperbmc.hyperltl import negate, parse_formula
    from hyperbmc.models import builtin_spec, gen_nonrepudiation

    structure = gen_nonrepudiation("incorrect")
    formula = negate(parse_formula(builtin_spec("fair_nonrepudiation").formula))
    assert [quant for quant, _ in formula.prefix] == [FORALL, EXISTS]
    q = encoder.assemble_qbf(formula, {v: structure for _, v in formula.prefix}, 3, oracle.HPES)
    c = q.circuit
    inner = q.blocks[-1][1]
    qmask = sum(1 << v for v in inner)

    def mixes(n):
        return bool(c.masks[n] & qmask and c.masks[n] & ~qmask)

    def operands(n):
        # a gate's children, read through nested gates of its own kind
        nested = [m for m in c.payloads[n] if c.kinds[m] == c.kinds[n]]
        own = {m for m in c.payloads[n] if c.kinds[m] != c.kinds[n]}
        return own.union(*map(operands, nested))

    # ∃Q passes the root's OR and stops at the one child that mentions Q
    (stop,) = [n for n in c.payloads[q.matrix] if c.masks[n] & qmask]
    (body,) = [n for n in operands(stop) if mixes(n)]
    assert c.kinds[stop] == circuit.K_AND and c.kinds[body] == circuit.K_OR
    guards = [n for n in operands(stop) if n != body]
    assert all(not c.masks[n] & ~qmask for n in guards)
    disjuncts = [d for d in operands(body) if mixes(d)]
    assert len(disjuncts) >= 2 and len(disjuncts) == len(operands(body))

    calls = _count_calls(monkeypatch, "quantify")
    # handles from separate calls are compared: no collection may renumber them
    monkeypatch.setattr(bdd.BDD, "maybe_collect", lambda self, pinned: None)
    mgr = bdd.BDD()
    split = qbf._compile(c, mgr, q.matrix, qbf._EXISTS, inner)
    assert calls[0] == len(disjuncts)
    guard = mgr.join(bdd.AND, [qbf._compile(c, mgr, n) for n in guards])
    whole = mgr.quantify(bdd.AND, guard, qbf._compile(c, mgr, body), inner)
    rest = [qbf._compile(c, mgr, n) for n in c.payloads[q.matrix] if n != stop]
    assert split == mgr.join(bdd.OR, [whole, *rest])


def test_single_mixed_disjunct_takes_one_product(monkeypatch):
    # The ∀∃ sweep stops at an AND with many mixed children, and shortest
    # path's body has one mixed disjunct at the first step: under the stop
    # machinery neither splits. The backward pass over the inner trace
    # takes both and quantifies nothing.
    from hyperbmc import oracle, qbf
    from hyperbmc.encoder import assemble_qbf
    from hyperbmc.hyperltl import normalize, parse_formula
    from hyperbmc.kripke import parse_kripke
    from hyperbmc.models import builtin_spec, gen_grid

    complete = parse_kripke(COMPLETE_KR)
    grid = gen_grid(4, 4, {(0, 1), (1, 1), (2, 1)}, [(0, 0)], {(0, 3)})
    cases = [
        ("forall A. exists B. G (a[A] <-> a[B])", complete, 6, oracle.OPT),
        (builtin_spec("shortest_path").formula, grid, 6, oracle.CLASSIC),
    ]
    calls = _count_calls(monkeypatch, "quantify")
    for links, products in ((qbf._links, 0), (lambda *args: None, 1)):
        monkeypatch.setattr(qbf, "_links", links)
        for text, structure, k, sem in cases:
            formula = normalize(parse_formula(text))
            q = assemble_qbf(formula, {"A": structure, "B": structure}, k, sem)
            assert len(q.blocks) == 2
            calls[0] = 0
            solve(q)
            assert calls[0] == products


def rand_cut_blocks(rng, n):
    """The variables 0..n-1 cut into 2-3 alternating blocks."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, 2)))
    quant = rng.choice([EXISTS, FORALL])
    blocks = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        blocks.append((quant, tuple(range(lo, hi))))
        quant = FORALL if quant == EXISTS else EXISTS
    return blocks


def rand_table_prenex(rng):
    """2-3 alternating blocks over a matrix whose leaves are mostly table gates.

    Each table is 1-4 rows over 1-3 of the offsets 0-2, and its gates sit
    at random bases, so one table is read over several windows of
    variables and across blocks.
    """
    c = Circuit()
    n = rng.randint(3, 8)
    blocks = rand_cut_blocks(rng, n)
    tables = []
    for _ in range(rng.randint(1, 3)):
        offsets = sorted(rng.sample(range(3), rng.randint(1, 3)))
        rows = [row_code(rng.randint(0, 1) for _ in offsets) for _ in range(rng.randint(1, 4))]
        tables.append(c.table(offsets, rows))

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.2:
                return c.var(rng.randrange(n))
            return c.table_gate(rng.choice(tables), rng.randint(0, n - 3))
        node = (c.and_ if rng.random() < 0.5 else c.or_)(
            [build(depth - 1) for _ in range(rng.randint(2, 3))]
        )
        return c.not_(node) if rng.random() < 0.3 else node

    return make_prenex(c, blocks, build(rng.randint(1, 4)), {v: f"x{v}" for v in range(n)})


def test_table_gates_agree_with_naive_evaluator(rng):
    for _ in range(300):
        q = rand_table_prenex(rng)
        r = solve(q)
        check_result(q, r)
        assert solve(parse_qcir(emit_qcir(q))).value == r.value


def test_emit_qcir_leaves_the_circuit_and_the_solve_alone(monkeypatch):
    # emit_qcir expands every table gate, but into a copy of the circuit:
    # the caller's circuit does not grow, so a solve after it walks and
    # builds what a solve before it does
    from hyperbmc import bdd, oracle
    from hyperbmc.encoder import assemble_qbf
    from hyperbmc.hyperltl import normalize, parse_formula
    from hyperbmc.models import builtin_spec, gen_grid

    grid = gen_grid(4, 4, {(0, 1), (1, 1), (2, 1)}, [(0, 0)], {(0, 3)})
    formula = normalize(parse_formula(builtin_spec("shortest_path").formula))
    q = assemble_qbf(formula, {v: grid for _, v in formula.prefix}, 6, oracle.CLASSIC)
    managers = []
    init = bdd.BDD.__init__

    def recorded(self, *args):
        init(self, *args)
        managers.append(self)

    monkeypatch.setattr(bdd.BDD, "__init__", recorded)
    size = len(q.circuit)
    before = solve(q)
    text = emit_qcir(q)
    assert len(q.circuit) == size
    assert solve(q) == before
    assert len(managers[1]) == len(managers[0])
    assert emit_qcir(q) == text
    assert solve(parse_qcir(text)).value == before.value


def test_table_bdds_survive_collection_after_every_gate(rng, monkeypatch):
    # every gate is followed by a collection, which renumbers the arena;
    # each table's BDD must stay pinned and be relocated under its new handle
    from hyperbmc import bdd
    from hyperbmc.qbf import _compile

    collections = [0]

    def always_collect(self, pinned):
        collections[0] += 1
        self.collect(pinned)

    monkeypatch.setattr(bdd.BDD, "maybe_collect", always_collect)
    c = Circuit()
    xnor = c.table((0, 1), [0b00, 0b11])  # offsets 0 and 1 agree
    gates = [c.table_gate(xnor, i) for i in range(9)]
    root = c.or_([c.and_(gates[:5]), c.and_([gates[5], gates[8], c.not_(gates[6])])])
    mgr = bdd.BDD()
    f = _compile(c, mgr, root)
    assert collections[0] > 9
    assert bdd_table(mgr, f, 10) == truth_table(c, root, 10)
    for _ in range(40):
        q = rand_table_prenex(rng)
        check_result(q, solve(q))


def _support(mgr, f):
    """The levels a BDD tests."""
    seen, todo = set(), [f]
    while todo:
        x = todo.pop()
        if x > 1 and x not in seen:
            seen.add(x)
            todo += [mgr.lo[x], mgr.hi[x]]
    return frozenset(mgr.level[x] for x in seen)


def test_unrolling_joined_once_per_model(monkeypatch):
    # The outer trace's unrolling is walked (BDD.walk), never built. Where
    # the walk is off, both traces unroll one model, so their unrollings
    # are one shape: the first is built by one BDD.paths call over its k
    # step gates, which makes only nodes its result reaches, and the other
    # is a copy of it. None is a join of its k+1 table gates. The inner one
    # stays one operand at the quantifier's stop, so its gates are not
    # joined there as the product's guard either. Where the inner trace is
    # universal and only its guard, the NOT of its unrolling, is read
    # (shortest path), that guard is one negated copy of the first
    # unrolling of the shape, and no un-negated copy is made; the backward
    # pass over the inner trace makes neither, and reads no gate of the
    # inner unrolling.
    from hyperbmc import bdd, oracle, qbf
    from hyperbmc.encoder import assemble_qbf
    from hyperbmc.hyperltl import negate, normalize, parse_formula
    from hyperbmc.models import PAPER_GRID_10, builtin_spec, gen_grid, gen_nonrepudiation, parse_grid_map

    grid = gen_grid(4, 4, {(0, 1), (1, 1), (2, 1)}, [(0, 0)], {(0, 3)})
    shortest = normalize(parse_formula(builtin_spec("shortest_path").formula))
    cases = [
        (negate(parse_formula(builtin_spec("fair_nonrepudiation").formula)),
         gen_nonrepudiation("incorrect"), 3, oracle.HPES, 1),
        (shortest, grid, 6, oracle.CLASSIC, 0),
        (shortest, gen_grid(*parse_grid_map(PAPER_GRID_10)), 20, oracle.CLASSIC, 0),
    ]
    # calls whose result is over one whole block, copies by polarity; the
    # wrappers read the current case's k and blocks
    whole = {}
    for name in ("paths", "copy", "join"):
        method = getattr(bdd.BDD, name)

        def counted(self, *args, _method=method, _name=name):
            before = len(self)
            r = _method(self, *args)
            if (_name != "join" or len(args[1]) == k + 1) and _support(self, r) in blocks:
                tag = "negated copy" if _name == "copy" and args[2] else _name
                whole[tag] += 1
            if _name == "paths":
                assert len(args[1]) == k + 1  # the live codes of steps 0..k
                assert len(self) - before == len(bdd_nodes_since(self, r, before)) > 0
            return r

        monkeypatch.setattr(bdd.BDD, name, counted)
    walks = _count_calls(monkeypatch, "walk")
    finder, outer = qbf._links, qbf._outer_unrolling
    for links in (finder, lambda *args: None):
        monkeypatch.setattr(qbf, "_links", links)
        for walked in (outer, lambda *args: None):
            monkeypatch.setattr(qbf, "_outer_unrolling", walked)
            for formula, structure, k, sem, copies in cases:
                q = assemble_qbf(formula, {v: structure for _, v in formula.prefix}, k, sem)
                blocks = [frozenset(vs) for _, vs in q.blocks]
                assert len(blocks) == 2
                whole.update(dict.fromkeys(["paths", "copy", "negated copy", "join"], 0))
                walks[0] = 0
                solve(q)
                # the pass takes shortest path, not non-repudiation (several links)
                passed = links is finder and formula is shortest
                if walked is outer:
                    assert walks[0] == 1
                    want = {"paths": int(not passed), "copy": 0, "negated copy": int(not passed and formula is shortest)}
                else:
                    assert walks[0] == 0
                    want = {"paths": 1, "copy": copies, "negated copy": int(not passed)}
                assert whole == {**want, "join": 0}


def rand_chain(rng, c, lo):
    """A block's guard over variables from lo up: an unrolling, or a near miss of one.

    An unrolling is made by Circuit.unrolling, as unroll_structure makes
    one: an AND of an initial table over a window at base b and m gates of
    a step table over the window followed by the window d higher, at bases
    b, b+d, .. b+(m-1)d. A near miss is an AND made by and_ that breaks
    it in one way: a step gate missing, one off the progression, the
    gates d+1 apart, the step table's second window shaped unlike its
    first, an operand that is no table gate, or no initial table. Returns
    the guard, the block's variables and, for an unrolling, its shape:
    unrollings of one shape are the same function of variables a constant
    distance apart.
    """
    w = rng.randint(1, 2)
    window = (0,) if w == 1 else (0, rng.randint(1, 2))
    d = window[-1] + 1 + rng.randint(0, 1)
    m = rng.randint(1, max(1, 4 // d))
    codes = [row_code(t) for t in product((0, 1), repeat=w)]
    states = codes[:rng.randint(1, len(codes))]
    init_rows = [rng.choice(states)]
    step_rows = [s | t << w for s in states for t in states if rng.random() < 0.6]
    step_rows = step_rows or [init_rows[0] | init_rows[0] << w]
    allowed = ["off", "extra", "noinit"] + ["missing", "spacing"] * (m >= 2) + ["unequal"] * (w == 2)
    miss = rng.choice(allowed) if rng.random() < 0.5 else None
    second = [o + d for o in window]
    if miss == "unequal":
        second[-1] += 1
    init = c.table(window, init_rows)
    step = c.table([*window, *second], step_rows)
    b = lo + rng.randint(0, 1)
    bases = [b + i * (d + (miss == "spacing")) for i in range(m)]
    if miss == "missing":
        del bases[rng.randrange(m - 1)]
    if miss == "off":
        bases[-1] += 1
    variables = tuple(range(lo, max(bases) + max(second) + 1))
    if miss is None:
        return c.unrolling(init, step, b, d, m), variables, (init, step, m)
    gates = [c.table_gate(step, base) for base in bases]
    if miss != "noinit":
        gates.append(c.table_gate(init, b))
    if miss == "extra":
        gates.append(c.var(rng.randint(lo, variables[-1])))
    return c.and_(gates), variables, None


def rand_chain_prenex(rng):
    """2-3 alternating blocks over at most 12 variables, each guarded by an
    unrolling or a near miss, chained as assemble_qbf chains them.

    In about one instance in three the body is the constant that keeps
    the innermost guard (TRUE under an existential, FALSE under a
    universal), which leaves that guard as the node the innermost
    quantifier stops at; otherwise it is not constant, and every guard
    is built without a quantifier. Returns the QBF, the shapes of its
    unrollings, one per block (None for a near miss), and whether the
    body is constant.
    """
    while True:
        c = Circuit()
        guards, blocks, shapes = [], [], []
        quant = rng.choice([EXISTS, FORALL])
        at = 0
        for _ in range(rng.randint(2, 3)):
            guard, variables, shape = rand_chain(rng, c, at)
            guards.append(guard)
            blocks.append((quant, variables))
            shapes.append(shape)
            at = variables[-1] + 1
            quant = FORALL if quant == EXISTS else EXISTS
        if at <= 12:
            break
    constant = rng.random() < 1 / 3
    if constant:
        matrix = ct.TRUE if blocks[-1][0] == EXISTS else ct.FALSE
    else:
        matrix = ct.TRUE
        while matrix in (ct.FALSE, ct.TRUE):
            matrix = rand_gate(rng, c, rng.randint(2, 3), list(range(at)))
    for (quant, _), guard in zip(reversed(blocks), reversed(guards)):
        matrix = c.and_([guard, matrix]) if quant == EXISTS else c.implies(guard, matrix)
    return make_prenex(c, blocks, matrix, {v: f"x{v}" for v in range(at)}), shapes, constant


def test_chain_guards_agree_with_naive_evaluator(rng, monkeypatch):
    # an unrolling is built by one BDD.paths call per shape, relocated to
    # the others of its shape; a near miss is joined. So is an innermost
    # unrolling that the body's constant leaves as the quantifier's stop:
    # one paths call, then quantified, and none of its gates joined.
    # Where the backward pass quantifies the innermost block, its
    # unrolling is not built, nor is the outermost one where it is walked:
    # only the other blocks' shapes are.
    from hyperbmc import qbf

    calls = _count_calls(monkeypatch, "paths")
    passes = [0]
    backward = qbf._backward

    def counted(*args):
        passes[0] += 1
        return backward(*args)

    monkeypatch.setattr(qbf, "_backward", counted)
    built = kept = witnesses = stops = taken = walked = 0
    for _ in range(400):
        q, shapes, constant = rand_chain_prenex(rng)
        calls[0] = passes[0] = 0
        r = solve(q)
        outer = qbf._outer_unrolling(q.circuit, q.matrix, *q.blocks[0]) is not None
        assert outer <= (shapes[0] is not None)
        distinct = set(shapes[outer:len(shapes) - passes[0]]) - {None}
        assert calls[0] == len(distinct)
        taken += passes[0]
        walked += outer
        built += calls[0] > 0
        stops += constant and shapes[-1] is not None and shapes.count(shapes[-1]) == 1
        check_result(q, r)
        kept += shapes.count(None)
        witnesses += r.outer_witness is not None
    assert built >= 100
    assert kept >= 100
    assert witnesses >= 100
    assert stops >= 30
    assert taken >= 10
    assert walked >= 50


def test_unrecorded_unrolling_is_joined(monkeypatch):
    # A QCIR document carries no records: its parsed circuit joins the
    # gates of each unrolling, and its value is the encoded QBF's. The
    # encoded QBF builds neither unrolling: its outer trace is walked and
    # its inner one taken by the backward pass.
    from hyperbmc import oracle
    from hyperbmc.encoder import assemble_qbf
    from hyperbmc.hyperltl import normalize, parse_formula
    from hyperbmc.models import builtin_spec, gen_grid

    grid = gen_grid(4, 4, {(0, 1), (1, 1), (2, 1)}, [(0, 0)], {(0, 3)})
    formula = normalize(parse_formula(builtin_spec("shortest_path").formula))
    q = assemble_qbf(formula, {v: grid for _, v in formula.prefix}, 6, oracle.CLASSIC)
    again = parse_qcir(emit_qcir(q))
    assert len(q.circuit.unrollings) == 2 and again.circuit.unrollings == {}
    calls = _count_calls(monkeypatch, "paths")
    walks = _count_calls(monkeypatch, "walk")
    r = solve(q)
    assert (calls[0], walks[0]) == (0, 1)
    assert solve(again) == r
    assert (calls[0], walks[0]) == (0, 1)


def rand_shifted_prenex(rng):
    """2-3 alternating blocks over a matrix of shifted copies of random subcircuits.

    Each template is a random circuit over a window of 2-3 variables,
    built at several bases, so its copies fall outside the innermost
    block, inside it, or across its edge; the copies sit under NOT, AND
    and OR gates, some of them repeated in shifted copies of their own.
    """
    c = Circuit()
    n = rng.randint(5, 9)
    blocks = rand_cut_blocks(rng, n)

    def template(depth, width):
        if depth == 0 or rng.random() < 0.2:
            return ("var", rng.randrange(width))
        if rng.random() < 0.3:
            return ("not", template(depth - 1, width))
        return (rng.choice(["and", "or"]), [template(depth - 1, width) for _ in range(rng.randint(2, 3))])

    def build(t, base):
        if t[0] == "var":
            return c.var(base + t[1])
        if t[0] == "not":
            return c.not_(build(t[1], base))
        return (c.and_ if t[0] == "and" else c.or_)([build(s, base) for s in t[1]])

    width = rng.randint(2, 3)
    shapes = [template(rng.randint(1, 3), width) for _ in range(rng.randint(1, 2))]
    outer = ("and" if rng.random() < 0.5 else "or", shapes + [("var", width - 1)])
    copies = [build(rng.choice(shapes + [outer]), rng.randint(0, n - width)) for _ in range(rng.randint(3, 6))]
    copies = [c.not_(x) if rng.random() < 0.3 else x for x in copies]
    rng.shuffle(copies)
    mid = rng.randint(1, len(copies) - 1)
    halves = [c.and_(copies[:mid]), c.or_(copies[mid:])]
    matrix = (c.and_ if rng.random() < 0.5 else c.or_)([c.not_(halves[0]), halves[1]])
    return make_prenex(c, blocks, matrix, {v: f"x{v}" for v in range(n)})


def test_shifted_copies_agree_with_naive_evaluator(rng, monkeypatch):
    from hyperbmc import bdd
    from hyperbmc.qbf import _compile

    shifted = [0]
    copy = bdd.BDD.copy

    def counted(self, f, shift, negate):
        shifted[0] += shift != 0
        return copy(self, f, shift, negate)

    monkeypatch.setattr(bdd.BDD, "copy", counted)
    copies = 0
    for i in range(300):
        q = rand_shifted_prenex(rng)
        c = q.circuit
        shifted[0] = 0
        r = solve(q)
        copies += shifted[0]
        check_result(q, r)
        if i % 10:
            continue
        mgr = bdd.BDD()
        f = _compile(c, mgr, q.matrix)
        n = max(v for _, vs in q.blocks for v in vs) + 1
        assert bdd_table(mgr, f, n) == truth_table(c, q.matrix, n)
    # the circuits have no table gates: every copy with a shift, negated
    # or not, is of a repeated subcircuit
    assert copies >= 300


_HASH_PROBE = """
from hyperbmc import bdd, encoder, oracle, qbf
from hyperbmc.hyperltl import negate, parse_formula
from hyperbmc.models import builtin_spec, gen_nonrepudiation

arena, copy = [], bdd.BDD.copy
def counted(self, f, shift, negate):
    arena.append(len(self))
    return copy(self, f, shift, negate)
bdd.BDD.copy = counted
formula = negate(parse_formula(builtin_spec("fair_nonrepudiation").formula))
structure = gen_nonrepudiation("incorrect")
q = encoder.assemble_qbf(formula, {v: structure for _, v in formula.prefix}, 5, oracle.HPES)
print(qbf.solve(q).value, len(arena), arena)
"""


def test_relocations_do_not_depend_on_hashing():
    # the same solve copies as often, at the same arena sizes, under any
    # string hash seed
    import os
    import subprocess

    from hyperbmc import qbf

    src = os.path.dirname(os.path.dirname(os.path.abspath(qbf.__file__)))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_PROBE],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert runs[0] == runs[1]
    assert int(runs[0].split()[1]) > 0
