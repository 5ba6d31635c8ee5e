import itertools
import os
import random
import subprocess
import sys

from hyperbmc import circuit as ct
from hyperbmc import hyperltl as hl
from hyperbmc import oracle
from hyperbmc.circuit import Circuit
from hyperbmc.encoder import (
    assemble_qbf,
    build_layout,
    encode_body,
    label_gate,
    label_order,
    label_table,
    state_bit_count,
    state_orders,
    unroll_structure,
)
from hyperbmc.hyperltl import Atom, Next, Release, Until, normalize, parse_formula
from hyperbmc.kripke import HALT_AP, enumerate_prefixes, parse_kripke
from hyperbmc.qbf import solve

from conftest import rand_instance

ONE_STATE = parse_kripke("ap a; states s0; init s0; label s0 {a}; trans s0 -> s0;")
CHAIN = parse_kripke(
    "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; trans s0 -> s1; trans s1 -> s1;"
)
# three states need two state bits, so code 3 names no state
THREE = parse_kripke(
    "ap a; states s0 s1 s2; init s0; label s0 {a}; label s1 {}; label s2 {a}; "
    "trans s0 -> s1; trans s1 -> s2; trans s2 -> s2;"
)


def formula_over(var, k_structure):
    return hl.HyperFormula(prefix=((hl.EXISTS, var),), body=Atom("a", var))


def layout_for(models, prefix, k):
    f = hl.HyperFormula(prefix=prefix, body=hl.TRUE)
    return build_layout(models, f, k)


def model_count(circ, node, variables):
    count = 0
    for bits in itertools.product([False, True], repeat=len(variables)):
        if circ.evaluate(node, dict(zip(variables, bits))):
            count += 1
    return count


def test_state_bit_count_is_exact():
    # a float log2 rounds 2**k + 1 down to 2**k from k = 49 on and so
    # counted one bit too few
    assert [state_bit_count(n) for n in range(1, 6)] == [0, 1, 2, 2, 3]
    for k in range(1, 63):
        assert state_bit_count(2**k) == k
        assert state_bit_count(2**k + 1) == k + 1


def test_unroll_one_state_fixes_labels():
    layout = layout_for({"A": ONE_STATE}, ((hl.EXISTS, "A"),), 0)
    circ = Circuit()
    node = unroll_structure(ONE_STATE, "A", 0, layout, circ)
    # no state bits: the empty valuation is the single path, and the label
    # gates fold to that state's labeling
    assert layout.block_ids("A") == []
    assert node == ct.TRUE
    assert label_gate(circ, layout, "A", 0, "a") == ct.TRUE
    assert label_gate(circ, layout, "A", 0, HALT_AP) == ct.FALSE


def test_unroll_chain_single_path():
    layout = layout_for({"A": CHAIN}, ((hl.EXISTS, "A"),), 1)
    circ = Circuit()
    node = unroll_structure(CHAIN, "A", 1, layout, circ)
    ids = layout.block_ids("A")
    assert len(ids) <= 8
    assert model_count(circ, node, ids) == 1


def test_unroll_model_count_equals_prefix_count(rng):
    from conftest import rand_kripke

    checked = 0
    for _ in range(20):
        k_struct = rand_kripke(rng, max_states=3, halting=rng.random() < 0.5)
        for bound in range(4):
            layout = layout_for({"A": k_struct}, ((hl.EXISTS, "A"),), bound)
            circ = Circuit()
            node = unroll_structure(k_struct, "A", bound, layout, circ)
            ids = layout.block_ids("A")
            if len(ids) > 12:
                continue
            checked += 1
            assert model_count(circ, node, ids) == len(enumerate_prefixes(k_struct, bound))
    assert checked >= 20


def test_encode_next_is_projection():
    layout = layout_for({"A": CHAIN}, ((hl.EXISTS, "A"),), 1)
    for sem in oracle.SEMANTICS:
        circ = Circuit()
        node = encode_body(Next(Atom("a", "A")), 1, sem, layout, circ)
        assert node == label_gate(circ, layout, "A", 1, "a")


def test_encode_until_at_bound_pessimistic_vs_classic():
    layout = layout_for({"A": CHAIN}, ((hl.EXISTS, "A"),), 1)
    body = Until(hl.TRUE, Atom("a", "A"))
    circ = Circuit()
    p0 = label_gate(circ, layout, "A", 0, "a")
    p1 = label_gate(circ, layout, "A", 1, "a")
    assert encode_body(body, 1, oracle.PES, layout, circ) == p0
    assert encode_body(body, 1, oracle.CLASSIC, layout, circ) == circ.or_([p0, p1])


def test_encode_release_at_bound_optimistic():
    layout = layout_for({"A": CHAIN}, ((hl.EXISTS, "A"),), 1)
    body = Release(hl.FALSE, Atom("a", "A"))
    circ = Circuit()
    p0 = label_gate(circ, layout, "A", 0, "a")
    assert encode_body(body, 1, oracle.OPT, layout, circ) == p0


def test_encode_memoization_shares_nodes():
    layout = layout_for({"A": CHAIN}, ((hl.EXISTS, "A"),), 2)
    sub = Until(hl.TRUE, Atom("a", "A"))
    body = hl.Or(sub, hl.And(sub, Atom("a", "A")))
    circ = Circuit()
    before = encode_body(sub, 2, oracle.PES, layout, circ)
    combined = encode_body(body, 2, oracle.PES, layout, circ)
    # the shared subformula reuses the identical node
    assert encode_body(sub, 2, oracle.PES, layout, circ) == before
    a0 = label_gate(circ, layout, "A", 0, "a")
    assert combined == circ.or_([before, circ.and_([before, a0])])


def test_assemble_forall_exists_shape():
    f = normalize(parse_formula("forall A. exists B. (a[A] <-> a[B])"))
    q = assemble_qbf(f, {"A": CHAIN, "B": CHAIN}, 1, oracle.PES)
    assert [b[0] for b in q.blocks] == [hl.FORALL, hl.EXISTS]
    # the matrix is an implication: not(unrolling) | (unrolling & body)
    assert q.circuit.kinds[q.matrix] == ct.K_OR
    kids = q.circuit.payloads[q.matrix]
    assert any(q.circuit.kinds[c] == ct.K_NOT for c in kids)


def test_assemble_exists_forall_shape():
    f = normalize(parse_formula("exists A. forall B. (a[A] <-> a[B])"))
    q = assemble_qbf(f, {"A": CHAIN, "B": CHAIN}, 1, oracle.PES)
    assert [b[0] for b in q.blocks] == [hl.EXISTS, hl.FORALL]
    assert q.circuit.kinds[q.matrix] == ct.K_AND


def test_assemble_single_quantifier():
    f = normalize(parse_formula("exists A. a[A]"))
    q = assemble_qbf(f, {"A": CHAIN}, 0, oracle.PES)
    assert len(q.blocks) == 1
    assert solve(q).value is True
    # a one-state model has no state bits: no block, and the matrix folds
    q = assemble_qbf(f, {"A": ONE_STATE}, 0, oracle.PES)
    assert q.blocks == ()
    assert q.matrix == ct.TRUE
    assert solve(q).value is True


ENCODINGS = {
    "chain": ("exists A. forall B. (a[A] U !a[B])", "CHAIN", 2, oracle.PES),
    "three": ("forall A. exists B. G (a[A] <-> a[B])", "THREE", 3, oracle.OPT),
}


def encoding(name):
    """The circuit, matrix and blocks of one ENCODINGS entry, as text."""
    text, model, k, sem = ENCODINGS[name]
    m = globals()[model]
    q = assemble_qbf(normalize(parse_formula(text)), {"A": m, "B": m}, k, sem)
    return repr((q.circuit.kinds, q.circuit.payloads, q.matrix, q.blocks))


def test_assemble_shares_nothing_between_encodings():
    # each encoding must come out node for node as in a fresh process,
    # whatever was encoded before it in this one
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    fresh = {
        name: subprocess.run(
            [sys.executable, "-c", f"import test_encoder; print(test_encoder.encoding({name!r}))"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        for name in ENCODINGS
    }
    for name in ("chain", "three", "chain"):
        assert encoding(name) == fresh[name], name


def test_layout_order_and_names():
    layout = layout_for(
        {"A": THREE, "B": CHAIN, "C": ONE_STATE},
        ((hl.FORALL, "A"), (hl.EXISTS, "B"), (hl.EXISTS, "C")),
        1,
    )
    a_ids = layout.block_ids("A")
    b_ids = layout.block_ids("B")
    # ids are step-major: step, then trace in prefix order, then bit
    assert layout.sb_ids("A", 0) + layout.sb_ids("B", 0) == [0, 1, 2]
    assert layout.sb_ids("A", 1) + layout.sb_ids("B", 1) == [3, 4, 5]
    assert [v for _, v, _ in layout.blocks] == ["A", "B", "C"]  # blocks in prefix order
    # only state bits: within a block, step, then bit (least significant first)
    assert [layout.names[v] for v in a_ids] == ["sb0_A_0", "sb1_A_0", "sb0_A_1", "sb1_A_1"]
    assert [layout.names[v] for v in b_ids] == ["sb0_B_0", "sb0_B_1"]
    assert layout.block_ids("C") == []
    assert len(set(layout.names.values())) == len(layout.names)


def test_spurious_assignment_immunity():
    # a universal-block assignment violating the unrolling never matters,
    # whatever the label gates read on it
    f = normalize(parse_formula("forall A. exists B. G (a[A] <-> a[B])"))
    models = {"A": THREE, "B": THREE}
    layout = build_layout(models, f, 1)
    q = assemble_qbf(f, models, 1, oracle.PES, layout=layout)
    circ = q.circuit

    def spell(step, code):
        return {bit: bool(code >> j & 1) for j, bit in enumerate(layout.sb_ids("A", step))}

    def value_with(assignment):
        m = q.matrix
        for v, val in assignment.items():
            m = circ.restrict(m, v, val)
        from hyperbmc.qbf import make_prenex, solve as qsolve

        rest = make_prenex(circ, q.blocks[1:], m, q.var_names)
        return qsolve(rest).value

    # s0 then s0 is not a transition of THREE; s0 then code 3 names no state
    s0, s1 = layout.code("A", "s0"), layout.code("A", "s1")
    assert layout.state("A", 3) is None
    no_edge = {**spell(0, s0), **spell(1, s0)}
    no_state = {**spell(0, s0), **spell(1, 3)}
    assert circ.evaluate(label_gate(circ, layout, "A", 1, "a"), no_edge) is True
    assert circ.evaluate(label_gate(circ, layout, "A", 1, "a"), no_state) is False
    for bad in (no_edge, no_state):
        assert value_with(bad) is True  # the guard makes the branch vacuous
    # on the legal path s0 s1 the body decides, and pes never establishes G
    assert value_with({**spell(0, s0), **spell(1, s1)}) is False


def reference_minterm(circ, layout, var, step, state):
    """The state bits of (var, step) spell state's code, built literal by literal."""
    code = layout.code(var, state)
    return circ.and_([
        circ.var(b) if code >> j & 1 else circ.not_(circ.var(b))
        for j, b in enumerate(layout.sb_ids(var, step))
    ])


def test_table_gates_equal_their_minterms(rng):
    # under the declaration order and the label order alike
    from conftest import rand_kripke

    one_state = relabelled = 0
    for i in range(60):
        m = rand_kripke(rng, max_states=rng.choice([1, 3, 4]), halting=rng.random() < 0.5)
        one_state += len(m.states) == 1
        order = m.states if i % 2 else label_order(m, m.aps)
        relabelled += order != m.states
        k = 2
        models = {"A": m, "B": m}
        f = hl.HyperFormula(prefix=((hl.FORALL, "A"), (hl.EXISTS, "B")), body=hl.TRUE)
        layout = build_layout(models, f, k, dict.fromkeys(models, order))
        circ = Circuit()
        for var in models:
            for step in range(k + 1):
                for ap in (*m.aps, HALT_AP):
                    carries = m.halt if ap == HALT_AP else {s for s in m.states if ap in m.labels[s]}
                    want = circ.or_([reference_minterm(circ, layout, var, step, s) for s in carries])
                    got = label_gate(circ, layout, var, step, ap)
                    if len(m.states) == 1:
                        assert got == want == (ct.TRUE if carries else ct.FALSE)
                    ids = layout.sb_ids(var, step)
                    for bits in itertools.product([False, True], repeat=len(ids)):
                        env = dict(zip(ids, bits))
                        assert circ.evaluate(got, env) == circ.evaluate(want, env)
            parts = [reference_minterm(circ, layout, var, 0, m.init)]
            for step in range(k):
                parts.append(circ.or_([
                    circ.and_([reference_minterm(circ, layout, var, step, s),
                               reference_minterm(circ, layout, var, step + 1, d)])
                    for s, d in m.trans
                ]))
            want = circ.and_(parts)
            got = unroll_structure(m, var, k, layout, circ)
            if len(m.states) == 1:
                assert got == want == ct.TRUE
            ids = layout.block_ids(var)
            for bits in itertools.product([False, True], repeat=len(ids)):
                env = dict(zip(ids, bits))
                assert circ.evaluate(got, env) == circ.evaluate(want, env)
    assert one_state >= 3
    assert relabelled >= 5


def test_traces_over_one_model_share_tables():
    models = {"A": THREE, "B": THREE}
    layout = layout_for(models, ((hl.FORALL, "A"), (hl.EXISTS, "B")), 2)
    circ = Circuit()
    a = [label_gate(circ, layout, "A", step, "a") for step in range(3)]
    b = [label_gate(circ, layout, "B", step, "a") for step in range(3)]
    assert len({circ.payloads[g][0] for g in a + b}) == 1
    assert [circ.payloads[g][1] for g in a + b] == [0, 4, 8, 2, 6, 10]
    unroll_structure(THREE, "A", 2, layout, circ)
    unroll_structure(THREE, "B", 2, layout, circ)
    # one label table, one initial-state table, one transition table
    assert len(circ.tables) == 3


def test_transition_tables_differ_by_stride():
    # the cubes of one model's transitions span two steps, so the same
    # model unrolled beside one or two other traces gives two tables
    circ = Circuit()
    labels = set()
    for names in ("AB", "ABC"):
        layout = layout_for(dict.fromkeys(names, THREE), tuple((hl.EXISTS, v) for v in names), 1)
        assert layout.stride == 2 * len(names)
        unroll_structure(THREE, "A", 1, layout, circ)
        labels.add(label_table(circ, layout, "A", "a"))
    assert len(labels) == 1
    # one initial-state table, two transition tables, one label table
    assert len(circ.tables) == 4


def test_unrolling_grows_linearly_in_the_bound():
    # each step of G's unrolling is a gate over the next step's gate, not a
    # copy of its conjuncts, so the operands of all gates grow as k, not k²
    complete = parse_kripke(
        "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; "
        "trans s0 -> s0; trans s0 -> s1; trans s1 -> s0; trans s1 -> s1;"
    )
    f = normalize(parse_formula("forall A. exists B. G (a[A] <-> a[B])"))

    def operands(k):
        c = assemble_qbf(f, {"A": complete, "B": complete}, k, oracle.OPT).circuit
        return sum(len(c.payloads[n]) for n in range(len(c)) if c.kinds[n] in (ct.K_AND, ct.K_OR))

    assert (operands(1000), operands(2000)) == (10_004, 20_004)


def test_encoder_matches_oracle_smoke(rng):
    for _ in range(150):
        models, f = rand_instance(rng, halting=rng.random() < 0.5)
        halting = all(m.halt for m in models.values())
        sems = list(oracle.SEMANTICS) if halting else [oracle.PES, oracle.OPT, oracle.CLASSIC]
        k = rng.randint(0, 3)
        sem = rng.choice(sems)
        paper_literal = rng.random() < 0.5
        want = oracle.check_bounded(models, f, k, sem, paper_literal)
        got = solve(assemble_qbf(f, models, k, sem, paper_literal)).value
        assert got == want, (sem, k, paper_literal, hl.render_formula(f))


def test_qcir_round_trip_keeps_value():
    # criterion 1's instances, under every semantics: the QCIR text expands
    # each table gate, and the parsed document must decide the same way
    from hyperbmc.qbf import emit_qcir, parse_qcir

    rng = random.Random(101)
    for _ in range(120):
        models, f = rand_instance(rng, max_quants=2, depth=3, halting=True)
        k = rng.randint(0, 3)
        layout = build_layout(models, f, k)
        for sem in oracle.SEMANTICS:
            q = assemble_qbf(f, models, k, sem, layout=layout)
            assert solve(parse_qcir(emit_qcir(q))).value == solve(q).value, (sem, k)


def test_paths_round_trip_through_the_layout_codes(rng):
    # a path spelled in the layout's codes reads its own labels, satisfies
    # the unrolling and decodes back to itself, in either order
    from conftest import rand_kripke
    from hyperbmc.driver import extract_witness

    paths = relabelled = 0
    for _ in range(60):
        m = rand_kripke(rng, max_states=6, halting=rng.random() < 0.5)
        k = rng.randint(0, 3)
        models = {"A": m, "B": m}
        f = hl.HyperFormula(prefix=((hl.EXISTS, "A"), (hl.FORALL, "B")), body=hl.TRUE)
        for order in (m.states, label_order(m, m.aps)):
            relabelled += order != m.states
            layout = build_layout(models, f, k, dict.fromkeys(models, order))
            assert [layout.state("A", c) for c in range(len(order))] == list(order)
            assert layout.state("A", len(order)) is None
            circ = Circuit()
            unrolled = unroll_structure(m, "A", k, layout, circ)
            prefixes = enumerate_prefixes(m, k)
            for prefix in rng.sample(prefixes, min(4, len(prefixes))):
                assignment = dict.fromkeys(layout.names, False)
                for step, s in enumerate(prefix.states):
                    code = layout.code("A", s)
                    for j, bit in enumerate(layout.sb_ids("A", step)):
                        assignment[bit] = bool(code >> j & 1)
                assert extract_witness(assignment, layout, "A", m) == prefix
                assert circ.evaluate(unrolled, assignment) is True
                for step, s in enumerate(prefix.states):
                    for ap in (*m.aps, HALT_AP):
                        carries = s in m.halt if ap == HALT_AP else ap in m.labels[s]
                        assert circ.evaluate(label_gate(circ, layout, "A", step, ap), assignment) is carries
                paths += 1
    assert paths >= 150
    assert relabelled >= 20


def _paper_model(name, seed=None):
    """A bundled model, its negated (or normalized) spec, and the check's semantics and bound.

    A seed permutes the model as perfbench/workloads.py does: paper-cases
    shuffles bakery2, then nonrep incorrect, then nonrep correct, from one
    random.Random(seed); grid10-plan shuffles grid10 from a fresh one.
    """
    from conftest import permuted
    from hyperbmc import models as gen

    def spec(text):
        return hl.negate(parse_formula(gen.builtin_spec(text).formula))

    cases = {
        "bakery2": (lambda: gen.gen_bakery(2), spec("symmetry"), oracle.PES, 4),
        "nonrep-incorrect": (lambda: gen.gen_nonrepudiation("incorrect"),
                             spec("fair_nonrepudiation"), oracle.HPES, 15),
        "nonrep-correct": (lambda: gen.gen_nonrepudiation("correct"),
                           spec("fair_nonrepudiation"), oracle.HOPT, 15),
        "bakery3": (lambda: gen.gen_bakery(3), spec("symmetry"), oracle.PES, 4),
        "grid10": (lambda: gen.gen_grid(*gen.parse_grid_map(gen.PAPER_GRID_10)),
                   normalize(parse_formula(gen.builtin_spec("shortest_path").formula)), oracle.CLASSIC, 20),
    }
    make, formula, sem, k = cases[name]
    model = make()
    if seed is not None:
        rng = random.Random(seed)
        before = {"nonrep-incorrect": ["bakery2"], "nonrep-correct": ["bakery2", "nonrep-incorrect"]}
        for other in before.get(name, []):
            permuted(cases[other][0](), rng)
        model = permuted(model, rng)
    return model, formula, sem, k


def _orders(model, formula):
    return state_orders({v: model for _, v in formula.prefix}, formula)


def test_label_order_is_chosen_where_it_shrinks_the_label_tables():
    label, declared = [], []
    for name, seed in [("nonrep-incorrect", None), ("nonrep-correct", None),
                       ("nonrep-incorrect", 1), ("nonrep-correct", 1), ("bakery2", 1),
                       ("bakery2", None), ("bakery3", None), ("grid10", None), ("grid10", 1)]:
        model, formula, _, _ = _paper_model(name, seed)
        orders = _orders(model, formula)
        (order,) = set(orders.values())  # both traces share one order
        (label if order != model.states else declared).append((name, seed))
        if order != model.states:
            read = {b.ap for b in hl.walk(formula.body) if isinstance(b, (Atom, hl.NegAtom))}
            assert order == label_order(model, [ap for ap in model.aps if ap in read])
    assert label == [("nonrep-incorrect", None), ("nonrep-correct", None),
                     ("nonrep-incorrect", 1), ("nonrep-correct", 1), ("bakery2", 1)]
    assert declared == [("bakery2", None), ("bakery3", None), ("grid10", None), ("grid10", 1)]
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "data", "fig_acyclic.kr")) as fh:
        fig = parse_kripke(fh.read())
    formula = normalize(parse_formula("forall A. exists B. G (a[A] <-> a[B])"))
    assert _orders(fig, formula) == {"A": fig.states, "B": fig.states}


def test_label_order_sorts_by_label_then_halting():
    m = parse_kripke(
        "ap a b c; states s0 s1 s2 s3 s4 s5; init s0; halt s1 s4; "
        "label s0 {}; label s1 {a}; label s2 {b}; label s3 {a}; label s4 {a,b,c}; label s5 {a,b}; "
        "trans s0 -> s1; trans s1 -> s1; trans s2 -> s3; trans s3 -> s4; trans s4 -> s4; trans s5 -> s0;"
    )
    # over a and b, a the least significant bit: {a,b} = 3, {b} = 2, {a} = 1
    assert label_order(m, ["a", "b"]) == ("s5", "s4", "s2", "s3", "s1", "s0")
    assert label_order(m, []) == ("s0", "s2", "s3", "s5", "s1", "s4")


def _solver_nodes(monkeypatch, model, formula, sem, k, orders):
    """Nodes in the arena of the builtin solver's manager at the end of the solve."""
    from hyperbmc import bdd

    managers = []
    init = bdd.BDD.__init__

    def recorded(self, *args):
        init(self, *args)
        managers.append(self)

    monkeypatch.setattr(bdd.BDD, "__init__", recorded)
    models = {v: model for _, v in formula.prefix}
    layout = build_layout(models, formula, k, orders)
    q = assemble_qbf(formula, models, k, sem, layout=layout)
    solve(q)
    (mgr,) = managers
    assert len(mgr) < bdd.GC_MIN_NODES  # never collected: its size is its peak
    return len(mgr)


def test_node_counts_in_declaration_and_chosen_order(monkeypatch):
    # the benchmark's seed-1 models at the largest bound each check solves
    want = {
        "nonrep-incorrect": (40_566, 16_823),
        "nonrep-correct": (42_949, 16_001),
        "bakery2": (1_524, 960),
        "grid10": (578, 578),
    }
    got = {}
    for name in want:
        model, formula, sem, k = _paper_model(name, 1)
        declared = {v: model.states for _, v in formula.prefix}
        chosen = _orders(model, formula)
        got[name] = tuple(_solver_nodes(monkeypatch, model, formula, sem, k, o) for o in (declared, chosen))
    assert got == want


_ORDER_PROBE = """
import test_encoder
for name in ("bakery2", "nonrep-incorrect", "nonrep-correct", "grid10"):
    model, formula, _, _ = test_encoder._paper_model(name, 1)
    print(name, test_encoder._orders(model, formula))
"""


def test_state_orders_do_not_depend_on_hashing():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _ORDER_PROBE],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]), PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert runs[0] == runs[1]
    assert runs[0].count("\n") == 4
