"""The backward pass over the innermost trace's reachable codes (qbf._links, qbf._backward).

Each differential compiles the innermost block twice in one BDD manager:
once by the pass and once by the stop machinery, which the tests force by
making the link finder find nothing. BDD handles are canonical, so the
two must be the same handle. Some also compile the matrix without a
quantifier and quantify the block in one call, which must give that
handle too. The arena may be collected between the compiles; each result
is pinned across every collection.
"""

import os
import random
import sys

import pytest

from hyperbmc import bdd, circuit, oracle, qbf
from hyperbmc.circuit import Circuit
from hyperbmc import hyperltl as hl
from hyperbmc.encoder import assemble_qbf
from hyperbmc.hyperltl import negate, normalize, parse_formula
from hyperbmc.kripke import parse_kripke
from hyperbmc.models import PAPER_GRID_10, builtin_spec, gen_bakery, gen_grid, gen_nonrepudiation, parse_grid_map

from conftest import COMPLETE_KR, check_result, permuted, rand_instance

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
AE = "forall A. exists B. G (a[A] <-> a[B])"
# symmetry on three-process bakery: the two-process formula, with P2's
# propositions agreeing on both traces
SYMMETRY3 = (
    "forall A. exists B. G ((selectP0[A] <-> selectP1[B]) & (selectP1[A] <-> selectP0[B])"
    " & (pause[A] <-> pause[B]) & (pcP0_0[A] <-> pcP1_0[B]) & (pcP0_1[A] <-> pcP1_1[B])"
    " & (pcP1_0[A] <-> pcP0_0[B]) & (pcP1_1[A] <-> pcP0_1[B])"
    " & (selectP2[A] <-> selectP2[B]) & (pcP2_0[A] <-> pcP2_0[B]) & (pcP2_1[A] <-> pcP2_1[B]))"
)
# two alternations on bakery2: the innermost quantifier passes every gate
# that only the body below the middle trace brings its block into
THREE_TRACES = (
    "exists A. forall B. exists C. G (pause[A] <-> pause[C])",
    "forall A. exists B. forall C. G ((pause[A] <-> pause[B]) | (pause[C] <-> pause[B]))",
)
# the bundled checks whose body folds to a constant beside the inner
# trace's unrolling, so that the quantifier stops at the unrolling alone
FOLDED = {"bakery2 k=0", "mutation k=0 pes", "complete k=0"}


def _count(monkeypatch, name, module=qbf):
    """Patch the function `name` of `module` to count its calls; returns the one-element count list."""
    calls = [0]
    function = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _split_parts(monkeypatch, circ):
    """Patch qbf._links to list the quantifier of each split part it cuts; returns that list.

    A stop's children are one gate's operands. A part of a split stop,
    beside the stop's other operands over the block, is not.
    """
    gates = {circ.payloads[n] for n in range(len(circ)) if circ.kinds[n] in (circuit.K_AND, circuit.K_OR)}
    cut = []
    finder = qbf._links

    def counted(circ, operands, quant, qmask):
        chain = finder(circ, operands, quant, qmask)
        if chain is not None and tuple(sorted(operands)) not in gates:
            cut.append(quant)
        return chain

    monkeypatch.setattr(qbf, "_links", counted)
    return cut


def _both_ways(monkeypatch, q, whole=False):
    """(the pass's handle, the stop machinery's handle, the passes run, the split parts cut, the products made).

    All for q's innermost block; the split parts are listed by their
    quantifier (_split_parts). A compile that makes no product never
    builds the innermost trace's unrolling, the guard of the products.
    With `whole`, the stop machinery's handle is also checked against the
    matrix built whole with the block quantified in one call, which
    shares no stop with either.
    """
    mgr = bdd.BDD()
    kept = {}
    collect = mgr.collect

    def collect_kept(pinned):
        both = {("kept", name): f for name, f in kept.items()}
        both.update(pinned)
        collect(both)
        pinned.update((name, both[name]) for name in pinned)
        kept.update((name, both[("kept", name)]) for name in kept)

    mgr.collect = collect_kept
    quant, variables = q.blocks[-1]
    mode = qbf._EXISTS if quant == qbf.EXISTS else qbf._FORALL
    built = set()  # the keys of the (node, quantifier) pairs that the pass's compile builds
    run = mgr.run
    mgr.run = lambda pinned, operation, key: built.add(key) or run(pinned, operation, key)
    with monkeypatch.context() as m:
        calls = _count(m, "_backward")
        parts = _split_parts(m, q.circuit)
        quantified = _count(m, "quantify", mgr)
        kept["pass"] = qbf._compile(q.circuit, mgr, q.matrix, mode, variables)
        ran, products = calls[0], quantified[0]
        mgr.run = run
        m.setattr(qbf, "_links", lambda *args: None)
        kept["stop"] = qbf._compile(q.circuit, mgr, q.matrix, mode, variables)
    if whole:
        op, unit = (bdd.AND, bdd.TRUE) if mode == qbf._EXISTS else (bdd.OR, bdd.FALSE)
        assert mgr.quantify(op, qbf._compile(q.circuit, mgr, q.matrix), unit, variables) == kept["stop"]
    assert len(parts) <= ran
    qmask = sum(1 << v for v in variables)
    assert products or not built & {3 * u for u in q.circuit.unrollings if q.circuit.masks[u] == qmask}
    return kept["pass"], kept["stop"], ran, parts, products


def _assemble(formula, models, k, sem):
    formula = normalize(formula)
    return assemble_qbf(formula, {v: models[v] for _, v in formula.prefix}, k, sem)


def _grid10(seed):
    return permuted(gen_grid(*parse_grid_map(PAPER_GRID_10)), random.Random(seed))


def _load(name):
    with open(os.path.join(DATA, name)) as fh:
        return parse_kripke(fh.read())


def _bundled_cases():
    """(name, formula, models, k, semantics) of every bundled check the pass takes."""
    shortest = parse_formula(builtin_spec("shortest_path").formula)
    symmetry = negate(parse_formula(builtin_spec("symmetry").formula))
    mutation = parse_formula(builtin_spec("mutation").formula)
    complete = parse_kripke(COMPLETE_KR)
    bakery = gen_bakery(2)
    mutant, original = _load("mutation_mutant.kr"), _load("mutation_original.kr")
    for seed in (1, 2):
        grid = _grid10(seed)
        yield f"grid10 seed {seed}", shortest, {"A": grid, "B": grid}, 20, oracle.CLASSIC
    for k in range(6):
        yield f"bakery2 k={k}", symmetry, {"A": bakery, "B": bakery}, k, oracle.PES
    for i, formula in enumerate(THREE_TRACES):
        for k in range(1, 6):
            yield f"bakery2 three traces {i} k={k}", parse_formula(formula), dict.fromkeys("ABC", bakery), k, oracle.OPT
    bakery3 = gen_bakery(3)
    for k in range(1, 5):
        yield f"bakery3 k={k}", negate(parse_formula(SYMMETRY3)), {"A": bakery3, "B": bakery3}, k, oracle.PES
    for k in range(5):
        for sem in (oracle.PES, oracle.OPT):
            yield f"mutation k={k} {sem}", mutation, {"A": mutant, "B": original}, k, sem
    for k in (0, 1, 2, 5, 15):
        yield f"complete k={k}", parse_formula(AE), {"A": complete, "B": complete}, k, oracle.OPT


@pytest.mark.parametrize("case", list(_bundled_cases()), ids=lambda case: case[0])
def test_pass_equals_stops_on_bundled_checks(case, arena, monkeypatch):
    name, formula, models, k, sem = case
    q = _assemble(formula, models, k, sem)
    by_pass, by_stops, ran, parts, _ = _both_ways(monkeypatch, q)
    assert (ran, parts) == (name not in FOLDED, [])
    assert by_pass == by_stops


# the parts of negated fair non-repudiation's split stop that the pass
# takes, per semantics: under the halting ones G !m[P], G !nrr[P] and
# G !nro[P], which read Q only through its halting at the bound. Under
# pes and classic every disjunct is a G, FALSE at the bound, so the
# matrix folds and the quantifier meets no stop.
NONREP_PARTS = {oracle.PES: 0, oracle.OPT: 1, oracle.HPES: 3, oracle.HOPT: 3, oracle.CLASSIC: 0}


@pytest.mark.parametrize("variant", ["incorrect", "correct"])
@pytest.mark.parametrize("k", [3, 5, 15])
@pytest.mark.parametrize("sem", oracle.SEMANTICS)
def test_split_parts_take_the_pass_on_nonrepudiation(variant, k, sem, arena, monkeypatch):
    # the link finder gives up on the whole stop, and cuts the parts that
    # reach Q through one link per step: the handle is the products', and
    # the whole body's
    formula = negate(parse_formula(builtin_spec("fair_nonrepudiation").formula))
    model = gen_nonrepudiation(variant)
    q = _assemble(formula, {"P": model, "Q": model}, k, sem)
    by_pass, by_stops, ran, parts, _ = _both_ways(monkeypatch, q, whole=True)
    assert ran == len(parts) == NONREP_PARTS[sem]
    assert by_pass == by_stops


@pytest.mark.parametrize("case", list(_bundled_cases()), ids=lambda case: case[0])
def test_each_table_is_walked_once_per_solve(case, monkeypatch):
    # the outer trace's walk, the inner trace's pass and any path set read
    # one walk of each (initial table, step table, steps), where the walk
    # and the pass used to walk the table of a model they share twice; a
    # body that folds to a constant decides the value without any
    name, formula, models, k, sem = case
    q = _assemble(formula, models, k, sem)
    walks = []
    live_codes = circuit.live_codes

    def counted(*args):
        walks.append(args)
        return live_codes(*args)

    monkeypatch.setattr(circuit, "live_codes", counted)
    qbf.solve(q)
    tables = {(init, step, steps) for init, step, _, _, steps in q.circuit.unrollings.values()}
    assert len(walks) == len(set(walks)) == (0 if name in FOLDED else len(tables))


@pytest.mark.parametrize("capped", [False, True])
def test_solve_leaves_no_live_map_on_the_circuit(capped, monkeypatch):
    # the driver keeps solved QBFs for reporting, so the live maps that a
    # solve reads are dropped when it ends, also when the node cap stops
    # it (here in the outer walk, the last reader); the next solve of the
    # same QBF walks its tables again
    walks = _count(monkeypatch, "live_codes", circuit)
    if capped:
        def capped_walk(self, *args):
            raise bdd.NodeCapError(len(self))

        monkeypatch.setattr(bdd.BDD, "walk", capped_walk)
    model = gen_nonrepudiation("correct")
    formula = negate(parse_formula(builtin_spec("fair_nonrepudiation").formula))
    q = _assemble(formula, {"P": model, "Q": model}, 15, oracle.HOPT)
    for solves in (1, 2):
        if capped:
            with pytest.raises(qbf.ResourceLimitError):
                qbf.solve(q)
        else:
            qbf.solve(q)
        assert q.circuit._live == {}
        assert walks[0] == solves


def _random_pass_counts(monkeypatch, seed, draws, blocks):
    """Counts of the pass over criterion 1's instances with `blocks` quantifier blocks.

    The instances are tests/test_acceptance.py's, under every semantics
    and both release rules; each has one trace per quantifier, so the
    innermost block is one trace. Returns (instances the pass takes,
    instances it does not, instances where it takes a split part, those
    of them that make no product, the quantifier of each split part it
    takes).
    """
    rng = random.Random(seed)
    taken = other = split = whole = 0
    parts = []
    for _ in range(draws):
        models, formula = rand_instance(rng, max_quants=blocks, depth=3, halting=True)
        k = rng.randint(0, 3)
        for sem in oracle.SEMANTICS:
            for literal in (False, True):
                q = assemble_qbf(formula, models, k, sem, literal)
                if len(q.blocks) < blocks:
                    continue
                by_pass, by_stops, ran, cut, products = _both_ways(monkeypatch, q, whole=True)
                assert by_pass == by_stops, (sem, literal, k, hl.render_formula(formula))
                taken += ran > 0
                other += not ran
                split += bool(cut)
                whole += bool(cut) and not products
                parts += cut
    return taken, other, split, whole, parts


def test_pass_equals_stops_on_random_instances(arena, monkeypatch):
    # besides whole stops, parts of split stops take the pass, under
    # both quantifiers; a compile that tried the pass on whole stops only
    # would cut no part. Where every part takes it, the inner trace's
    # unrolling is never built (_both_ways).
    taken, other, split, whole, parts = _random_pass_counts(monkeypatch, 101, 1000, 2)
    assert taken >= 400
    assert other >= 400
    assert split >= 20
    assert whole >= 10
    assert parts.count(qbf._EXISTS) >= 25 and parts.count(qbf._FORALL) >= 10


def test_pass_equals_stops_on_three_block_instances(arena, monkeypatch):
    # the innermost quantifier passes the gates that only the middle
    # trace's body brings its block into, down to the pass: 46 of the 120
    # three-block instances at this seed; a quantifier that stopped at the
    # first such gate would reach none
    taken, other, _, _, _ = _random_pass_counts(monkeypatch, 102, 400, 3)
    assert taken >= 40
    assert other >= 40


def test_several_links_keep_the_stops(monkeypatch):
    # fair non-repudiation, robustness and non-interference each read the
    # inner trace through two temporal chains from step 0: the link finder
    # gives up on the whole stop there. Non-repudiation's stop splits into
    # five parts: G !m[P], G !nrr[P] and G !nro[P] reach Q through one
    # link per step and take the pass, and the two parts with several
    # links keep their products. The other two do not split, and their one
    # part keeps the product.
    grid = gen_grid(3, 1, set(), [(0, 0), (1, 0)], {(2, 0)})
    secure = _load("ni_secure.kr")
    nonrep = negate(parse_formula(builtin_spec("fair_nonrepudiation").formula))
    cases = [
        (nonrep, gen_nonrepudiation("incorrect"), 15, oracle.HPES, 3, 2),
        (nonrep, gen_nonrepudiation("correct"), 15, oracle.HOPT, 3, 2),
        (parse_formula(builtin_spec("robustness").formula), grid, 4, oracle.HPES, 0, 1),
        (parse_formula(builtin_spec("non_interference").formula), secure, 3, oracle.HPES, 0, 1),
    ]
    finder = qbf._links
    found = []

    def counted(*args):
        found.append(finder(*args))
        return found[-1]

    monkeypatch.setattr(qbf, "_links", counted)
    backward = _count(monkeypatch, "_backward")
    quantified = [0]
    quantify = bdd.BDD.quantify

    def counted_quantify(self, *args):
        quantified[0] += 1
        return quantify(self, *args)

    monkeypatch.setattr(bdd.BDD, "quantify", counted_quantify)
    for formula, model, k, sem, passes, products in cases:
        q = _assemble(formula, {"A": model, "B": model, "P": model, "Q": model}, k, sem)
        found.clear()
        backward[0] = quantified[0] = 0
        qbf.solve(q)
        assert found[0] is None
        assert len(found) == 1 + passes + products
        assert (backward[0], quantified[0]) == (passes, products)


def test_pass_at_a_deep_bound_keeps_recursion_limit(monkeypatch):
    complete = parse_kripke(COMPLETE_KR)
    q = _assemble(parse_formula(AE), {"A": complete, "B": complete}, 3000, oracle.OPT)
    backward = _count(monkeypatch, "_backward")
    limit = sys.getrecursionlimit()
    r = qbf.solve(q)
    assert backward[0] == 1
    assert r.value is True
    assert sys.getrecursionlimit() == limit


def test_link_finder_gives_up_at_the_first_step(monkeypatch):
    # non-repudiation's whole stop, and two parts of its split, have two
    # links at step 0, so each time the finder reads the masks of a few
    # dozen nodes there, stops at the second, and never walks the rest of
    # the body
    formula = negate(parse_formula(builtin_spec("fair_nonrepudiation").formula))
    model = gen_nonrepudiation("correct")
    q = _assemble(formula, {"P": model, "Q": model}, 15, oracle.HOPT)

    class Counted(list):
        reads = 0

        def __getitem__(self, i):
            Counted.reads += 1
            return list.__getitem__(self, i)

    finder = qbf._links
    results = []

    def counted(circ, *args):
        masks, circ.masks = circ.masks, Counted(circ.masks)
        Counted.reads = 0
        try:
            chain = finder(circ, *args)
        finally:
            circ.masks = masks
        results.append((chain is not None, Counted.reads))
        return chain

    monkeypatch.setattr(qbf, "_links", counted)
    qbf.solve(q)
    # the whole stop, then its five parts: three are cut, two give up
    assert [cut for cut, _ in results] == [False, True, True, True, False, False]
    assert all(0 < reads * 20 < len(q.circuit) for cut, reads in results if not cut)


def _one_bit_trace(step_rows, body):
    """∃x0 ∀B. body, B one bit at each of the steps 0..2 (variables 1..3), starting at code 0.

    `step_rows` are B's transitions, each a source code OR its target's
    shifted by one; body(c, x0, b) builds the body from x0 and B's
    variables b. Returns the QBF and the stop, the OR of the NOT of B's
    unrolling and the body.
    """
    c = Circuit()
    u = c.unrolling(c.table((0,), [0]), c.table((0, 1), step_rows), 1, 1, 2)
    assert u in c.unrollings
    stop = c.or_([c.not_(u), body(c, c.var(0), [c.var(v) for v in (1, 2, 3)])])
    blocks = [(qbf.EXISTS, (0,)), (qbf.FORALL, (1, 2, 3))]
    return qbf.make_prenex(c, blocks, stop, {v: f"x{v}" for v in range(4)}), stop


def test_link_under_a_not_keeps_the_stops(monkeypatch):
    # NOT ((x0 AND NOT b0) OR b1): step 0's slice falls as its link b1
    # rises, so V = F0 OR (F1 AND W) would not hold; the stops take it
    q, stop = _one_bit_trace([0b00, 0b10, 0b01, 0b11],
                             lambda c, x0, b: c.not_(c.or_([c.and_([x0, c.not_(b[0])]), b[1]])))
    assert qbf._links(q.circuit, q.circuit.children(stop), qbf._FORALL, 0b1110) is None
    backward = _count(monkeypatch, "_backward")
    r = qbf.solve(q)
    assert backward[0] == 0
    check_result(q, r)


def test_codes_without_a_path_to_the_bound_are_left_out(monkeypatch):
    # code 1 has no successor, so no path of B passes it at step 1: every
    # path has b1 false, and (x0 OR NOT b0) AND NOT b1 holds on all of them
    q, _ = _one_bit_trace([0b00, 0b10],
                          lambda c, x0, b: c.and_([c.or_([x0, c.not_(b[0])]), c.not_(b[1])]))
    backward = _count(monkeypatch, "_backward")
    r = qbf.solve(q)
    assert backward[0] == 1
    assert r.value is True
    check_result(q, r)
