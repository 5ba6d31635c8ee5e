"""The outer block decided by a walk through the inner result (BDD.walk, qbf._decide).

The walk differentials decide each QBF twice in one BDD manager: once by
the walk and once by the path-set route, which builds the outer trace's
unrolling with BDD.paths, meets it with the rest and reads BDD.path off
the result. The tests force that route by making the outer unrolling
finder find nothing. Both must give the same value and the same outer
witness.

The reference differential compares check()'s value with the backward
tableau of recheck.py, which decides a formula of one quantifier block
outright, on models and bounds too large for the oracle to enumerate.
"""

import random

import pytest

from hyperbmc import bdd, oracle, qbf
from hyperbmc.circuit import live_codes
from hyperbmc import hyperltl as hl
from hyperbmc import recheck
from hyperbmc.driver import CheckConfig, check
from hyperbmc.encoder import assemble_qbf
from hyperbmc.hyperltl import negate, parse_formula
from hyperbmc.kripke import HALT_AP, parse_kripke
from hyperbmc.models import builtin_spec, gen_bakery, gen_grid, gen_nonrepudiation, parse_grid_map

from conftest import COMPLETE_KR, check_result, grid_map, rand_body, rand_instance
from test_backward import AE, SYMMETRY3, _assemble, _bundled_cases, _grid10
from test_qbf import _count_calls, rand_chain_prenex


def _both_routes(monkeypatch, q):
    """(the walk's SolveResult, the path-set route's, whether the walk's route ran) for q, in one manager."""
    mgr = bdd.BDD()
    walked = qbf._decide(q, mgr)
    with monkeypatch.context() as m:
        m.setattr(qbf, "_outer_unrolling", lambda *args: None)
        by_paths = qbf._decide(q, mgr)
    return walked, by_paths, qbf._outer_unrolling(q.circuit, q.matrix, *q.blocks[0]) is not None


def _walk_cases():
    """(name, formula, models, k, semantics) of the bundled checks and of one-trace plans; each outer block is one trace."""
    yield from _bundled_cases()
    fair = negate(parse_formula(builtin_spec("fair_nonrepudiation").formula))
    for variant, sem in (("incorrect", oracle.HPES), ("correct", oracle.HOPT)):
        model = gen_nonrepudiation(variant)
        yield f"nonrep {variant} k=15", fair, {"P": model, "Q": model}, 15, sem
    bakery3 = gen_bakery(3)
    yield "bakery3 k=5", negate(parse_formula(SYMMETRY3)), {"A": bakery3, "B": bakery3}, 5, oracle.PES
    complete = parse_kripke(COMPLETE_KR)
    for k in (3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14):
        yield f"complete k={k}", parse_formula(AE), {"A": complete, "B": complete}, k, oracle.OPT
    grid = _grid10(1)
    for text in ("exists A. F goal[A]", "forall A. G !goal[A]"):
        yield f"grid10 {text}", parse_formula(text), {"A": grid}, 20, oracle.CLASSIC
    grid = gen_grid(*parse_grid_map(grid_map(20)))
    shortest = parse_formula(builtin_spec("shortest_path").formula)
    yield "grid20 k=40", shortest, {"A": grid, "B": grid}, 40, oracle.CLASSIC


@pytest.mark.parametrize("case", list(_walk_cases()), ids=lambda case: case[0])
def test_walk_equals_paths_on_bundled_checks(case, arena, monkeypatch):
    name, formula, models, k, sem = case
    q = _assemble(formula, models, k, sem)
    walked, by_paths, ran = _both_routes(monkeypatch, q)
    assert ran
    assert walked == by_paths


def test_walk_equals_paths_on_random_instances(arena, monkeypatch):
    # criterion 1's instances, under every semantics and both release rules
    rng = random.Random(101)
    taken = other = witnesses = 0
    for _ in range(300):
        models, formula = rand_instance(rng, max_quants=2, depth=3, halting=True)
        k = rng.randint(0, 3)
        for sem in oracle.SEMANTICS:
            for literal in (False, True):
                q = assemble_qbf(formula, models, k, sem, literal)
                if not q.blocks:
                    continue
                walked, by_paths, ran = _both_routes(monkeypatch, q)
                assert walked == by_paths, (sem, literal, k, hl.render_formula(formula))
                taken += ran
                other += not ran
                witnesses += ran and walked.outer_witness is not None
    assert taken >= 1000
    assert other >= 300
    assert witnesses >= 500


def test_walk_equals_paths_on_chained_qbfs(arena, monkeypatch, rng):
    # 2-3 blocks, each guarded by an unrolling or a near miss of one, over
    # random matrices; criterion 4's QBFs record no unrolling, so the walk
    # never runs on them
    taken = 0
    for _ in range(300):
        q, _, _ = rand_chain_prenex(rng)
        walked, by_paths, ran = _both_routes(monkeypatch, q)
        assert walked == by_paths
        check_result(q, walked)
        taken += ran
    assert taken >= 30


def _one_bit(init_rows, step_rows):
    """paths' and walk's arguments for a one-bit code at each of the levels 0..2."""
    return (0,), live_codes(1, init_rows, step_rows, 2), 0, 1


def test_walk_on_one_bit_tables():
    # one bit per step, codes 0 and 1 at each of steps 0..2, every
    # transition allowed; f holds where step 1's bit is set and, if step 0's
    # bit is clear, step 2's bit is set too
    mgr = bdd.BDD()
    b0, b1, b2 = (mgr.var(v) for v in (0, 1, 2))
    f = mgr.join(bdd.AND, [b1, mgr.join(bdd.OR, [b0, b2])])
    args = _one_bit((0, 1), (0b00, 0b01, 0b10, 0b11))
    assert mgr.walk(f, bdd.TRUE, *args) == {0: False, 1: True, 2: True}
    assert mgr.walk(f, bdd.TRUE, *args) == mgr.path(mgr.join(bdd.AND, [f, mgr.paths(*args)]), bdd.TRUE)
    assert mgr.walk(f, bdd.FALSE, *args) == {0: False, 1: False, 2: False}
    # code 1 has no successor, so no path has step 1's bit set
    assert mgr.walk(f, bdd.TRUE, *_one_bit((0, 1), (0b00, 0b10))) is None
    # no path reaches step 2 at all
    assert mgr.walk(bdd.TRUE, bdd.TRUE, *_one_bit((0,), (0b01,))) is None
    # transitions 0 -> 0, 0 -> 1 and 1 -> 1; g holds where step 1's bit is
    # set and step 2's equals step 0's. Code 1 at step 1 is dead after code
    # 0 at step 0 (g needs step 2's bit clear) and live after code 1, so a
    # dead triple must hold g's node, not the code alone
    n0, n2 = mgr.copy(b0, 0, True), mgr.copy(b2, 0, True)
    g = mgr.join(bdd.AND, [b1, mgr.join(bdd.OR, [mgr.join(bdd.AND, [b0, b2]), mgr.join(bdd.AND, [n0, n2])])])
    args = _one_bit((0, 1), (0b00, 0b10, 0b11))
    assert mgr.walk(g, bdd.TRUE, *args) == {0: True, 1: True, 2: True}


def test_check_equals_tableau_at_scale(monkeypatch):
    # one-block formulas over a 20×20 map (1,049 states) and three-process
    # bakery (792 states); one-trace formulas up to k = 2n, two-trace ones
    # at small bounds, where the tableau's pairs of states stay below its
    # cap. Bakery declares no halt state, so it takes no halting semantics.
    grid = gen_grid(*parse_grid_map(grid_map(20)))
    bakery3 = gen_bakery(3)
    settings = [
        (grid, oracle.SEMANTICS, 40, 8),
        (bakery3, (oracle.PES, oracle.OPT, oracle.CLASSIC), 6, 2),
    ]
    walks = _count_calls(monkeypatch, "walk")
    rng = random.Random(7)
    values = {True: 0, False: 0}
    for model, semantics, one_trace_k, two_trace_k in settings:
        aps = [*model.aps, HALT_AP]
        for sem in semantics:
            for literal in (False, True):
                for traces, k_max, draws in (("A", one_trace_k, 3), ("AB", two_trace_k, 2)):
                    for _ in range(draws):
                        quant = rng.choice([hl.EXISTS, hl.FORALL])
                        body = rand_body(rng, list(traces), aps, rng.randint(1, 3))
                        formula = hl.normalize(hl.HyperFormula(prefix=tuple((quant, v) for v in traces), body=body))
                        models = dict.fromkeys(traces, model)
                        k = rng.randint(0, k_max)
                        want = recheck.verify_witness({}, models, formula, k, sem, literal)
                        cfg = CheckConfig(formula=formula, models=models, k_from=k, k_max=k,
                                          semantics=sem, paper_literal=literal)
                        got = check(cfg).qbf_value
                        assert got == want, (sem, literal, k, hl.render_formula(formula))
                        values[got] += 1
    assert walks[0] >= 25
    assert min(values.values()) >= 15
