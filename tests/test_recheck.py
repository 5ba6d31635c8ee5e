"""The backward tableau re-check against the oracle's prefix enumeration."""

import random

import pytest

from hyperbmc import hyperltl as hl
from hyperbmc import oracle, recheck
from hyperbmc.hyperltl import parse_formula
from hyperbmc.kripke import enumerate_prefixes, parse_kripke

from conftest import rand_instance

CYCLE = parse_kripke(
    "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; trans s0 -> s1; trans s1 -> s0;"
)
COMPLETE = parse_kripke(
    "ap a; states s0 s1; init s0; label s0 {a}; label s1 {};"
    " trans s0 -> s0; trans s0 -> s1; trans s1 -> s0; trans s1 -> s1;"
)


def test_tableau_equals_oracle_on_random_instances():
    # criterion 1's instances with up to three quantifiers, each with a
    # random leading block (of the first one) pinned to random prefixes
    rng = random.Random(2025)
    compared = at_bound_zero = mixed = fell_back = 0
    for _ in range(800):
        models, formula = rand_instance(rng, max_quants=3, depth=3, halting=True)
        k = rng.randint(0, 3)
        first = formula.prefix[0][0]
        block = next((j for j, (q, _) in enumerate(formula.prefix) if q != first), len(formula.prefix))
        pinned = rng.randint(0, block)
        witness = {v: rng.choice(enumerate_prefixes(models[v], k)) for _, v in formula.prefix[:pinned]}
        if len({q for q, _ in formula.prefix[pinned:]}) > 1:
            with pytest.raises(oracle.OracleError, match="more than one quantifier block"):
                recheck.verify_witness(witness, models, formula, k, oracle.PES)
            fell_back += 1
            continue
        for sem in oracle.SEMANTICS + (oracle.CLASSIC_DUAL,):
            for literal in (False, True):
                want = oracle.verify_witness(witness, models, formula, k, sem, literal)
                got = recheck.verify_witness(witness, models, formula, k, sem, literal)
                assert got == want, (sem, literal, k, pinned, hl.render_formula(formula))
                compared += 1
                at_bound_zero += k == 0
                mixed += 0 < pinned < len(formula.prefix)
    assert compared >= 6000
    assert at_bound_zero >= 1200
    assert mixed >= 2000  # some traces pinned, some left to the tableau
    assert fell_back >= 150


def test_halt_status_reads_pinned_and_residual_traces():
    # at k=1, X X false holds under hopt iff some trace has not halted at
    # step 1: the pinned A's status and B's both count, though the body
    # reads neither trace
    fork = parse_kripke(
        "ap a; states s0 s1 s2; init s0; halt s1; label s0 {a}; label s1 {}; label s2 {};"
        " trans s0 -> s1; trans s0 -> s2; trans s1 -> s1; trans s2 -> s2;"
    )
    models = {"A": fork, "B": fork}
    halted, running = (p for p in enumerate_prefixes(fork, 1))
    assert halted.halted == (False, True) and running.halted == (False, False)
    for quant, a, want in (
        (hl.FORALL, running, True),
        (hl.FORALL, halted, False),
        (hl.EXISTS, halted, True),
    ):
        f = hl.normalize(parse_formula(f"exists A. {quant} B. X X false"))
        assert recheck.verify_witness({"A": a}, models, f, 1, oracle.HOPT) is want
        assert oracle.verify_witness({"A": a}, models, f, 1, oracle.HOPT) is want
        assert recheck.verify_witness({"A": a}, models, f, 1, oracle.HPES) is False


def test_deep_bound_does_not_recurse():
    # one evaluation per step and signature, none of them recursive
    f = hl.normalize(parse_formula("exists A. forall B. G (a[A] <-> X !a[B])"))
    a = enumerate_prefixes(CYCLE, 3000)[0]
    assert recheck.verify_witness({"A": a}, {"A": CYCLE, "B": CYCLE}, f, 3000, oracle.OPT) is True
    assert recheck.verify_witness({"A": a}, {"A": CYCLE, "B": CYCLE}, f, 3000, oracle.PES) is False
    g = hl.normalize(parse_formula("exists A. G (a[A] | !a[A])"))
    assert recheck.verify_witness({}, {"A": CYCLE}, g, 3000, oracle.OPT) is True


def test_guard_counts_entries(monkeypatch):
    # B ranges over 2^20 prefixes, more than the oracle's cap, while the
    # tableau keeps two tuples per step with one vector each
    f = hl.normalize(parse_formula("exists A. forall B. F (a[A] & !a[B])"))
    models = {"A": CYCLE, "B": COMPLETE}
    a = enumerate_prefixes(CYCLE, 20)[0]
    with pytest.raises(oracle.ExplosionGuardError):
        oracle.verify_witness({"A": a}, models, f, 20, oracle.PES)
    assert recheck.verify_witness({"A": a}, models, f, 20, oracle.PES) is False
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 40)
    with pytest.raises(oracle.ExplosionGuardError) as e:
        recheck.verify_witness({"A": a}, models, f, 20, oracle.PES)
    assert e.value.count > 40


def test_rejected_inputs():
    f = hl.normalize(parse_formula("exists A. forall B. a[A] & a[B]"))
    models = {"A": CYCLE, "B": CYCLE}
    a = enumerate_prefixes(CYCLE, 1)[0]
    with pytest.raises(oracle.OracleError, match="unknown semantics"):
        recheck.verify_witness({"A": a}, models, f, 1, "bogus")
    with pytest.raises(oracle.OracleError, match="negative"):
        recheck.verify_witness({"A": a}, models, f, -1, oracle.PES)
    with pytest.raises(oracle.OracleError, match="leading block"):
        recheck.verify_witness({"B": a}, models, f, 1, oracle.PES)
    with pytest.raises(oracle.OracleError, match="more than one quantifier block"):
        recheck.verify_witness({}, models, f, 1, oracle.PES)
