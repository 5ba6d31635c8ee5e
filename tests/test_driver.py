import dataclasses

import pytest

from hyperbmc import hyperltl as hl
from hyperbmc import oracle, qbf
from hyperbmc.driver import (
    FAILS,
    HOLDS,
    UNKNOWN,
    CheckConfig,
    ConfigError,
    InvalidWitnessError,
    check,
    extract_witness,
    format_witness,
    interpret,
    resolve_solver,
)
from hyperbmc.encoder import assemble_qbf, build_layout
from hyperbmc.hyperltl import normalize, parse_formula
from hyperbmc.kripke import enumerate_prefixes, parse_kripke
from hyperbmc.qbf import solve

from conftest import halt_depth, rand_acyclic_halting, rand_body

AB_STATE = parse_kripke("ap a b; states s0; init s0; label s0 {a}; trans s0 -> s0;")
CHAIN = parse_kripke(
    "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; trans s0 -> s1; trans s1 -> s1;"
)


def test_interpret_table():
    assert interpret(True, oracle.PES) == HOLDS
    assert interpret(True, oracle.HPES) == HOLDS
    assert interpret(True, oracle.OPT) == UNKNOWN
    assert interpret(False, oracle.OPT) == FAILS
    assert interpret(False, oracle.HOPT) == FAILS
    assert interpret(False, oracle.PES) == UNKNOWN
    assert interpret(True, oracle.CLASSIC) == UNKNOWN
    assert interpret(False, oracle.CLASSIC) == UNKNOWN


def test_falsify_finds_missing_proposition():
    # b never holds, so the negation's eventuality is found immediately
    f = parse_formula("forall A. G b[A]")
    cfg = CheckConfig(
        formula=f, models={"A": AB_STATE}, k_from=0, k_max=3,
        semantics=oracle.PES, negate_first=True,
    )
    v = check(cfg)
    assert v.interpretation == FAILS
    # fulfillment must land strictly inside the bound, hence k=1
    assert v.k == 1
    assert v.qbf_value is True
    assert v.witness is not None
    assert v.witness["A"].states == ("s0", "s0")


def test_one_state_outer_trace_reports_witness():
    # AB_STATE has one state, so A's block is empty and make_prenex drops it;
    # the single path is still the witness of the outer existential
    f = parse_formula("exists A. forall B. F (a[A] & !a[B])")
    cfg = CheckConfig(
        formula=f, models={"A": AB_STATE, "B": CHAIN}, k_from=0, k_max=3,
        semantics=oracle.PES,
    )
    v = check(cfg)
    assert v.interpretation == HOLDS
    assert v.k == 2  # B leaves a at step 1, which must lie strictly inside the bound
    assert v.witness is not None
    assert v.witness["A"].states == ("s0", "s0", "s0")
    # every trace single-state: no blocks at all
    v = check(CheckConfig(formula=parse_formula("exists A. a[A]"), models={"A": AB_STATE},
                          k_from=0, k_max=0, semantics=oracle.PES))
    assert v.interpretation == HOLDS
    assert v.witness["A"].states == ("s0",)


def test_witness_status(monkeypatch):
    f = parse_formula("exists A. forall B. F (a[A] & !a[B])")
    cfg = CheckConfig(
        formula=f, models={"A": AB_STATE, "B": CHAIN}, k_from=0, k_max=3,
        semantics=oracle.PES,
    )
    v = check(cfg)
    assert (v.interpretation, v.witness_status) == (HOLDS, "verified")
    # the explosion guard stops the re-check (B has one prefix, the cap is
    # now below it): same verdict, witness withheld
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 0)
    v = check(cfg)
    assert (v.interpretation, v.k, v.qbf_value) == (HOLDS, 2, True)
    assert v.witness is None
    assert v.witness_status == "unverified"
    # a universal outer quantifier never reports a witness
    v = check(CheckConfig(formula=parse_formula("forall A. a[A]"), models={"A": CHAIN},
                          k_from=0, k_max=1, semantics=oracle.PES))
    assert v.witness is None
    assert v.witness_status is None


def test_prove_mode_stays_unknown_for_safety_body():
    # the negated formula is an eventuality, optimistically always fulfilled,
    # so no bound is conclusive
    f = parse_formula("forall A. G a[A]")
    cfg = CheckConfig(
        formula=f, models={"A": AB_STATE}, k_from=0, k_max=3,
        semantics=oracle.OPT, negate_first=True,
    )
    v = check(cfg)
    assert v.interpretation == UNKNOWN
    assert v.k == 3


def test_raw_pessimistic_holds_with_witness():
    f = parse_formula("exists A. G a[A]")
    # G is never pessimistically established; classic is inconclusive too
    cfg = CheckConfig(
        formula=f, models={"A": AB_STATE}, k_from=0, k_max=2,
        semantics=oracle.PES, negate_first=False,
    )
    assert check(cfg).interpretation == UNKNOWN
    f2 = parse_formula("exists A. F a[A]")
    cfg = CheckConfig(
        formula=f2, models={"A": AB_STATE}, k_from=0, k_max=2,
        semantics=oracle.PES, negate_first=False,
    )
    v = check(cfg)
    assert v.interpretation == HOLDS
    assert v.k == 1
    assert v.witness is not None


def test_mixed_formula_unknown_at_kmax():
    f = parse_formula("forall A. (F a[A]) & (G a[A])")
    cfg = CheckConfig(
        formula=f, models={"A": AB_STATE}, k_from=0, k_max=2,
        semantics=oracle.CLASSIC,
    )
    v = check(cfg)
    assert v.interpretation == UNKNOWN
    assert v.k == 2


def test_classic_sweep_solves_only_kmax(monkeypatch):
    # no bound concludes under classic, so a sweep returns kMax's verdict:
    # it solves that bound alone, and its Verdict, witness included, is the
    # one of the check that starts at kMax
    solved = []
    monkeypatch.setattr(qbf, "solve", lambda q, _solve=qbf.solve: solved.append(q) or _solve(q))
    f = parse_formula("exists A. forall B. F (a[A] & !a[B])")
    cfg = CheckConfig(
        formula=f, models={"A": AB_STATE, "B": CHAIN}, k_from=0, k_max=3,
        semantics=oracle.CLASSIC,
    )
    v = check(cfg)
    assert len(solved) == 1
    assert (v.k, v.qbf_value, v.interpretation, v.witness_status) == (3, True, UNKNOWN, "verified")
    assert v == check(dataclasses.replace(cfg, k_from=3))


def test_halting_semantics_requires_halt_states():
    f = parse_formula("forall A. G a[A]")
    cfg = CheckConfig(formula=f, models={"A": AB_STATE}, semantics=oracle.HPES)
    with pytest.raises(ConfigError):
        check(cfg)


def test_unknown_proposition_rejected():
    f = parse_formula("forall A. G zz[A]")
    cfg = CheckConfig(formula=f, models={"A": AB_STATE}, semantics=oracle.PES)
    with pytest.raises(ConfigError):
        check(cfg)


def test_bounds_validated():
    f = parse_formula("exists A. a[A]")
    with pytest.raises(ConfigError):
        check(CheckConfig(formula=f, models={"A": AB_STATE}, k_from=3, k_max=1))


# -- witness extraction -------------------------------------------------------


def test_extract_witness_bound_zero():
    f = normalize(parse_formula("exists A. a[A]"))
    layout = build_layout({"A": CHAIN}, f, 0)
    # the labels come from the decoded state, not from the assignment
    assignment = {v: False for v in layout.block_ids("A")}
    prefix = extract_witness(assignment, layout, "A", CHAIN)
    assert prefix.states == ("s0",)
    assert prefix.letters == ({"a"},)


def test_extract_witness_chain():
    f = normalize(parse_formula("exists A. a[A]"))
    layout = build_layout({"A": CHAIN}, f, 1)
    assignment = {v: False for v in layout.block_ids("A")}
    (sb1,) = layout.sb_ids("A", 1)
    assignment[sb1] = True  # step 1 at state index 1
    prefix = extract_witness(assignment, layout, "A", CHAIN)
    assert prefix.states == ("s0", "s1")
    assert prefix.letters == ({"a"}, frozenset())


def test_extract_witness_rejects_broken_paths():
    f = normalize(parse_formula("exists A. a[A]"))
    layout = build_layout({"A": CHAIN}, f, 1)
    assignment = {v: False for v in layout.block_ids("A")}
    (sb0,) = layout.sb_ids("A", 0)
    assignment[sb0] = True  # path starting at s1: not initial
    with pytest.raises(InvalidWitnessError):
        extract_witness(assignment, layout, "A", CHAIN)
    back = {v: False for v in layout.block_ids("A")}
    (sb1,) = layout.sb_ids("A", 1)
    # s1 -> s0 is not a transition
    back[sb0] = True
    back[sb1] = False
    with pytest.raises(InvalidWitnessError):
        extract_witness(back, layout, "A", CHAIN)


def test_solved_witnesses_always_verify(rng):
    from conftest import rand_instance

    seen = 0
    for _ in range(120):
        models, f = rand_instance(rng, halting=rng.random() < 0.5)
        halting = all(m.halt for m in models.values())
        sems = list(oracle.SEMANTICS) if halting else [oracle.PES, oracle.OPT, oracle.CLASSIC]
        sem = rng.choice(sems)
        k = rng.randint(0, 3)
        layout = build_layout(models, f, k)
        q = assemble_qbf(f, models, k, sem, layout=layout)
        r = solve(q)
        if r.outer_witness is None:
            continue
        quant = f.prefix[0][0]
        n_outer = 0
        for q_, _ in f.prefix:
            if q_ != quant:
                break
            n_outer += 1
        traces = {
            var: extract_witness(r.outer_witness, layout, var, models[var])
            for _, var in f.prefix[:n_outer]
        }
        seen += 1
        assert oracle.verify_witness(traces, models, f, k, sem) is r.value
    assert seen >= 30


def test_corrupted_witness_fails_verification():
    f = normalize(parse_formula("exists A. G a[A]"))
    models = {"A": AB_STATE}
    good = enumerate_prefixes(AB_STATE, 2)[0]
    assert oracle.verify_witness({"A": good}, models, f, 2, oracle.OPT) is True
    from hyperbmc.kripke import TracePrefix

    bad = TracePrefix(
        states=good.states,
        letters=(good.letters[0], frozenset(), good.letters[2]),
        halted=good.halted,
    )
    assert oracle.verify_witness({"A": bad}, models, f, 2, oracle.OPT) is False


def test_exists_only_verification_degenerates_to_eval():
    f = normalize(parse_formula("exists A. a[A]"))
    prefix = enumerate_prefixes(AB_STATE, 1)[0]
    assert oracle.verify_witness({"A": prefix}, {"A": AB_STATE}, f, 1, oracle.PES) is True


# -- end-to-end soundness ------------------------------------------------------


def _ground_truth(models, f, depth):
    return oracle.check_bounded(models, f, depth, oracle.HPES)


def test_soundness_on_acyclic_halting(rng):
    for _ in range(60):
        n_vars = rng.randint(1, 2)
        variables = ["A", "B"][:n_vars]
        models = {v: rand_acyclic_halting(rng) for v in variables}
        shared = set.intersection(*[set(m.aps) for m in models.values()])
        if not shared:
            continue
        prefix = tuple((rng.choice([hl.FORALL, hl.EXISTS]), v) for v in variables)
        body = rand_body(rng, variables, sorted(shared), 2)
        f = hl.HyperFormula(prefix=prefix, body=body)
        depth = max(halt_depth(m) for m in models.values())
        truth = _ground_truth(models, normalize(f), depth)
        for sem in oracle.SEMANTICS:
            for negate_first in (False, True):
                cfg = CheckConfig(
                    formula=f, models=models, k_from=0, k_max=depth,
                    semantics=sem, negate_first=negate_first,
                )
                v = check(cfg)
                if v.interpretation == HOLDS:
                    assert truth is True, (sem, negate_first)
                elif v.interpretation == FAILS:
                    assert truth is False, (sem, negate_first)


def test_verdict_monotone_in_bound(rng):
    for _ in range(40):
        variables = ["A"]
        models = {"A": rand_acyclic_halting(rng)}
        body = rand_body(rng, variables, sorted(models["A"].aps), 2)
        f = hl.HyperFormula(prefix=((rng.choice([hl.FORALL, hl.EXISTS]), "A"),), body=body)
        depth = halt_depth(models["A"])
        for sem in (oracle.PES, oracle.HPES, oracle.OPT, oracle.HOPT):
            seen = None
            for k in range(depth + 2):
                cfg = CheckConfig(
                    formula=f, models=models, k_from=k, k_max=k, semantics=sem
                )
                v = check(cfg)
                if seen is None and v.interpretation != UNKNOWN:
                    seen = v.interpretation
                elif seen is not None:
                    assert v.interpretation == seen


def test_resolve_solver(monkeypatch):
    assert resolve_solver("builtin") == "builtin"
    assert resolve_solver("external:cmd {file}") == "cmd {file}"
    monkeypatch.delenv("HYPERBMC_SOLVER", raising=False)
    assert resolve_solver(None) == "builtin"
    monkeypatch.setenv("HYPERBMC_SOLVER", "quabs {file}")
    assert resolve_solver(None) == "quabs {file}"
    with pytest.raises(ConfigError):
        resolve_solver("frobnicate")


def test_format_witness():
    prefix = enumerate_prefixes(AB_STATE, 2)[0]
    text = format_witness({"A": prefix}, {"A": AB_STATE})
    assert text == "A: {a} {a} {a}\n"


def test_external_solver_through_check(tmp_path):
    sat = tmp_path / "sat.sh"
    sat.write_text("#!/bin/sh\nexit 10\n")
    sat.chmod(0o755)
    f = parse_formula("exists A. F a[A]")
    cfg = CheckConfig(
        formula=f, models={"A": AB_STATE}, k_from=1, k_max=1,
        semantics=oracle.PES, solver=f"{sat} {{file}}",
    )
    v = check(cfg)
    # external solvers return no witness, but the verdict stands
    assert v.interpretation == HOLDS
    assert v.witness is None


def test_halt_atom_end_to_end():
    halted = parse_kripke(
        "ap a; states s0 s1; init s0; halt s1; label s0 {a}; label s1 {}; "
        "trans s0 -> s1; trans s1 -> s1;"
    )
    f = parse_formula("exists A. F @halt[A]")
    cfg = CheckConfig(formula=f, models={"A": halted}, k_from=0, k_max=3,
                      semantics=oracle.PES)
    v = check(cfg)
    assert v.interpretation == HOLDS
    assert v.k == 2  # reaches the halt state at step 1, inside bound 2
    assert v.witness["A"].states == ("s0", "s1", "s1")


def test_three_block_alternation():
    k = parse_kripke(
        "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; "
        "trans s0 -> s0; trans s0 -> s1; trans s1 -> s1;"
    )
    # some trace stays on a while, for every second trace, some third trace
    # mirrors the second at step 1
    f = parse_formula("exists A. forall B. exists C. a[A] & (X (a[B] <-> a[C]))")
    cfg = CheckConfig(formula=f, models={"A": k, "B": k, "C": k},
                      k_from=1, k_max=1, semantics=oracle.PES)
    v = check(cfg)
    assert v.interpretation == HOLDS
    assert v.witness is not None and set(v.witness) == {"A"}
    want = oracle.check_bounded({"A": k, "B": k, "C": k}, normalize(f), 1, oracle.PES)
    assert want is True
