import dataclasses
import random
import re

import pytest

from hyperbmc import driver, oracle, qbf, recheck
from hyperbmc import hyperltl as hl
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
from hyperbmc.models import PAPER_GRID_10, builtin_spec, gen_bakery, gen_grid, gen_nonrepudiation, parse_grid_map
from hyperbmc.qbf import solve

from conftest import COMPLETE_KR, bfs_distance, grid_map, halt_depth, rand_acyclic_halting, rand_body, rand_instance

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
    # the tableau's explosion guard stops the re-check (its first entry is
    # already past the cap): same verdict, witness withheld
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 0)
    monkeypatch.setattr(oracle, "verify_witness", None)  # one block is left: never called
    v = check(cfg)
    assert (v.interpretation, v.k, v.qbf_value) == (HOLDS, 2, True)
    assert v.witness is None
    assert v.witness_status == "unverified"
    # a universal outer quantifier never reports a witness
    v = check(CheckConfig(formula=parse_formula("forall A. a[A]"), models={"A": CHAIN},
                          k_from=0, k_max=1, semantics=oracle.PES))
    assert v.witness is None
    assert v.witness_status is None


def _check_shortest_plan(map_text, k):
    """The reported plan of shortest_path on a grid map at bound k, checked; returns its first goal step and the BFS distance.

    B ranges over more prefixes than the oracle would enumerate; the
    tableau re-checks A's plan, which is reported. It must be a legal run
    from the initial cell.
    """
    width, height, obstacles, inits, goals = parse_grid_map(map_text)
    grid = gen_grid(width, height, obstacles, inits, goals)
    f = parse_formula(builtin_spec("shortest_path").formula)
    v = check(CheckConfig(formula=f, models={"A": grid, "B": grid}, k_from=k, k_max=k,
                          semantics=oracle.CLASSIC))
    assert (v.k, v.qbf_value, v.witness_status) == (k, True, "verified")
    cells = [tuple(map(int, re.match(r"c(\d+)_(\d+)_", s).groups())) for s in v.witness["A"].states]
    assert len(cells) == k + 1
    assert cells[0] == inits[0]
    for c, d in zip(cells, cells[1:]):
        if c in goals:
            assert d == c  # the goal absorbs
        else:
            assert abs(c[0] - d[0]) + abs(c[1] - d[1]) == 1
            assert 0 <= d[0] < width and 0 <= d[1] < height and d not in obstacles
    first = next(i for i, c in enumerate(cells) if c in goals)
    return first, bfs_distance(width, height, obstacles, inits[0], goals)


def test_grid10_plan_is_verified():
    assert _check_shortest_plan(PAPER_GRID_10, 20) == (16, 16)


def test_seeded_20x20_plan_is_verified():
    # the map of the CI step, 1,049 states, at k = 2n
    assert _check_shortest_plan(grid_map(20), 40) == (38, 38)


def test_two_residual_blocks_take_the_oracle(monkeypatch):
    calls = []
    real = oracle.verify_witness
    monkeypatch.setattr(oracle, "verify_witness", lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(recheck, "verify_witness", None)
    f = parse_formula("exists A. forall B. exists C. G (a[A] <-> a[C])")
    v = check(CheckConfig(formula=f, models={"A": CHAIN, "B": CHAIN, "C": CHAIN}, k_from=2, k_max=2,
                          semantics=oracle.OPT))
    assert (v.qbf_value, v.witness_status, len(calls)) == (True, "verified", 1)


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


def test_external_solver_reads_the_emitted_qcir_without_a_second_render(tmp_path, monkeypatch, solved):
    # with an emitted QCIR file and an external solver, each bound's
    # document is rendered once: the solver reads the text that was written
    emitted, read = tmp_path / "out.qcir", tmp_path / "read.qcir"
    unsat = tmp_path / "unsat.sh"
    unsat.write_text(f'#!/bin/sh\ncp "$1" {read}\nexit 20\n')
    unsat.chmod(0o755)
    rendered = []
    emit = qbf.emit_qcir
    monkeypatch.setattr(qbf, "emit_qcir", lambda q: rendered.append(q) or emit(q))
    cfg = CheckConfig(
        formula=parse_formula("exists A. F a[A]"), models={"A": AB_STATE}, k_from=0, k_max=2,
        semantics=oracle.PES, solver=f"{unsat} {{file}}", emit_qcir_path=str(emitted),
    )
    assert check(cfg).interpretation == UNKNOWN
    assert solved == [0, 1, 2]
    assert len(rendered) == 3
    assert read.read_bytes() == emitted.read_bytes()


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


# -- the bound loop's probe at kMax --------------------------------------------

COMPLETE = parse_kripke(COMPLETE_KR)
AE = parse_formula("forall A. exists B. G (a[A] <-> a[B])")
# a holds only at s5, reached at step 5: `exists A. F a[A]` concludes at k=6
LATE_A = parse_kripke(
    "ap a; states s0 s1 s2 s3 s4 s5; init s0; label s0 {}; label s1 {}; label s2 {}; "
    "label s3 {}; label s4 {}; label s5 {a}; "
    "trans s0 -> s1; trans s1 -> s2; trans s2 -> s3; trans s3 -> s4; "
    "trans s4 -> s5; trans s5 -> s5;"
)
HALTING = parse_kripke(
    "ap a; states s0 s1; init s0; halt s1; label s0 {a}; label s1 {}; "
    "trans s0 -> s0; trans s0 -> s1; trans s1 -> s1;"
)


@pytest.fixture
def solved(monkeypatch):
    """The bounds check() encodes and then solves, in order."""
    bounds = []
    encode = driver.assemble_qbf
    monkeypatch.setattr(driver, "assemble_qbf", lambda f, m, k, *a: bounds.append(k) or encode(f, m, k, *a))
    return bounds


def _per_bound(cfg):
    # the reference sweep: each bound checked on its own, up to the first
    # conclusive one or kMax
    for k in range(cfg.k_from, cfg.k_max + 1):
        v = check(dataclasses.replace(cfg, k_from=k, k_max=k))
        if v.interpretation != UNKNOWN:
            break
    return v


def test_sweep_equals_per_bound_checks(solved):
    # the probe at kMax changes which bounds are solved, never the Verdict:
    # every field, decoded witness states included, is the per-bound
    # reference's. Leading X's push conclusions past the probe.
    rng = random.Random(11)
    configs = probes = conclusive = 0
    for _ in range(80):
        halting = rng.random() < 0.5
        models, f = rand_instance(rng, max_quants=3, halting=halting)
        body = f.body
        for _ in range(rng.randint(0, 4)):
            body = hl.Next(body)
        f = hl.HyperFormula(prefix=f.prefix, body=body)
        sems = list(oracle.SEMANTICS) if halting else [oracle.PES, oracle.OPT, oracle.CLASSIC]
        k_from = rng.randint(0, 3)
        k_max = k_from + rng.randint(0, 8)
        for sem in sems:
            for negate_first in (False, True):
                for paper_literal in (False, True):
                    cfg = CheckConfig(
                        formula=f, models=models, k_from=k_from, k_max=k_max, semantics=sem,
                        negate_first=negate_first, paper_literal=paper_literal,
                    )
                    solved.clear()
                    v = check(cfg)
                    configs += 1
                    if sem != oracle.CLASSIC and solved != list(range(k_from, v.k + 1)):
                        probes += 1
                        conclusive += k_max in solved[:-1]
                    assert v == _per_bound(cfg), (f, sem, negate_first, paper_literal, k_from, k_max)
    assert configs >= 1200
    assert probes >= 350
    assert conclusive >= 45


def test_probe_solve_order(solved):
    # the ae formula never concludes under opt: after 0..5 the rent is
    # 21 >= 16, so kMax is probed, found inconclusive and reported
    v = check(CheckConfig(formula=AE, models={"A": COMPLETE, "B": COMPLETE},
                          k_from=0, k_max=15, semantics=oracle.OPT))
    assert solved == [0, 1, 2, 3, 4, 5, 15]
    assert (v.k, v.interpretation) == (15, UNKNOWN)
    # bakery2 falsify concludes at k=4 while its rent is 10 < 21: no probe
    solved.clear()
    bakery = gen_bakery(2)
    v = check(CheckConfig(formula=parse_formula(builtin_spec("symmetry").formula),
                          models={"A": bakery, "B": bakery}, k_from=0, k_max=20,
                          semantics=oracle.PES, negate_first=True))
    assert solved == [0, 1, 2, 3, 4]
    assert (v.k, v.interpretation) == (4, FAILS)
    # the probe at 15 concludes, so the sweep resumes at 6 and reports 11
    solved.clear()
    nonrep = gen_nonrepudiation("incorrect")
    v = check(CheckConfig(formula=parse_formula(builtin_spec("fair_nonrepudiation").formula),
                          models={"P": nonrep, "Q": nonrep}, k_from=0, k_max=15,
                          semantics=oracle.HPES, negate_first=True))
    assert solved == [0, 1, 2, 3, 4, 5, 15, 6, 7, 8, 9, 10, 11]
    assert (v.k, v.interpretation) == (11, FAILS)


@pytest.mark.parametrize("sem, formula", [
    (oracle.HPES, "forall A. G a[A]"),
    (oracle.HOPT, "exists A. G a[A]"),
])
def test_paper_literal_and_single_bound_sweep_in_order(solved, sem, formula):
    # the release rule of paper_literal is not monotone under hpes/hopt,
    # so such a sweep never probes; a single bound is solved once
    cfg = CheckConfig(formula=parse_formula(formula), models={"A": HALTING},
                      k_from=0, k_max=8, semantics=sem, paper_literal=True)
    v = check(cfg)
    assert solved == list(range(9))
    assert (v.k, v.interpretation) == (8, UNKNOWN)
    solved.clear()
    check(dataclasses.replace(cfg, k_from=8, paper_literal=False))
    assert solved == [8]


RELEASED_AT_HALT = parse_kripke(
    "ap a b; states s0 s1 s2 s3 s4 s5; init s0; halt s5; label s0 {b}; label s1 {b}; "
    "label s2 {b}; label s3 {b}; label s4 {b}; label s5 {a}; "
    "trans s0 -> s1; trans s1 -> s2; trans s2 -> s3; trans s3 -> s4; trans s4 -> s5; trans s5 -> s5;"
)


def test_paper_literal_concludes_where_a_probe_would_not():
    # Under paper_literal, a release at the bound takes its left arm:
    # a[A] R b[A] at step 5 holds only at k=5, where step 5 is the bound
    # and halts in s5, labelled a. Below the bound a release needs b, which
    # s5 lacks, so the formula is false from k=6 on. Not monotone: only
    # the plain sweep finds the verdict, and a kMax probe would stop at an
    # inconclusive k=10.
    f = parse_formula("exists A. X X X X X (a[A] R b[A])")
    models = {"A": RELEASED_AT_HALT}
    truth = [oracle.check_bounded(models, normalize(f), k, oracle.HPES, True) for k in range(11)]
    assert truth == [k == 5 for k in range(11)]
    v = check(CheckConfig(formula=f, models=models, k_from=0, k_max=10,
                          semantics=oracle.HPES, paper_literal=True))
    assert (v.k, v.interpretation, v.witness_status) == (5, HOLDS, "verified")


@pytest.mark.parametrize("error", [
    qbf.ResourceLimitError(10), MemoryError(), qbf.SolverTimeoutError(1.0), qbf.QbfError("no"),
])
@pytest.mark.parametrize("formula, models, sem, k_max", [
    (AE, {"A": COMPLETE, "B": COMPLETE}, oracle.OPT, 8),  # inconclusive at kMax
    (parse_formula("exists A. F a[A]"), {"A": LATE_A}, oracle.PES, 8),  # concludes at 6
])
def test_probe_that_hits_a_limit_is_not_known(monkeypatch, solved, error, formula, models, sem, k_max):
    # the probe's solve raises; the sweep goes on without it, solves kMax
    # again if it gets there, and ends with the reference's verdict
    raised = []
    real = qbf.solve

    def stub(q):
        if solved[-1] == k_max and not raised:
            raised.append(q)
            raise error
        return real(q)

    monkeypatch.setattr(qbf, "solve", stub)
    cfg = CheckConfig(formula=formula, models=models, k_from=0, k_max=k_max, semantics=sem)
    v = check(cfg)
    assert raised and solved[4] == k_max  # the probe ran before bound 4
    monkeypatch.setattr(qbf, "solve", real)
    assert v == _per_bound(cfg)


def test_a_limit_at_kmax_still_ends_the_sweep(monkeypatch, solved):
    # kMax fails every time: the probe is not known, the sweep reaches kMax,
    # solves it again and fails as a plain sweep does
    real = qbf.solve

    def stub(q):
        if solved[-1] == 8:
            raise qbf.ResourceLimitError(10)
        return real(q)

    monkeypatch.setattr(qbf, "solve", stub)
    with pytest.raises(qbf.ResourceLimitError):
        check(CheckConfig(formula=AE, models={"A": COMPLETE, "B": COMPLETE},
                          k_from=0, k_max=8, semantics=oracle.OPT))
    assert solved == [0, 1, 2, 3, 8, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("formula, models, sem, k_max, order", [
    # the probe is inconclusive and reported
    (AE, {"A": COMPLETE, "B": COMPLETE}, oracle.OPT, 8, [0, 1, 2, 3, 8]),
    # the probe concludes, and so does a bound below it
    (parse_formula("exists A. F a[A]"), {"A": LATE_A}, oracle.PES, 8, [0, 1, 2, 3, 8, 4, 5, 6]),
    # the probe concludes, and the sweep passes kMax-1 without concluding
    (parse_formula("exists A. F a[A]"), {"A": LATE_A}, oracle.PES, 6, [0, 1, 2, 3, 6, 4, 5]),
])
def test_emit_qcir_keeps_the_reported_bound(tmp_path, solved, formula, models, sem, k_max, order):
    swept, alone = tmp_path / "swept.qcir", tmp_path / "alone.qcir"
    cfg = CheckConfig(formula=formula, models=models, k_from=0, k_max=k_max, semantics=sem,
                      emit_qcir_path=str(swept))
    v = check(cfg)
    assert solved == order
    check(dataclasses.replace(cfg, k_from=v.k, k_max=v.k, emit_qcir_path=str(alone)))
    assert swept.read_bytes() == alone.read_bytes()
