import hashlib
import os
from collections import deque

import pytest

from hyperbmc import oracle
from hyperbmc.driver import FAILS, HOLDS, CheckConfig, check
from hyperbmc.hyperltl import normalize, parse_formula
from hyperbmc.kripke import parse_kripke, render, validate
from hyperbmc.models import (
    ModelError,
    PAPER_GRID_10,
    builtin_spec,
    gen_bakery,
    gen_grid,
    gen_nonrepudiation,
    parse_grid_map,
    spec_names,
)

from conftest import bfs_distance

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def reachable(k):
    seen = {k.init}
    queue = deque([k.init])
    while queue:
        s = queue.popleft()
        for a, b in k.trans:
            if a == s and b not in seen:
                seen.add(b)
                queue.append(b)
    return seen


# -- bakery -------------------------------------------------------------------


def crit_states(k, proc):
    # crit is status 2: bit pattern pcP<i>_1 without pcP<i>_0
    return {
        s
        for s in k.states
        if f"pcP{proc}_1" in k.labels[s] and f"pcP{proc}_0" not in k.labels[s]
    }


def test_bakery_both_processes_can_enter():
    k = gen_bakery(2)
    seen = reachable(k)
    for proc in (0, 1):
        assert seen & crit_states(k, proc), f"process {proc} never enters"


def test_bakery_generated_mutual_exclusion():
    k = gen_bakery(2)
    both = crit_states(k, 0) & crit_states(k, 1)
    assert not both


def test_bakery_three_processes_within_guard():
    k = gen_bakery(3)
    validate(k)
    assert len(k.states) < 5000


def test_bakery_rejects_out_of_range():
    with pytest.raises(ValueError):
        gen_bakery(4)


def test_bakery_deterministic():
    assert gen_bakery(2) == gen_bakery(2)


# -- grid ---------------------------------------------------------------------


def test_grid_three_by_three_distance():
    k = gen_grid(3, 3, set(), [(0, 0)], {(2, 2)})
    # shortest goal-labeled trace takes four transitions
    dist = {k.init: 0}
    queue = deque([k.init])
    best = None
    while queue:
        s = queue.popleft()
        if "goal" in k.labels[s]:
            best = dist[s]
            break
        for a, b in k.trans:
            if a == s and b not in dist:
                dist[b] = dist[s] + 1
                queue.append(b)
    assert best == 4


def test_grid_walled_cell_unreachable():
    obstacles = {(0, 1), (1, 1), (1, 0)}
    k = gen_grid(3, 3, obstacles, [(2, 2)], {(0, 0)})
    # the goal is fully walled in: no state mentions it
    assert not any("goal" in k.labels[s] for s in k.states)
    f = parse_formula(builtin_spec("shortest_path").formula)
    cfg = CheckConfig(formula=f, models={"A": k, "B": k}, k_from=0, k_max=4,
                      semantics=oracle.CLASSIC)
    v = check(cfg)
    assert v.qbf_value is False


def test_grid_goal_states_absorb_and_halt():
    k = gen_grid(3, 3, set(), [(0, 0)], {(2, 2)})
    validate(k)
    assert k.halt
    for s in k.halt:
        assert {(a, b) for a, b in k.trans if a == s} == {(s, s)}


def test_grid_multiple_inits_fan_out():
    k = gen_grid(3, 1, set(), [(0, 0), (2, 0)], {(1, 0)})
    assert k.init == "root"
    succs = {b for a, b in k.trans if a == "root"}
    assert len(succs) == 2


def test_grid_input_validation():
    with pytest.raises(ValueError):
        gen_grid(3, 3, {(0, 0)}, [(0, 0)], {(2, 2)})
    with pytest.raises(ValueError):
        gen_grid(3, 3, set(), [], {(2, 2)})
    with pytest.raises(ValueError):
        gen_grid(3, 3, set(), [(5, 5)], {(2, 2)})


def test_parse_grid_map_coordinates():
    width, height, obstacles, inits, goals = parse_grid_map("G.\n#I\n")
    assert (width, height) == (2, 2)
    assert inits == [(1, 0)]
    assert goals == {(0, 1)}
    assert obstacles == {(0, 0)}


def test_paper_grid_transcription():
    width, height, obstacles, inits, goals = parse_grid_map(PAPER_GRID_10)
    assert (width, height) == (10, 10)
    assert inits == [(0, 0)]
    assert goals == {(7, 5)}
    assert len(obstacles) == 28
    assert bfs_distance(width, height, obstacles, inits[0], goals) == 16


def test_grid_minimal_bound_equals_manhattan_distance(rng):
    f = normalize(parse_formula(builtin_spec("shortest_path").formula))
    for _ in range(4):
        w = rng.randint(2, 4)
        h = rng.randint(2, 4)
        gx, gy = rng.randrange(w), rng.randrange(h)
        if (gx, gy) == (0, 0):
            gx = w - 1
        k = gen_grid(w, h, set(), [(0, 0)], {(gx, gy)})
        manhattan = gx + gy
        sat_bounds = []
        for bound in range(manhattan + 2):
            from hyperbmc.encoder import assemble_qbf
            from hyperbmc.qbf import solve

            q = assemble_qbf(f, {"A": k, "B": k}, bound, oracle.CLASSIC)
            if solve(q).value:
                sat_bounds.append(bound)
        assert sat_bounds and sat_bounds[0] == manhattan


# -- non-repudiation -----------------------------------------------------------


def nro_without_nrr_path(k):
    """DFS: some session delivers nro while B never sends nrr."""
    stack = [(k.init, False)]
    seen = set()
    while stack:
        state, got_nro = stack.pop()
        got_nro = got_nro or "nro" in k.labels[state]
        if "actB_nrr" in k.labels[state]:
            continue
        if got_nro and state in k.halt:
            return True
        if (state, got_nro) in seen:
            continue
        seen.add((state, got_nro))
        for a, b in k.trans:
            if a == state and b != state:
                stack.append((b, got_nro))
    return False


def test_nonrep_incorrect_leaks_evidence():
    assert nro_without_nrr_path(gen_nonrepudiation("incorrect"))


def test_nonrep_correct_never_leaks():
    assert not nro_without_nrr_path(gen_nonrepudiation("correct"))


def test_nonrep_halt_states_absorb():
    for variant in ("correct", "incorrect"):
        k = gen_nonrepudiation(variant)
        validate(k)
        assert k.halt
        for s in k.halt:
            assert {(a, b) for a, b in k.trans if a == s} == {(s, s)}


def test_nonrep_honest_run_is_effective():
    k = gen_nonrepudiation("correct")
    f = normalize(parse_formula("exists P. (F m[P]) & (F nrr[P]) & (F nro[P])"))
    assert oracle.check_bounded({"P": k}, f, 12, oracle.HPES) is True


def test_nonrep_variant_validation():
    with pytest.raises(ValueError):
        gen_nonrepudiation("bogus")


# -- builtin specs -------------------------------------------------------------


def test_shortest_path_formula_exact():
    assert builtin_spec("shortest_path").formula == "exists A. forall B. (!goal[B]) U goal[A]"


def test_symmetry_expansion_contains_swaps():
    text = builtin_spec("symmetry").formula
    for piece in (
        "(selectP0[A] <-> selectP1[B])",
        "(selectP1[A] <-> selectP0[B])",
        "(pause[A] <-> pause[B])",
        "(pcP0_0[A] <-> pcP1_0[B])",
        "(pcP1_1[A] <-> pcP0_1[B])",
    ):
        assert piece in text


def test_mutation_spec_arity_and_roles():
    entry = builtin_spec("mutation")
    assert entry.arity == 2
    assert entry.roles == ("mutant-model", "original-model")


def test_every_spec_parses_and_normalizes():
    for name in spec_names():
        entry = builtin_spec(name)
        f = parse_formula(entry.formula)
        assert len(f.prefix) == entry.arity
        assert len(entry.roles) == entry.arity
        normalize(f)  # desugars and NNFs without error


def test_unknown_spec_name():
    with pytest.raises(ModelError):
        builtin_spec("nope")


# -- bundled data files ---------------------------------------------------------


def load_data(name):
    with open(os.path.join(DATA, name)) as fh:
        return parse_kripke(fh.read())


def test_bundled_models_validate():
    for name in ("mutation_original.kr", "mutation_mutant.kr", "ni_secure.kr",
                 "ni_leaky.kr", "fig_acyclic.kr"):
        validate(load_data(name))


def test_mutation_case_study():
    mutant = load_data("mutation_mutant.kr")
    original = load_data("mutation_original.kr")
    f = parse_formula(builtin_spec("mutation").formula)
    cfg = CheckConfig(
        formula=f, models={"A": mutant, "B": original}, k_from=0, k_max=4,
        semantics=oracle.PES,
    )
    v = check(cfg)
    assert v.interpretation == HOLDS
    assert v.witness is not None


def test_non_interference_case_study():
    f = parse_formula(builtin_spec("non_interference").formula)
    secure = load_data("ni_secure.kr")
    leaky = load_data("ni_leaky.kr")
    v = check(CheckConfig(formula=f, models={"A": secure, "B": secure},
                          k_from=3, k_max=3, semantics=oracle.HPES))
    assert v.interpretation == HOLDS
    v = check(CheckConfig(formula=f, models={"A": leaky, "B": leaky},
                          k_from=3, k_max=3, semantics=oracle.HOPT))
    assert v.interpretation == FAILS


def test_robustness_case_study():
    # a 3x1 corridor with two starts: moving right twice reaches the goal
    # from both, so a robust strategy exists and is certified once every
    # matching run has halted
    k = gen_grid(3, 1, set(), [(0, 0), (1, 0)], {(2, 0)})
    assert k.init == "root"
    f = parse_formula(builtin_spec("robustness").formula)
    cfg = CheckConfig(formula=f, models={"A": k, "B": k}, k_from=0, k_max=6,
                      semantics=oracle.HPES)
    v = check(cfg)
    assert v.interpretation == HOLDS
    # goal reached at step 3; one more step discharges runs that copy the
    # strategy up to the bound and only diverge there, still unhalted
    assert v.k == 4
    assert v.witness is not None
    # the witness path walks right to the goal
    assert v.witness["A"].states[-1].startswith("c2_0")



def test_generated_structures_are_pinned():
    # state order, names, transitions, labels and halt set all show in the
    # rendered text, which fixes variable layouts and QCIR downstream
    walled_in = gen_grid(*parse_grid_map("I#...\n#..#.\n...IG\n"))  # top-left start is stuck
    assert ("c0_2_i", "c0_2_i") in walled_in.trans and "c0_2_i" not in walled_in.halt
    cases = {
        "bakery2": (gen_bakery(2), "7fbf74c2a9a24fdd20f1c11a434ab4a7d6bf8797031c2b57359d6948ac2780d2"),
        "bakery3": (gen_bakery(3), "4af92ac24e6d8ed943d29a0804b44d0bbfd5374a21f169ad05fee74ae646efb0"),
        "nonrep-correct": (
            gen_nonrepudiation("correct"),
            "2b3b285bd0efe46894124fbd1efb7c1306c9520221ce01af1ede0fe8cac079f5",
        ),
        "nonrep-incorrect": (
            gen_nonrepudiation("incorrect"),
            "62745262ec0e23749e796692fbfa82d5e4acad8455114f973d1bdddc6f4d16dd",
        ),
        "grid10": (
            gen_grid(*parse_grid_map(PAPER_GRID_10)),
            "d6d7a3b7d7910fdb014c6e759c6d40c3fc529f40f62c36dcf38f067c64372530",
        ),
        "three-inits": (
            gen_grid(*parse_grid_map("I...\n.#.I\nI..G\n")),
            "7761e4082ef4081141f47696701fcc58c91f25f84285b1a2209aa3632c84e240",
        ),
        "walled-in": (walled_in, "dfedaf042134ce6e960b613fa9dddbb92e2980409315d38686a58a9bd163cb0a"),
    }
    for name, (k, digest) in cases.items():
        assert hashlib.sha256(render(k).encode()).hexdigest() == digest, name
