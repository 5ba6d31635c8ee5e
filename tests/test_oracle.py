import pytest

from hyperbmc import hyperltl as hl
from hyperbmc import oracle
from hyperbmc.hyperltl import Atom, NegAtom, Next, Release, Until, negate, normalize, parse_formula
from hyperbmc.kripke import enumerate_prefixes, parse_kripke
from hyperbmc.oracle import (
    CLASSIC,
    HOPT,
    HPES,
    OPT,
    PES,
    ExplosionGuardError,
    UnassignedVariableError,
    check_bounded,
    dual,
    eval_body,
)

from conftest import halt_depth, rand_acyclic_halting, rand_instance

ONE_STATE_A = parse_kripke("ap a; states s0; init s0; label s0 {a}; trans s0 -> s0;")
ONE_STATE_A_HALT = parse_kripke(
    "ap a; states s0; init s0; halt s0; label s0 {a}; trans s0 -> s0;"
)
# p holds at step 1 only
P_AT_ONE = parse_kripke(
    "ap p; states s0 s1; init s0; label s0 {}; label s1 {p}; trans s0 -> s1; trans s1 -> s1;"
)


def only_prefix(k, bound):
    prefixes = enumerate_prefixes(k, bound)
    assert len(prefixes) == 1
    return prefixes[0]


def test_atom_at_step_zero():
    t = only_prefix(ONE_STATE_A, 0)
    assert eval_body({"A": t}, 0, Atom("a", "A"), 0, PES) is True
    assert eval_body({"A": t}, 0, NegAtom("a", "A"), 0, PES) is False


def test_next_at_bound_pessimistic_never():
    t = only_prefix(ONE_STATE_A, 1)
    body = Next(Atom("a", "A"))
    assert eval_body({"A": t}, 1, body, 1, PES) is False
    assert eval_body({"A": t}, 1, body, 1, OPT) is True


def test_until_pending_at_bound():
    t = only_prefix(P_AT_ONE, 1)
    body = Until(hl.TRUE, Atom("p", "A"))  # F p, p first true at step 1
    assert eval_body({"A": t}, 0, body, 1, PES) is False
    assert eval_body({"A": t}, 0, body, 1, OPT) is True
    # fulfilled strictly inside the bound once k=2
    t2 = only_prefix(P_AT_ONE, 2)
    assert eval_body({"A": t2}, 0, body, 2, PES) is True


def test_classic_until_fulfills_at_the_bound():
    t = only_prefix(P_AT_ONE, 1)
    body = Until(hl.TRUE, Atom("p", "A"))
    assert eval_body({"A": t}, 0, body, 1, CLASSIC) is True
    assert eval_body({"A": t}, 0, body, 1, PES) is False


def test_unassigned_variable():
    t = only_prefix(ONE_STATE_A, 0)
    with pytest.raises(UnassignedVariableError):
        eval_body({"A": t}, 0, Atom("a", "B"), 0, PES)


def test_exists_atom_bound_zero():
    f = normalize(parse_formula("exists A. a[A]"))
    assert check_bounded({"A": ONE_STATE_A}, f, 0, PES) is True


def test_globally_pessimistic_vs_optimistic():
    f = normalize(parse_formula("forall A. G a[A]"))
    assert check_bounded({"A": ONE_STATE_A}, f, 2, PES) is False
    assert check_bounded({"A": ONE_STATE_A}, f, 2, OPT) is True


def test_globally_halting_semantics_and_printed_rule():
    f = normalize(parse_formula("forall A. G a[A]"))
    models = {"A": ONE_STATE_A_HALT}
    assert check_bounded(models, f, 2, HOPT) is True
    assert check_bounded(models, f, 2, HPES) is True
    assert check_bounded(models, f, 2, HPES, paper_literal=True) is False


def test_halt_atom_follows_halt_set():
    f = normalize(parse_formula("exists A. @halt[A]"))
    assert check_bounded({"A": ONE_STATE_A_HALT}, f, 0, PES) is True
    assert check_bounded({"A": ONE_STATE_A}, f, 0, PES) is False


def test_dual_involution():
    assert dual(PES) == OPT
    assert dual(OPT) == PES
    assert dual(HPES) == HOPT
    assert dual(HOPT) == HPES
    for sem in (*oracle.SEMANTICS, oracle.CLASSIC_DUAL):
        assert dual(dual(sem)) == sem


def test_unknown_semantics_rejected():
    # an unknown name once fell through every bound rule and read as hopt
    f = normalize(parse_formula("forall A. G a[A]"))
    t = only_prefix(ONE_STATE_A, 1)
    with pytest.raises(oracle.OracleError, match="unknown semantics"):
        eval_body({"A": t}, 0, f.body, 1, "bogus")
    with pytest.raises(oracle.OracleError, match="unknown semantics"):
        check_bounded({"A": ONE_STATE_A}, f, 1, "bogus")
    with pytest.raises(oracle.OracleError, match="unknown semantics"):
        oracle.verify_witness({"A": t}, {"A": ONE_STATE_A}, f, 1, "bogus")


def test_explosion_guard():
    wide = parse_kripke(
        "ap a; states s0 s1 s2 s3; init s0; label s0 {a}; label s1 {}; label s2 {a}; label s3 {}; "
        + " ".join(f"trans s{i} -> s{j};" for i in range(4) for j in range(4))
    )
    f = normalize(parse_formula("forall A. forall B. forall C. G a[A]"))
    with pytest.raises(ExplosionGuardError):
        check_bounded({"A": wide, "B": wide, "C": wide}, f, 4, PES)


def test_negative_bound_rejected():
    # count_prefixes(m, -1) is 1, so the guard passed and the enumeration
    # grew one path without end
    f = normalize(parse_formula("exists A. F a[A]"))
    with pytest.raises(oracle.OracleError, match="negative"):
        check_bounded({"A": ONE_STATE_A}, f, -1, PES)
    with pytest.raises(oracle.OracleError, match="negative"):
        oracle.verify_witness({}, {"A": ONE_STATE_A}, f, -1, PES)


def test_verify_witness_guard_before_enumeration():
    # count_prefixes(grid10, 20) is 2,353,498,645: the cap must be checked on
    # the counts, before a single residual prefix is enumerated
    import time

    from hyperbmc.kripke import make_prefix
    from hyperbmc.models import PAPER_GRID_10, builtin_spec, gen_grid, parse_grid_map

    grid = gen_grid(*parse_grid_map(PAPER_GRID_10))
    path = [grid.init]
    while len(path) < 21:
        path.append(min(d for s, d in grid.trans if s == path[-1]))
    f = normalize(parse_formula(builtin_spec("shortest_path").formula))
    t0 = time.perf_counter()
    with pytest.raises(ExplosionGuardError):
        oracle.verify_witness(
            {"A": make_prefix(grid, tuple(path))}, {"A": grid, "B": grid}, f, 20, CLASSIC
        )
    assert time.perf_counter() - t0 < 1.0


# -- quantifier evaluation against hand-enumerated combinations ---------------


def test_forall_exists_small_instance():
    k = parse_kripke(
        "ap a; states s0 s1 s2; init s0; label s0 {}; label s1 {a}; label s2 {}; "
        "trans s0 -> s1; trans s0 -> s2; trans s1 -> s1; trans s2 -> s2;"
    )
    # some continuation reaches a at step 1, but not all do
    f_exists = normalize(parse_formula("exists A. X a[A]"))
    f_forall = normalize(parse_formula("forall A. X a[A]"))
    assert check_bounded({"A": k}, f_exists, 1, PES) is True
    assert check_bounded({"A": k}, f_forall, 1, PES) is False


# -- the three spec-level properties ------------------------------------------


def test_duality_property(rng):
    for _ in range(120):
        models, f = rand_instance(rng, halting=True)
        k = rng.randint(0, 3)
        for sem in oracle.SEMANTICS:
            lhs = check_bounded(models, f, k, sem)
            rhs = check_bounded(models, negate(f), k, dual(sem))
            assert lhs == (not rhs), (sem, k, hl.render_formula(f))


def test_monotonicity_lemma_sampled(rng):
    for _ in range(120):
        models, f = rand_instance(rng, halting=True)
        values = {}
        for sem in (PES, OPT, HPES, HOPT):
            values[sem] = [check_bounded(models, f, k, sem) for k in range(5)]
        for k in range(4):
            for j in range(k + 1, 5):
                if values[PES][k]:
                    assert values[PES][j]
                if not values[OPT][k]:
                    assert not values[OPT][j]
                if values[HPES][k]:
                    assert values[HPES][j]
                if not values[HOPT][k]:
                    assert not values[HOPT][j]


def test_infinite_inference_on_acyclic_halting(rng):
    from conftest import rand_body

    for _ in range(80):
        n_vars = rng.randint(1, 2)
        variables = ["A", "B"][:n_vars]
        models = {v: rand_acyclic_halting(rng) for v in variables}
        shared = set.intersection(*[set(m.aps) for m in models.values()])
        if not shared:
            continue
        prefix = tuple((rng.choice([hl.FORALL, hl.EXISTS]), v) for v in variables)
        body = rand_body(rng, variables, sorted(shared), 2)
        f = normalize(hl.HyperFormula(prefix=prefix, body=body))
        # with every prefix halted, both halting semantics compute the
        # full-depth (infinite) truth exactly
        full = max(halt_depth(m) for m in models.values())
        truth = check_bounded(models, f, full, HPES)
        assert truth == check_bounded(models, f, full, HOPT)
        for k in range(full + 2):
            if check_bounded(models, f, k, HPES):
                assert truth is True
            if not check_bounded(models, f, k, HOPT):
                assert truth is False
            if check_bounded(models, f, k, PES):
                assert truth is True
            if not check_bounded(models, f, k, OPT):
                assert truth is False


def _closed_until(lhs, rhs, letters, k, sem):
    """Independent closed forms of bounded until at step 0 over one prefix."""

    def holds(b, i):
        return (b in letters[i]) if not b.startswith("!") else (b[1:] not in letters[i])

    def fulfilled(limit):
        for i in range(limit + 1):
            if holds(rhs, i) and all(holds(lhs, j) for j in range(i)):
                return True
        return False

    ride = all(holds(lhs, j) for j in range(k))
    if sem == PES:
        return fulfilled(k - 1) if k > 0 else False
    if sem == OPT:
        return (fulfilled(k - 1) if k > 0 else False) or ride
    if sem == CLASSIC:
        return fulfilled(k)
    raise AssertionError(sem)


def _closed_release(lhs, rhs, letters, k, sem):
    def holds(b, i):
        return (b in letters[i]) if not b.startswith("!") else (b[1:] not in letters[i])

    def released(limit):
        for i in range(limit + 1):
            if holds(lhs, i) and all(holds(rhs, j) for j in range(i + 1)):
                return True
        return False

    ride = all(holds(rhs, j) for j in range(k))
    if sem == PES:
        return released(k - 1) if k > 0 else False
    if sem == OPT:
        return (released(k - 1) if k > 0 else False) or ride
    if sem == CLASSIC:
        return released(k)
    raise AssertionError(sem)


def test_until_release_closed_forms(rng):
    from conftest import all_letter_traces, rand_kripke
    from hyperbmc.kripke import TracePrefix

    def atom(spec_str):
        if spec_str.startswith("!"):
            return NegAtom(spec_str[1:], "A")
        return Atom(spec_str, "A")

    names = ["a", "b", "!a", "!b"]
    for k in range(4):
        for letters in all_letter_traces(("a", "b"), k + 1)[:: 3]:
            prefix = TracePrefix(states=("s",) * (k + 1), letters=letters,
                                 halted=(False,) * (k + 1))
            for _ in range(6):
                lhs, rhs = rng.choice(names), rng.choice(names)
                for sem in (PES, OPT, CLASSIC):
                    got_u = eval_body({"A": prefix}, 0, Until(atom(lhs), atom(rhs)), k, sem)
                    assert got_u == _closed_until(lhs, rhs, letters, k, sem), (lhs, rhs, k, sem, letters)
                    got_r = eval_body(
                        {"A": prefix}, 0, Release(atom(lhs), atom(rhs)), k, sem
                    )
                    assert got_r == _closed_release(lhs, rhs, letters, k, sem), (lhs, rhs, k, sem, letters)


def test_eval_body_deep_bound():
    # the evaluator once recursed once per step of G and F and raised
    # RecursionError near k=1000
    cycle = parse_kripke(
        "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; trans s0 -> s1; trans s1 -> s0;"
    )
    models = {"A": cycle}
    always = normalize(parse_formula("exists A. G (a[A] | !a[A])"))
    assert oracle.check_bounded(models, always, 1200, oracle.OPT) is True
    assert oracle.check_bounded(models, always, 1200, oracle.PES) is False
    # F !a holds at step 1, before the bound decides anything
    eventually = normalize(parse_formula("exists A. F !a[A]"))
    assert oracle.check_bounded(models, eventually, 1200, oracle.PES) is True


def test_long_prefix_does_not_recurse(monkeypatch):
    # the quantifiers were once walked by one recursion each, which raised
    # RecursionError near 1,000 of them
    models = {f"A{i}": ONE_STATE_A for i in range(1200)}
    alternating = normalize(parse_formula(
        " ".join(f"{'forall' if i % 2 else 'exists'} A{i}." for i in range(1200)) + " a[A0]"
    ))
    assert check_bounded(models, alternating, 1, PES) is True
    t = only_prefix(ONE_STATE_A, 1)
    assert oracle.verify_witness({"A0": t}, models, alternating, 1, PES) is True
    existential = normalize(parse_formula(" ".join(f"exists A{i}." for i in range(1200)) + " a[A0]"))
    assert check_bounded(models, existential, 1, PES) is True
    # the walk stops at the first prefix that decides a quantifier, so
    # neither check below evaluates all four pairs of prefixes
    fork = parse_kripke(
        "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; "
        "trans s0 -> s0; trans s0 -> s1; trans s1 -> s1;"
    )
    calls = []
    eval_body_ = oracle.eval_body
    monkeypatch.setattr(oracle, "eval_body", lambda *a, **kw: calls.append(a) or eval_body_(*a, **kw))
    # every pair holds, and A's first prefix decides exists A
    f = normalize(parse_formula("exists A. forall B. X a[B] | a[A]"))
    assert check_bounded({"A": fork, "B": fork}, f, 1, PES) is True
    assert len(calls) == 2
    # under A = s0 s0 the second B decides forall B, under A = s0 s1 the first
    g = normalize(parse_formula("exists A. forall B. X a[A] & X a[B]"))
    calls.clear()
    assert check_bounded({"A": fork, "B": fork}, g, 1, PES) is False
    assert len(calls) == 3
