import pytest

from hyperbmc.kripke import (
    DanglingReferenceError,
    HaltNotAbsorbingError,
    KripkeError,
    KripkeStructure,
    KripkeSyntaxError,
    NonTotalError,
    count_prefixes,
    enumerate_prefixes,
    parse_kripke,
    render,
    validate,
)

from conftest import rand_kripke


MINIMAL = "ap a; states s0; init s0; label s0 {a}; trans s0 -> s0;"


def test_parse_minimal():
    k = parse_kripke(MINIMAL)
    assert k.states == ("s0",)
    assert k.init == "s0"
    assert k.labels["s0"] == {"a"}
    assert k.aps == ("a",)
    assert not k.halt


def test_parse_missing_trans_is_totality_error():
    text = """
    ap a;
    states s0 s1;
    init s0;
    label s0 {a}; label s1 {};
    trans s0 -> s1;
    """
    with pytest.raises(NonTotalError) as e:
        parse_kripke(text)
    assert e.value.state == "s1"


FIG_STYLE = """
# four states, initial one labeled a, s3 labeled b
ap a b;
states s_init s1 s2 s3;
init s_init;
label s_init {a};
label s1 {a,b};
label s2 {};
label s3 {b};
trans s_init -> s1;  trans s_init -> s2;
trans s1 -> s3;  trans s2 -> s3;
trans s3 -> s3;
"""


def test_labels_round_trip_exactly():
    k = parse_kripke(FIG_STYLE)
    assert k.labels["s_init"] == {"a"}
    assert k.labels["s3"] == {"b"}
    again = parse_kripke(render(k))
    assert again == k


def test_render_is_left_inverse_of_parse(rng):
    for _ in range(25):
        k = rand_kripke(rng, halting=rng.random() < 0.5)
        assert parse_kripke(render(k)) == k


def test_syntax_error_has_position():
    with pytest.raises(KripkeSyntaxError) as e:
        parse_kripke("ap a;\nstates s0 %;")
    assert e.value.line == 2


def test_duplicate_state_rejected():
    with pytest.raises(KripkeSyntaxError):
        parse_kripke("ap a; states s0 s0; init s0; label s0 {a}; trans s0 -> s0;")


def test_duplicate_ap_rejected():
    with pytest.raises(KripkeSyntaxError):
        parse_kripke("ap a a; states s0; init s0; label s0 {a}; trans s0 -> s0;")


def test_undeclared_identifier_rejected():
    with pytest.raises(DanglingReferenceError):
        parse_kripke("ap a; states s0; init s0; label s0 {zz}; trans s0 -> s0;")
    with pytest.raises(DanglingReferenceError):
        parse_kripke("ap a; states s0; init s1; label s0 {a}; trans s0 -> s0;")


def test_missing_init_rejected():
    with pytest.raises(KripkeError):
        parse_kripke("ap a; states s0; label s0 {a}; trans s0 -> s0;")


def test_missing_label_rejected():
    with pytest.raises(KripkeError):
        parse_kripke("ap a; states s0 s1; init s0; label s0 {a}; trans s0 -> s1; trans s1 -> s0;")


def test_at_prefixed_ap_rejected():
    with pytest.raises(KripkeSyntaxError):
        parse_kripke("ap @halt; states s0; init s0; label s0 {}; trans s0 -> s0;")


def test_validate_total_cycle_ok():
    k = parse_kripke(
        "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; "
        "trans s0 -> s1; trans s1 -> s0;"
    )
    validate(k)


def test_validate_halt_not_absorbing():
    text = (
        "ap a; states s0 s1; init s0; halt s0; label s0 {a}; label s1 {}; "
        "trans s0 -> s1; trans s1 -> s1;"
    )
    with pytest.raises(HaltNotAbsorbingError) as e:
        parse_kripke(text)
    assert e.value.state == "s0"


def test_validate_acyclic_with_leaf_self_loops():
    k = parse_kripke(
        "ap a; states s0 s1 s2; init s0; halt s2; "
        "label s0 {a}; label s1 {}; label s2 {a}; "
        "trans s0 -> s1; trans s0 -> s2; trans s1 -> s2; trans s2 -> s2;"
    )
    validate(k)
    assert k.halt == {"s2"}


def test_validate_dangling_in_hand_built_structure():
    k = KripkeStructure(
        states=("s0",),
        init="s0",
        trans=frozenset({("s0", "s0"), ("s0", "nope")}),
        labels={"s0": frozenset()},
        halt=frozenset(),
        aps=(),
    )
    with pytest.raises(DanglingReferenceError):
        validate(k)


# -- enumerate_prefixes ------------------------------------------------------


def test_enumerate_self_loop_single_prefix():
    k = parse_kripke(MINIMAL)
    prefixes = enumerate_prefixes(k, 2)
    assert len(prefixes) == 1
    assert prefixes[0].states == ("s0", "s0", "s0")
    assert prefixes[0].letters == ({"a"},) * 3


def test_enumerate_branching_count():
    k = parse_kripke(
        "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; "
        "trans s0 -> s0; trans s0 -> s1; trans s1 -> s1;"
    )
    assert len(enumerate_prefixes(k, 1)) == 2


def test_enumerate_branching_factor_two_depth_three():
    # every state has exactly two successors, so 2^3 initialized paths
    k = parse_kripke(
        "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; "
        "trans s0 -> s0; trans s0 -> s1; trans s1 -> s0; trans s1 -> s1;"
    )
    assert len(enumerate_prefixes(k, 3)) == 8


def test_enumerate_count_matches_independent_dp(rng):
    for _ in range(30):
        k = rand_kripke(rng, halting=rng.random() < 0.4, dense=True)
        for bound in range(4):
            assert len(enumerate_prefixes(k, bound)) == count_prefixes(k, bound)


def test_prefix_letters_within_declared_aps(rng):
    for _ in range(20):
        k = rand_kripke(rng)
        for prefix in enumerate_prefixes(k, 3):
            for letter in prefix.letters:
                assert letter <= set(k.aps)
            assert prefix.states[0] == k.init
            for a, b in zip(prefix.states, prefix.states[1:]):
                assert (a, b) in k.trans


def test_enumerate_order_deterministic():
    k = parse_kripke(
        "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; "
        "trans s0 -> s1; trans s0 -> s0; trans s1 -> s0; trans s1 -> s1;"
    )
    first = [p.states for p in enumerate_prefixes(k, 2)]
    second = [p.states for p in enumerate_prefixes(k, 2)]
    assert first == second
    assert first[0] == ("s0", "s0", "s0")  # declaration order guides the walk


def test_enumerate_deep_bound():
    # the walk once recursed once per step and raised RecursionError
    cycle = parse_kripke(
        "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; trans s0 -> s1; trans s1 -> s0;"
    )
    (prefix,) = enumerate_prefixes(cycle, 2000)
    assert prefix.states == ("s0", "s1") * 1000 + ("s0",)
