import pytest

from hyperbmc import hyperltl as hl
from hyperbmc.hyperltl import (
    NEITHER,
    SYNTACTIC_COSAFETY,
    SYNTACTIC_SAFETY,
    And,
    Atom,
    Eventually,
    FormulaSyntaxError,
    Iff,
    NegAtom,
    Next,
    Not,
    Or,
    Release,
    UnboundVariableError,
    Until,
    WeakUntil,
    classify_fragment,
    desugar,
    negate,
    normalize,
    parse_formula,
    to_nnf,
)

from conftest import all_letter_traces, eval_stutter, rand_body


def test_parse_observational_determinism_shape():
    f = parse_formula("forall A. forall B. G (a[A] <-> a[B])")
    assert f.prefix == (("forall", "A"), ("forall", "B"))
    assert f.body == hl.Always(Iff(Atom("a", "A"), Atom("a", "B")))


def test_parse_exists_atom():
    f = parse_formula("exists A. a[A]")
    assert f.prefix == (("exists", "A"),)
    assert f.body == Atom("a", "A")


def test_parse_unbound_variable():
    with pytest.raises(UnboundVariableError) as e:
        parse_formula("forall A. b[B]")
    assert e.value.var == "B"


def test_parse_long_conjunction():
    # 3000 conjuncts nest 2999 ANDs deep; the closedness check once
    # recursed through them and raised RecursionError
    f = parse_formula("forall A. " + " & ".join(["a[A]"] * 3000))
    assert sum(isinstance(b, And) for b in hl.walk(f.body)) == 2999
    assert sum(isinstance(b, Atom) for b in hl.walk(f.body)) == 3000


def test_normalize_long_conjunction():
    # desugar and the NNF pass once recursed per nested operator, and the
    # 2999 ANDs above 3000 biconditionals raised RecursionError
    text = "forall A. forall B. " + " & ".join(["(a[A] <-> a[B])"] * 3000)
    f = normalize(parse_formula(text))
    kinds = [type(b) for b in hl.walk(f.body)]
    # each (x <-> y) becomes (x & y) | (!x & !y)
    assert (kinds.count(And), kinds.count(Or), kinds.count(NegAtom)) == (8999, 3000, 6000)
    g = negate(parse_formula(text))
    assert g.prefix == (("exists", "A"), ("exists", "B"))
    kinds = [type(b) for b in hl.walk(g.body)]
    assert (kinds.count(And), kinds.count(Or), kinds.count(NegAtom)) == (3000, 8999, 6000)


def test_parse_long_chains():
    # right-associative and prefix chains once recursed once per operator
    f = parse_formula("forall A. " + " -> ".join(["a[A]"] * 3000))
    assert sum(isinstance(b, hl.Implies) for b in hl.walk(f.body)) == 2999
    assert isinstance(f.body.right, hl.Implies)  # grouped to the right
    g = parse_formula("exists A. " + "X " * 1000 + "!a[A]")
    assert [type(b) for b in hl.walk(g.body)] == [Next] * 1000 + [Not, Atom]
    assert hl.render_formula(g) == "exists A. " + "X " * 1000 + "!a[A]"
    assert hl.render_formula(f).count("->") == 2999


def test_render_formula_parses_back(rng):
    for _ in range(500):
        f = hl.HyperFormula(
            prefix=((hl.FORALL, "A"), (hl.EXISTS, "B")),
            body=rand_body(rng, ["A", "B"], ["a", "b"], rng.randint(1, 5)),
        )
        assert parse_formula(hl.render_formula(f)) == f
    # chains as the parser groups them render without parentheses, so
    # long ones stay within MAX_NESTING
    for text in (
        "forall A. forall B. " + " & ".join(["(a[A] <-> a[B])"] * 3000),
        "forall A. " + " -> ".join(["a[A]"] * 3000),
        "forall A. " + " | ".join(["a[A] U X a[A] R !a[A]"] * 1000),
        "exists A. " + "X " * 1000 + "!a[A]",
    ):
        assert hl.render_formula(parse_formula(text)) == text


def test_parse_nesting_limit():
    def nested(depth):
        return "exists A. " + "(" * depth + "a[A]" + ")" * depth

    assert parse_formula(nested(hl.MAX_NESTING)).body == Atom("a", "A")
    with pytest.raises(FormulaSyntaxError, match="nested deeper"):
        parse_formula(nested(hl.MAX_NESTING + 1))


def test_parse_long_conjunction_unbound_last():
    with pytest.raises(UnboundVariableError) as e:
        parse_formula("forall A. " + " & ".join(["a[A]"] * 2999 + ["b[B]"]))
    assert e.value.var == "B"


def test_parse_quantifier_after_body_start():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("forall A. a[A] & exists B. b[B]")


def test_parse_precedence():
    f = parse_formula("forall A. a[A] & b[A] U a[A] | b[A] -> a[A]")
    # U > & > | > ->
    expected = hl.Implies(
        Or(And(Atom("a", "A"), Until(Atom("b", "A"), Atom("a", "A"))), Atom("b", "A")),
        Atom("a", "A"),
    )
    assert f.body == expected


def test_parse_right_associative_until():
    f = parse_formula("exists A. a[A] U b[A] U a[A]")
    assert f.body == Until(Atom("a", "A"), Until(Atom("b", "A"), Atom("a", "A")))


def test_parse_halt_atom():
    f = parse_formula("exists A. F @halt[A]")
    assert f.body == Eventually(Atom("@halt", "A"))


@pytest.mark.parametrize("word", ["U", "R", "W"])
def test_reserved_word_is_no_proposition(word):
    # @halt is a proposition, not a reserved word: it parses as an atom
    assert parse_formula("exists A. @halt[A]").body == Atom("@halt", "A")
    with pytest.raises(FormulaSyntaxError, match="reserved word"):
        parse_formula(f"exists A. {word}[A]")


def test_parse_duplicate_quantifier_rejected():
    with pytest.raises(hl.FormulaError):
        parse_formula("forall A. exists A. a[A]")


# -- desugar -----------------------------------------------------------------


def test_desugar_eventually():
    f = parse_formula("exists A. F a[A]")
    assert desugar(f).body == Until(hl.TRUE, Atom("a", "A"))


def test_desugar_globally():
    f = parse_formula("exists A. G a[A]")
    assert desugar(f).body == Release(hl.FALSE, Atom("a", "A"))


def test_desugar_weak_until_shape():
    f = parse_formula("exists A. a[A] W b[A]")
    a, b = Atom("a", "A"), Atom("b", "A")
    assert desugar(f).body == Release(b, Or(a, b))


def test_weak_until_identity_brute_force():
    # x W y agrees with y R (x | y) on every four-letter trace
    x, y = Atom("a", "A"), Atom("b", "A")
    lhs = WeakUntil(x, y)
    rhs = Release(y, Or(x, y))
    for letters in all_letter_traces(("a", "b"), 4):
        assert eval_stutter(lhs, letters) == eval_stutter(rhs, letters)


def test_desugar_preserves_meaning_on_traces(rng):
    for _ in range(80):
        body = rand_body(rng, ["A"], ["a", "b"], 3)
        sugared = hl.HyperFormula(prefix=(("exists", "A"),), body=body)
        plain = desugar(sugared)
        for letters in all_letter_traces(("a", "b"), 3)[:: rng.randint(3, 7)]:
            assert eval_stutter(body, letters) == eval_stutter(plain.body, letters)


# -- NNF ---------------------------------------------------------------------


def test_nnf_until_duality():
    f = hl.HyperFormula(
        prefix=(("exists", "A"),), body=Not(Until(hl.TRUE, Atom("p", "A")))
    )
    assert to_nnf(f).body == Release(hl.FALSE, NegAtom("p", "A"))


def test_nnf_next():
    f = hl.HyperFormula(prefix=(("exists", "A"),), body=Not(Next(Atom("p", "A"))))
    assert to_nnf(f).body == Next(NegAtom("p", "A"))


def test_nnf_de_morgan_nested():
    p, q, r = Atom("p", "A"), Atom("q", "A"), Atom("r", "A")
    f = hl.HyperFormula(
        prefix=(("exists", "A"),), body=Not(Or(p, And(q, Next(r))))
    )
    expected = And(NegAtom("p", "A"), Or(NegAtom("q", "A"), Next(NegAtom("r", "A"))))
    assert to_nnf(f).body == expected


def test_nnf_negation_truth_tables(rng):
    # pushing one negation preserves meaning, step position by step position
    for _ in range(60):
        body = rand_body(rng, ["A"], ["a", "b"], 2)
        f = hl.HyperFormula(prefix=(("exists", "A"),), body=Not(body))
        nnf = normalize(f)
        for letters in all_letter_traces(("a", "b"), 2):
            for i in range(2):
                assert eval_stutter(nnf.body, letters, i) == eval_stutter(
                    Not(body), letters, i
                )


def test_normalize_idempotent(rng):
    for _ in range(50):
        body = rand_body(rng, ["A", "B"], ["a"], 3)
        f = hl.HyperFormula(prefix=(("forall", "A"), ("exists", "B")), body=body)
        once = normalize(f)
        assert normalize(once) == once


# -- negate ------------------------------------------------------------------


def test_negate_flips_prefix():
    f = parse_formula("forall A. exists B. G (a[A] <-> a[B])")
    g = negate(f)
    assert g.prefix == (("exists", "A"), ("forall", "B"))


def test_negate_exists_eventually():
    f = parse_formula("exists A. F goal[A]")
    g = negate(f)
    assert g.prefix == (("forall", "A"),)
    assert g.body == Release(hl.FALSE, NegAtom("goal", "A"))


def test_negate_involution(rng):
    for _ in range(40):
        body = rand_body(rng, ["A", "B"], ["a", "b"], 3)
        f = hl.HyperFormula(prefix=(("forall", "A"), ("exists", "B")), body=body)
        assert negate(negate(f)) == normalize(f)


# -- classify_fragment -------------------------------------------------------


def test_classify_globally_is_safety():
    assert classify_fragment(parse_formula("forall A. G a[A]")) == SYNTACTIC_SAFETY


def test_classify_eventually_is_cosafety():
    assert classify_fragment(parse_formula("exists A. F a[A]")) == SYNTACTIC_COSAFETY


def test_classify_mixed_is_neither():
    f = parse_formula("exists A. (F a[A]) & (G b[A])")
    assert classify_fragment(f) == NEITHER
