"""Property tests on generated inputs: parsers and the CLI end in a result or their own error.

Inputs come from small grammars, so a share of them is well formed; the
rest are near misses. Runs are derandomized, so every run draws the
same inputs.
"""

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbmc import hyperltl as hl
from hyperbmc.cli import main
from hyperbmc.kripke import KripkeError, parse_kripke, render

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")

FUZZ = settings(derandomize=True, database=None, deadline=None)

# Separators include a CRLF, a Unicode space and a comment.
_SEPARATORS = st.sampled_from([" ", "\n", "\r\n", "\t", " ", " # note\n", ""])


_KR_APS = st.lists(st.sampled_from(["a", "b"]), unique=True)
_KR_TARGETS = st.lists(st.integers(0, 2), min_size=1, max_size=2)
_KR_NOISE = st.sampled_from([
    "ap a;", "ap @a;", "states s0;", "init s1;", "halt s9;", "label s0 {c};",
    "label s0 {a b};", "trans s0 s1;", "trans s0 - s1;", "bogus;", "@", "#", "{", ";",
])
_KR_EDIT = st.tuples(st.sampled_from(["drop", "repeat", "noise"]), st.integers(0, 20), _KR_NOISE)


@st.composite
def kr_texts(draw):
    """A well-formed .kr document, then up to three statement-level edits."""
    n = draw(st.integers(1, 3))
    states = [f"s{i}" for i in range(n)]
    aps = draw(_KR_APS)
    stmts = [f"ap {' '.join(aps)};", f"states {' '.join(states)};", "init s0;"]
    for s in states:
        letter = [a for a in draw(_KR_APS) if a in aps]
        stmts.append(f"label {s} {{{','.join(letter)}}};")
        for d in dict.fromkeys(i % n for i in draw(_KR_TARGETS)):
            stmts.append(f"trans {s} -> s{d};")
    if draw(st.booleans()):
        stmts.append(f"halt s{draw(st.integers(0, n - 1))};")
    for edit, i, noise in draw(st.lists(_KR_EDIT, max_size=3)):
        i = min(i, len(stmts))
        if edit == "noise":
            stmts.insert(i, noise)
        elif stmts and edit == "drop":
            del stmts[min(i, len(stmts) - 1)]
        elif stmts:
            stmts.insert(i, stmts[min(i, len(stmts) - 1)])
    return "".join(stmt + draw(_SEPARATORS) for stmt in stmts)


_FORMULA_BODY = st.recursive(
    st.sampled_from(["a[A]", "b[B]", "a[B]", "@halt[A]", "true", "false", "a[C]", "a"]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["!", "X ", "F ", "G "]), sub).map("".join),
        st.tuples(sub, st.sampled_from([" & ", " | ", " -> ", " <-> ", " U ", " R ", " W "]), sub)
        .map("".join),
        sub.map(lambda s: f"({s})"),
    ),
    max_leaves=8,
)


@st.composite
def formula_texts(draw):
    """A quantifier prefix and a body from the grammar, sometimes with one character cut."""
    prefix = draw(st.sampled_from([
        "forall A. exists B. ", "exists A. forall B.", "exists B. forall A. ", "forall A. ",
        "", "exists A. exists A. ", "exists . ",
    ]))
    text = prefix + draw(_FORMULA_BODY)
    if text and draw(st.sampled_from([False, False, False, True])):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + text[i + 1 :]
    return text


def test_kr_text_gives_a_structure_or_a_kripke_error():
    parsed = []

    @settings(FUZZ, max_examples=200)
    @given(kr_texts())
    def run(text):
        try:
            k = parse_kripke(text)
        except KripkeError:
            return
        parsed.append(k)
        assert parse_kripke(render(k)) == k

    run()
    assert len(parsed) >= 20  # the grammar is not all near misses


def test_formula_text_gives_a_formula_or_a_formula_error():
    parsed = []

    @settings(FUZZ, max_examples=200)
    @given(formula_texts())
    def run(text):
        try:
            f = hl.parse_formula(text)
        except hl.FormulaError:
            return
        parsed.append(f)
        assert hl.parse_formula(hl.render_formula(f)) == f
        assert hl.normalize(f).prefix == f.prefix

    run()
    assert len(parsed) >= 20


_FIG = os.path.join(DATA, "fig_acyclic.kr")  # a, b; one halt state
_NI = os.path.join(DATA, "ni_secure.kr")  # pin, term, res; halt states

_CASES = [  # a formula and a model with its propositions
    ("exists A. F a[A]", _FIG),
    ("forall A. G (a[A] | b[A])", _FIG),
    ("forall A. exists B. G (a[A] <-> a[B])", _FIG),
    ("exists A. forall B. (!b[B]) U b[A]", _FIG),
    ("forall A. F term[A]", _NI),
    ("forall A. exists B. X !(pin[A] <-> pin[B]) & F (term[A] & term[B])", _NI),
    ("exists A. X X @halt[A]", _NI),
]

# Each fault sets one option: a value of None leaves it out, "" makes it a flag.
_FAULTS = [
    ("-k", "-1"), ("-k", "-4"), ("-k", "x"), ("-k", None), ("--from", "-1"), ("--from", "9"),
    ("--semantics", "no"), ("--semantics", None), ("--formula", None),
    ("--formula", "exists A. ("), ("--formula", "forall A. G a[Z]"), ("--formula", "forall A. G pin[A]"),
    ("--model-default", os.path.join(DATA, "grid10.map")),  # not a .kr document
    ("--model-default", os.path.join(DATA, "missing.kr")), ("--model-default", None),
    ("--model", "Z=" + _NI), ("--model", "A"), ("--bogus", ""),
]

# No solver drawn here starts a program: the external ones lack {file},
# cannot be split, or name a file that does not exist.
_MISSING_SOLVER = "/nonexistent/solver-binary {file}"
_SOLVERS = ["builtin", "external:solver", 'external:"quabs {file}', "external:" + _MISSING_SOLVER]
_SOLVER_ENV = ["", "builtin", '"x {file}', _MISSING_SOLVER]  # "" reads as unset


@st.composite
def cli_argv(draw):
    """A check or oracle command line built from the real options, with at most one fault."""
    command = draw(st.sampled_from(["check", "oracle"]))
    formula, model = draw(st.sampled_from(_CASES))
    options = {
        "--formula": formula,
        "--model-default": model,
        "-k": draw(st.sampled_from(["0", "1", "2", "3"])),
        "--semantics": draw(st.sampled_from(["pes", "opt", "hpes", "hopt", "classic"])),
        "--paper-literal": draw(st.sampled_from(["", None])),
    }
    if command == "check":
        options["--mode"] = draw(st.sampled_from(["falsify", "prove", "raw"]))
        options["--format"] = draw(st.sampled_from(["text", "json"]))
        options["--solver"] = draw(st.sampled_from([None, *_SOLVERS]))
        options["--timeout"] = draw(st.sampled_from([None, "-1", "0", "2.5", "inf", "nan"]))
    else:
        options["--negate"] = draw(st.sampled_from(["", None]))
    fault = draw(st.one_of(st.none(), st.sampled_from(_FAULTS)))
    if fault:
        options[fault[0]] = fault[1]
    argv = [command]
    for option, value in draw(st.permutations(list(options.items()))):
        if value is not None:
            argv += [option, value] if value else [option]
    return argv


def _run_cli(argv, solver_env):
    out, err = io.StringIO(), io.StringIO()
    solver = mock.patch.dict(os.environ, {"HYPERBMC_SOLVER": solver_env})
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), solver:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def test_cli_ends_in_a_verdict_or_an_error_code():
    codes = set()

    @settings(FUZZ, max_examples=100)
    @given(cli_argv(), st.sampled_from(_SOLVER_ENV))
    def run(argv, solver_env):
        code, out = _run_cli(argv, solver_env)
        codes.add(code)
        if code in (0, 1, 2) and argv[0] == "check":
            if "json" in argv:
                assert json.loads(out)["interpretation"] in ("HOLDS", "FAILS", "UNKNOWN")
            else:
                assert out.startswith("verdict: ")
        elif code == 0:
            assert out in ("true\n", "false\n")
        else:
            assert code in (64, 65, 66), (argv, code)

    run()
    assert {0, 2, 64, 65, 66} <= codes

