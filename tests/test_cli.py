import json
import os
import subprocess
import sys

import pytest

from hyperbmc.cli import main

from conftest import COMPLETE_KR

MINIMAL = "ap a b; states s0; init s0; label s0 {a}; trans s0 -> s0;\n"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "one.kr"
    path.write_text(MINIMAL)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_fails_exit_code(capsys, model_file, tmp_path):
    formula = tmp_path / "f.hltl"
    formula.write_text("forall A. G b[A]\n")
    witness = tmp_path / "w.txt"
    code, out, _ = run(
        capsys, "check", "--formula", str(formula), "--model-default", model_file,
        "-k", "3", "--mode", "falsify", "--witness", str(witness),
    )
    assert code == 1
    assert "verdict: FAILS" in out
    assert witness.read_text() == "A: {a} {a}\n"


def test_check_without_a_witness_empties_the_witness_file(capsys, model_file, tmp_path):
    # an earlier run's witness left in place would read as this run's
    witness = tmp_path / "w.txt"
    witness.write_text("A: {a} {a}\n")
    code, out, _ = run(
        capsys, "check", "--formula", "forall A. G a[A]", "--model-default", model_file,
        "-k", "2", "--mode", "falsify", "--witness", str(witness),
    )
    assert code == 2
    assert "witness:" not in out
    assert witness.read_text() == ""


def test_check_holds_exit_code(capsys, model_file):
    code, out, _ = run(
        capsys, "check", "--formula", "exists A. F a[A]", "--model-default", model_file,
        "-k", "2", "--semantics", "pes",
    )
    assert code == 0
    assert "verdict: HOLDS" in out
    assert "witness" in out


def test_check_unknown_exit_code(capsys, model_file):
    code, out, _ = run(
        capsys, "check", "--formula", "forall A. G a[A]", "--model-default", model_file,
        "-k", "2", "--mode", "prove",
    )
    assert code == 2
    assert "verdict: UNKNOWN" in out


def test_check_json_schema(capsys, model_file):
    code, out, _ = run(
        capsys, "check", "--formula", "exists A. F a[A]", "--model-default", model_file,
        "-k", "2", "--semantics", "pes", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["schema"] == "hyperbmc/1"
    assert payload["interpretation"] == "HOLDS"
    assert payload["k"] == 1
    assert payload["qbf_value"] is True
    assert payload["witness"] == {"A": [["a"], ["a"]]}
    assert payload["witness_status"] == "verified"
    assert code == 0


def test_check_per_variable_models(capsys, tmp_path, model_file):
    other = tmp_path / "two.kr"
    other.write_text("ap a; states t0; init t0; label t0 {}; trans t0 -> t0;\n")
    code, out, _ = run(
        capsys, "check", "--formula", "forall A. forall B. G (a[A] <-> a[B])",
        "--model", f"A={model_file}", "--model", f"B={other}",
        "-k", "3", "--mode", "falsify",
    )
    assert code == 1  # one model always a, the other never


def test_check_emit_qcir(capsys, model_file, tmp_path):
    path = tmp_path / "out.qcir"
    code, _, _ = run(
        capsys, "check", "--formula", "exists A. a[A]", "--model-default", model_file,
        "-k", "0", "--semantics", "pes", "--emit-qcir", str(path),
    )
    assert code == 0
    assert path.read_text().startswith("#QCIR-G14\n")


@pytest.mark.parametrize("option", ["--witness", "--emit-qcir"])
@pytest.mark.parametrize("target", ["missing/out.txt", "."])
def test_bad_output_path_exits_64_before_solving(capsys, model_file, monkeypatch, tmp_path, option, target):
    # a missing directory or a directory as the path once failed only when
    # written: a witness after every bound had been solved, a QCIR file
    # after the first bound had been encoded
    from hyperbmc import driver, qbf

    encoded, solved = [], []
    monkeypatch.setattr(driver, "assemble_qbf", lambda *args, **kwargs: encoded.append(args))
    monkeypatch.setattr(qbf, "solve", lambda *args, **kwargs: solved.append(args))
    code, out, err = run(
        capsys, "check", "--formula", "exists A. a[A]", "--model-default", model_file,
        "-k", "1", option, str(tmp_path / target),
    )
    assert (code, out, encoded, solved) == (64, "", [], [])
    assert err.startswith("error: ")


def test_check_missing_model_is_config_error(capsys):
    code, _, err = run(capsys, "check", "--formula", "exists A. a[A]", "-k", "1")
    assert code >= 64
    assert "error:" in err


def test_check_paper_literal_flag(capsys, tmp_path):
    halted = tmp_path / "halt.kr"
    halted.write_text("ap a; states s0; init s0; halt s0; label s0 {a}; trans s0 -> s0;\n")
    # the printed release rule cannot establish G a even on halted traces
    code, _, _ = run(
        capsys, "check", "--formula", "exists A. G a[A]", "--model-default", str(halted),
        "-k", "2", "--semantics", "hpes", "--paper-literal",
    )
    assert code == 2
    code, _, _ = run(
        capsys, "check", "--formula", "exists A. G a[A]", "--model-default", str(halted),
        "-k", "2", "--semantics", "hpes",
    )
    assert code == 0


def test_oracle_subcommand(capsys, model_file):
    code, out, _ = run(
        capsys, "oracle", "--formula", "exists A. a[A]", "--model-default", model_file,
        "-k", "0", "--semantics", "pes",
    )
    assert code == 0
    assert out.strip() == "true"
    code, out, _ = run(
        capsys, "oracle", "--formula", "exists A. b[A]", "--model-default", model_file,
        "-k", "0", "--semantics", "pes",
    )
    assert out.strip() == "false"


def test_gen_bakery_round_trips(capsys, tmp_path):
    out_path = tmp_path / "bakery2.kr"
    code, _, _ = run(capsys, "gen", "bakery", "--n", "2", "-o", str(out_path))
    assert code == 0
    from hyperbmc.kripke import parse_kripke
    from hyperbmc.models import gen_bakery

    assert parse_kripke(out_path.read_text()) == gen_bakery(2)


def test_gen_grid_from_map(capsys, tmp_path):
    map_file = tmp_path / "m.map"
    map_file.write_text("..G\nI..\n")
    out_path = tmp_path / "grid.kr"
    code, _, _ = run(capsys, "gen", "grid", "--map", str(map_file), "-o", str(out_path))
    assert code == 0
    from hyperbmc.kripke import parse_kripke

    k = parse_kripke(out_path.read_text())
    assert any("goal" in k.labels[s] for s in k.states)


def test_gen_nonrep(capsys, tmp_path):
    out_path = tmp_path / "nr.kr"
    code, _, _ = run(capsys, "gen", "nonrep", "--variant", "correct", "-o", str(out_path))
    assert code == 0
    from hyperbmc.kripke import parse_kripke
    from hyperbmc.models import gen_nonrepudiation

    assert parse_kripke(out_path.read_text()) == gen_nonrepudiation("correct")


def test_gen_spec(capsys):
    code, out, _ = run(capsys, "gen", "spec", "--name", "shortest_path")
    assert code == 0
    assert "exists A. forall B. (!goal[B]) U goal[A]" in out


def test_gen_spec_unknown(capsys):
    code, _, err = run(capsys, "gen", "spec", "--name", "nope")
    assert code >= 64
    assert "unknown spec" in err


def test_bad_formula_syntax(capsys, model_file):
    code, _, err = run(
        capsys, "check", "--formula", "forall A. ((", "--model-default", model_file, "-k", "1"
    )
    assert code >= 64
    assert "error:" in err


def test_oracle_negate_flag(capsys, model_file):
    # the negation asks for an eventual !a, pessimistically never fulfilled
    code, out, _ = run(
        capsys, "oracle", "--formula", "forall A. G a[A]", "--model-default", model_file,
        "-k", "2", "--semantics", "pes", "--negate",
    )
    assert code == 0
    assert out.strip() == "false"


def test_check_from_bound(capsys, model_file):
    code, out, _ = run(
        capsys, "check", "--formula", "exists A. F a[A]", "--model-default", model_file,
        "-k", "3", "--from", "2", "--semantics", "pes",
    )
    assert code == 0
    assert "bound: 2" in out


def test_internal_error_exits_software(capsys, model_file, monkeypatch):
    # a crash must not exit 1, which reads as FAILS
    from hyperbmc import driver

    def boom(cfg):
        raise RuntimeError("simulated internal fault")

    monkeypatch.setattr(driver, "check", boom)
    code, out, err = run(
        capsys, "check", "--formula", "exists A. a[A]", "--model-default", model_file, "-k", "1"
    )
    assert code == 70
    assert out == ""
    assert err == "error: internal error: RuntimeError: simulated internal fault\n"


def test_stray_lookup_error_is_internal(capsys, model_file, monkeypatch):
    # only the project's own input errors exit 65; a KeyError is a bug
    from hyperbmc import driver

    def boom(cfg):
        raise KeyError("simulated lookup fault")

    monkeypatch.setattr(driver, "check", boom)
    code, out, err = run(
        capsys, "check", "--formula", "exists A. a[A]", "--model-default", model_file, "-k", "1"
    )
    assert code == 70
    assert out == ""
    assert err.startswith("error: internal error: KeyError:")



@pytest.mark.parametrize(
    "options, solver_env",
    [
        (["--solver", 'external:"quabs {file}'], ""),  # cannot be split
        ([], '"x {file}'),
        (["--solver", "external:quabs"], ""),  # no {file}
        (["--solver", "external:quabs {file}", "--timeout", "-1"], ""),
        (["--solver", "external:quabs {file}", "--timeout", "nan"], ""),
        (["--solver", "external:{file} -v"], ""),  # would run the QCIR file
        (["--timeout", "-1"], ""),  # the builtin solver once let these pass
        (["--timeout", "nan"], ""),
    ],
)
def test_bad_solver_options_are_data_errors(capsys, model_file, monkeypatch, options, solver_env):
    # each once failed only after the first bound was encoded: an unsplittable
    # command or a NaN timeout with exit 70, a negative timeout as a timeout,
    # and {file} as the program by running the QCIR file (exit 64)
    from hyperbmc import driver

    encoded = []
    monkeypatch.setattr(driver, "assemble_qbf", lambda *args, **kwargs: encoded.append(args))
    monkeypatch.setenv(driver.SOLVER_ENV, solver_env)  # "" reads as unset
    code, out, err = run(
        capsys, "check", "--formula", "exists A. a[A]", "--model-default", model_file, "-k", "1", *options
    )
    assert (code, out, encoded) == (65, "", [])
    assert err.startswith("error: ")


@pytest.mark.skipif(sys.platform != "linux", reason="the address-space limit is enforced on Linux")
def test_out_of_memory_exits_66(tmp_path):
    # the ∀∃ sweep at k=6000 needs about 100 MB; in a 60 MB address space
    # it once ended as an internal error (exit 70)
    import resource

    from hyperbmc import cli

    model = tmp_path / "complete.kr"
    model.write_text(COMPLETE_KR)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = [
        "check", "--formula", "forall A. exists B. G (a[A] <-> a[B])", "--model-default", str(model),
        "--semantics", "opt", "-k", "6000", "--from", "6000",
    ]
    cap = 60 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "hyperbmc.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stdout) == (66, "")
    assert proc.stderr.startswith("error: out of memory")


def test_undecodable_model_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.kr"
    bad.write_bytes(b"ap a; states \xff;\n")
    code, _, err = run(capsys, "check", "--formula", "exists A. a[A]", "--model-default", str(bad), "-k", "1")
    assert code == 65
    assert err.startswith("error: ")


def test_check_long_conjunction(capsys, tmp_path):
    # normalizing 3000 conjuncts once overflowed the recursion limit (exit 70)
    model = tmp_path / "bakery2.kr"
    assert run(capsys, "gen", "bakery", "--n", "2", "-o", str(model))[0] == 0
    formula = tmp_path / "long.hltl"
    formula.write_text(
        "forall A. forall B. " + " & ".join(["(pause[A] <-> pause[B])"] * 3000) + "\n"
    )
    code, out, _ = run(
        capsys, "check", "--formula", str(formula), "--model-default", str(model), "-k", "2",
    )
    # both traces start in the initial state, and the body reads step 0 only
    assert code == 0
    assert "verdict: HOLDS" in out


CYCLE = "ap a; states s0 s1; init s0; label s0 {a}; label s1 {}; trans s0 -> s1; trans s1 -> s0;\n"


def test_deep_inputs_do_not_crash(capsys, tmp_path):
    # each of these once raised RecursionError and exited 70
    model = tmp_path / "cycle.kr"
    model.write_text(CYCLE)
    m = ("--model-default", str(model))
    # the witness re-check at k=1000: G is true on every step, the bound
    # decides nothing more under opt, so the check cannot conclude
    code, _, err = run(
        capsys, "check", "--formula", "exists A. G (a[A] | !a[A])", *m,
        "--semantics", "opt", "-k", "1000", "--from", "1000",
    )
    assert (code, err) == (2, "")
    # prefix enumeration and evaluation at k=1200
    code, out, _ = run(
        capsys, "oracle", "--formula", "exists A. F !a[A]", *m, "-k", "1200", "--semantics", "pes",
    )
    assert code == 0 and out.strip() == "true"
    # 1,200 quantifiers, in the witness re-check and in the oracle
    one = tmp_path / "one.kr"
    one.write_text("ap a; states s0; init s0; label s0 {a}; trans s0 -> s0;\n")
    alternating = " ".join(f"{'forall' if i % 2 else 'exists'} A{i}." for i in range(1200)) + " a[A0]"
    code, out, _ = run(capsys, "check", "--formula", alternating, "--model-default", str(one), "-k", "1")
    assert code == 0 and "verdict: HOLDS" in out
    existential = " ".join(f"exists A{i}." for i in range(1200)) + " a[A0]"
    code, out, _ = run(
        capsys, "oracle", "--formula", existential, "--model-default", str(one), "-k", "1", "--semantics", "pes",
    )
    assert code == 0 and out.strip() == "true"
    # parentheses too deep to parse are an input error
    deep = "exists A. " + "(" * 150 + "a[A]" + ")" * 150
    code, _, err = run(capsys, "check", "--formula", deep, *m, "-k", "2")
    assert code == 65 and "nested deeper" in err
    # long prefix and right-associative chains
    code, _, _ = run(capsys, "check", "--formula", "exists A. " + "X " * 1000 + "a[A]", *m, "-k", "2")
    assert code == 2
    chain = "forall A. " + " -> ".join(["a[A]"] * 3000)
    code, out, _ = run(capsys, "check", "--formula", chain, *m, "-k", "2")
    assert code == 0 and "verdict: HOLDS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--formula", "exists A. a[A]"],  # missing -k
        ["check", "--formula", "exists A. a[A]", "-k", "y"],
        ["check", "--formula", "exists A. a[A]", "-k", "1", "--bogus"],
        ["check", "--formula", "exists A. a[A]", "-k", "1", "--semantics", "no"],
        [],  # no subcommand
        ["gen"],
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    # argparse's own exit code 2 would read as UNKNOWN
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 64
    assert "usage: hyperbmc" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "--help"])
    assert e.value.code == 0
    assert "--formula" in capsys.readouterr().out


def test_oracle_negative_bound_is_data_error(capsys, model_file):
    code, out, err = run(
        capsys, "oracle", "--formula", "exists A. F a[A]", "--model-default", model_file,
        "-k", "-1", "--semantics", "pes",
    )
    assert (code, out) == (65, "")
    assert err == "error: bounds must be nonnegative\n"


@pytest.mark.parametrize("formula, semantics", [
    ("exists A. zz[A]", "pes"),  # a proposition the model does not declare
    ("exists A. F a[A]", "hpes"),  # halting semantics on a model without halt states
])
def test_oracle_rejects_what_check_rejects(capsys, model_file, formula, semantics):
    argv = ["--formula", formula, "--model-default", model_file, "-k", "1", "--semantics", semantics]
    check = run(capsys, "check", *argv)
    assert check[:2] == (65, "")
    assert run(capsys, "oracle", *argv) == check
