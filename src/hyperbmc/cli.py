"""Command line interface.

    hyperbmc check  ...   bounded model checking with sound verdicts
    hyperbmc oracle ...   brute-force bounded evaluation (debugging)
    hyperbmc gen    ...   write bundled case-study models and formulas

Exit codes for `check`: 0 the property holds, 1 it fails, 2 no conclusion
at the bound; 64 and up for usage or input errors (64 for bad or missing
arguments, 65 for bad input); 66 when the check could not finish: a
solver, oracle or driver error, such as the builtin solver's node cap, a
failing external solver, or running out of memory; 70 for an internal
error.
"""

import argparse
import json
import os
import sys

from . import driver, models, oracle, qbf
from . import hyperltl as hl
from .kripke import KripkeError, parse_kripke, render

EXIT_BY_VERDICT = {driver.HOLDS: 0, driver.FAILS: 1, driver.UNKNOWN: 2}
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_CHECK = 66  # the check could not finish; see the module docstring
EXIT_SOFTWARE = 70  # sysexits EX_SOFTWARE: a crash must not read as a verdict

MODES = ("falsify", "prove", "raw")


def _read_formula(spec: str) -> hl.HyperFormula:
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
    else:
        text = spec
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    return hl.parse_formula(" ".join(lines) if lines else text)


def _load_models(formula, model_args, model_default):
    assigned = {}
    for item in model_args or []:
        if "=" not in item:
            raise driver.ConfigError(f"--model expects VAR=PATH, got {item!r}")
        var, path = item.split("=", 1)
        with open(path) as fh:
            assigned[var] = parse_kripke(fh.read())
    default = None
    if model_default:
        with open(model_default) as fh:
            default = parse_kripke(fh.read())
    out = {}
    for _, var in formula.prefix:
        if var in assigned:
            out[var] = assigned[var]
        elif default is not None:
            out[var] = default
        else:
            raise driver.ConfigError(f"no model for trace variable {var!r}")
    for var in assigned:
        if var not in out:
            raise driver.ConfigError(f"--model names unknown trace variable {var!r}")
    return out


def _cmd_check(args) -> int:
    for path in filter(None, (args.witness, args.emit_qcir)):  # before any bound is encoded
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise OSError(f"cannot write {path}: it is a directory, or its directory does not exist")
    formula = _read_formula(args.formula)
    mdl = _load_models(formula, args.model, args.model_default)
    semantics = args.semantics or (oracle.OPT if args.mode == "prove" else oracle.PES)
    cfg = driver.CheckConfig(
        formula=formula,
        models=mdl,
        k_from=getattr(args, "from"),
        k_max=args.k,
        semantics=semantics,
        negate_first=args.mode != "raw",  # falsify and prove check the negation
        paper_literal=args.paper_literal,
        solver=driver.resolve_solver(args.solver),
        emit_qcir_path=args.emit_qcir,
        solver_timeout=args.timeout,
    )
    verdict = driver.check(cfg)

    if args.witness:  # emptied when there is no witness, so no earlier run's is left
        with open(args.witness, "w") as fh:
            fh.write(driver.format_witness(verdict.witness, mdl) if verdict.witness else "")

    if args.format == "json":
        payload = {
            "schema": "hyperbmc/1",
            "interpretation": verdict.interpretation,
            "k": verdict.k,
            "qbf_value": verdict.qbf_value,
            "semantics": semantics,
            "mode": args.mode,
            "checked_negation": verdict.checked_negation,
            "paper_literal": args.paper_literal,
            "fragment_hint": verdict.fragment_hint,
            "witness": None
            if not verdict.witness
            else {
                var: [sorted(letter) for letter in prefix.letters]
                for var, prefix in verdict.witness.items()
            },
            "witness_status": verdict.witness_status,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"verdict: {verdict.interpretation}")
        print(f"bound: {verdict.k}")
        print(f"qbf: {'TRUE' if verdict.qbf_value else 'FALSE'}")
        target = "negation of the formula" if verdict.checked_negation else "formula as given"
        print(f"semantics: {semantics} (checked: {target})")
        print(f"fragment hint: {verdict.fragment_hint}")
        if verdict.witness:
            print("witness:")
            for line in driver.format_witness(verdict.witness, mdl).splitlines():
                print(f"  {line}")
    return EXIT_BY_VERDICT[verdict.interpretation]


def _cmd_oracle(args) -> int:
    formula = _read_formula(args.formula)
    mdl = _load_models(formula, args.model, args.model_default)
    cfg = driver.CheckConfig(
        formula=formula, models=mdl, k_from=args.k, k_max=args.k,
        semantics=args.semantics, negate_first=args.negate,
    )
    value = oracle.check_bounded(mdl, driver.prepare(cfg), args.k, args.semantics, args.paper_literal)
    print("true" if value else "false")
    return 0


def _write_or_print(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.what == "bakery":
        _write_or_print(render(models.gen_bakery(args.n)), args.output)
    elif args.what == "grid":
        with open(args.map) as fh:
            grid = models.parse_grid_map(fh.read())
        _write_or_print(render(models.gen_grid(*grid)), args.output)
    elif args.what == "nonrep":
        _write_or_print(render(models.gen_nonrepudiation(args.variant)), args.output)
    else:
        entry = models.builtin_spec(args.name)
        text = (
            f"# {entry.name}: arity {entry.arity}, roles {', '.join(entry.roles)}\n"
            f"# {entry.notes}\n{entry.formula}\n"
        )
        _write_or_print(text, args.output)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Bad or missing arguments exit EXIT_USAGE; argparse's own 2 reads as UNKNOWN."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="hyperbmc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="bounded model checking")
    p.add_argument("--formula", required=True, help="formula file (or literal formula text)")
    p.add_argument("--model", action="append", metavar="VAR=PATH.kr", help="model for one trace variable")
    p.add_argument("--model-default", metavar="PATH.kr", help="model for unassigned trace variables")
    p.add_argument("-k", type=int, required=True, metavar="KMAX", help="largest unrolling bound")
    p.add_argument("--from", type=int, default=0, metavar="K0", help="first bound (default 0)")
    p.add_argument("--semantics", choices=oracle.SEMANTICS, default=None)
    p.add_argument("--mode", choices=MODES, default="raw")
    p.add_argument("--paper-literal", action="store_true", help="printed halting release rule")
    p.add_argument("--solver", default=None, metavar='builtin|external:"CMD {file}"')
    p.add_argument("--timeout", type=float, default=None, help="external solver timeout (s)")
    p.add_argument("--emit-qcir", metavar="PATH", help="write the QCIR of each bound checked")
    p.add_argument("--witness", metavar="PATH", help="write the witness traces, one line per variable")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="brute-force bounded evaluation (debugging)")
    p.add_argument("--formula", required=True)
    p.add_argument("--model", action="append", metavar="VAR=PATH.kr")
    p.add_argument("--model-default", metavar="PATH.kr")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--semantics", choices=oracle.SEMANTICS, required=True)
    p.add_argument("--paper-literal", action="store_true")
    p.add_argument("--negate", action="store_true", help="evaluate the negated formula")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="write bundled models and formulas")
    gensub = p.add_subparsers(dest="what", required=True)
    g = gensub.add_parser("bakery")
    g.add_argument("--n", type=int, default=2, choices=(2, 3))
    g.add_argument("-o", "--output", metavar="PATH.kr")
    g = gensub.add_parser("grid")
    g.add_argument("--map", required=True, metavar="FILE.txt")
    g.add_argument("-o", "--output", metavar="PATH.kr")
    g = gensub.add_parser("nonrep")
    g.add_argument("--variant", choices=("correct", "incorrect"), required=True)
    g.add_argument("-o", "--output", metavar="PATH.kr")
    g = gensub.add_parser("spec")
    g.add_argument("--name", required=True, help=f"one of: {', '.join(models.spec_names())}")
    g.add_argument("-o", "--output", metavar="PATH.hltl")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (driver.ConfigError, hl.FormulaError, KripkeError, models.ModelError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (oracle.OracleError, driver.DriverError, qbf.QbfError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK
    except MemoryError:
        print("error: out of memory: the check needs more memory than this process may use",
              file=sys.stderr)
        return EXIT_CHECK
    except Exception as e:
        detail = " ".join(str(e).split())
        print(f"error: internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
