"""Bound-iteration loop, sound verdict interpretation, witness handling.

check() encodes the selected formula for k = kFrom..kMax, solves each
bound, and stops at the first verdict the one-sided soundness results
license: a pessimistic-family TRUE establishes the checked formula, an
optimistic-family FALSE refutes it, everything else is inconclusive.
Under classic no bound is conclusive, so only kMax is solved.
With negate-first workflows the verdict then maps back to the original
formula, turning an established negation into a refutation with a
counterexample and vice versa.

Under pes, opt, hpes and hopt (but not paper_literal under hpes/hopt) a
conclusive bound stays conclusive at every larger bound, so an
inconclusive kMax settles the sweep. The sweep pays a rent of k+1 for
each bound k it solves; once the rent reaches kMax+1, it solves kMax
once before its next bound (ski rental: rent until the rent paid equals
the price of buying). An inconclusive probe is the verdict; a conclusive
one is kept, the sweep goes on, and the probe is reported only if no
bound below kMax concludes. So at most one extra kMax solve is lost, and
never more than the bounds already solved cost.
"""

import math
import os
from dataclasses import dataclass

from . import hyperltl as hl
from . import oracle, qbf
from .encoder import assemble_qbf, build_layout, state_orders
from .kripke import HALT_AP, KripkeStructure, TracePrefix, make_prefix, validate

HOLDS = "HOLDS"
FAILS = "FAILS"
UNKNOWN = "UNKNOWN"

SOLVER_ENV = "HYPERBMC_SOLVER"


class DriverError(Exception):
    pass


class ConfigError(DriverError):
    pass


class InvalidWitnessError(DriverError):
    """A decoded assignment violates the structure; an encoder or solver bug."""


@dataclass
class CheckConfig:
    formula: hl.HyperFormula
    models: dict  # trace variable -> KripkeStructure
    k_from: int = 0
    k_max: int = 10
    semantics: str = oracle.PES
    negate_first: bool = False
    paper_literal: bool = False
    solver: str = "builtin"  # or an external command template with {file}
    emit_qcir_path: str | None = None
    solver_timeout: float | None = None


@dataclass
class Verdict:
    k: int
    qbf_value: bool
    interpretation: str
    witness: dict | None  # trace variable -> TracePrefix
    fragment_hint: str
    checked_negation: bool
    # "verified": `witness` holds the solver's witness, re-checked by the
    # backward tableau (recheck.py) when one quantifier block is left, else
    # by the oracle; "unverified": the solver found one, but that re-check's
    # explosion guard stopped it, so `witness` is None; None: no witness.
    witness_status: str | None = None


@dataclass
class _Bound:
    """One solved bound: what _report needs to decode and interpret it."""

    k: int
    layout: object  # encoder.VarLayout
    q: qbf.PrenexQBF
    result: qbf.SolveResult


def interpret(qbf_value: bool, sem: str) -> str:
    """Sound reading of a raw QBF verdict for the formula actually encoded."""
    if sem in (oracle.PES, oracle.HPES) and qbf_value:
        return HOLDS
    if sem in (oracle.OPT, oracle.HOPT) and not qbf_value:
        return FAILS
    return UNKNOWN


def _flip(interpretation: str) -> str:
    if interpretation == HOLDS:
        return FAILS
    if interpretation == FAILS:
        return HOLDS
    return UNKNOWN


def extract_witness(assignment, layout, var, structure: KripkeStructure) -> TracePrefix:
    """Decode one trace variable's block of a solver assignment into a prefix.

    Each step's bits spell a code, which the layout maps to its state.
    """
    states = []
    for step in range(layout.bound + 1):
        code = sum(assignment[bit] << j for j, bit in enumerate(layout.sb_ids(var, step)))
        state = layout.state(var, code)
        if state is None:
            raise InvalidWitnessError(f"state code {code} names no state at step {step}")
        states.append(state)
    if states[0] != structure.init:
        raise InvalidWitnessError(f"decoded path starts at {states[0]!r}, not the initial state")
    for a, b in zip(states, states[1:]):
        if (a, b) not in structure.trans:
            raise InvalidWitnessError(f"decoded path uses missing transition {a!r} -> {b!r}")
    return make_prefix(structure, tuple(states))


def _validate_config(cfg: CheckConfig):
    if cfg.k_from > cfg.k_max:
        raise ConfigError(f"kFrom {cfg.k_from} exceeds kMax {cfg.k_max}")
    if cfg.k_from < 0:
        raise ConfigError("bounds must be nonnegative")
    if cfg.semantics not in oracle.SEMANTICS:
        raise ConfigError(f"unknown semantics {cfg.semantics!r}")
    if cfg.solver != "builtin":
        try:
            qbf.external_argv(cfg.solver)
        except qbf.QbfError as e:
            raise ConfigError(str(e)) from None
    if cfg.solver_timeout is not None and not 0 <= cfg.solver_timeout < math.inf:
        raise ConfigError(f"solver timeout {cfg.solver_timeout} is not a finite nonnegative number")
    for _, var in cfg.formula.prefix:
        if var not in cfg.models:
            raise ConfigError(f"no model assigned to trace variable {var!r}")
        validate(cfg.models[var])
    if cfg.semantics in (oracle.HPES, oracle.HOPT):
        for _, var in cfg.formula.prefix:
            if not cfg.models[var].halt:
                raise ConfigError(
                    f"semantics {cfg.semantics!r} requires halt states, but the model "
                    f"for {var!r} declares none"
                )


def _validate_aps(formula, models):
    for var, aps in hl.aps_read(formula.body).items():
        declared = set(models[var].aps)
        for ap in sorted(aps):
            if ap != HALT_AP and ap not in declared:
                raise ConfigError(
                    f"formula mentions {ap!r} on trace variable {var!r}, "
                    f"which its model does not declare"
                )


def prepare(cfg: CheckConfig) -> hl.HyperFormula:
    """Validate cfg and return the formula to check: its negation if negate_first."""
    _validate_config(cfg)
    checked = hl.negate(cfg.formula) if cfg.negate_first else hl.normalize(cfg.formula)
    _validate_aps(checked, cfg.models)
    return checked


def _solve_bound(cfg: CheckConfig, checked, orders, k: int) -> _Bound:
    """Lay out, encode, emit and solve one bound."""
    layout = build_layout(cfg.models, checked, k, orders)
    q = assemble_qbf(checked, cfg.models, k, cfg.semantics, cfg.paper_literal, layout)
    text = _emit(cfg, q)
    if cfg.solver == "builtin":
        result = qbf.solve(q)
    else:
        result = qbf.run_external(cfg.solver, text or q, timeout=cfg.solver_timeout)
    return _Bound(k, layout, q, result)


def _emit(cfg: CheckConfig, q):
    """q's QCIR document, written to cfg.emit_qcir_path; None, and not rendered, without that path."""
    if cfg.emit_qcir_path:
        text = qbf.emit_qcir(q)
        with open(cfg.emit_qcir_path, "w") as fh:
            fh.write(text)
        return text
    return None


def _report(cfg: CheckConfig, checked, hint: str, bound: _Bound) -> Verdict:
    """Decode and re-check one solved bound's witness, and interpret its value."""
    k, layout, result = bound.k, bound.layout, bound.result
    witness = None
    witness_status = None
    outer_quant = checked.prefix[0][0] if checked.prefix else None
    # The builtin solver assigns the outer block whenever the outer
    # quantifier's choice decides the value. A trace with a one-state
    # model has an empty block, which make_prenex drops; its single path
    # is then the choice, so decode from an empty assignment.
    if cfg.solver == "builtin" and outer_quant and result.value == (outer_quant == hl.EXISTS):
        n_outer = 0
        for q_, _ in checked.prefix:
            if q_ != outer_quant:
                break
            n_outer += 1
        traces = {}
        for _, var in checked.prefix[:n_outer]:
            traces[var] = extract_witness(result.outer_witness or {}, layout, var, cfg.models[var])
        # One residual block is re-checked by the backward tableau, more
        # by enumerating the residual prefixes.
        if len({q_ for q_, _ in checked.prefix[n_outer:]}) <= 1:
            from . import recheck

            verify = recheck.verify_witness
        else:
            verify = oracle.verify_witness
        try:
            confirmed = verify(traces, cfg.models, checked, k, cfg.semantics, cfg.paper_literal)
        except oracle.ExplosionGuardError:
            # The re-check's explosion guard fired; the decoded paths are
            # still structure-valid, but an unverified witness is never
            # reported, only its status.
            traces = None
            if outer_quant == hl.EXISTS:
                witness_status = "unverified"
        else:
            # An existential witness must make the rest true (value TRUE),
            # a universal countermodel must make it false (value FALSE);
            # either way the substituted residual must equal the value.
            expected = result.value
            if confirmed is not expected:
                raise InvalidWitnessError(
                    "solver witness failed independent re-verification "
                    f"(bound {k}, value {result.value})"
                )
        if traces is not None and outer_quant == hl.EXISTS:
            witness = traces
            witness_status = "verified"

    interpretation = interpret(result.value, cfg.semantics)
    return Verdict(
        k=k,
        qbf_value=result.value,
        interpretation=_flip(interpretation) if cfg.negate_first else interpretation,
        witness=witness,
        fragment_hint=hint,
        checked_negation=cfg.negate_first,
        witness_status=witness_status,
    )


def check(cfg: CheckConfig) -> Verdict:
    """Run the bounded check loop and return the first conclusive verdict.

    The verdict is the one of a plain sweep: the least conclusive bound in
    kFrom..kMax, else kMax's. Under the monotone semantics the sweep may
    solve kMax once, early (see the module docstring); that probe is
    reported only where the sweep would report kMax, and a probe that
    hits a limit is not known, so the sweep goes on without it.

    Any reported witness has been re-verified first: by the backward
    tableau of recheck.py when at most one quantifier block is left once
    the outer block is pinned, else by the brute-force evaluator. A failed
    re-verification raises InvalidWitnessError instead of reporting, since
    it can only mean an internal bug. Every bound solved in sweep order is
    re-checked this way, the probe only when it is reported.
    """
    checked = prepare(cfg)
    hint = hl.classify_fragment(checked)

    orders = state_orders(cfg.models, checked)
    probe = cfg.semantics != oracle.CLASSIC and not (
        cfg.paper_literal and cfg.semantics in (oracle.HPES, oracle.HOPT)
    )
    rent = 0  # bounds k solved in sweep order, each costing k+1
    kept = None  # the probe's solved kMax, while it is conclusive
    for k in range(cfg.k_max if cfg.semantics == oracle.CLASSIC else cfg.k_from, cfg.k_max):
        if probe and rent >= cfg.k_max + 1:
            probe = False
            try:
                kept = _solve_bound(cfg, checked, orders, cfg.k_max)
            except (qbf.QbfError, MemoryError):
                pass  # not known; kMax is solved again if the sweep gets there
            else:
                if interpret(kept.result.value, cfg.semantics) == UNKNOWN:
                    # monotone: no bound below kMax concludes either
                    return _report(cfg, checked, hint, kept)
        rent += k + 1
        verdict = _report(cfg, checked, hint, _solve_bound(cfg, checked, orders, k))
        if verdict.interpretation != UNKNOWN:
            return verdict
    if kept is None:
        kept = _solve_bound(cfg, checked, orders, cfg.k_max)
    else:
        _emit(cfg, kept.q)  # the sweep's bounds since the probe overwrote its document
    return _report(cfg, checked, hint, kept)


def resolve_solver(flag: str | None) -> str:
    """Solver selection: explicit flag, then the environment, then builtin."""
    if flag:
        if flag == "builtin":
            return "builtin"
        if flag.startswith("external:"):
            return flag[len("external:") :]
        raise ConfigError(f"bad --solver value {flag!r}")
    env = os.environ.get(SOLVER_ENV)
    return env if env else "builtin"


def format_witness(witness, models) -> str:
    """Witness file body: one line per trace variable, one letter set per step."""
    lines = []
    for var in sorted(witness):
        prefix = witness[var]
        aps = models[var].aps
        sets = []
        for letter in prefix.letters:
            sets.append("{" + ",".join(a for a in aps if a in letter) + "}")
        lines.append(f"{var}: " + " ".join(sets))
    return "\n".join(lines) + "\n"
