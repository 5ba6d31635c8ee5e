"""Ground-truth bounded evaluator over explicitly enumerated trace prefixes.

This is the reference implementation the circuit encoder is tested against:
the bounded satisfaction rules applied literally, with quantifiers ranging
over enumerated prefixes. It trades all efficiency for obviousness.
"""

from . import hyperltl as hl
from .kripke import HALT_AP, count_prefixes, enumerate_prefixes

PES = "pes"
OPT = "opt"
HPES = "hpes"
HOPT = "hopt"
CLASSIC = "classic"
CLASSIC_DUAL = "classic-dual"  # internal: dual of the fixed base-case scheme

SEMANTICS = (PES, OPT, HPES, HOPT, CLASSIC)

ENUMERATION_CAP = 10**6


class OracleError(Exception):
    pass


class UnassignedVariableError(OracleError):
    def __init__(self, var):
        super().__init__(f"trace variable {var!r} has no assigned prefix")
        self.var = var


class ExplosionGuardError(OracleError):
    def __init__(self, count):
        super().__init__(f"{count} prefix combinations exceed the enumeration cap")
        self.count = count


def dual(sem: str) -> str:
    return {
        PES: OPT,
        OPT: PES,
        HPES: HOPT,
        HOPT: HPES,
        CLASSIC: CLASSIC_DUAL,
        CLASSIC_DUAL: CLASSIC,
    }[sem]


def eval_body(assignment, i, body, k, sem, paper_literal=False):
    """Bounded truth of an NNF body at step i under one semantics.

    `assignment` maps every trace variable mentioned by the body to a
    TracePrefix of length k+1. The temporal cases at i=k branch on the
    semantics; everything below k is shared by all of them. The rules run
    on hyperltl.rewrite, so neither k nor the body's depth meets the
    recursion limit; they short-circuit as a recursion would, and results
    are memoized per (subformula, step) for the duration of one call.
    """

    def halting(at_k):
        halted = all(prefix.halted[k] for prefix in assignment.values())
        return halted and at_k if sem == HPES else not halted or at_k

    def run(item):
        b, i = item
        if isinstance(b, hl.Const):
            return b.value
        if isinstance(b, (hl.Atom, hl.NegAtom)):
            prefix = assignment.get(b.var)
            if prefix is None:
                raise UnassignedVariableError(b.var)
            if b.ap == HALT_AP:
                holds = prefix.halted[i]
            else:
                holds = b.ap in prefix.letters[i]
            return holds if isinstance(b, hl.Atom) else not holds
        if isinstance(b, hl.And):
            return (yield b.left, i) and (yield b.right, i)
        if isinstance(b, hl.Or):
            return (yield b.left, i) or (yield b.right, i)

        if isinstance(b, hl.Next):
            if i < k:
                return (yield b.sub, i + 1)
            if sem in (PES, CLASSIC):
                return False
            if sem in (OPT, CLASSIC_DUAL):
                return True
            return halting((yield b.sub, k))

        if isinstance(b, hl.Until):
            if i < k:
                return (yield b.right, i) or ((yield b.left, i) and (yield b, i + 1))
            if sem == PES:
                return False
            if sem == OPT:
                return True
            if sem == CLASSIC:
                return (yield b.right, k)
            if sem == CLASSIC_DUAL:
                return (yield b.right, k) or (yield b.left, k)
            return halting((yield b.right, k))

        if isinstance(b, hl.Release):
            if i < k:
                return (yield b.right, i) and ((yield b.left, i) or (yield b, i + 1))
            if sem == PES:
                return False
            if sem == OPT:
                return True
            if sem == CLASSIC:
                return (yield b.right, k) and (yield b.left, k)
            if sem == CLASSIC_DUAL:
                return (yield b.right, k)
            # The printed rule tests the left argument here; that breaks both
            # monotonicity and exactness on halted traces, so the default tests
            # the right one and paper_literal restores the printed behavior.
            return halting((yield b.left if paper_literal else b.right, k))

        raise OracleError(f"body not in NNF core: {b!r}")

    return hl.rewrite((body, i), run, key=lambda item: (id(item[0]), item[1]))


def check_bounded(models, formula, k, sem, paper_literal=False):
    """Evaluate a closed NNF formula: quantifiers by enumeration, body at i=0."""
    return _quantify(models, formula, k, sem, paper_literal, {})


def verify_witness(witness, models, formula, k, sem, paper_literal=False):
    """Bounded truth of `formula` with a leading block of variables pinned.

    `witness` maps a prefix of the quantifier variables to concrete trace
    prefixes; the remaining quantifiers are evaluated by enumeration. For an
    existential witness the caller expects True, for a universal countermodel
    False.
    """
    leading = [v for _, v in formula.prefix[: len(witness)]]
    if set(leading) != set(witness):
        raise OracleError("witness must cover a leading block of the prefix")
    return _quantify(models, formula, k, sem, paper_literal, dict(witness))


def _quantify(models, formula, k, sem, paper_literal, pinned):
    """Truth with the leading len(pinned) quantifiers fixed, the rest enumerated.

    The product of the remaining prefix counts is compared with the cap
    before any prefix is enumerated. A negative bound has no prefixes to
    enumerate and is rejected.
    """
    if k < 0:
        raise OracleError(f"bound {k} is negative")
    rest = formula.prefix[len(pinned) :]
    total = 1
    for _, var in rest:
        total *= count_prefixes(models[var], k)
        if total > ENUMERATION_CAP:
            raise ExplosionGuardError(total)
    prefix_sets = {}
    for _, var in rest:
        if id(models[var]) not in prefix_sets:
            prefix_sets[id(models[var])] = enumerate_prefixes(models[var], k)

    def go(idx, assignment):
        if idx == len(rest):
            return eval_body(assignment, 0, formula.body, k, sem, paper_literal)
        quant, var = rest[idx]
        branches = (go(idx + 1, {**assignment, var: t}) for t in prefix_sets[id(models[var])])
        return any(branches) if quant == hl.EXISTS else all(branches)

    return go(0, pinned)
