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
    _check_semantics(sem)

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


def _check_semantics(sem):
    if sem not in SEMANTICS + (CLASSIC_DUAL,):
        raise OracleError(f"unknown semantics {sem!r}")


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
    enumerate and is rejected. The quantifiers are walked on an explicit
    stack, so the prefix's length does not meet the recursion limit: each
    open quantifier keeps an iterator over the prefixes it has yet to try,
    and a value that decides a quantifier (True under exists, False under
    forall) skips the rest of them.
    """
    _check_semantics(sem)
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

    assignment = dict(pinned)
    if not rest:
        return eval_body(assignment, 0, formula.body, k, sem, paper_literal)
    branches = [iter(prefix_sets[id(models[rest[0][1]])])]
    while branches:
        quant, var = rest[len(branches) - 1]
        t = next(branches[-1], None)
        if t is None:  # no prefix decided it
            value = quant != hl.EXISTS
        else:
            assignment[var] = t
            if len(branches) < len(rest):
                branches.append(iter(prefix_sets[id(models[rest[len(branches)][1]])]))
                continue
            value = eval_body(assignment, 0, formula.body, k, sem, paper_literal)
            if value != (quant == hl.EXISTS):
                continue
        # value decides the innermost open quantifier, and each enclosing one it decides too
        branches.pop()
        while branches and value == (rest[len(branches) - 1][0] == hl.EXISTS):
            branches.pop()
    return value
