"""HyperLTL formulas: concrete syntax, AST, desugaring, NNF, negation.

Formulas are prenex: a chain of trace quantifiers in front of a
quantifier-free temporal body. Atoms are written `p[X]` where X is a
trace variable bound in the prefix; the reserved atom `@halt[X]` is true
exactly on the halt states of X's structure.
"""

import re
from dataclasses import dataclass


class FormulaError(Exception):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message, pos):
        super().__init__(f"at offset {pos}: {message}")
        self.pos = pos


class UnboundVariableError(FormulaError):
    def __init__(self, var):
        super().__init__(f"unbound trace variable {var!r}")
        self.var = var


@dataclass(frozen=True)
class Body:
    pass


@dataclass(frozen=True)
class Const(Body):
    value: bool


@dataclass(frozen=True)
class Atom(Body):
    ap: str
    var: str


@dataclass(frozen=True)
class NegAtom(Body):
    ap: str
    var: str


@dataclass(frozen=True)
class Not(Body):
    sub: Body


@dataclass(frozen=True)
class And(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class Or(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class Implies(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class Iff(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class Next(Body):
    sub: Body


@dataclass(frozen=True)
class Eventually(Body):
    sub: Body


@dataclass(frozen=True)
class Always(Body):
    sub: Body


@dataclass(frozen=True)
class Until(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class Release(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class WeakUntil(Body):
    left: Body
    right: Body


TRUE = Const(True)
FALSE = Const(False)

FORALL = "forall"
EXISTS = "exists"


@dataclass(frozen=True)
class HyperFormula:
    prefix: tuple  # ((quantifier, trace variable), ...)
    body: Body


_TOKEN = re.compile(
    r"\s+|(?P<lp>\()|(?P<rp>\))|(?P<lb>\[)|(?P<rb>\])|(?P<dot>\.)"
    r"|(?P<iff><->)|(?P<imp>->)|(?P<and>&)|(?P<or>\|)|(?P<not>!)"
    r"|(?P<id>@halt|[A-Za-z_][A-Za-z0-9_]*)"
)

_RESERVED = {"forall", "exists", "true", "false", "U", "R", "W", "X", "F", "G"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if not m.group().isspace():
            kind = m.lastgroup
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


# Deeper parentheses are a syntax error: each level costs the parser ten
# stack frames, well inside Python's default recursion limit of 1000.
MAX_NESTING = 64

_PREFIX = {"!": Not, "X": Next, "F": Eventually, "G": Always}


class _FormulaParser:
    """Recursive descent; precedence !XFG > U/R/W > & > | > -> > <->.

    Operator chains are parsed in loops; only parentheses nest calls.
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses open at the current token

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg):
        kind, val, pos = self.peek()
        raise FormulaSyntaxError(msg + (f" (found {val!r})" if val else ""), pos)

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.error(f"expected {kind}")
        return self.next()

    def parse(self):
        prefix = []
        while self.peek()[0] == "id" and self.peek()[1] in (FORALL, EXISTS):
            quant = self.next()[1]
            kind, var, _ = self.expect("id")
            if var in _RESERVED:
                self.error(f"reserved word {var!r} cannot name a trace variable")
            self.expect("dot")
            prefix.append((quant, var))
        body = self.parse_iff()
        kind, val, pos = self.peek()
        if kind != "eof":
            if val in (FORALL, EXISTS):
                raise FormulaSyntaxError("quantifier after body start", pos)
            self.error("trailing input")
        f = HyperFormula(prefix=tuple(prefix), body=body)
        _check_closed(f)
        return f

    def right_chain(self, ops, operand):
        """operand (op operand)*, grouped to the right; ops maps each op's text to its node."""
        operands, makes = [operand()], []
        while self.peek()[1] in ops:
            makes.append(ops[self.next()[1]])
            operands.append(operand())
        node = operands.pop()
        while makes:
            node = makes.pop()(operands.pop(), node)
        return node

    def parse_iff(self):
        return self.right_chain({"<->": Iff}, self.parse_implies)

    def parse_implies(self):
        return self.right_chain({"->": Implies}, self.parse_or)

    def parse_or(self):
        left = self.parse_and()
        while self.peek()[0] == "or":
            self.next()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_binary_temporal()
        while self.peek()[0] == "and":
            self.next()
            left = And(left, self.parse_binary_temporal())
        return left

    def parse_binary_temporal(self):
        return self.right_chain({"U": Until, "R": Release, "W": WeakUntil}, self.parse_unary)

    def parse_unary(self):
        makes = []
        while self.peek()[1] in _PREFIX:
            makes.append(_PREFIX[self.next()[1]])
        node = self.parse_atom()
        while makes:
            node = makes.pop()(node)
        return node

    def parse_atom(self):
        kind, val, pos = self.peek()
        if kind == "lp":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.next()
            self.depth += 1
            body = self.parse_iff()
            self.expect("rp")
            self.depth -= 1
            return body
        if kind == "id":
            if val == "true":
                self.next()
                return TRUE
            if val == "false":
                self.next()
                return FALSE
            if val in (FORALL, EXISTS):
                raise FormulaSyntaxError("quantifier after body start", pos)
            if val in _RESERVED:
                self.error(f"reserved word {val!r} cannot name a proposition")
            self.next()
            self.expect("lb")
            _, var, _ = self.expect("id")
            self.expect("rb")
            return Atom(val, var)
        self.error("expected atom, unary operator, or '('")


def parse_formula(text: str) -> HyperFormula:
    """Parse a closed prenex HyperLTL formula."""
    return _FormulaParser(text).parse()


def walk(body):
    """Every node of a body, each before its children, left before right.

    An explicit stack, not recursion, so no formula size meets the Python
    recursion limit. The walk never hashes or compares nodes: both recurse
    through a frozen dataclass's fields.
    """
    stack = [body]
    while stack:
        b = stack.pop()
        yield b
        if isinstance(b, (Not, Next, Eventually, Always)):
            stack.append(b.sub)
        elif isinstance(b, (And, Or, Implies, Iff, Until, Release, WeakUntil)):
            stack.append(b.right)
            stack.append(b.left)


def aps_read(body):
    """{trace variable: the propositions the body reads on its trace}."""
    read = {}
    for b in walk(body):
        if isinstance(b, (Atom, NegAtom)):
            read.setdefault(b.var, set()).add(b.ap)
    return read


def _check_closed(f: HyperFormula):
    bound = set()
    for _, v in f.prefix:
        if v in bound:
            raise FormulaError(f"trace variable {v!r} quantified twice")
        bound.add(v)
    for v in sorted(aps_read(f.body).keys() - bound):
        raise UnboundVariableError(v)


def rewrite(root, rule, key):
    """Run a bottom-up rewrite from root without recursion; returns root's result.

    rule(item) is a generator: it yields the items whose results it
    needs, receives each one, and returns the result for item. A loop over
    an explicit stack of these generators runs them in the order a
    recursion would, so no formula depth meets the recursion limit.
    Results are memoized on key(item). Key formula nodes by id(): a
    frozen dataclass hashes by recursing through its whole subformula.
    """
    memo = {}
    stack = [(key(root), rule(root))]
    sent = None
    while stack:
        item_key, gen = stack[-1]
        try:
            need = gen.send(sent)
        except StopIteration as done:
            stack.pop()
            sent = memo[item_key] = done.value
            continue
        need_key = key(need)
        sent = memo.get(need_key)
        if sent is None:
            stack.append((need_key, rule(need)))
    return sent


# The core operator each derived one rewrites to, as a function of the
# rewritten operands.
_DESUGAR = {
    Not: Not, And: And, Or: Or, Next: Next, Until: Until, Release: Release,
    Implies: lambda x, y: Or(Not(x), y),
    Iff: lambda x, y: Or(And(x, y), And(Not(x), Not(y))),
    Eventually: lambda x: Until(TRUE, x),
    Always: lambda x: Release(FALSE, x),
    WeakUntil: lambda x, y: Release(y, Or(x, y)),
}


def desugar(f: HyperFormula) -> HyperFormula:
    """Rewrite derived operators into the core with Not still allowed.

    Implies(x,y) -> !x | y;  Iff(x,y) -> (x & y) | (!x & !y);
    F x -> true U x;  G x -> false R x;  x W y -> y R (x | y).
    """

    def go(b):
        if isinstance(b, (Const, Atom, NegAtom)):
            return b
        make = _DESUGAR.get(type(b))
        if make is None:
            raise FormulaError(f"unexpected node {b!r}")
        if isinstance(b, (Not, Next, Eventually, Always)):
            return make((yield b.sub))
        return make((yield b.left), (yield b.right))

    return HyperFormula(prefix=f.prefix, body=rewrite(f.body, go, key=id))


_DUAL = {And: Or, Or: And, Until: Release, Release: Until}


def _nnf(b, neg):
    """b, negated if neg, with negation pushed to the atoms; b must be desugared."""

    def go(item):
        b, neg = item
        if isinstance(b, Const):
            return Const(b.value != neg)
        if isinstance(b, (Atom, NegAtom)):
            return (NegAtom if isinstance(b, Atom) else Atom)(b.ap, b.var) if neg else b
        if isinstance(b, Not):
            return (yield b.sub, not neg)
        if isinstance(b, Next):
            return Next((yield b.sub, neg))
        if type(b) not in _DUAL:
            raise FormulaError(f"desugar before NNF: {b!r}")
        l, r = (yield b.left, neg), (yield b.right, neg)
        return (_DUAL[type(b)] if neg else type(b))(l, r)

    return rewrite((b, neg), go, key=lambda item: (id(item[0]), item[1]))


def to_nnf(f: HyperFormula) -> HyperFormula:
    """Push negation to the atoms of a desugared formula."""
    return HyperFormula(prefix=f.prefix, body=_nnf(f.body, False))


def normalize(f: HyperFormula) -> HyperFormula:
    """Desugar then convert to NNF; idempotent."""
    return to_nnf(desugar(f))


def negate(f: HyperFormula) -> HyperFormula:
    """Negation of a closed formula: dualize the prefix, negate the body in NNF."""
    prefix = tuple((EXISTS if q == FORALL else FORALL, v) for q, v in f.prefix)
    body = _nnf(desugar(f).body, True)
    return HyperFormula(prefix=prefix, body=body)


SYNTACTIC_SAFETY = "SYNTACTIC_SAFETY"
SYNTACTIC_COSAFETY = "SYNTACTIC_COSAFETY"
NEITHER = "NEITHER"


def classify_fragment(f: HyperFormula) -> str:
    """Syntactic fragment of an NNF body; drives advisory hints only."""
    body = normalize(f).body
    if not any(isinstance(b, Until) for b in walk(body)):
        return SYNTACTIC_SAFETY
    if not any(isinstance(b, Release) for b in walk(body)):
        return SYNTACTIC_COSAFETY
    return NEITHER


_OP_TEXT = {
    Not: "!", Next: "X ", Eventually: "F ", Always: "G ",
    And: "&", Or: "|", Implies: "->", Iff: "<->", Until: "U", Release: "R", WeakUntil: "W",
}


# How tightly each binary operator binds in the parser, loosest first.
# And and Or chains group to the left, the others to the right.
_PREC = {Iff: 0, Implies: 1, Or: 2, And: 3, Until: 4, Release: 4, WeakUntil: 4}
_UNARY, _ATOM = 5, 6


def render_body(b: Body) -> str:
    """Concrete syntax of a body that parses back to it.

    An operand is parenthesized only where the parser's precedence needs
    it, so a chain renders as flat as it parses. A NegAtom renders as
    `!p[X]`, which parses to Not(Atom).
    """

    def go(b):
        if isinstance(b, Const):
            return ("true" if b.value else "false"), _ATOM
        if isinstance(b, Atom):
            return f"{b.ap}[{b.var}]", _ATOM
        if isinstance(b, NegAtom):
            return f"!{b.ap}[{b.var}]", _UNARY
        if isinstance(b, (Not, Next, Eventually, Always)):
            sub, prec = yield b.sub
            return _OP_TEXT[type(b)] + (sub if prec >= _UNARY else f"({sub})"), _UNARY
        prec = _PREC[type(b)]
        # the side a chain groups to takes an operand of the same precedence bare
        least = (prec, prec + 1) if isinstance(b, (And, Or)) else (prec + 1, prec)
        sides = [(yield b.left), (yield b.right)]
        left, right = (t if p >= m else f"({t})" for (t, p), m in zip(sides, least))
        return f"{left} {_OP_TEXT[type(b)]} {right}", prec

    return rewrite(b, go, key=id)[0]


def render_formula(f: HyperFormula) -> str:
    prefix = "".join(f"{q} {v}. " for q, v in f.prefix)
    return prefix + render_body(f.body)
