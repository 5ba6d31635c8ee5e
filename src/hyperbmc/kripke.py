"""Kripke structures: data model, validation, .kr text format, prefix enumeration.

A structure is a finite set of states with a total transition relation,
one initial state, a labeling of states with atomic propositions, and an
optional set of absorbing halt states. Declaration order of states and
propositions is preserved; the encoder's layout starts from it when it
picks each state's code.
"""

import re
from dataclasses import dataclass


class KripkeError(Exception):
    pass


class KripkeSyntaxError(KripkeError):
    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class NonTotalError(KripkeError):
    def __init__(self, state):
        super().__init__(f"state {state!r} has no outgoing transition")
        self.state = state


class HaltNotAbsorbingError(KripkeError):
    def __init__(self, state):
        super().__init__(f"halt state {state!r} has no self-loop")
        self.state = state


class DanglingReferenceError(KripkeError):
    def __init__(self, name):
        super().__init__(f"undeclared identifier {name!r}")
        self.name = name


HALT_AP = "@halt"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SKIP = re.compile(r"(?:\s|#[^\n]*)*")  # whitespace and line comments


@dataclass(frozen=True)
class KripkeStructure:
    states: tuple
    init: str
    trans: frozenset
    labels: dict
    halt: frozenset
    aps: tuple


@dataclass(frozen=True)
class TracePrefix:
    """A length-(k+1) initialized path together with its letters.

    `halted[i]` records whether the state at step i is a halt state, which
    is also the value of the reserved proposition @halt at that step.
    """

    states: tuple
    letters: tuple
    halted: tuple

    def __len__(self):
        return len(self.states)


def validate(k: KripkeStructure) -> None:
    """Check every structural invariant; raise a diagnostic on the first failure."""
    declared = set(k.states)
    if len(declared) != len(k.states):
        raise KripkeError("duplicate state declaration")
    if len(set(k.aps)) != len(k.aps):
        raise KripkeError("duplicate atomic proposition")
    for ap in k.aps:
        if ap.startswith("@"):
            raise KripkeError(f"user proposition may not start with '@': {ap!r}")
    if k.init not in declared:
        raise DanglingReferenceError(k.init)
    for s, d in k.trans:
        if s not in declared:
            raise DanglingReferenceError(s)
        if d not in declared:
            raise DanglingReferenceError(d)
    for s in k.halt:
        if s not in declared:
            raise DanglingReferenceError(s)
    for s in k.states:
        if s not in k.labels:
            raise KripkeError(f"state {s!r} has no label statement")
        for ap in k.labels[s]:
            if ap not in k.aps:
                raise DanglingReferenceError(ap)
    sources = {s for s, _ in k.trans}
    for s in k.states:
        if s not in sources:
            raise NonTotalError(s)
    for s in k.halt:
        if (s, s) not in k.trans:
            raise HaltNotAbsorbingError(s)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - self.text.rfind("\n", 0, self.pos)
        raise KripkeSyntaxError(msg, line, column)

    def skip_ws(self):
        self.pos = _SKIP.match(self.text, self.pos).end()

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def ident(self):
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            self.error("expected identifier")
        self.pos = m.end()
        return m.group()

    def expect(self, tok):
        if not self.peek(tok):
            self.error(f"expected {tok!r}")
        self.pos += len(tok)

    def peek(self, tok):
        self.skip_ws()
        return self.text.startswith(tok, self.pos)


def parse_kripke(text: str) -> KripkeStructure:
    """Parse a .kr document and return the validated structure.

    Statements (each `;`-terminated, `#` starts a line comment):

        ap a b;
        states s0 s1;
        init s0;
        halt s1;              # optional, repeatable
        label s0 {a};
        label s1 {};
        trans s0 -> s1;
        trans s1 -> s1;
    """
    p = _Parser(text)
    aps = []
    states = []
    init = None
    halt = []
    labels = {}
    trans = []
    declared_aps = set()
    declared_states = set()

    def check_state(name):
        if name not in declared_states:
            raise DanglingReferenceError(name)

    while not p.at_end():
        kw = p.ident()
        if kw == "ap":
            while not p.peek(";"):
                name = p.ident()
                if name in declared_aps:
                    p.error(f"duplicate proposition {name!r}")
                declared_aps.add(name)
                aps.append(name)
            p.expect(";")
        elif kw == "states":
            while not p.peek(";"):
                name = p.ident()
                if name in declared_states:
                    p.error(f"duplicate state {name!r}")
                declared_states.add(name)
                states.append(name)
            p.expect(";")
        elif kw == "init":
            if init is not None:
                p.error("duplicate init statement")
            init = p.ident()
            check_state(init)
            p.expect(";")
        elif kw == "halt":
            while not p.peek(";"):
                name = p.ident()
                check_state(name)
                if name not in halt:
                    halt.append(name)
            p.expect(";")
        elif kw == "label":
            s = p.ident()
            check_state(s)
            if s in labels:
                p.error(f"duplicate label statement for {s!r}")
            p.expect("{")
            letter = []
            while not p.peek("}"):
                name = p.ident()
                if name not in declared_aps:
                    raise DanglingReferenceError(name)
                letter.append(name)
                if p.peek(","):
                    p.expect(",")
            p.expect("}")
            p.expect(";")
            labels[s] = frozenset(letter)
        elif kw == "trans":
            src = p.ident()
            check_state(src)
            p.expect("->")
            dst = p.ident()
            check_state(dst)
            p.expect(";")
            trans.append((src, dst))
        else:
            p.error(f"unknown statement {kw!r}")

    if init is None:
        raise KripkeError("missing init statement")
    k = KripkeStructure(
        states=tuple(states),
        init=init,
        trans=frozenset(trans),
        labels=labels,
        halt=frozenset(halt),
        aps=tuple(aps),
    )
    validate(k)
    return k


def render(k: KripkeStructure) -> str:
    """Inverse printer; parse_kripke(render(k)) reproduces k exactly."""
    order = {s: i for i, s in enumerate(k.states)}
    lines = []
    lines.append("ap " + " ".join(k.aps) + ";" if k.aps else "ap;")
    lines.append("states " + " ".join(k.states) + ";")
    lines.append(f"init {k.init};")
    if k.halt:
        lines.append("halt " + " ".join(sorted(k.halt, key=order.get)) + ";")
    for s in k.states:
        letter = ",".join(a for a in k.aps if a in k.labels[s])
        lines.append(f"label {s} {{{letter}}};")
    for s, d in sorted(k.trans, key=lambda e: (order[e[0]], order[e[1]])):
        lines.append(f"trans {s} -> {d};")
    return "\n".join(lines) + "\n"


def enumerate_prefixes(k: KripkeStructure, bound: int) -> list:
    """All initialized paths of length bound+1, in deterministic order.

    Exponential in the bound for branching structures; callers guard usage.
    """
    order = {s: i for i, s in enumerate(k.states)}
    succ = {s: [] for s in k.states}
    for s, d in sorted(k.trans, key=lambda e: (order[e[0]], order[e[1]])):
        succ[s].append(d)
    out = []
    # depth first without recursion: todo[j] yields the candidates for step j
    path, todo = [], [iter((k.init,))]
    while todo:
        d = next(todo[-1], None)
        if d is None:
            todo.pop()
            if path:
                path.pop()
        elif len(path) == bound:
            out.append(make_prefix(k, (*path, d)))
        else:
            path.append(d)
            todo.append(iter(succ[d]))
    return out


def make_prefix(k: KripkeStructure, states: tuple) -> TracePrefix:
    return TracePrefix(
        states=states,
        letters=tuple(k.labels[s] for s in states),
        halted=tuple(s in k.halt for s in states),
    )


def count_prefixes(k: KripkeStructure, bound: int) -> int:
    """Number of initialized length-(bound+1) paths, by dynamic programming."""
    counts = {s: 0 for s in k.states}
    counts[k.init] = 1
    for _ in range(bound):
        nxt = {s: 0 for s in k.states}
        for s, d in k.trans:
            nxt[d] += counts[s]
        counts = nxt
    return sum(counts.values())
