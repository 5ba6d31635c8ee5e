"""Case-study model generators and the built-in formula library.

Every generator describes its model by a successor, name and label
function and hands them to one breadth-first explorer, `_explore`, which
builds and validates the KripkeStructure. State order (breadth-first from
the initial state, successors in a fixed order) and state names are
deterministic, so variable layouts and QCIR output are reproducible run
to run.
"""

from dataclasses import dataclass

from .kripke import KripkeStructure, validate


class ModelError(ValueError):
    """Bad input to a generator or the formula library: map, variant, spec name."""


def _explore(init, successors, name, letter, aps, halting=lambda node: False):
    """The structure of all nodes reachable from `init`, validated.

    States are the reachable nodes in breadth-first order, taking each
    node's successors in the order `successors(node)` lists them. Each
    node is named once, when first reached; `letter(node)` gives its
    propositions and `halting(node)` marks an absorbing halt state.
    """
    names = {init: name(init)}
    order = [init]
    trans = []
    for node in order:  # order grows as new nodes are reached
        src = names[node]
        for succ in successors(node):
            if succ not in names:
                names[succ] = name(succ)
                order.append(succ)
            trans.append((src, names[succ]))
    k = KripkeStructure(
        states=tuple(names.values()),
        init=names[init],
        trans=frozenset(trans),
        labels={names[node]: frozenset(letter(node)) for node in order},
        halt=frozenset(names[node] for node in order if halting(node)),
        aps=tuple(aps),
    )
    validate(k)
    return k


# ---------------------------------------------------------------------------
# Bakery mutual-exclusion algorithm


def gen_bakery(n: int) -> KripkeStructure:
    """Ticket-based mutual exclusion for n processes, n in {2, 3}.

    A scheduling step selects an arbitrary subset of processes; every
    selected process moves simultaneously. Selected idle processes draw
    ticket max+1 (so simultaneous draws tie), waiting processes enter the
    critical section when they beat every other outstanding ticket with
    process id breaking ties, and critical processes leave and discard
    their ticket. Tickets saturate at n: while some process holds ticket n,
    draws are blocked, which keeps the truncation from breaking mutual
    exclusion. The selection for the next transition is part of the state
    (propositions selectP<i>), `pause` marks the empty selection.
    """
    if n not in (2, 3):
        raise ModelError("process count must be 2 or 3")
    NONCRIT, WAIT, CRIT = 0, 1, 2
    status_char = {NONCRIT: "n", WAIT: "w", CRIT: "c"}

    def apply(statuses, tickets, sel):
        cur_max = max(tickets)
        new_status = list(statuses)
        new_tickets = list(tickets)
        for i in range(n):
            if i not in sel:
                continue
            if statuses[i] == NONCRIT:
                if cur_max < n:
                    new_tickets[i] = cur_max + 1
                    new_status[i] = WAIT
            elif statuses[i] == WAIT:
                mine = tickets[i]
                wins = all(
                    tickets[j] == 0 or mine < tickets[j] or (mine == tickets[j] and i < j)
                    for j in range(n)
                    if j != i
                )
                if wins:
                    new_status[i] = CRIT
            else:
                new_status[i] = NONCRIT
                new_tickets[i] = 0
        return tuple(new_status), tuple(new_tickets)

    selections = [frozenset(s for s in range(n) if (mask >> s) & 1) for mask in range(2**n)]

    def name(state):
        statuses, tickets, sel = state
        mask = sum(1 << i for i in sel)
        st = "".join(status_char[s] for s in statuses)
        tk = "".join(str(t) for t in tickets)
        return f"q{st}_{tk}_s{mask}"

    def successors(state):
        nxt_cfg = apply(*state)
        return [(*nxt_cfg, sel) for sel in selections]

    def letter(state):
        statuses, _, sel = state
        out = {f"selectP{i}" for i in sel}
        if not sel:
            out.add("pause")
        # status bit b of process i is pcP<i>_<b>
        out.update(f"pcP{i}_{b}" for i in range(n) for b in (0, 1) if statuses[i] >> b & 1)
        return out

    aps = [f"selectP{i}" for i in range(n)] + ["pause"]
    aps += [f"pcP{i}_{b}" for i in range(n) for b in (0, 1)]
    init = ((NONCRIT,) * n, (0,) * n, frozenset())
    return _explore(init, successors, name, letter, aps)


# ---------------------------------------------------------------------------
# Grid path planning

DIRS = ((0, 1), (0, -1), (-1, 0), (1, 0))  # up, down, left, right
DIR_CHAR = "udlr"


def gen_grid(width, height, obstacles, inits, goals) -> KripkeStructure:
    """4-neighbor grid with `goal` on goal cells and move propositions.

    States are (cell, entering move) pairs reachable from the start; the
    two move bits mv0/mv1 spell the move that entered the cell (00 also
    marks the start, which has no entering move). Goal cells are absorbing
    halt states. A single initial cell roots the structure directly; with
    several, a virtual fan-out state precedes them and adds one step.
    """
    obstacles = set(obstacles)
    inits = list(dict.fromkeys(inits))
    goals = set(goals)
    if not inits or not goals:
        raise ModelError("need at least one initial and one goal cell")
    if (set(inits) | goals) & obstacles:
        raise ModelError("initial and goal cells must not be obstacles")

    def open_cell(c):
        x, y = c
        return 0 <= x < width and 0 <= y < height and c not in obstacles

    for c in inits:
        if not open_cell(c):
            raise ModelError(f"initial cell {c} outside the grid")
    for c in goals:
        if not open_cell(c):
            raise ModelError(f"goal cell {c} outside the grid")

    def name(node):
        if node == "root":
            return "root"
        (x, y), d = node
        return f"c{x}_{y}_{'i' if d is None else DIR_CHAR[d]}"

    def successors(node):
        if node == "root":
            return [(c, None) for c in inits]
        cell = node[0]
        if cell in goals:
            return [node]  # absorbing
        out = []
        for d, (dx, dy) in enumerate(DIRS):
            dst = (cell[0] + dx, cell[1] + dy)
            if open_cell(dst):
                out.append((dst, d))
        return out or [node]  # walled in: stay put

    def letter(node):
        if node == "root":
            return ()
        cell, d = node
        out = {"goal"} if cell in goals else set()
        if d is not None:
            if d & 1:
                out.add("mv0")
            if d & 2:
                out.add("mv1")
        return out

    def halting(node):
        return node != "root" and node[0] in goals

    init = (inits[0], None) if len(inits) == 1 else "root"
    return _explore(init, successors, name, letter, ("goal", "mv0", "mv1"), halting)


def parse_grid_map(text: str):
    """Read a map file: '.' free, '#' obstacle, 'I' initial, 'G' goal.

    The first text line is the top row; coordinates are (x, y) with y
    growing upward, so the bottom-left corner is (0, 0).
    """
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise ModelError("empty map")
    width = max(len(r) for r in rows)
    height = len(rows)
    obstacles, inits, goals = set(), [], set()
    for r, row in enumerate(rows):
        y = height - 1 - r
        for x, ch in enumerate(row):
            if ch == "#":
                obstacles.add((x, y))
            elif ch == "I":
                inits.append((x, y))
            elif ch == "G":
                goals.add((x, y))
            elif ch not in ". ":
                raise ModelError(f"bad map character {ch!r}")
    return width, height, obstacles, inits, goals


# The 10x10 planning map: one start in the corner, one goal mid-grid,
# obstacle pattern transcribed cell for cell.
PAPER_GRID_10 = """\
.##.#.....
.###......
..........
.####.###.
.#.##..G#.
...#.###..
.#.#..#...
..........
...#.....#
I....#.#..
"""


# ---------------------------------------------------------------------------
# Non-repudiation protocol (message sender A, receiver B, trusted party T)

NR_ROUNDS = 11  # session length; round NR_ROUNDS is the absorbing end
NR_DEADLINE = 4  # last round in which A and B may send

_A_ACTS = ("m", "nro", "skip")
_B_ACTS = ("nrr", "skip")


def gen_nonrepudiation(variant: str) -> KripkeStructure:
    """Finite protocol session against a correct or incorrect trusted party.

    Per round, A may send the message or its origin evidence to T, B may
    send the receipt evidence to T, and T follows its six-step program.
    The correct T forwards the origin evidence to B only after B's receipt
    arrived; the incorrect one forwards it first and waits afterwards, so
    B can stop responding while already holding the evidence. Evidence
    propositions m / nro / nrr mark deliveries to the receiving party.
    Sessions run a fixed number of rounds; the final states are absorbing
    halt states, which is what makes the halting semantics conclusive on
    this model.
    """
    if variant not in ("correct", "incorrect"):
        raise ModelError("variant must be 'correct' or 'incorrect'")
    correct = variant == "correct"

    def t_step(pc, m_t, nro_t, nrr_t):
        # Returns the next program counter; deliveries are derived from it.
        if pc == 1:
            return 2 if m_t else 1
        if pc == 2:
            return 3 if nro_t else 2
        if pc == 3:
            return 4  # deliver m to B
        if correct:
            if pc == 4:
                return 5 if nrr_t else 4
            if pc == 5:
                return 6  # deliver nro to B
            if pc == 6:
                return 7  # deliver nrr to A
        else:
            if pc == 4:
                return 5  # deliver nro to B
            if pc == 5:
                return 6 if nrr_t else 5
            if pc == 6:
                return 7  # deliver nrr to A
        return 7

    def delivered(pc):
        # the evidence T has passed on by program counter pc
        out = set()
        if pc >= 4:
            out.add("m")
        if pc >= (6 if correct else 5):
            out.add("nro")
        if pc >= 7:
            out.add("nrr")
        return out

    def name(state):
        if state[0] == "mid":
            _, r, m_t, nro_t, nrr_t, pc, act_a, act_b = state
            a = {"m": "m", "nro": "o", "skip": "s"}[act_a]
            b = {"nrr": "n", "skip": "s"}[act_b]
            return f"r{r}_{int(m_t)}{int(nro_t)}{int(nrr_t)}_p{pc}_{a}{b}"
        _, m_t, nro_t, nrr_t, pc = state
        return f"end_{int(m_t)}{int(nro_t)}{int(nrr_t)}_p{pc}"

    def allowed_a(round_no, m_t, nro_t):
        # Flags are monotone, so resending is a no-op; pruning it keeps the
        # session's branching meaningful without losing behaviors.
        out = []
        if round_no <= NR_DEADLINE:
            if not m_t:
                out.append("m")
            if not nro_t:
                out.append("nro")
        out.append("skip")
        return out

    def allowed_b(round_no, nrr_t):
        out = []
        if round_no <= NR_DEADLINE and not nrr_t:
            out.append("nrr")
        out.append("skip")
        return out

    def successors(state):
        if state[0] == "end":
            return [state]
        _, r, m_t, nro_t, nrr_t, pc, act_a, act_b = state
        m_t2 = m_t or act_a == "m"
        nro_t2 = nro_t or act_a == "nro"
        nrr_t2 = nrr_t or act_b == "nrr"
        pc2 = t_step(pc, m_t, nro_t, nrr_t)
        r2 = r + 1
        if r2 == NR_ROUNDS:
            return [("end", m_t2, nro_t2, nrr_t2, pc2)]
        return [
            ("mid", r2, m_t2, nro_t2, nrr_t2, pc2, a2, b2)
            for a2 in allowed_a(r2, m_t2, nro_t2)
            for b2 in allowed_b(r2, nrr_t2)
        ]

    def letter(state):
        if state[0] == "end":
            return delivered(state[-1])
        _, _, _, _, _, pc, act_a, act_b = state
        return delivered(pc) | {f"actA_{act_a}", f"actB_{act_b}"}

    def halting(state):
        return state[0] == "end"

    aps = ("m", "nro", "nrr", "actA_m", "actA_nro", "actA_skip", "actB_nrr", "actB_skip")
    init = ("mid", 0, False, False, False, 1, "skip", "skip")
    return _explore(init, successors, name, letter, aps, halting)


# ---------------------------------------------------------------------------
# Built-in formula library


@dataclass(frozen=True)
class SpecEntry:
    name: str
    formula: str
    arity: int
    roles: tuple
    notes: str


_SYMMETRY_N2 = (
    "forall A. exists B. G ("
    "(selectP0[A] <-> selectP1[B]) & (selectP1[A] <-> selectP0[B])"
    " & (pause[A] <-> pause[B])"
    " & (pcP0_0[A] <-> pcP1_0[B]) & (pcP0_1[A] <-> pcP1_1[B])"
    " & (pcP1_0[A] <-> pcP0_0[B]) & (pcP1_1[A] <-> pcP0_1[B]))"
)

_FAIR_NONREP = (
    "exists P. forall Q. (F m[P]) & (F nrr[P]) & (F nro[P])"
    " & ((G ((actA_m[P] <-> actA_m[Q]) & (actA_nro[P] <-> actA_nro[Q])"
    " & (actA_skip[P] <-> actA_skip[Q])))"
    " -> ((F nrr[Q]) <-> (F nro[Q])))"
    " & ((G ((actB_nrr[P] <-> actB_nrr[Q]) & (actB_skip[P] <-> actB_skip[Q])))"
    " -> ((F nrr[Q]) <-> (F nro[Q])))"
)

_NI = (
    "forall A. exists B. (X !(pin[A] <-> pin[B]))"
    " & ((!term[A] | !term[B]) U (term[A] & term[B] & (res[A] <-> res[B])))"
)

_MUTATION = (
    "exists A. forall B. (mut[A] & !mut[B])"
    " & (((in0[A] <-> in0[B]) & (in1[A] <-> in1[B]))"
    " U !((out0[A] <-> out0[B]) & (out1[A] <-> out1[B])))"
)

_SPECS = {
    "symmetry": SpecEntry(
        name="symmetry",
        formula=_SYMMETRY_N2,
        arity=2,
        roles=("system", "system"),
        notes=(
            "Two-process scheduling symmetry: every trace has a mirror trace "
            "with the process roles swapped. Both trace variables range over "
            "the same bakery model; falsification under pes finds the "
            "tie-breaking asymmetry."
        ),
    ),
    "linearizability": SpecEntry(
        name="linearizability",
        formula="forall A. exists B. G (history[A] <-> history[B])",
        arity=2,
        roles=("implementation", "sequential-spec"),
        notes=(
            "Every concurrent history is matched step for step by some run "
            "of the sequential reference; check with one model per trace "
            "variable. No concurrent data-structure model is bundled."
        ),
    ),
    "non_interference": SpecEntry(
        name="non_interference",
        formula=_NI,
        arity=2,
        roles=("program", "program"),
        notes=(
            "Secret inputs never show in public results: runs with different "
            "pin values terminate with equal res. The first step is under X "
            "because the bundled models choose pin on the first transition. "
            "The bundled examples terminate within bound 3."
        ),
    ),
    "fair_nonrepudiation": SpecEntry(
        name="fair_nonrepudiation",
        formula=_FAIR_NONREP,
        arity=2,
        roles=("protocol", "protocol"),
        notes=(
            "An effective run exists, and any run agreeing with it on A's "
            "actions (or on B's) delivers the receipt evidence iff it "
            "delivers the origin evidence. Use with gen_nonrepudiation and "
            "the halting semantics at bound >= 13."
        ),
    ),
    "shortest_path": SpecEntry(
        name="shortest_path",
        formula="exists A. forall B. (!goal[B]) U goal[A]",
        arity=2,
        roles=("map", "map"),
        notes=(
            "Some path reaches the goal no later than every other path; the "
            "least bound whose classic encoding is satisfiable equals the "
            "breadth-first distance to the goal."
        ),
    ),
    "robustness": SpecEntry(
        name="robustness",
        formula=(
            "exists A. forall B. (G ((mv0[B] <-> mv0[A]) & (mv1[B] <-> mv1[A])))"
            " -> F (goal[A] & goal[B])"
        ),
        arity=2,
        roles=("map", "map"),
        notes=(
            "Some move sequence reaches the goal from every initial cell: "
            "any path copying the witness's moves reaches the goal as well. "
            "Meant for maps with several initial cells."
        ),
    ),
    "mutation": SpecEntry(
        name="mutation",
        formula=_MUTATION,
        arity=2,
        roles=("mutant-model", "original-model"),
        notes=(
            "A killable mutant: a mutated run whose outputs eventually "
            "diverge from every original run fed the same inputs. Inputs "
            "and outputs are two-bit encoded (in0/in1, out0/out1)."
        ),
    ),
}


def builtin_spec(name: str) -> SpecEntry:
    """Look up a built-in formula; raises ModelError listing known names."""
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(sorted(_SPECS))
        raise ModelError(f"unknown spec {name!r}; known: {known}") from None


def spec_names():
    return sorted(_SPECS)
