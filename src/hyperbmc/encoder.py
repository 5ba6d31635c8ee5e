"""Compile a model map, formula, bound, and semantics into a prenex QBF.

Each trace variable gets one quantifier block holding, per step, its
ceil(log2 |S|) state bits, which spell a state's code. The layout picks
each model's codes (see state_orders), so a state's code need not be its
declaration index. Propositions and the reserved @halt proposition are
not variables: at each (trace, step) each one is a table gate (see
circuit.py) over that step's state bits, whose rows are the codes of the
states that carry it. Each model's label sets, initial state and
transition relation are registered once per encoding as tables over the
bits of one step (two, for the transitions, whose rows hold a source's
code and a target's); every (trace, step) reads them through a gate at
its own base, so the per-step copies the unrolling repeats are never
built as circuits.
"""

from dataclasses import dataclass, field

from . import circuit as ct
from . import hyperltl as hl
from . import oracle
from .circuit import Circuit
from .kripke import HALT_AP
from .qbf import PrenexQBF, make_prenex


class EncodeError(Exception):
    pass


@dataclass
class VarLayout:
    """Variable numbering for every (trace variable, step) pair, and each trace's state codes.

    Ids are dense and step-major: all of step 0, then all of step 1, and
    so on; within a step the traces follow quantifier-prefix order, and
    within a trace the state bits go least significant first. Each block
    holds its trace's ids in that order (step, then bit), so blocks follow
    prefix order but interleave in id. The builtin solver uses ids as BDD
    levels: interleaving the traces step by step keeps the BDDs that
    relate them at one step small. A trace whose model has one state has
    an empty block.

    A state's code is its index in its trace's entry of `orders` (see
    state_orders), not in its model's declaration; codes from the number
    of states up name no state. The encoder spells states and the driver
    decodes them only through code() and state().
    """

    bound: int
    models: dict  # trace variable -> KripkeStructure
    orders: dict = field(default_factory=dict)  # trace variable -> its model's states in code order
    stride: int = 0  # state bits per step, over all traces
    blocks: list = field(default_factory=list)  # (quantifier, var, [ids])
    names: dict = field(default_factory=dict)  # id -> name
    _sb_ids: dict = field(default_factory=dict)  # (var, step) -> [ids]
    _codes: dict = field(default_factory=dict)  # var -> {state: code}

    def sb_ids(self, var, step):
        return self._sb_ids[(var, step)]

    def base(self, var, step):
        """The least state bit of (var, step); 0 when var's model has one state."""
        return (self._sb_ids[(var, step)] or [0])[0]

    def code(self, var, state):
        return self._codes[var][state]

    def state(self, var, code):
        """The state whose code is `code` on var's trace; None where it names none."""
        order = self.orders[var]
        return order[code] if code < len(order) else None

    def trace_vars(self):
        return [v for _, v, _ in self.blocks]

    def block_ids(self, var):
        for _, v, ids in self.blocks:
            if v == var:
                return ids
        raise KeyError(var)


def state_bit_count(n_states: int) -> int:
    return (n_states - 1).bit_length() if n_states > 1 else 0


def state_orders(models, formula) -> dict:
    """Each trace variable's states in code order: as declared, or in label order.

    A model's states take the label order (see label_order) over the
    propositions the body reads on the model's trace variables where its
    label tables (those propositions and @halt) take fewer BDD nodes in it
    than in the declaration order; a tie keeps the declaration order.
    States that agree on what the formula reads then share code prefixes,
    which can shrink the BDDs that read them. Trace variables bound to one
    model share one order, so their tables and unrollings keep one shape.
    """
    read = hl.aps_read(formula.body)
    orders = {}
    for _, var in formula.prefix:
        m = models[var]
        mates = [v for _, v in formula.prefix if models[v] is m or models[v] == m]
        if mates[0] != var:
            orders[var] = orders[mates[0]]
            continue
        aps = [ap for ap in m.aps if any(ap in read.get(v, ()) for v in mates)]
        order = label_order(m, aps)
        if order == m.states or _table_nodes(m, m.states, aps) <= _table_nodes(m, order, aps):
            order = m.states
        orders[var] = order
    return orders


def label_order(structure, aps):
    """structure's states sorted, stably, by their labels over aps.

    A label is read as a binary number whose least significant bit is
    aps[0], and larger numbers come first; among equal labels the states
    that do not halt come first.
    """
    def key(s):
        value = sum(1 << j for j, ap in enumerate(aps) if ap in structure.labels[s])
        return -value, s in structure.halt

    return tuple(sorted(structure.states, key=key))


def _table_nodes(structure, order, aps):
    """BDD nodes of the tables of aps and @halt, with states coded by their index in order."""
    from . import bdd  # here, as in qbf.solve: the subcommands that encode nothing never need it

    mgr = bdd.BDD()
    nbits = state_bit_count(len(order))
    for ap in (*aps, HALT_AP):
        carriers = _carriers(structure, ap)
        mgr.relation(range(nbits), [i for i, s in enumerate(order) if s in carriers])
    return len(mgr)


def build_layout(models, formula, k, orders=None) -> VarLayout:
    """Number the state bits of every trace, step-major, and code its states (see VarLayout).

    `orders` is state_orders(models, formula), which a caller that lays
    out several bounds computes once; it is computed here when not given.
    """
    if orders is None:
        orders = state_orders(models, formula)
    layout = VarLayout(
        bound=k,
        models={var: models[var] for _, var in formula.prefix},
        orders={var: orders[var] for _, var in formula.prefix},
    )
    layout._codes = {var: {s: i for i, s in enumerate(o)} for var, o in layout.orders.items()}
    nbits = {var: state_bit_count(len(order)) for var, order in layout.orders.items()}
    ids = {var: [] for _, var in formula.prefix}
    next_id = 0
    for step in range(k + 1):
        for _, var in formula.prefix:
            bits = list(range(next_id, next_id + nbits[var]))
            for j, vid in enumerate(bits):
                layout.names[vid] = f"sb{j}_{var}_{step}"
            layout._sb_ids[(var, step)] = bits
            ids[var].extend(bits)
            next_id += nbits[var]
    layout.stride = sum(nbits.values())
    layout.blocks = [(quant, var, ids[var]) for quant, var in formula.prefix]
    return layout


def _carriers(structure, ap):
    """The states of structure that carry ap; for @halt, its halt states."""
    if ap == HALT_AP:
        return structure.halt
    return {s for s in structure.states if ap in structure.labels[s]}


def label_table(circ: Circuit, layout, var, ap) -> int:
    """Table of the codes of var's states that carry ap (or @halt), over one step's bits.

    One row per such state. On codes that name no state it is false,
    but those codes never matter: see unroll_structure.
    """
    structure = layout.models.get(var)
    if structure is None:
        raise EncodeError(f"trace variable {var!r} is not quantified")
    if ap != HALT_AP and ap not in structure.aps:
        raise EncodeError(f"proposition {ap!r} not declared for trace variable {var!r}")
    nbits = state_bit_count(len(structure.states))
    return circ.table(range(nbits), [layout.code(var, s) for s in _carriers(structure, ap)])


def label_gate(circ: Circuit, layout, var, step, ap) -> int:
    """Gate for proposition ap (or @halt) of trace var at step: its label table there."""
    return circ.table_gate(label_table(circ, layout, var, ap), layout.base(var, step))


def unroll_structure(structure, var, k, layout, circ: Circuit) -> int:
    """Circuit over var's block that holds exactly on encodings of its paths.

    A satisfying assignment fixes the step-0 state bits to the initial
    state and each pair of consecutive steps to a transition. So step 0
    spells the initial state and every later step the target of a
    transition: no satisfying assignment has a code >= |S| at any step,
    although the block's bits can spell such codes. Each block enters the
    matrix under this guard (AND for an existential, implication for a
    universal), so the matrix does not depend on the body's value where
    the guard is false, which is why the label gates may read false on
    codes that name no state.

    The transition table's offsets span one step from 0 and the next from
    layout.stride, so one gate per step reads it: a row is the source's
    code OR the target's shifted by nbits. The circuit records the result
    as an unrolling (Circuit.unrolling), which the solver builds as one
    path set.
    """
    nbits = state_bit_count(len(structure.states))
    init = circ.table(range(nbits), [layout.code(var, structure.init)])
    step = circ.table(
        [*range(nbits), *range(layout.stride, layout.stride + nbits)],
        [layout.code(var, s) | layout.code(var, d) << nbits for s, d in structure.trans],
    )
    return circ.unrolling(init, step, layout.base(var, 0), layout.stride, k)


def encode_body(body, k, sem, layout, circ: Circuit, paper_literal=False) -> int:
    """Fixpoint expansion of an NNF body at step 0, memoized on (node, step).

    Each (node, step) pair is encoded by a generator that yields the pairs
    it needs and receives their nodes, run by hyperltl.rewrite on an
    explicit stack in the order a recursion would: the circuit is built
    node for node in the same order, but neither the bound nor the depth
    of the formula meets the recursion limit. Equal subformulas that are
    distinct objects are encoded once each, and hash consing gives them
    one circuit node.
    """
    tables = {}

    def label(var, i, ap):
        key = (var, ap)
        if key not in tables:
            tables[key] = label_table(circ, layout, var, ap)
        return circ.table_gate(tables[key], layout.base(var, i))

    halted_k = circ.and_([label(v, k, HALT_AP) for v in layout.trace_vars()])

    def _enc(item):
        b, i = item
        if isinstance(b, hl.Const):
            return circ.const(b.value)
        if isinstance(b, (hl.Atom, hl.NegAtom)):
            v = label(b.var, i, b.ap)
            return v if isinstance(b, hl.Atom) else circ.not_(v)
        if isinstance(b, hl.And):
            return circ.and_([(yield b.left, i), (yield b.right, i)])
        if isinstance(b, hl.Or):
            return circ.or_([(yield b.left, i), (yield b.right, i)])

        if isinstance(b, hl.Next):
            if i < k:
                return (yield b.sub, i + 1)
            # at the bound, i+1 falls off the unrolling
            if sem in (oracle.PES, oracle.CLASSIC):
                return ct.FALSE
            if sem == oracle.OPT:
                return ct.TRUE
            return _halting((yield b.sub, k))
        if isinstance(b, hl.Until):
            if i < k:
                return circ.or_([(yield b.right, i), circ.and_([(yield b.left, i), (yield b, i + 1)])])
            if sem == oracle.PES:
                return ct.FALSE
            if sem == oracle.OPT:
                return ct.TRUE
            if sem == oracle.CLASSIC:
                return (yield b.right, k)
            return _halting((yield b.right, k))
        if isinstance(b, hl.Release):
            if i < k:
                return circ.and_([(yield b.right, i), circ.or_([(yield b.left, i), (yield b, i + 1)])])
            if sem == oracle.PES:
                return ct.FALSE
            if sem == oracle.OPT:
                return ct.TRUE
            if sem == oracle.CLASSIC:
                return circ.and_([(yield b.right, k), (yield b.left, k)])
            arm = b.left if paper_literal else b.right
            return _halting((yield arm, k))
        raise EncodeError(f"body not in NNF core: {b!r}")

    def _halting(arm):
        if sem == oracle.HPES:
            return circ.and_([halted_k, arm])
        if sem == oracle.HOPT:
            return circ.or_([circ.not_(halted_k), arm])
        raise EncodeError(f"unknown semantics {sem!r}")

    return hl.rewrite((body, 0), _enc, key=lambda item: (id(item[0]), item[1]))


def assemble_qbf(formula, models, k, sem, paper_literal=False, layout=None) -> PrenexQBF:
    """Full encoding: per-quantifier unrollings chained onto the body.

    The matrix associates to the right: the structure of the innermost
    quantifier combines with the body first, each outer structure wraps
    the rest with AND for an existential and implication for a universal.
    """
    if sem not in oracle.SEMANTICS:
        raise EncodeError(f"unknown semantics {sem!r}")
    circ = Circuit()
    if layout is None:
        layout = build_layout(models, formula, k)
    matrix = encode_body(formula.body, k, sem, layout, circ, paper_literal)
    for quant, var in reversed(formula.prefix):
        unrolled = unroll_structure(models[var], var, k, layout, circ)
        if quant == hl.EXISTS:
            matrix = circ.and_([unrolled, matrix])
        else:
            matrix = circ.implies(unrolled, matrix)
    blocks = [(quant, tuple(ids)) for quant, _, ids in layout.blocks]
    return make_prenex(circ, blocks, matrix, layout.names)
