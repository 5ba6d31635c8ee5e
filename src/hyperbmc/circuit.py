"""Hash-consed Boolean circuit DAGs.

A Circuit is an arena of structurally-hashed nodes. Node handles are plain
ints; 0 is the constant false and 1 the constant true. Identical subtrees
always share one node, and constants fold at construction time, so a node
handle equal to 0 or 1 means the subcircuit is that constant.

An AND or OR gate keeps the operands it is given, sorted and without
duplicates or the unit; it folds on the absorbing constant and on x with
NOT x. A nested gate of its own kind stays one operand, so an unrolled
G, each step a gate over the next, grows linearly in the bound.

Every node carries the bitmask of variables in its support: the solver
places its innermost quantifier and finds its links by the masks, and
cofactors (called only by tests) skip subDAGs without the variable.

Node kinds: constants, variables, NOT, AND and OR gates, and table gates.
A table is a relation over fixed offsets, registered once per circuit
(see table): its rows are the codes its offsets may spell, bit j of a
code being the value at offsets[j]. A table gate is that table over the
variables `base` above its offsets. A function that repeats over a
shifted window of variables, like a model's transition relation at every
step of an unrolling, is then one table and one small node per window.
evaluate looks a table gate's code up among its rows; cofactors (and so
restrict) expand it into AND/OR gates.

Each unrolling that `unrolling` makes, an initial table AND a transition
table at every step, is recorded unless constant, so the solver looks it
up, with the one walk of its tables that all the solver's readers share
during one solve (unrolled, live_codes, forget_unrolled).
"""

FALSE = 0
TRUE = 1

K_CONST = 0
K_VAR = 1
K_NOT = 2
K_AND = 3
K_OR = 4
K_TABLE = 5


def live_codes(width, init_rows, step_rows, steps):
    """Each step's live codes of a transition table over `width`-bit codes, each with its live successors.

    A step row holds a code in its low `width` bits and a successor above
    them. live[i], for i in 0..steps, maps each code on a path from
    `init_rows` to step `steps` at step i to the tuple of its successors
    on such a path; at the last step, to (). Codes and successors are in
    lowest-path order: bits compared from bit 0 up, false before true.
    """
    order = sorted({*init_rows, *(row >> width for row in step_rows)}, key=lambda c: f"{c:0{width}b}"[::-1])
    rank = {c: j for j, c in enumerate(order)}.__getitem__
    succ = {}
    for row in sorted(step_rows, key=lambda row: rank(row >> width)):
        succ.setdefault(row & (1 << width) - 1, []).append(row >> width)
    reach = [set(init_rows)]
    for _ in range(steps):
        reach.append({t for c in reach[-1] for t in succ.get(c, ())})
    live = [dict.fromkeys(sorted(reach[steps], key=rank), ())]
    shared = {}  # one tuple per distinct list of live successors, whatever its step
    for codes in reversed(reach[:steps]):
        after = live[-1]
        pairs = ((c, tuple(t for t in succ.get(c, ()) if t in after)) for c in sorted(codes, key=rank))
        live.append({c: shared.setdefault(ts, ts) for c, ts in pairs if ts})
    return live[::-1]


class Circuit:
    """Single-writer arena; completed nodes are immutable and shareable."""

    def __init__(self):
        self.kinds = [K_CONST, K_CONST]
        self.payloads = [False, True]
        self.masks = [0, 0]  # variable support as a bitmask
        self._intern = {}
        self.tables = []  # table id -> (ascending offsets, sorted tuple of int rows)
        self._table_ids = {}
        self.unrollings = {}  # node -> the arguments of the unrolling call that made it
        self._live = {}  # (init table, step table, steps) -> its live_codes, until forget_unrolled

    def __len__(self):
        return len(self.kinds)

    def copy(self):
        """The same arena, grown on its own: nodes made in the copy are not made here."""
        other = object.__new__(Circuit)
        other.__dict__.update((name, value.copy()) for name, value in vars(self).items())
        return other

    def _mk(self, kind, payload, mask):
        key = (kind, payload)
        n = self._intern.get(key)
        if n is not None:
            return n
        n = len(self.kinds)
        self.kinds.append(kind)
        self.payloads.append(payload)
        self.masks.append(mask)
        self._intern[key] = n
        return n

    def var(self, v):
        return self._mk(K_VAR, v, 1 << v)

    def not_(self, n):
        if n == FALSE:
            return TRUE
        if n == TRUE:
            return FALSE
        if self.kinds[n] == K_NOT:
            return self.payloads[n]
        return self._mk(K_NOT, n, self.masks[n])

    def _gate(self, kind, items, unit, zero):
        seen = set(items)
        if zero in seen:
            return zero
        seen.discard(unit)
        if len(seen) < 2:
            return seen.pop() if seen else unit
        children = sorted(seen)
        kinds, payloads, masks = self.kinds, self.payloads, self.masks
        mask = 0
        for n in children:
            if kinds[n] == K_NOT and payloads[n] in seen:
                return zero
            mask |= masks[n]
        return self._mk(kind, tuple(children), mask)

    def and_(self, items):
        return self._gate(K_AND, items, TRUE, FALSE)

    def or_(self, items):
        return self._gate(K_OR, items, FALSE, TRUE)

    def table(self, offsets, rows):
        """Id of the relation `rows` over the ascending `offsets`, registered once.

        A row is an int whose bit j says that the variable offsets[j]
        above the gate's base has that value; the table holds where the
        variables spell one of its rows.
        """
        key = (tuple(offsets), tuple(sorted(set(rows))))
        tid = self._table_ids.get(key)
        if tid is None:
            tid = self._table_ids[key] = len(self.tables)
            self.tables.append(key)
        return tid

    def table_gate(self, tid, base):
        """Table tid over the variables from `base` up; folds a table with no rows or no offsets."""
        offsets, rows = self.tables[tid]
        if not rows:
            return FALSE
        if not offsets:
            return TRUE
        return self._mk(K_TABLE, (tid, base), sum(1 << (base + o) for o in offsets))

    def unrolling(self, init, step, base, stride, steps):
        """AND of table init at base and table step at base + i·stride, i < steps; recorded unless constant.

        step's offsets must be init's, W, then W + stride, with stride past
        W's span. qbf._compile builds a recorded unrolling as one path set.
        """
        window, offsets = self.tables[init][0], self.tables[step][0]
        if offsets != (*window, *(o + stride for o in window)) or window and stride <= window[-1] - window[0]:
            raise ValueError(f"table {step} does not unroll table {init} with stride {stride}")
        gates = [self.table_gate(init, base)]
        gates += [self.table_gate(step, base + i * stride) for i in range(steps)]
        n = self.and_(gates)
        if n not in (FALSE, TRUE):
            self.unrollings[n] = (init, step, base, stride, steps)
        return n

    def unrolled(self, u):
        """The recorded unrolling u as BDD.paths reads it: (window, live codes, base, stride).

        Its tables' live_codes are made once per (init table, step table,
        steps) and kept until forget_unrolled.
        """
        init, step, base, stride, steps = self.unrollings[u]
        window, init_rows = self.tables[init]
        if (init, step, steps) not in self._live:
            self._live[init, step, steps] = live_codes(len(window), init_rows, self.tables[step][1], steps)
        return window, self._live[init, step, steps], base, stride

    def forget_unrolled(self):
        """Drop the live codes that unrolled keeps; qbf.solve keeps them for one solve."""
        self._live.clear()

    def expand(self, n):
        """Table gate n as an OR of ANDs of literals, one AND per row.

        The ANDs are made in the order of the rows' values read from
        offsets[0] first, not the ints' order: that numbers the nodes, and
        so the QCIR that emit_qcir writes.
        """
        tid, base = self.payloads[n]
        offsets, rows = self.tables[tid]
        lits = [(self.not_(v) if any(not r >> j & 1 for r in rows) else None, v)
                for j, v in enumerate(self.var(base + o) for o in offsets)]
        order = sorted(rows, key=lambda r: format(r, f"0{len(offsets)}b")[::-1])
        return self.or_([self.and_([lit[r >> j & 1] for j, lit in enumerate(lits)]) for r in order])

    def implies(self, a, b):
        return self.or_([self.not_(a), b])

    def const(self, value):
        return TRUE if value else FALSE

    def children(self, n):
        k = self.kinds[n]
        if k == K_NOT:
            return (self.payloads[n],)
        if k in (K_AND, K_OR):
            return self.payloads[n]
        return ()

    def support(self, root):
        """Set of variable ids the subDAG at root depends on."""
        mask = self.masks[root]
        out = set()
        v = 0
        while mask:
            if mask & 1:
                out.add(v)
            mask >>= 1
            v += 1
        return out

    def restrict(self, root, var, value):
        """Cofactor: substitute a constant for one variable, folding as it goes."""
        lo, hi = self.cofactors(root, var)
        return hi if value else lo

    def cofactors(self, root, var):
        """Both cofactors of `var` in one traversal; returns (negative, positive).

        A table gate is cofactored through its expansion (see expand).
        """
        bit = 1 << var
        kinds, payloads, masks = self.kinds, self.payloads, self.masks
        memo = {}
        stack = [(root, False)]
        while stack:
            n, ready = stack.pop()
            if n in memo or not masks[n] & bit:
                continue
            k = kinds[n]
            if k == K_VAR:
                memo[n] = (FALSE, TRUE)
            elif not ready:
                stack.append((n, True))
                for c in (self.expand(n),) if k == K_TABLE else self.children(n):
                    stack.append((c, False))
            elif k == K_NOT:
                memo[n] = tuple(self.not_(c) for c in memo[payloads[n]])
            elif k == K_TABLE:
                e = self.expand(n)
                memo[n] = memo.get(e, (e, e))  # e may fold to a constant
            else:
                pairs = [memo.get(c, (c, c)) for c in payloads[n]]
                make = self.and_ if k == K_AND else self.or_
                memo[n] = (make([lo for lo, _ in pairs]), make([hi for _, hi in pairs]))
        return memo.get(root, (root, root))

    def evaluate(self, root, assignment):
        """Evaluate under a total assignment (dict var id -> bool)."""
        kinds, payloads = self.kinds, self.payloads
        memo = {FALSE: False, TRUE: True}
        stack = [(root, False)]
        while stack:
            n, ready = stack.pop()
            if n in memo:
                continue
            k, p = kinds[n], payloads[n]
            if k == K_VAR:
                memo[n] = assignment[p]
            elif k == K_TABLE:
                offsets, rows = self.tables[p[0]]
                memo[n] = sum(assignment[p[1] + o] << j for j, o in enumerate(offsets)) in rows
            elif not ready:
                stack.append((n, True))
                for c in self.children(n):
                    stack.append((c, False))
            elif k == K_NOT:
                memo[n] = not memo[p]
            else:
                memo[n] = (all if k == K_AND else any)(memo[c] for c in p)
        return memo[root]
