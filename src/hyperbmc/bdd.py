"""Reduced ordered binary decision diagrams (Bryant 1986) for the builtin solver.

Node handles are ints: 0 is the constant false, 1 the constant true, and
every other node n tests the variable at level[n], continuing to lo[n]
when it is false and to hi[n] when it is true. A variable's level is its
id, so a smaller id sits nearer the root. Nodes are unique per (level,
lo, hi) and never have lo == hi, so two handles are equal iff their
functions are: a BDD is FALSE or TRUE exactly when its handle is.

Every operation is a loop over an explicit stack, so neither the number
of variables nor the depth of a BDD meets the Python recursion limit.
apply() and quantify() share one loop, the product of two BDDs over
their cofactors (Bryant 1986; Burch, Clarke, Long 1991): apply() is the
product that quantifies no level. copy() is the one loop that relocates
and negates: it remakes a BDD node for node, moving every level by a
constant shift and swapping the terminals if asked, reduced and ordered
without any apply. So a caller builds a function that repeats at every
step once and copies it to the other steps, and the NOT of such a copy
is one pass, not two.
relation() builds a BDD as a trie of rows, each an int whose bits are
its variables' values, as a state's code is. paths() builds the paths
through a transition table's live codes (Circuit.unrolled: each step's
codes on a path to the last step, each with its live successors) from
the same tries in one backward pass, without an apply. walk() finds the
lowest path of those paths AND a given BDD by a depth-first walk of the
same codes through that BDD, building neither.
Dead nodes stay in the arena until collect(), a mark-compact pass from
the roots a caller pins; it renumbers the survivors, so a caller runs it
between operations, never inside one: run() is that point. node_cap
bounds the arena and raises NodeCapError when an operation would grow it
past the cap.
"""

from array import array
from itertools import compress

FALSE = 0
TRUE = 1

AND = 0
OR = 1

# Levels of the terminals: below every variable.
_TERMINAL = 2**31 - 1

# No collection while the arena is smaller than this, so small problems
# never pay for one.
GC_MIN_NODES = 1 << 17

# Computed-table entries per operation before the table is dropped.
CACHE_LIMIT = 1 << 20


class NodeCapError(Exception):
    """Raised when an operation would grow the arena past its node cap."""

    def __init__(self, nodes):
        super().__init__(f"BDD node cap exceeded at {nodes} nodes")
        self.nodes = nodes


class BDD:
    """Single-owner node arena with a unique table and computed tables."""

    def __init__(self, node_cap=None):
        self.level = array("i", [_TERMINAL, _TERMINAL])
        self.lo = array("i", [FALSE, TRUE])
        self.hi = array("i", [FALSE, TRUE])
        self.node_cap = node_cap
        # Table keys pack two node handles into one int; handles stay below
        # the cap, so the shift keeps them apart.
        self._shift = max(32, (node_cap or 0).bit_length())
        self._unique = []  # per level: (lo << shift | hi) -> node
        self._cache = ({}, {})  # per binary op: (f << shift | g) -> node
        self._gc_at = GC_MIN_NODES

    def __len__(self):
        return len(self.level)

    def _mk(self, v, lo, hi):
        """The node testing level v with children lo != hi."""
        key = lo << self._shift | hi
        table = self._unique[v]
        n = table.get(key)
        if n is None:
            n = len(self.level)
            if self.node_cap is not None and n >= self.node_cap:
                raise NodeCapError(n)
            self.level.append(v)
            self.lo.append(lo)
            self.hi.append(hi)
            table[key] = n
        return n

    def _reserve(self, v):
        """Make room in the unique table for levels up to v."""
        while len(self._unique) <= v:
            self._unique.append({})

    def var(self, v):
        self._reserve(v)
        return self._mk(v, FALSE, TRUE)

    def apply(self, op, f, g):
        """f AND g or f OR g: the product that quantifies no level."""
        cache = self._cache[op]
        if len(cache) > CACHE_LIMIT:
            cache.clear()
        return self._product(op, f, g, b"", cache)

    def _product(self, op, f, g, qset, memo):
        """op(f, g) with the levels set in `qset` quantified by op's dual.

        The one cofactor recursion of apply and quantify. A quantified
        level joins its two cofactors with the dual op; any other makes a
        node. `memo` maps an operand pair's key to its result; apply
        passes its computed table, which holds only unquantified products.
        """
        zero, unit = (FALSE, TRUE) if op == AND else (TRUE, FALSE)
        qop = OR if op == AND else AND
        nq = len(qset)
        level, lo, hi, unique, shift = self.level, self.lo, self.hi, self._unique, self._shift
        cap = self.node_cap if self.node_cap is not None else 1 << shift
        out = []
        todo = [(f, g, -1)]
        push, pop, emit = todo.append, todo.pop, out.append
        while todo:
            f, g, v = pop()
            if v >= 0:  # both cofactors done; f holds the memo key
                h = out.pop()
                r = out[-1]
                if v < nq and qset[v]:
                    # join the cofactors unless they are equal or one decides
                    if h == unit:
                        r = out[-1] = h
                    elif r != h and r != unit:
                        r = out[-1] = self.apply(qop, r, h)
                elif r != h:  # _mk, inlined: this is the hot loop
                    table = unique[v]
                    key = r << shift | h
                    n = table.get(key)
                    if n is None:
                        n = len(level)
                        if n >= cap:
                            raise NodeCapError(n)
                        level.append(v)
                        lo.append(r)
                        hi.append(h)
                        table[key] = n
                    r = out[-1] = n
                memo[f] = r
                continue
            # reduce op(f, g) to one operand where the op allows
            if f == g or g == unit:
                g = unit
            elif f == unit:
                f, g = g, unit
            elif f == zero or g == zero:
                emit(zero)
                continue
            if g == unit and level[f] >= nq:  # nothing below f is quantified
                emit(f)
                continue
            if f > g:
                f, g = g, f
            key = f << shift | g
            r = memo.get(key)
            if r is not None:
                emit(r)
                continue
            vf = level[f]
            vg = level[g]
            if vf == vg:
                push((key, 0, vf))
                push((hi[f], hi[g], -1))
                push((lo[f], lo[g], -1))
            elif vf < vg:
                push((key, 0, vf))
                push((hi[f], g, -1))
                push((lo[f], g, -1))
            else:
                push((key, 0, vg))
                push((f, hi[g], -1))
                push((f, lo[g], -1))
        return out[0]

    def join(self, op, nodes):
        """op over a list of nodes; the unit of op if it is empty.

        The operands are folded deepest first (by top level, bottom up), so
        each apply walks the new operand down to a result that mostly lies
        below it, not the whole result again. An operand wholly above the
        result, like a literal, adds one node per node of its own. The
        constants fold first: a unit is dropped and a zero is the result,
        so a join of at most one other operand makes no apply.
        """
        zero = FALSE if op == AND else TRUE
        if zero in nodes:
            return zero
        nodes = list(filter(TRUE.__lt__, nodes))  # the non-constant ones
        if len(nodes) < 2:
            return nodes[0] if nodes else TRUE - zero
        nodes.sort(key=self.level.__getitem__, reverse=True)
        node = nodes[0]
        for f in nodes[1:]:
            node = self.apply(op, node, f)
            if node == zero:
                break
        return node

    def _trie(self, variables, leaves, low=0):
        """Each prefix of the rows of `leaves` mapped to its trie over the ascending `variables`.

        A row is an int: bit low + j is its value on variables[j], and the
        bits below low are its prefix. `leaves` maps it to a node below the
        variables. A prefix's trie is the OR, over the rows with that
        prefix, of the row's values on the variables AND its node. Each
        node is made once, level by level from the bottom.
        """
        if variables:
            self._reserve(variables[-1])
        layer = leaves
        for bit, v in reversed(list(enumerate(variables, low))):
            mask = (1 << bit) - 1
            children = {}
            for row, node in layer.items():
                children.setdefault(row & mask, [FALSE, FALSE])[row >> bit] = node
            layer = {p: l if l == h else self._mk(v, l, h) for p, (l, h) in children.items()}
        return layer

    def relation(self, variables, rows):
        """OR of the rows, each an int whose bit j is its value of variables[j], ascending."""
        return self._trie(variables, dict.fromkeys(rows, TRUE)).get(0, FALSE)

    def paths(self, window, live, base, stride):
        """The paths through a transition table's live codes `live` (Circuit.unrolled), as one BDD.

        Step i reads the ascending offsets `window` above base + i·stride,
        and stride exceeds window[-1] - window[0], so the steps follow one
        another in the order; a code's bit j is its value at window[j]. The
        result holds where the steps spell a path of `live`: the unrolling's
        initial relation AND every step's relation relocated by i·stride,
        without building either. A backward pass makes, for each live code
        at step i, the set of its suffixes: at the last step TRUE, before it
        the trie over step i+1's window whose leaves are its live
        successors' suffix sets. The root is the trie over step 0 with the
        live initial codes' suffix sets as leaves. So a node is made only
        where the result reaches it, once per distinct suffix function.
        """
        w = len(window)
        suffix = dict.fromkeys(live[-1], TRUE)
        for i in reversed(range(len(live) - 1)):
            leaves = {c | t << w: suffix[t] for c, ts in live[i].items() for t in ts}
            suffix = self._trie([base + (i + 1) * stride + o for o in window], leaves, w)
        return self._trie([base + o for o in window], suffix).get(0, FALSE)

    def walk(self, f, target, window, live, base, stride):
        """The lowest path to `target` of paths(...) AND f, without building either: {level: value}.

        The arguments after f and target are paths'. f is a BDD over the
        steps' windows. None where no path of the table takes f to
        `target`. A depth-first walk takes each step's live codes and each
        code's live successors in the order `live` lists them, lowest path
        first, so the first path found is the one that path() reads off the
        product. Each code restricts f by following its bits down from f's
        node; a branch where f reaches the other terminal is pruned, and
        where f reaches `target` the path goes on by the first live
        successor at each step. A (step, code, node) triple found dead is
        not walked again. The walk makes no node.
        """
        spot = {o: j for j, o in enumerate(window)}
        level, lo, hi = self.level, self.lo, self.hi
        avoid = TRUE - target

        def restrict(g, i, c):
            at = base + i * stride
            top = at + window[-1]
            while level[g] <= top:
                g = hi[g] if c >> spot[level[g] - at] & 1 else lo[g]
            return g

        dead = set()
        codes = []  # the code taken at each step so far
        stack = [(0, f, iter(live[0]))]  # (step, f restricted by the steps before, codes left)
        while stack:
            i, g, left = stack[-1]
            for c in left:
                h = restrict(g, i, c)
                if h != avoid and (i, c, h) not in dead:
                    break
            else:
                stack.pop()
                if codes:
                    dead.add((i - 1, codes.pop(), g))
                continue
            codes.append(c)
            if h == target:
                for step in live[i:-1]:
                    codes.append(step[codes[-1]][0])
                return {base + i * stride + o: bool(c >> j & 1)
                        for i, c in enumerate(codes) for j, o in enumerate(window)}
            stack.append((i + 1, h, iter(live[i][c])))
        return None

    def copy(self, f, shift, negate):
        """f remade node for node, every level moved by `shift` and negated if `negate`; else f.

        A constant shift keeps the order of the levels, and swapped
        terminals stay apart, so the copy is reduced and ordered as it is.
        A constant's copy is the constant, swapped if `negate`.
        """
        if f <= TRUE:
            return f ^ negate
        if not (shift or negate):
            return f
        level, lo, hi, unique, bits = self.level, self.lo, self.hi, self._unique, self._shift
        cap = self.node_cap if self.node_cap is not None else 1 << bits
        new = {FALSE: TRUE, TRUE: FALSE} if negate else {FALSE: FALSE, TRUE: TRUE}
        out = []
        todo = [(f, -1)]
        while todo:
            x, v = todo.pop()
            if v >= 0:  # both children copied
                h = out.pop()
                l = out[-1]
                table = unique[v]  # _mk, inlined as in apply
                key = l << bits | h
                r = table.get(key)
                if r is None:
                    r = len(level)
                    if r >= cap:
                        raise NodeCapError(r)
                    level.append(v)
                    lo.append(l)
                    hi.append(h)
                    table[key] = r
                out[-1] = new[x] = r
                continue
            r = new.get(x)
            if r is not None:
                out.append(r)
                continue
            v = level[x] + shift
            if v >= len(unique):
                self._reserve(v)
            todo.append((x, v))
            todo.append((hi[x], -1))
            todo.append((lo[x], -1))
        return out[0]

    def quantify(self, op, f, g, variables):
        """Quantify `variables` out of op(f, g) without building op(f, g) first.

        The quantifier is op's dual: an existential over AND, a universal
        over OR. So quantify(AND, f, g, B) is the relational product of f
        and g over B, and quantify(OR, f, g, B) is its universal dual.
        Passing op's unit as g quantifies f alone. Its memo lives for one
        call, so apply's computed table never holds a quantified product.
        """
        qset = bytearray(max(variables, default=-1) + 1)
        for v in variables:
            qset[v] = 1
        return self._product(op, f, g, qset, {})

    def path(self, f, target):
        """The lowest path from f to the terminal `target`: {level: value}.

        Low edges are taken whenever they can still reach `target`. Every
        non-terminal node of a reduced BDD is a non-constant function, so
        it reaches both terminals and only a low edge straight into the
        other terminal has to be avoided. With levels as variable ids this
        is the lexicographically least assignment, false before true.
        """
        if f <= TRUE and f != target:
            raise ValueError(f"no path from constant {f} to {target}")
        level, lo, hi = self.level, self.lo, self.hi
        avoid = TRUE - target
        out = {}
        while f > TRUE:
            if lo[f] == avoid:
                out[level[f]] = True
                f = hi[f]
            else:
                out[level[f]] = False
                f = lo[f]
        return out

    def maybe_collect(self, pinned):
        """collect(pinned) once the arena has doubled since the last one."""
        if len(self.level) >= self._gc_at:
            self.collect(pinned)

    def run(self, pinned, operation, *args):
        """operation(*args), with the arena collected on `pinned` where allowed.

        The operation reads its handles from `pinned`, since a collection
        renumbers them. It runs after maybe_collect(pinned); if it meets the
        node cap, the arena is collected and it runs once more, so the cap
        counts live nodes.
        """
        self.maybe_collect(pinned)
        try:
            return operation(*args)
        except NodeCapError:
            self.collect(pinned)
            return operation(*args)

    def collect(self, pinned):
        """Keep the nodes reachable from the values of dict `pinned`, drop the rest.

        Survivors keep their relative order, so children still precede
        parents; `pinned` is updated in place to the new handles. The
        computed tables are cleared, since their handles are stale.
        """
        level, lo, hi = self.level, self.lo, self.hi
        n = len(level)
        live = bytearray(n)
        live[FALSE] = live[TRUE] = 1
        stack = list(pinned.values())
        while stack:
            x = stack.pop()
            if not live[x]:
                live[x] = 1
                stack.append(lo[x])
                stack.append(hi[x])
        new = array("i", [FALSE]) * n
        new[TRUE] = TRUE
        nlevel = array("i", [_TERMINAL, _TERMINAL])
        nlo = array("i", [FALSE, TRUE])
        nhi = array("i", [FALSE, TRUE])
        unique = [{} for _ in self._unique]
        shift = self._shift
        nxt = 2
        for x in compress(range(2, n), memoryview(live)[2:]):
            v = level[x]
            l = new[lo[x]]
            h = new[hi[x]]
            new[x] = nxt
            nlevel.append(v)
            nlo.append(l)
            nhi.append(h)
            unique[v][l << shift | h] = nxt
            nxt += 1
        self.level, self.lo, self.hi, self._unique = nlevel, nlo, nhi, unique
        for c in self._cache:
            c.clear()
        for name, x in pinned.items():
            pinned[name] = new[x]
        self._gc_at = max(GC_MIN_NODES, 2 * nxt)
