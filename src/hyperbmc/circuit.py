"""Hash-consed Boolean circuit DAGs.

A Circuit is an arena of structurally-hashed nodes. Node handles are plain
ints; 0 is the constant false and 1 the constant true. Identical subtrees
always share one node, and constants fold at construction time, so a node
handle equal to 0 or 1 means the subcircuit is that constant.

Every node carries the bitmask of variables in its support, which lets
cofactoring skip entire subDAGs that do not mention the variable.
"""

FALSE = 0
TRUE = 1

K_CONST = 0
K_VAR = 1
K_NOT = 2
K_AND = 3
K_OR = 4


class Circuit:
    """Single-writer arena; completed nodes are immutable and shareable."""

    def __init__(self):
        self.kinds = [K_CONST, K_CONST]
        self.payloads = [False, True]
        self.masks = [0, 0]  # variable support as a bitmask
        self._intern = {}

    def __len__(self):
        return len(self.kinds)

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
        kinds = self.kinds
        payloads = self.payloads
        flat = []
        for n in items:
            if n == unit:
                continue
            if n == zero:
                return zero
            if kinds[n] == kind:
                flat.extend(payloads[n])
            else:
                flat.append(n)
        if not flat:
            return unit
        children = sorted(set(flat))
        if len(children) == 1:
            return children[0]
        seen = set(children)
        mask = 0
        masks = self.masks
        for n in children:
            if kinds[n] == K_NOT and payloads[n] in seen:
                return zero
            mask |= masks[n]
        return self._mk(kind, tuple(children), mask)

    def and_(self, items):
        return self._gate(K_AND, items, TRUE, FALSE)

    def or_(self, items):
        return self._gate(K_OR, items, FALSE, TRUE)

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
        """Both cofactors of `var` in one traversal; returns (negative, positive)."""
        bit = 1 << var
        if not self.masks[root] & bit:
            return root, root
        kinds = self.kinds
        payloads = self.payloads
        masks = self.masks
        memo = {}
        stack = [root]
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            if not masks[n] & bit:
                memo[n] = (n, n)
                stack.pop()
                continue
            k = kinds[n]
            if k == K_VAR:
                memo[n] = (FALSE, TRUE)
                stack.pop()
                continue
            if k == K_NOT:
                c = payloads[n]
                got = memo.get(c)
                if got is None:
                    stack.append(c)
                    continue
                memo[n] = (self.not_(got[0]), self.not_(got[1]))
                stack.pop()
                continue
            todo = [c for c in payloads[n] if masks[c] & bit and c not in memo]
            if todo:
                stack.extend(todo)
                continue
            los = []
            his = []
            for c in payloads[n]:
                got = memo.get(c)
                if got is None:
                    los.append(c)
                    his.append(c)
                else:
                    los.append(got[0])
                    his.append(got[1])
            if k == K_AND:
                memo[n] = (self.and_(los), self.and_(his))
            else:
                memo[n] = (self.or_(los), self.or_(his))
            stack.pop()
        return memo[root]

    def evaluate(self, root, assignment):
        """Evaluate under a total assignment (dict var id -> bool)."""
        memo = {}
        stack = [(root, False)]
        while stack:
            n, ready = stack.pop()
            if n in memo:
                continue
            if n < 2:
                memo[n] = n == TRUE
                continue
            k = self.kinds[n]
            if k == K_VAR:
                memo[n] = assignment[self.payloads[n]]
                continue
            if not ready:
                stack.append((n, True))
                for c in self.children(n):
                    stack.append((c, False))
            elif k == K_NOT:
                memo[n] = not memo[self.payloads[n]]
            elif k == K_AND:
                memo[n] = all(memo[c] for c in self.payloads[n])
            else:
                memo[n] = any(memo[c] for c in self.payloads[n])
        return memo[root]
