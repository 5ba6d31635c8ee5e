import itertools

import pytest

from hyperbmc.circuit import FALSE, TRUE, Circuit


def test_constant_folding():
    c = Circuit()
    x = c.var(0)
    assert c.and_([x, TRUE]) == x
    assert c.and_([x, FALSE]) == FALSE
    assert c.or_([x, FALSE]) == x
    assert c.or_([x, TRUE]) == TRUE
    assert c.and_([]) == TRUE
    assert c.or_([]) == FALSE
    assert c.not_(TRUE) == FALSE
    assert c.not_(c.not_(x)) == x


def test_structural_sharing():
    c = Circuit()
    x, y = c.var(0), c.var(1)
    n1 = c.and_([x, y])
    n2 = c.and_([y, x])
    assert n1 == n2
    assert c.or_([n1, c.and_([x, y])]) == n1  # deduplicated child collapses


def test_complement_annihilation():
    c = Circuit()
    x, y = c.var(0), c.var(1)
    assert c.and_([x, c.not_(x)]) == FALSE
    assert c.or_([x, c.not_(x), y]) == TRUE


def test_restrict_and_evaluate_agree():
    c = Circuit()
    x, y, z = c.var(0), c.var(1), c.var(2)
    f = c.or_([c.and_([x, c.not_(y)]), c.and_([y, z])])
    for bits in itertools.product([False, True], repeat=3):
        direct = c.evaluate(f, dict(enumerate(bits)))
        g = f
        for v, b in enumerate(bits):
            g = c.restrict(g, v, b)
        assert g in (TRUE, FALSE)
        assert (g == TRUE) == direct


def test_cofactors_shannon_expansion():
    c = Circuit()
    x, y = c.var(0), c.var(1)
    f = c.or_([c.and_([x, y]), c.not_(y)])
    lo, hi = c.cofactors(f, 1)
    # f == (!y & lo) | (y & hi)
    rebuilt = c.or_([c.and_([c.not_(y), lo]), c.and_([y, hi])])
    for bits in itertools.product([False, True], repeat=2):
        env = dict(enumerate(bits))
        assert c.evaluate(f, env) == c.evaluate(rebuilt, env)


def test_support_masks():
    c = Circuit()
    x, y = c.var(3), c.var(7)
    f = c.and_([x, c.not_(y)])
    assert c.support(f) == {3, 7}
    assert c.support(TRUE) == set()
    assert c.restrict(f, 5, True) == f  # untouched variable


def test_table_gates_fold_and_intern():
    c = Circuit()
    assert c.table_gate(c.table((0, 1), []), 5) == FALSE
    assert c.table_gate(c.table((), []), 5) == FALSE
    assert c.table_gate(c.table((), [0]), 5) == TRUE
    # rows are a set: order and repeats do not make a new table
    t = c.table((0, 1), [0b01, 0b10])
    assert c.table((0, 1), [0b10, 0b01, 0b10]) == t
    assert c.table((0, 2), [0b01, 0b10]) != t
    g = c.table_gate(t, 4)
    assert c.table_gate(t, 4) == g
    assert c.support(g) == {4, 5}
    assert c.table_gate(t, 6) != g
    # a table that is valid as a function is still a gate; it expands,
    # restricts and evaluates to true
    valid = c.table_gate(c.table((0,), [0, 1]), 3)
    assert valid not in (TRUE, FALSE)
    assert c.expand(valid) == TRUE
    assert c.restrict(valid, 3, False) == c.restrict(valid, 3, True) == TRUE
    assert c.evaluate(valid, {3: False}) and c.evaluate(valid, {3: True})


def test_expand_makes_row_ands_in_offset_order():
    # rows 0b01 and 0b10 sort 1, 2 as ints but (0, 1), (1, 0) read from
    # offsets[0] first: the literals come offset by offset, then the ANDs
    # in the second order, which numbers the nodes emit_qcir writes
    c = Circuit()
    g = c.table_gate(c.table((0, 1), [0b01, 0b10]), 3)
    before = len(c)
    e = c.expand(g)
    x, y = c.var(3), c.var(4)
    nx, ny = c.not_(x), c.not_(y)
    assert (x, nx, y, ny) == tuple(range(before, before + 4))
    first, second = c.and_([nx, y]), c.and_([x, ny])  # rows 0b10, then 0b01
    assert (first, second, e) == (before + 4, before + 5, before + 6)
    assert c.payloads[e] == (first, second)
    assert len(c) == before + 7


def test_table_gate_evaluate_expand_and_restrict_agree():
    c = Circuit()
    # offset 0 true and offset 2 false, or offset 1 false
    t = c.table((0, 1, 2), [r for r in range(8) if r & 0b001 and not r & 0b100 or not r & 0b010])
    f = c.or_([c.and_([c.table_gate(t, 1), c.var(0)]), c.not_(c.table_gate(t, 2))])
    e = c.expand(c.table_gate(t, 1))
    assert e != c.table_gate(t, 1)
    for bits in itertools.product([False, True], repeat=5):
        env = dict(enumerate(bits))
        want = (env[0] and ((env[1] and not env[3]) or not env[2])) or not (
            (env[2] and not env[4]) or not env[3]
        )
        assert c.evaluate(f, env) == want
        assert c.evaluate(e, env) == c.evaluate(c.table_gate(t, 1), env)
        g = f
        for v, b in enumerate(bits):
            g = c.restrict(g, v, b)
        assert g == (TRUE if want else FALSE)


def test_unrolling_refuses_tables_that_do_not_unroll():
    # the step table must read the initial table's window and the same
    # window one stride higher, with the stride past the window's span
    c = Circuit()
    init = c.table((0, 2), [0b01])
    step = c.table((0, 2, 3, 5), [0b0101, 0b1001])
    unequal = c.table((0, 2, 3, 6), [0b0101])
    overlapping = c.table((0, 2, 2, 4), [0b0101])
    size = len(c)
    with pytest.raises(ValueError):
        c.unrolling(init, unequal, 0, 3, 2)
    with pytest.raises(ValueError):
        c.unrolling(init, step, 0, 4, 2)  # not the stride the table steps by
    with pytest.raises(ValueError):
        c.unrolling(init, overlapping, 0, 2, 2)
    assert len(c) == size and c.unrollings == {}
    n = c.unrolling(init, step, 1, 3, 2)
    assert c.unrollings == {n: (init, step, 1, 3, 2)}
    assert n == c.and_([c.table_gate(init, 1), c.table_gate(step, 1), c.table_gate(step, 4)])
    zero = c.unrolling(init, step, 1, 3, 0)
    assert zero == c.table_gate(init, 1)  # one gate, recorded all the same
    assert c.unrollings == {n: (init, step, 1, 3, 2), zero: (init, step, 1, 3, 0)}
    one_state = c.table((), [0])  # a one-state model's tables fold to TRUE: no record
    assert c.unrolling(one_state, one_state, 7, 1, 3) == TRUE
    assert list(c.unrollings) == [n, zero]
