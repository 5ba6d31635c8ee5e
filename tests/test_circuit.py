import itertools

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


def test_flattening():
    c = Circuit()
    x, y, z = c.var(0), c.var(1), c.var(2)
    nested = c.and_([c.and_([x, y]), z])
    flat = c.and_([x, y, z])
    assert nested == flat


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
