"""The c map against a walk over all of W.

``_GiambelliEngine.c_raw`` walks only the coset orbit of the invariance
set K of u (the nodes i with delta_i(u) = 0), on values kept factored as a
cofactor times a multiset of positive roots; ``product_classes`` hands it
the two lifts' chain values unexpanded and their common right descents as
nodes known to be zero.  The oracle below keeps the plain walk instead,
on the expanded polynomial: every element of W level by level, each
reached from its smallest left descent, and the leaf at v read as w0 * v
by multiplying Weyl elements.
"""

import random
from itertools import combinations_with_replacement

import pytest

from chowring import f4pipeline as pipe
from chowring import poly
from chowring.rootsystem import root_system
from chowring.schubert import _GiambelliEngine, get_chow_ring
from chowring.weyl import get_weyl_group, longest_element, right_descents
from weyl_oracle import left_min_descent, listed_group, multiply


def oracle_c_raw(system, u_raw, degree):
    """delta_v(u) for every v of length ``degree`` in W, keyed by w0 v."""
    if degree > len(system.positive_roots):
        return {}
    elements, index = listed_group(system)
    level = {0: u_raw} if u_raw else {}
    for m in range(1, degree + 1):
        nxt = {}
        for idx, w in enumerate(elements):
            if w.length != m:
                continue
            i, below = left_min_descent(w)
            parent = level.get(index[below.images])
            if parent:
                val = poly._raw_delta(system, i, parent)
                if val:
                    nxt[idx] = val
        level = nxt
    w0 = longest_element(system)
    out = {}
    for idx, raw in level.items():
        assert set(raw) <= {0}, "non-constant leaf"
        if raw:
            out[multiply(w0, elements[idx])] = raw[0]
    return out


def invariance_set(system, u_raw):
    return tuple(i for i in range(1, system.rank + 1)
                 if not poly._raw_delta(system, i, u_raw))


def _check(engine, u_raw, degree):
    got = engine.c_raw(u_raw, degree)
    assert got == oracle_c_raw(engine.system, u_raw, degree)
    return got


def _check_product(engine, a, b, u_raw):
    """``product_classes`` on the factored lifts of a and b against the
    oracle on their expanded product ``u_raw``, divided by |W|^2; and every
    common right descent of the two, the nodes the factored path takes as
    zero, annihilates the expanded product."""
    common = set(right_descents(a.rep)) & set(right_descents(b.rep))
    assert common <= set(invariance_set(engine.system, u_raw))
    want = {}
    order2 = engine.group.order ** 2
    for w, const in _check(engine, u_raw, a.codim + b.codim).items():
        q, r = divmod(const, order2)
        assert not r
        if q:
            want[w] = q
    assert engine.product_classes(a.rep, b.rep) == want
    return want


@pytest.mark.parametrize("name,theta", [
    ("A2", ()), ("B2", ()), ("G2", ()), ("B3", ()),
    ("B3", (1,)), ("B3", (2,)), ("B3", (3,)),
    ("B3", (1, 2)), ("B3", (1, 3)), ("B3", (2, 3)),
])
def test_c_raw_matches_oracle_on_every_lift_product(name, theta):
    ring = get_chow_ring(root_system(name), theta)
    engine = _GiambelliEngine(ring.group)
    mul = poly._calculus(ring.system).mul
    lifts = {c: engine.lift_raw(c.rep) for c in ring.classes}
    walked = 0
    for a, b in combinations_with_replacement(ring.classes, 2):
        if a.codim + b.codim <= ring.dim:
            walked += bool(_check_product(engine, a, b, mul(lifts[a], lifts[b])))
    assert walked


def test_c_raw_matches_oracle_on_the_f4_verify_products():
    """The 44 table products and the two squares of ``verify f4``."""
    count = 0
    for v, ring in zip(pipe.VARIETIES, pipe.get_f4_varieties()):
        engine = _GiambelliEngine(ring.group)
        mul = poly._calculus(ring.system).mul
        h = ring.hyperplane_class(v.node)
        pairs = [(h, ring.class_by_label(rhs)) for _, rhs, _ in pipe.load_table(v.stem)]
        pairs.append((ring.class_by_label(v.squared),) * 2)
        for a, b in pairs:
            u = mul(engine.lift_raw(a.rep), engine.lift_raw(b.rep))
            assert set(ring.theta) <= set(invariance_set(ring.system, u))
            assert _check_product(engine, a, b, u)
            count += 1
    assert count == 46


@pytest.mark.parametrize("fname", ["h14_preimage.txt", "g14_preimage.txt"])
def test_c_raw_matches_oracle_on_the_preimages(f4_group, fname):
    u = poly.parse_polynomial(f4_group.system, pipe._data_text(fname))
    engine = _GiambelliEngine(f4_group)
    for v in (u, u * u):
        assert _check(engine, v.terms, v.degree())


def _random_poly(system, variables, degree, rng):
    """A random homogeneous polynomial in the weight variables ``variables``."""
    terms = {}
    for _ in range(4):
        coeff = rng.randint(-5, 5) or 1
        e = [0] * system.rank
        for _ in range(degree):
            e[rng.choice(variables) - 1] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + coeff
    return poly.RationalPolynomial(system, terms)


@pytest.mark.parametrize("name", ["G2", "B3", "F4"])
def test_c_raw_matches_oracle_on_seeded_polynomials(name):
    """s_j fixes w_i for i != j, so a polynomial in the variables S is
    invariant under every node outside S: S = every node mostly gives K
    empty, a proper S a partial K."""
    system = root_system(name)
    engine = _GiambelliEngine(get_weyl_group(system))
    rng = random.Random(20261018)
    nodes = list(range(1, system.rank + 1))
    kinds = set()
    for size in range(1, system.rank + 1):
        for _ in range(3):
            variables = rng.sample(nodes, size)
            for degree in (1, 2, 3, 4):
                u = _random_poly(system, variables, degree, rng)
                K = invariance_set(system, u.terms)
                assert set(nodes) - set(variables) <= set(K)
                kinds.add("empty" if not K else "partial")
                _check(engine, u.terms, degree)
    assert kinds == {"empty", "partial"}


@pytest.mark.parametrize("name", ["A2", "F4"])
def test_c_raw_in_degree_zero(name):
    group = get_weyl_group(root_system(name))
    engine = _GiambelliEngine(group)
    assert _check(engine, {0: 7}, 0) == {group.longest: 7}
    assert engine.c_raw({}, 0) == {}


@pytest.mark.parametrize("name", ["A2", "F4"])
def test_c_raw_on_factored_roots(name):
    """u = alpha_1, given as the cofactor 1 times the root: in degree 1 the
    factored walk matches the oracle on the expanded root.  A leaf reached
    with roots still left over is refused: alpha_1 itself read in degree 0,
    and alpha_1^2 alpha_2 read in degree 1, where delta_1 keeps the pair
    alpha_1^2 beside the constant delta_1(alpha_2)."""
    system = root_system(name)
    engine = _GiambelliEngine(get_weyl_group(system))
    index = system.root_index
    a1, a2 = index[system.simple_root(1)], index[system.simple_root(2)]
    alpha = poly._calculus(system).root_forms[a1]
    assert engine.c_raw({0: 1}, 1, {a1: 1}) == oracle_c_raw(system, alpha, 1)
    with pytest.raises(AssertionError, match="non-constant leaf"):
        engine.c_raw({0: 1}, 0, {a1: 1})
    with pytest.raises(AssertionError, match="non-constant leaf"):
        engine.c_raw({0: 1}, 1, {a1: 2, a2: 1})
