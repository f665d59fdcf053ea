"""The localization product engine: properties on random parabolic
quotients, Atiyah-Bott integration class by class (with Euler classes of
its own) and Weyl's degree formula as independent oracles, failure
injection into its exactness checks, its table-size guard, and the promise
that products never build a polynomial nor read a Weyl group table."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowring import correspondence as corr
from chowring import poly, schubert, weyl
from chowring.correspondence import Correspondence
from chowring.rootsystem import BUILTIN_CARTAN, root_system
from chowring.schubert import ChowElement, ChowRing, get_chow_ring
from chowring.weyl import WeylGroup
import dynkin
import weyl_oracle
from localization_oracle import euler, integrals, oracle_product

# Every quotient of every built-in type, except the F4 quotients with fewer
# than two nodes in theta: their 576 and 1152 fixed points take 1-3 s per
# engine to build.
QUOTIENTS = [(name, theta)
             for name, cartan in sorted(BUILTIN_CARTAN.items())
             for size in range(len(cartan) + 1)
             for theta in combinations(range(1, len(cartan) + 1), size)
             if not (name == "F4" and size < 2)]


def _ring(quotient):
    name, theta = quotient
    return get_chow_ring(root_system(name), theta)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(QUOTIENTS), st.data())
def test_products_commute_and_associate(quotient, data):
    ring = _ring(quotient)
    a, b, c = (data.draw(st.sampled_from(ring.classes)) for _ in range(3))
    x, y, z = (ring.element(cls) for cls in (a, b, c))
    assert ring.multiply(x, y + z) == ring.multiply(y + z, x)
    assert (ring.multiply(ring.multiply(x, y), z)
            == ring.multiply(x, ring.multiply(y, z)))
    # the engine itself, below the pair cache, is symmetric in its factors
    assert ring.localization.product(a, b) == ring.localization.product(b, a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(QUOTIENTS), st.data())
def test_triple_degrees_integral_and_point_independent(quotient, data):
    ring = _ring(quotient)
    a, b = (data.draw(st.sampled_from(ring.classes)) for _ in range(2))
    rest = ring.dim - a.codim - b.codim
    if rest < 0:
        return
    c = data.draw(st.sampled_from(ring.basis(rest)))
    values = integrals(ring, (a, b, c))
    assert len(values) == 2 and values[0] == values[1]
    assert values[0].denominator == 1
    assert values[0] == ring.pair_product(a, b).terms.get(ring.dual_class(c), 0)
    if rest > 0:
        # below the top degree the equivariant integral is 0 at each point
        for d in ring.basis(rest - 1):
            assert integrals(ring, (a, b, d)) == (0, 0)


@pytest.mark.parametrize("name", ["G2", "B3", "F4"])
def test_hyperplane_degree_matches_weyl_formula(name):
    system = root_system(name)
    degrees = {}
    for node in range(1, system.rank + 1):
        theta = tuple(i for i in range(1, system.rank + 1) if i != node)
        ring = get_chow_ring(system, theta)
        top = ring.power(ring.hyperplane_class(node), ring.dim)
        assert set(top.terms) <= {ring.point_class}
        degrees[node] = top.terms.get(ring.point_class, 0)
        assert degrees[node] == dynkin.weyl_degree(system, theta)
    if name == "F4":
        assert degrees[2] == 59440103424


def test_products_never_build_a_polynomial(f4, x1, monkeypatch):
    """pair_product and intersect run on localization alone, and the
    engine reads no table of the enumerated Weyl group.  (No Weyl element
    is applied to a root either: ``src`` has no function that does, see
    test_api.py.)"""
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial or Weyl group table used")

    ring = ChowRing(f4, (2, 3, 4))   # uncached, so no product is memoized
    assert ring._localization is None
    monkeypatch.setattr(schubert._GiambelliEngine, "product_classes", refuse)
    # the polynomial kernels: every raw product is _Calculus.mul and every
    # divided difference _raw_delta
    monkeypatch.setattr(poly._Calculus, "mul", refuse)
    monkeypatch.setattr(poly, "_raw_delta", refuse)
    monkeypatch.setattr(schubert, "_raw_delta", refuse)
    for attr in ("orbit", "elements"):
        monkeypatch.setattr(WeylGroup, attr, property(refuse))

    def cls(label):
        return ring.class_of(x1.class_by_label(label).rep)

    h14 = cls("h1^4")
    assert ring.pair_product(h14, h14) == ChowElement(
        ring, {cls("h1^8"): 8, cls("h2^8"): 6})
    # a hyperplane factor: the product is cross-checked against Chevalley
    assert ring.pair_product(cls("h1^1"), h14) == ring.chevalley_product(1, h14)
    alpha = Correspondence(ring, ring, {(h14, ring.unit_class): 1})
    beta = Correspondence(ring, ring, {(h14, cls("h1^1")): 2})
    assert corr.intersect(alpha, beta) == Correspondence(
        ring, ring, {(cls("h1^8"), cls("h1^1")): 16,
                     (cls("h2^8"), cls("h1^1")): 12})


@pytest.mark.parametrize("quotient", QUOTIENTS,
                         ids=lambda q: f"{q[0]}-" + ("".join(map(str, q[1])) or "flag"))
def test_engine_matches_basis_scanning_oracle(quotient):
    """Forward substitution against Atiyah-Bott integration, class by
    class, which shares only the Billey table: every pair on the rings of
    at most 96 classes (F4/P1, F4/P2 and F4/P4 among them), 50 seeded
    pairs on the F4 quotients of 144-288 classes, whose full tables take
    minutes by the oracle."""
    ring = _ring(quotient)
    pairs = [(a, b) for i, a in enumerate(ring.classes) for b in ring.classes[i:]
             if a.codim + b.codim <= ring.dim]
    if len(ring.classes) > 96:
        pairs = random.Random(2).sample(pairs, 50)
    for a, b in pairs:
        assert ring.localization.product(a, b) == oracle_product(ring, a, b)


def _billey_table(ring):
    """sigma^v|_x for every point x, keyed by v's point, from Billey's
    formula by brute force: every subword of x's word a_1 ... a_l whose
    product s_aj1 ... s_ajk is reduced and lands on a point v adds the
    product of its r_j = s_a1 ... s_a(j-1)(alpha_aj) at both evaluation
    points.  Products, lengths and root images come from the element-level
    oracle; only the points and their words are read from the ring."""
    system = ring.system
    simple = [system.simple_root(i) for i in range(1, system.rank + 1)]
    s = {i: weyl_oracle.reflection(system, alpha) for i, alpha in enumerate(simple, 1)}
    e = weyl_oracle.element(system, tuple(simple))
    steps = {}

    def times(u, a):
        if (u.images, a) not in steps:
            steps[u.images, a] = weyl_oracle.multiply(u, s[a])
        return steps[u.images, a]

    points = (tuple(range(1, system.rank + 1)),
              tuple(k * k + 1 for k in range(1, system.rank + 1)))
    point_of = {v.images: k for k, v in enumerate(ring.orbit.minimal)}
    table = []
    for x, word in zip(ring.orbit.minimal, ring.orbit.words):
        prefix, roots = e, []
        for a in word:
            root = weyl_oracle.act_root(prefix, simple[a - 1])
            roots.append(tuple(sum(c * p for c, p in zip(root, pt)) for pt in points))
            prefix = times(prefix, a)
        # the orbit's word is a reduced word of x
        assert (prefix.images, prefix.length) == (x.images, len(word))
        row = {}

        def walk(j, u, value):
            if j == len(word):
                k = point_of.get(u.images)
                if k is not None:
                    row[k] = tuple(map(sum, zip(row.get(k, (0, 0)), value)))
                return
            walk(j + 1, u, value)
            v = times(u, word[j])
            if v.length == u.length + 1:
                walk(j + 1, v, tuple(f * r for f, r in zip(value, roots[j])))

        walk(0, e, (1, 1))
        table.append(row)
    return points, table


@pytest.mark.parametrize("system, theta", [
    (root_system("G2"), ()), (root_system("B3"), ()), (dynkin.system("A3"), ()),
    (root_system("B3"), (2, 3))], ids=["G2-flag", "B3-flag", "A3-flag", "B3-23"])
def test_restrictions_match_billey_subword_oracle(system, theta):
    """The engine's table against Billey's formula summed over reduced
    subwords, entry by entry at both evaluation points: the same points v
    below each x, the same two integers, and every one positive."""
    ring = ChowRing(system, theta)
    engine = ring.localization
    points, table = _billey_table(ring)
    assert engine.points == points
    assert engine.restrictions == table
    assert all(u > 0 for row in engine.restrictions for pair in row.values() for u in pair)


@pytest.mark.parametrize("system, theta, entries", [
    (root_system("G2"), (), 73), (root_system("B3"), (), 847),
    (dynkin.system("A5"), (1, 2, 4, 5), 175), (dynkin.system("B4"), (1, 2, 3), 126),
    (root_system("F4"), (1, 3, 4), 3776)],
    ids=["G2-flag", "B3-flag", "A5-P3", "B4-P4", "F4-P2"])
def test_restriction_table_sizes(system, theta, entries):
    """The restriction entries each engine builds, as deterministic work:
    one per pair v <= x of points, on the rings the benchmark tables."""
    engine = ChowRing(system, theta).localization
    assert sum(map(len, engine.restrictions)) == entries


def _fresh_b2_square():
    """An uncached B2 flag ring, free to tamper with, its hyperplane class h
    of node 1, and the length-2 point x of h*h = 2 sigma^x.  The ring has
    dimension 4, so both rules read the row of x: the substitution for h*h
    itself, Atiyah-Bott for its dual class, sigma^x."""
    ring = ChowRing(root_system("B2"), ())
    engine = ring.localization
    h = ring.hyperplane_class(1)
    assert engine.product(h, h) == oracle_product(ring, h, h)
    (cls,) = engine.product(h, h)
    return ring, engine, h, ring.orbit.opposite[cls.point]


def _witness(ring, h, x, lanes):
    """The text the engine appends to a refused h * h."""
    return (f": theta (), {ring.label_of(h)} * {ring.label_of(h)} at x = "
            f"[{ring.orbit.names[x]}] (point {x}, length 2); lanes {lanes}")


def test_tampered_restriction_gives_different_products():
    """sigma^h|_x changed at one evaluation point only, by a multiple of
    both sigma^x|_x and e(x): every division of the substitution and every
    Atiyah-Bott sum stays integral, so only the comparison of the two
    points refuses the product.  The engine's witness names x and both
    lanes' c_x: the untouched lane keeps h * h = 2 sigma^x."""
    ring, engine, h, x = _fresh_b2_square()
    row = engine.restrictions[x]
    k = ring.orbit.opposite[h.point]
    u0, u1 = row[k]
    row[k] = (u0 + row[x][0] * abs(euler(ring)[x][0]), u1)
    with pytest.raises(AssertionError) as refused:
        engine.product(h, h)
    assert str(refused.value) == ("localization gives different products at the two "
                                  "evaluation points" + _witness(ring, h, x, "9272 and 2"))
    with pytest.raises(AssertionError, match="different products at the two "
                                             "evaluation points"):
        oracle_product(ring, h, h)


def test_broken_integrality_leaves_the_lattice():
    """The diagonal sigma^x|_x raised by 1 at both evaluation points: the
    division by it is no longer exact, and x's Atiyah-Bott term is no
    longer an integer.  The engine's witness names x and both lanes'
    quotients, 2 d / (d + 1) for the diagonal d, since h * h = 2 sigma^x."""
    ring, engine, h, x = _fresh_b2_square()
    row = engine.restrictions[x]
    d0, d1 = row[x]
    row[x] = (d0 + 1, d1 + 1)
    with pytest.raises(AssertionError) as refused:
        engine.product(h, h)
    assert str(refused.value) == ("localization product left the integer lattice" + _witness(
        ring, h, x, f"{2 * d0}/{d0 + 1} and {2 * d1}/{d1 + 1}"))
    with pytest.raises(AssertionError, match="integer lattice"):
        oracle_product(ring, h, h)


@pytest.mark.parametrize("name, node", [("D5", node) for node in range(1, 6)]
                         + [("E6", node) for node in range(1, 7)])
def test_chevalley_matches_localization_under_the_diagram_twist(
        no_weyl_enumeration, name, node):
    """Every hyperplane product of a maximal parabolic of D5 and of E6,
    whose ``opposite`` applies the diagram twist: localization and
    Chevalley's rule give the same terms for every class."""
    system, theta = dynkin.maximal(dynkin.cartan(name), node)
    ring = ChowRing(system, theta)
    h = ring.hyperplane_class(node)
    for cls in ring.classes:
        assert ring.pair_product(h, cls).terms == ring.chevalley_product(node, cls).terms


@pytest.mark.parametrize("node, classes, dim", [(7, 56, 27), (2, 576, 42)],
                         ids=["P7", "P2"])
def test_e7_degree_by_localization(no_weyl_enumeration, node, classes, dim):
    """E7/P7 (56 classes) and E7/P2 (576): deg H^dim by localization
    equals Weyl's formula, and W(E7) is never enumerated."""
    system, theta = dynkin.maximal(dynkin.cartan("E7"), node)
    ring = ChowRing(system, theta)
    assert (len(ring.classes), ring.dim) == (classes, dim)
    top = ring.power(ring.hyperplane_class(node), dim)
    assert ring._localization is not None
    assert top.terms == {ring.point_class: dynkin.weyl_degree(system, theta)}


def test_table_bound_builds_e8_p1_and_refuses_e8_p2():
    """The stated bound, on the orbit sizes alone: E8/P1 has 2160 fixed
    points, E8/P2 has 17280."""
    p1, p2 = (weyl._orbit_size(*dynkin.maximal(dynkin.cartan("E8"), node))
              for node in (1, 2))
    assert (p1, p2) == (2160, 17280)
    assert p1 * p1 <= schubert.MAX_LOCALIZATION_TABLE < p2 * p2


def test_engine_above_the_table_bound_is_refused(monkeypatch):
    """With the bound one below |W^P|^2 the engine raises before it
    computes a single restriction; at the bound it builds."""
    def refuse(*args):
        raise AssertionError("the engine started building")

    ring = ChowRing(root_system("B3"), ())   # uncached, engine not built
    monkeypatch.setattr(schubert, "MAX_LOCALIZATION_TABLE", 48 * 48 - 1)
    monkeypatch.setattr(schubert._LocalizationEngine, "_restrictions", refuse)
    with pytest.raises(weyl.SizeLimitError, match="48 fixed points needs a table of "
                                                  "2304 entries, more than the 2303"):
        ring.localization
    assert ring._localization is None
    monkeypatch.undo()
    monkeypatch.setattr(schubert, "MAX_LOCALIZATION_TABLE", 48 * 48)
    assert ring.localization.product(ring.unit_class, ring.point_class) == {
        ring.point_class: 1}
