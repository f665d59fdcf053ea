"""The localization product engine: properties on random parabolic
quotients, Weyl's degree formula as an independent oracle, and the
promise that products never build a polynomial nor read a Weyl group
table."""

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowring import correspondence as corr
from chowring import poly, schubert
from chowring.correspondence import Correspondence
from chowring.rootsystem import BUILTIN_CARTAN, root_system
from chowring.schubert import ChowElement, ChowRing, get_chow_ring
from chowring.weyl import WeylGroup

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
    values = ring.localization.integrals((a, b, c))
    assert len(values) == 2 and values[0] == values[1]
    assert values[0].denominator == 1
    assert values[0] == ring.pair_product(a, b).terms.get(ring.dual_class(c), 0)
    if rest > 0:
        # below the top degree the equivariant integral is 0 at each point
        for d in ring.basis(rest - 1):
            assert ring.localization.integrals((a, b, d)) == (0, 0)


def _weyl_degree(system, theta):
    """dim! * prod over beta > 0 outside Phi_theta of
    <rho_P, beta^vee> / <rho, beta^vee>."""
    n = system.rank
    rho = (1,) * n
    rho_p = tuple(0 if i in theta else 1 for i in range(1, n + 1))
    outside = [beta for beta in system.positive_roots
               if any(beta[i - 1] for i in range(1, n + 1) if i not in theta)]
    value = Fraction(factorial(len(outside)))
    for beta in outside:
        value *= Fraction(system.coroot_pairing(beta, rho_p),
                          system.coroot_pairing(beta, rho))
    assert value.denominator == 1
    return int(value)


@pytest.mark.parametrize("name", ["G2", "B3", "F4"])
def test_hyperplane_degree_matches_weyl_formula(name):
    system = root_system(name)
    degrees = {}
    for node in range(1, system.rank + 1):
        theta = tuple(i for i in range(1, system.rank + 1) if i != node)
        ring = get_chow_ring(system, theta)
        top = ring.power(ring.hyperplane_class(node), ring.dim)
        assert set(top.terms) <= {ring.point_class}
        degrees[node] = ring.degree(top)
        assert degrees[node] == _weyl_degree(system, theta)
    if name == "F4":
        assert degrees[2] == 59440103424


def test_products_never_build_a_polynomial(f4, x1, monkeypatch):
    """pair_product and intersect run on localization alone, and the engine
    reads no table of the enumerated Weyl group."""
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
    for attr in ("index_of", "element_at"):
        monkeypatch.setattr(WeylGroup, attr, refuse)
    for attr in ("orbit", "elements"):
        monkeypatch.setattr(WeylGroup, attr, property(refuse))

    def cls(label):
        return ring.class_of(x1.class_by_label(label).rep)

    h14 = cls("h1^4")
    assert ring.pair_product(h14, h14) == ChowElement(
        ring, {cls("h1^8"): 8, cls("h2^8"): 6})
    alpha = Correspondence(ring, ring, {(h14, ring.unit_class): 1})
    beta = Correspondence(ring, ring, {(h14, cls("h1^1")): 2})
    assert corr.intersect(alpha, beta) == Correspondence(
        ring, ring, {(cls("h1^8"), cls("h1^1")): 16,
                     (cls("h2^8"), cls("h1^1")): 12})
