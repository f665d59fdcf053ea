"""The sparse arithmetic that Chow elements, correspondences and
polynomials share."""

import operator
import random
from fractions import Fraction
from itertools import product

import pytest

from chowring.correspondence import Correspondence
from chowring.poly import RationalPolynomial, _calculus, parse_polynomial
from chowring.rootsystem import root_system
from chowring.schubert import ChowElement


def _space(kind, x1, x4):
    """A constructor for the space, its basis keys, a combination of
    another space and the message for mixing the two."""
    if kind == "ChowElement":
        return (lambda terms: ChowElement(x1, terms), list(x1.classes),
                x4.unit, "elements of different Chow rings")
    if kind == "RationalPolynomial":
        f4, pack = x1.system, _calculus(x1.system).pack
        return (lambda terms: RationalPolynomial._from_raw(
                    f4, {e: c for e, c in terms.items() if c}),
                [pack(e) for e in product(range(3), repeat=4)],
                parse_polynomial(root_system("B3"), "w1"),
                "polynomials belong to different root systems")
    return (lambda terms: Correspondence(x1, x4, terms),
            [(f, g) for f in x1.classes for g in x4.classes],
            Correspondence(x4, x1, {(x4.unit_class, x1.unit_class): 1}),
            "correspondences on different variety pairs")


@pytest.mark.parametrize("kind", ["ChowElement", "Correspondence", "RationalPolynomial"])
def test_linear_space_laws(kind, x1, x4):
    make, keys, foreign, mismatch = _space(kind, x1, x4)
    rng = random.Random(14)
    for _ in range(20):
        shared = rng.sample(keys, 3)
        x = make({k: rng.randint(-3, 3) for k in shared + rng.sample(keys, 3)})
        y = make({k: rng.randint(-3, 3) for k in shared + rng.sample(keys, 3)})
        assert x + y == y + x
        assert 0 not in (x + y).terms.values()
        assert (x + y) - y == x
        assert (x - x).terms == {}
        assert (0 * x).terms == {}
        assert -x == -1 * x
        assert 2 * x == x + x == x * 2
        reordered = make(dict(reversed(list(x.terms.items()))))
        assert reordered == x and hash(reordered) == hash(x)
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError, match=f"^{mismatch}$"):
                op(x, foreign)
        assert x != foreign


@pytest.mark.parametrize("product", [
    lambda u, d: d * d,
    lambda u, d: u * 0.5,
    lambda u, d: 0.5 * u,
    lambda u, d: u * Fraction(1, 2),
    lambda u, d: Fraction(1, 2) * u,
    lambda u, d: d * Fraction(1, 2),
    lambda u, d: u * d,
    lambda u, d: d * u,
], ids=["corr*corr", "elem*float", "float*elem", "elem*fraction", "fraction*elem",
        "corr*fraction", "elem*corr", "corr*elem"])
def test_only_int_scalars_scale_cycles(product, x1):
    """A cycle has integral coefficients: no product with a non-int scalar
    or with a correspondence is defined."""
    d = Correspondence(x1, x1, {(x1.unit_class, x1.point_class): 2})
    with pytest.raises(TypeError):
        product(x1.unit, d)


def test_polynomials_take_rational_scalars_only(x1):
    """A polynomial scales by ints and Fractions; ``*`` of two polynomials
    is their product, and anything else is a TypeError."""
    f4 = x1.system
    u = parse_polynomial(f4, "w1 - 2*w2")
    assert Fraction(1, 2) * u == u * Fraction(1, 2) == parse_polynomial(f4, "1/2*w1 - w2")
    assert u * u == parse_polynomial(f4, "w1^2 - 4*w1*w2 + 4*w2^2")
    for scalar in (0.5, None, x1.unit):
        with pytest.raises(TypeError):
            u * scalar
        with pytest.raises(TypeError):
            scalar * u
