"""The integer arithmetic that Chow elements and correspondences share."""

import operator
import random
from fractions import Fraction

import pytest

from chowring.correspondence import Correspondence
from chowring.schubert import ChowElement


def _space(kind, x1, x4):
    """A constructor for the space, its basis keys, a combination of
    another space and the message for mixing the two."""
    if kind == "ChowElement":
        return (lambda terms: ChowElement(x1, terms), list(x1.classes),
                x4.unit, "elements of different Chow rings")
    return (lambda terms: Correspondence(x1, x4, terms),
            [(f, g) for f in x1.classes for g in x4.classes],
            Correspondence(x4, x1, {(x4.unit_class, x1.unit_class): 1}),
            "correspondences on different variety pairs")


@pytest.mark.parametrize("kind", ["ChowElement", "Correspondence"])
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

