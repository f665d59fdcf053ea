"""Two independent constructions of the A2 and B2 full-flag Chow rings.

Route one is the Giambelli machinery (lift, multiply, project).  Route two
never touches a polynomial: it bootstraps every product from the Chevalley
formula alone, peeling one divisor class at a time off the right factor
with exact rational linear algebra.  The two full multiplication tables
must agree entry for entry.  The localization engine behind pair_product
is held to route one on every pair of the A2, B2, G2 and B3 flag rings and
of both F4 quotients.
"""

from fractions import Fraction

import pytest

from chowring.rootsystem import root_system
from chowring.schubert import ChowElement, get_chow_ring


def _solve(matrix, rhs):
    """One exact solution of matrix^T lambda = rhs, columns as unknowns."""
    rows = len(matrix)
    cols = len(matrix[0])
    aug = [[Fraction(matrix[r][c]) for r in range(rows)] + [Fraction(rhs[c])]
           for c in range(cols)]
    pivots = []
    r = 0
    for col in range(rows):
        p = next((k for k in range(r, len(aug)) if aug[k][col]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for k in range(len(aug)):
            if k != r and aug[k][col]:
                f = aug[k][col]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[r])]
        pivots.append(col)
        r += 1
    for k in range(r, len(aug)):
        if aug[k][-1]:
            raise AssertionError("divisor classes do not span this degree")
    solution = [Fraction(0)] * rows
    for row, col in zip(range(r), pivots):
        solution[col] = aug[row][-1]
    return solution


def chevalley_only_table(ring):
    """All products u*v computed from the Chevalley formula and linearity."""
    nodes = [i for i in range(1, ring.system.rank + 1)]
    products: dict = {}

    def as_vector(elem, codim):
        basis = ring.basis(codim)
        return [elem.terms.get(c, 0) for c in basis]

    def mult(a, b):
        key = (a, b)
        if key in products:
            return products[key]
        if b.codim == 0:
            result = ring.element(a)
        elif b.codim == 1:
            node = ring.codim1_node(b)
            result = ring.chevalley_product(node, a)
        else:
            k = b.codim - 1
            lower = ring.basis(k)
            columns = [(i, w) for i in nodes for w in lower]
            matrix = [as_vector(ring.chevalley_product(i, w), k + 1)
                      for i, w in columns]
            lam = _solve(matrix, as_vector(ring.element(b), k + 1))
            acc = ring.zero()
            for coeff, (i, w) in zip(lam, columns):
                if coeff:
                    piece = sum((v * ring.chevalley_product(i, c)
                                 for c, v in mult(a, w).terms.items()), ring.zero())
                    scaled = ChowElement(
                        ring, {c: coeff * v for c, v in piece.terms.items()})
                    acc = acc + scaled
            bad = [v for v in acc.terms.values()
                   if Fraction(v).denominator != 1]
            assert not bad, "bootstrap left non-integer coefficients"
            result = ChowElement(ring, {c: int(v) for c, v in acc.terms.items()})
        products[key] = result
        return result

    return {(a, b): mult(a, b) for a in ring.classes for b in ring.classes}


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_two_routes_agree_exhaustively(name):
    ring = get_chow_ring(root_system(name), ())
    table = chevalley_only_table(ring)
    for (a, b), bootstrap in table.items():
        assert ring.giambelli_product(a, b) == bootstrap, (a, b)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_structure_constants_symmetric(name):
    ring = get_chow_ring(root_system(name), ())
    table = chevalley_only_table(ring)
    for (a, b), product in table.items():
        assert product == table[(b, a)]


@pytest.mark.parametrize("ring_name", ["A2", "B2", "G2", "B3", "X1", "X4"])
def test_localization_matches_giambelli_exhaustively(ring_name, x1, x4):
    """Localization (pair_product) and Giambelli agree on every pair."""
    ring = {"X1": x1, "X4": x4}.get(ring_name) or \
        get_chow_ring(root_system(ring_name), ())
    for i, a in enumerate(ring.classes):
        for b in ring.classes[i:]:
            assert ring.pair_product(a, b) == ring.giambelli_product(a, b), (a, b)
