"""Chevalley's rule by Weyl-element products, held against the ring's
orbit route.

``ChowRing.chevalley_product`` reads each product off the orbit of rho_P,
the orbit the localization engine walks too, so the two are no longer
independent routes.  The oracle here forms w s_beta for every positive
root beta with w(beta) < 0 and keeps the terms with l(w s_beta) =
l(w) - 1, which must index classes of the ring.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from chowring import weyl
from chowring.schubert import ChowElement, SubringError, get_chow_ring
import dynkin
import weyl_oracle

# Every quotient of the rank <= 3 types, the F4 quotients with at least
# two nodes in theta, and every quotient of A4 and of D4; F4/B and the F4
# quotients with one node in theta would take the Weyl-element route about
# 12 s more.
QUOTIENTS = [(name, theta)
             for name, rank in (("A1", 1), ("A2", 2), ("B2", 2), ("G2", 2),
                                ("B3", 3), ("F4", 4), ("A4", 4), ("D4", 4))
             for size in range(2 if name == "F4" else 0, rank)
             for theta in combinations(range(1, rank + 1), size)]


@lru_cache(maxsize=None)
def _coefficients(system, node):
    """(beta, <beta^vee, omega_node>) for the positive roots beta with a
    nonzero coefficient: beta_node (alpha_node, alpha_node) / (beta, beta)
    by the Fraction form, apart from the ring's integer coroot table."""
    alpha = system.simple_root(node)
    out = []
    for beta in system.positive_roots:
        coeff = (Fraction(beta[node - 1]) * weyl_oracle.norm2(system, alpha)
                 / weyl_oracle.norm2(system, beta))
        assert coeff.denominator == 1
        if coeff:
            out.append((beta, int(coeff)))
    return tuple(out)


def weyl_chevalley(ring, node, cls):
    """[X_w] * H_node as the sum of <beta^vee, omega_node> [X_{w s_beta}]
    over positive roots beta with l(w s_beta) = l(w) - 1."""
    system = ring.system
    acc = {}
    for beta, coeff in _coefficients(system, node):
        if weyl_oracle.is_positive(weyl_oracle.act_root(cls.rep, beta)):
            continue
        w = weyl_oracle.multiply(cls.rep, weyl_oracle.reflection(system, beta))
        if w.length != cls.rep.length - 1:
            continue
        try:
            target = ring.class_of(w)
        except ValueError:
            raise SubringError(f"Chevalley product left the subring at "
                               f"{weyl.serialize(w)} (coefficient {coeff})") from None
        acc[target] = acc.get(target, 0) + coeff
    return ChowElement(ring, acc)


@pytest.mark.parametrize("name,theta", QUOTIENTS)
def test_orbit_chevalley_matches_weyl_products(name, theta):
    ring = get_chow_ring(dynkin.system(name), theta)
    for node in range(1, ring.system.rank + 1):
        if node in ring.theta:
            continue
        for cls in ring.classes:
            assert ring.chevalley_product(node, cls) == \
                weyl_chevalley(ring, node, cls), (node, cls)
