"""Chevalley's rule by Weyl-element products, held against the ring's
orbit route.

``ChowRing.chevalley_mult`` reads each product off the orbit of rho_P,
the orbit the localization engine walks too, so the two are no longer
independent routes.  The oracle here forms w s_beta for every positive
root beta with w(beta) < 0 and keeps the terms with l(w s_beta) =
l(w) - 1, which must index classes of the ring.
"""

from functools import lru_cache
from itertools import combinations

import pytest

from chowring import weyl
from chowring.rootsystem import root_system
from chowring.schubert import ChowElement, SubringError, get_chow_ring

# Every quotient of the rank <= 3 types and the F4 quotients with at least
# two nodes in theta, 3418 products in all; F4/B and the F4 quotients with
# one node in theta would take the Weyl-element route about 12 s more.
QUOTIENTS = [(name, theta)
             for name, rank in (("A1", 1), ("A2", 2), ("B2", 2), ("G2", 2),
                                ("B3", 3), ("F4", 4))
             for size in range(2 if name == "F4" else 0, rank)
             for theta in combinations(range(1, rank + 1), size)]


@lru_cache(maxsize=None)
def _reflection(system, beta):
    return weyl.reflection(system, beta)


def weyl_chevalley(ring, node, cls):
    """[X_w] * H_node as the sum of <beta^vee, omega_node> [X_{w s_beta}]
    over positive roots beta with l(w s_beta) = l(w) - 1."""
    system = ring.system
    omega = system.fundamental_weight(node)
    acc = {}
    for beta in system.positive_roots:
        coeff = system.coroot_pairing(beta, omega)
        if not coeff or system.is_positive(weyl.act_root(cls.rep, beta)):
            continue
        w = weyl.multiply(cls.rep, _reflection(system, beta))
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
    ring = get_chow_ring(root_system(name), theta)
    for node in range(1, ring.system.rank + 1):
        if node in ring.theta:
            continue
        for cls in ring.classes:
            assert ring.chevalley_mult(node, ring.element(cls)) == \
                weyl_chevalley(ring, node, cls), (node, cls)
