"""The paper's construction on three groups, from records built here.

``f4pipeline`` runs one recipe on a ``Construction`` record (x, y, h, g,
a, b, p): r = a x 1 + eps (1 x b) with a and b of one codimension k,
rho_i = r^(p-1) (h^i x g^(n-i)) for i = 0..n with n = dim X - (p-1) k, and
the compositions rho_(n-i)^t o rho_i on X and rho_i o rho_(n-i)^t on Y,
mod p.  On each instance below, for both values of eps, the compositions
of each side sum to the diagonal mod p, composition n-i on X is the
transpose of composition i, and composition i realizes rank 1 exactly in
the codimensions i + j k, j < p:

- G2/P1 x G2/P2 mod 2, k = 3, n = 2: Bonnet's motivic isomorphism between
  the two G2 varieties (Doc. Math. 8, 2003);
- E6/P1 x E6/P6 mod 3, k = 4, n = 8, for each of the 2 x 2 choices of a
  and b: the Rost-motive shape 1 + t^4 + t^8 of Petrov, Semenov and
  Zainoulline (Ann. Sci. ENS 2008);
- the pipeline's own F4 record, mod 3, k = 4, n = 7.

Four controls fail completeness mod p on both sides.  Idempotency and
orthogonality mod p held on every control as well, so neither is tested
here as evidence.  Nor does completeness single out the torsion primes:
G2 mod 3 with k = 2 (n = 1) passes it.  No fixture file is read.
"""

import itertools
from functools import lru_cache

import pytest

from chowring import correspondence as corr
from chowring import f4pipeline as pipe
from chowring.f4pipeline import Construction
from chowring.schubert import ChowRing
import dynkin


@lru_cache(maxsize=None)
def _quotients(name, nodes):
    """G/P for the maximal parabolic at each node of ``nodes``."""
    system = dynkin.system(name)
    return tuple(ChowRing(system, [i for i in range(1, system.rank + 1) if i != node])
                 for node in nodes)


def instance(name, nodes, p, k, choice=(0, 0)):
    """The record of G/P_s x G/P_t, (s, t) = ``nodes``, mod p, whose r
    reads the basis classes of codimension k at the positions ``choice``."""
    x, y = _quotients(name, nodes)
    return Construction(x, y, x.hyperplane_class(nodes[0]), y.hyperplane_class(nodes[1]),
                        x.basis(k)[choice[0]], y.basis(k)[choice[1]], p)


def complete(c, eps):
    """Whether the X-side and the Y-side compositions each sum to the
    diagonal mod p."""
    return tuple(corr.congruent(sum(family[1:], family[0]), corr.diagonal(ring), c.p)
                 for family, ring in zip(pipe.compositions(c, eps), (c.x, c.y)))


def assert_rost_shape(c, eps, n):
    k = c.a.codim
    on_x, on_y = pipe.compositions(c, eps)
    assert len(on_x) == len(on_y) == len(pipe.rhos(c, eps)) == n + 1
    assert complete(c, eps) == (True, True)
    for i in range(n + 1):
        assert on_x[n - i] == corr.transpose(on_x[i])
        want = {i + j * k: 1 for j in range(c.p)}
        assert pipe._support_ranks(on_x[i]) == want
        assert pipe._support_ranks(on_y[i]) == want


@pytest.mark.parametrize("eps", [1, -1])
def test_g2_mod_2_is_bonnets_isomorphism(eps):
    assert_rost_shape(instance("G2", (1, 2), 2, 3), eps, n=2)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("choice", list(itertools.product(range(2), repeat=2)))
def test_e6_mod_3_has_the_rost_shape(no_weyl_enumeration, choice, eps):
    c = instance("E6", (1, 6), 3, 4, choice)
    assert len(c.x.basis(4)) == len(c.y.basis(4)) == 2
    assert_rost_shape(c, eps, n=8)


@pytest.mark.parametrize("eps", [1, -1])
def test_f4_record_has_the_rost_shape(eps):
    c = pipe.construction()
    assert (c.a.codim, c.p) == (4, 3)
    assert_rost_shape(c, eps, n=7)


@pytest.mark.parametrize("eps", [1, -1])
def test_g2_mod_3_with_k_2_is_complete(eps):
    """Not a control: completeness holds at p = 3 on G2 when k = 2."""
    c = instance("G2", (1, 2), 3, 2)
    assert len(pipe.rhos(c, eps)) == 2
    assert complete(c, eps) == (True, True)


CONTROLS = {
    "F4-p2-k4": (lambda: pipe.construction()._replace(p=2), 11),
    "G2-p3-k1": (lambda: instance("G2", (1, 2), 3, 1), 3),
    "E6-p2-k4": (lambda: instance("E6", (1, 6), 2, 4), 12),
    "E6-p3-k3": (lambda: instance("E6", (1, 6), 3, 3), 10),
}


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_controls_fail_completeness(no_weyl_enumeration, control, eps):
    build, n = CONTROLS[control]
    c = build()
    assert len(pipe.rhos(c, eps)) == n + 1
    assert complete(c, eps) == (False, False)
