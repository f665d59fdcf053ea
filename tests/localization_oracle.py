"""Atiyah-Bott integration over every fixed point, as an oracle for the tests.

``_LocalizationEngine.product`` solves a product by forward substitution
over the Bruhat interval between the factors and the product.  The tests
hold it to Atiyah-Bott (1984),

    deg(sigma^u sigma^v sigma^w) = sum over x of
        sigma^u|_x sigma^v|_x sigma^w|_x / e(x),
    e(x) = product over gamma in Phi+ minus Phi+_theta of (-x gamma),

which shares only the engine's Billey table and its evaluation points.
The Euler classes e(x) are computed here, from the root system and the
orbit's minimal representatives: x gamma is the sum of gamma_i x(alpha_i),
and x(alpha_i) is ``images[i - 1]`` of x.  For each class c of the
product's codimension, ``oracle_product`` integrates
deg(X_a X_b X_dual(c)) as one exact sum per evaluation point;
``integrals`` gives the degree of any product of classes the same way.
"""

from fractions import Fraction
from math import lcm, prod
from weakref import WeakKeyDictionary

_WEIGHTS = WeakKeyDictionary()


def euler(ring):
    """e(x) at each evaluation point of the ring's engine, per point x."""
    system, theta = ring.system, ring.theta
    points = ring.localization.points
    tangent = [gamma for gamma in system.positive_roots
               if any(c for i, c in enumerate(gamma, 1) if i not in theta)]
    out = []
    for x in ring.orbit.minimal:
        # x(alpha_i) at each evaluation point
        simple = [[sum(c * p for c, p in zip(image, point)) for image in x.images]
                  for point in points]
        out.append(tuple(prod(-sum(g * u for g, u in zip(gamma, lane)) for gamma in tangent)
                         for lane in simple))
    return out


def _weights(ring):
    """1/e(x) = scale[x] / lcms, in integers, per point x and lane."""
    got = _WEIGHTS.get(ring)
    if got is None:
        es = euler(ring)
        lcms = tuple(lcm(*(abs(e[t]) for e in es)) for t in range(len(es[0])))
        got = _WEIGHTS[ring] = (
            [tuple(m // e_t for m, e_t in zip(lcms, e)) for e in es], lcms)
    return got


def integrals(ring, classes):
    """deg of the product of ``classes``, one exact Atiyah-Bott sum per
    evaluation point of the ring's engine."""
    engine = ring.localization
    scales, lcms = _weights(ring)
    ks = [ring.orbit.opposite[c.point] for c in classes]
    sums = [0] * len(lcms)
    for restriction, scale in zip(engine.restrictions, scales):
        if all(k in restriction for k in ks):
            for t, m in enumerate(scale):
                sums[t] += m * prod(restriction[k][t] for k in ks)
    return tuple(Fraction(s, m) for s, m in zip(sums, lcms))


def oracle_product(ring, a, b):
    """[X_a]*[X_b] as class -> coefficient, one Atiyah-Bott sum per class
    of the product's codimension.  Each sum must be an integer at each
    point, and the two points must give the same one."""
    engine = ring.localization
    if a.codim + b.codim > ring.dim:
        return {}
    scales, lcms = _weights(ring)
    ka, kb = (ring.orbit.opposite[c.point] for c in (a, b))
    support = []
    for restriction, scale in zip(engine.restrictions, scales):
        if ka in restriction and kb in restriction:
            support.append((restriction, tuple(
                s * u * v for s, u, v in zip(scale, restriction[ka], restriction[kb]))))
    out = {}
    for c in ring.basis(a.codim + b.codim):
        k = ring.orbit.opposite[ring.dual_class(c).point]
        sums = [sum(col) for col in zip(*(
            tuple(t * v for t, v in zip(terms, restriction[k]))
            for restriction, terms in support if k in restriction))]
        values = [Fraction(s, m) for s, m in zip(sums or [0, 0], lcms)]
        if any(value.denominator != 1 for value in values):
            raise AssertionError("localization product left the integer lattice")
        if len(set(values)) != 1:
            raise AssertionError("localization gives different products at "
                                 "the two evaluation points")
        if values[0]:
            out[c] = int(values[0])
    return out
