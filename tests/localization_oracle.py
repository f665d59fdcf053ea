"""The basis-scanning localization rule, as an oracle for the tests.

``_LocalizationEngine.product`` integrates by support: one pass over the
fixed points of both factors, one integer sum per class and evaluation
point.  The tests hold it to the rule it replaced, which reads the same
restriction table but, for each class c of the product's codimension,
rescans the whole support and integrates deg(X_a X_b X_dual(c)) as one
exact Fraction per evaluation point.  ``integrals`` gives the degree of
any product of classes from the same table, one sum per point.
"""

from fractions import Fraction
from math import prod


def integrals(engine, classes):
    """deg of the product of ``classes``, one exact Atiyah-Bott sum per
    evaluation point of ``engine``."""
    ks = [engine._index(c) for c in classes]
    sums = [0] * len(engine.points)
    for restriction, scale in zip(engine.restrictions, engine.scales):
        if all(k in restriction for k in ks):
            for t, m in enumerate(scale):
                sums[t] += m * prod(restriction[k][t] for k in ks)
    return tuple(Fraction(s, m) for s, m in zip(sums, engine.lcms))


def oracle_product(ring, a, b):
    """[X_a]*[X_b] as class -> coefficient, one Atiyah-Bott sum per class
    of the product's codimension."""
    engine = ring.localization
    if a.codim + b.codim > ring.dim:
        return {}
    ka, kb = (engine.opposite[c.point] for c in (a, b))
    support = []
    for restriction, scale in zip(engine.restrictions, engine.scales):
        if ka in restriction and kb in restriction:
            support.append((restriction, tuple(
                s * u * v for s, u, v in zip(scale, restriction[ka], restriction[kb]))))
    out = {}
    for c in ring.basis(a.codim + b.codim):
        k = engine.opposite[ring.dual_class(c).point]
        sums = [sum(col) for col in zip(*(
            tuple(t * v for t, v in zip(terms, restriction[k]))
            for restriction, terms in support if k in restriction))]
        values = {Fraction(s, m) for s, m in zip(sums or [0, 0], engine.lcms)}
        if len(values) != 1:
            raise AssertionError("localization gives different products at "
                                 "the two evaluation points")
        value = values.pop()
        if value.denominator != 1:
            raise AssertionError("localization product left the integer lattice")
        if value:
            out[c] = int(value)
    return out
