"""deg H^78 on E8/P1 by localization, against Weyl's degree formula.

E8/P1 is the largest quotient the localization engine builds: 2160 fixed
points and about 2.3 million restrictions.  The script builds the ring and
its engine, raises the hyperplane class to the top degree with ``power``,
and checks the degree against Weyl's formula.  It prints both times and
fails when the product chain takes longer than ``POWER_BOUND_S``.  The
build alone takes several seconds, so pytest does not collect the file;
it uses the standard library only:

    PYTHONPATH=src python tests/e8_p1_degree.py

tests/test_localization.py reads the E8 Cartan matrix and Weyl's formula
from here.
"""

import sys
import time
from fractions import Fraction
from math import factorial

from chowring.rootsystem import CartanMatrix, build_root_system
from chowring.schubert import ChowRing

# Bourbaki numbering: 1-3-4-...-8 is the long chain and 2 hangs off 4.
E8 = ((2, 0, -1, 0, 0, 0, 0, 0),
      (0, 2, 0, -1, 0, 0, 0, 0),
      (-1, 0, 2, -1, 0, 0, 0, 0),
      (0, -1, -1, 2, -1, 0, 0, 0),
      (0, 0, 0, -1, 2, -1, 0, 0),
      (0, 0, 0, 0, -1, 2, -1, 0),
      (0, 0, 0, 0, 0, -1, 2, -1),
      (0, 0, 0, 0, 0, 0, -1, 2))

# the target for the power (ROADMAP item 4); it has taken 0.2-0.3 s, and
# Atiyah-Bott sums over every fixed point took 51-62 s
POWER_BOUND_S = 10


def maximal(rows, node):
    """The root system of a Cartan matrix and theta of its maximal
    parabolic at ``node``."""
    system = build_root_system(CartanMatrix(rows))
    return system, tuple(i for i in range(1, system.rank + 1) if i != node)


def weyl_degree(system, theta):
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


def main() -> int:
    system, theta = maximal(E8, 1)
    start = time.perf_counter()
    ring = ChowRing(system, theta)
    ring.localization
    built = time.perf_counter()
    top = ring.power(ring.hyperplane_class(1), ring.dim)
    done = time.perf_counter()
    expected = weyl_degree(system, theta)
    print(f"E8/P1: {len(ring.classes)} classes, build {built - start:.2f} s, "
          f"power(H, {ring.dim}) {done - built:.2f} s")
    if top.terms != {ring.point_class: expected}:
        print(f"deg H^{ring.dim} is {top.terms}, Weyl's formula gives {expected}")
        return 1
    if done - built > POWER_BOUND_S:
        print(f"power(H, {ring.dim}) took more than {POWER_BOUND_S} s")
        return 1
    print(f"deg H^{ring.dim} = {expected}, as Weyl's formula gives")
    return 0


if __name__ == "__main__":
    sys.exit(main())
