"""deg H^78 on E8/P1 by localization, against Weyl's degree formula.

E8/P1 is the largest quotient the localization engine builds: 2160 fixed
points and about 2.3 million restrictions.  The script builds the ring and
its engine, raises the hyperplane class to the top degree with ``power``,
and checks the degree against Weyl's formula.  It prints both times and
fails when the product chain takes longer than ``POWER_BOUND_S``.  The
build alone takes several seconds, so pytest does not collect the file,
and it runs without pytest:

    PYTHONPATH=src python tests/e8_p1_degree.py

The E8 Cartan matrix and Weyl's formula come from tests/dynkin.py, which
the tests share.
"""

import sys
import time

from chowring.schubert import ChowRing
from dynkin import cartan, maximal, weyl_degree

# the target for the power (ROADMAP item 4); it has taken 0.2-0.3 s, and
# Atiyah-Bott sums over every fixed point took 51-62 s
POWER_BOUND_S = 10


def main() -> int:
    system, theta = maximal(cartan("E8"), 1)
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
