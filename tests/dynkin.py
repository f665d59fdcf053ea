"""Root systems from Dynkin diagrams, in Bourbaki's numbering (Lie Groups
and Lie Algebras, Ch. IV-VI, Plates I-VII), for the tests that need types
the package does not build in, and Weyl's degree formula.  Rows follow
``chowring.rootsystem.BUILTIN_CARTAN``: entry (i, j) pairs alpha_j with
alpha_i^vee.  Pytest does not collect this module.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from chowring.rootsystem import BUILTIN_CARTAN, CartanMatrix, build_root_system, root_system


def cartan(name):
    """The Cartan rows of A_n and B_n (the chain 1-...-n, node n of B_n
    short), D_n (the chain 1-...-(n-1), n joined to n-2) or E6-E8 (the
    chain 1-3-4-...-n, 2 joined to 4)."""
    kind, n = name[0], int(name[1:])
    if kind in "AB" and n >= 1:
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "D" and n >= 4:
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    elif kind == "E" and 6 <= n <= 8:
        edges = [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, n)]
    else:
        raise ValueError(f"no Dynkin diagram named {name!r}")
    rows = from_edges(n, edges)
    if kind == "B" and n > 1:
        # <alpha_(n-1), alpha_n^vee>: alpha_n is short
        rows = rows[:-1] + (rows[-1][:-2] + (-2, 2),)
    return rows


def from_edges(n, edges):
    """The rows of the simply-laced diagram on nodes 1..n with single
    bonds along ``edges``, finite type or not."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = -1
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def system(name):
    """The shared root system of a built-in name, else the root system of
    ``cartan(name)``, built once."""
    if name in BUILTIN_CARTAN:
        return root_system(name)
    return build_root_system(CartanMatrix(cartan(name)))


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
