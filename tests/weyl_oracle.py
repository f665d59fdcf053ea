"""W listed without the orbit of rho, as an oracle for the tests.

``chowring.weyl`` lists W as the orbit of rho; the tests hold it, and the
engines that read it, to a breadth-first search over w -> w s_j from the
identity instead, with left moves s_i w and lengths from element-level
products.
"""

from functools import lru_cache

from chowring.weyl import identity, mult_simple_left, mult_simple_right


def list_group(system, nodes=None):
    """W, or the parabolic subgroup W_J of the nodes J, in the canonical
    (length, images) order, by breadth-first search over right products."""
    nodes = range(1, system.rank + 1) if nodes is None else nodes
    e = identity(system)
    seen = {e.images: e}
    frontier = [e]
    while frontier:
        nxt = []
        for w in frontier:
            for j in nodes:
                u = mult_simple_right(w, j)
                if u.images not in seen:
                    seen[u.images] = u
                    nxt.append(u)
        frontier = nxt
    return sorted(seen.values(), key=lambda w: (w.length, w.images))


@lru_cache(maxsize=None)
def listed_group(system):
    """(W in canonical order, images -> index), listed once per system."""
    elements = tuple(list_group(system))
    return elements, {w.images: k for k, w in enumerate(elements)}


@lru_cache(maxsize=None)
def left_min_descent(w):
    """(i, s_i w) for the smallest i with l(s_i w) < l(w), the length of
    s_i w recounted from its inversions; None for the identity."""
    for i in range(1, w.system.rank + 1):
        u = mult_simple_left(w, i)
        if u.length < w.length:
            return i, u
    return None
