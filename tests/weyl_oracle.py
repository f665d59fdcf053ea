"""Element-level Weyl group arithmetic, as an oracle for the tests.

``chowring.weyl`` lists W as the orbit of rho and builds and applies
elements by root index; the tests hold it, and the engines that read it,
to the coordinate group law instead: elements act linearly on simple-root
coordinates, products compose the images of the simple roots, and every
length is recounted from the inversions, once per element.  W itself is
listed by a breadth-first search over w -> w s_j (``mult_simple_right``)
from the identity.  The
invariant form is kept here in Fractions, apart from the system's integer
coroot table, and a root's weight and its simple reflections are summed
over whole rows of the Cartan matrix, apart from the system's root tables.
"""

from fractions import Fraction
from functools import lru_cache

from chowring.rootsystem import _symmetrizer
from chowring.weyl import (WeylElement, identity, reduced_word, right_descents,
                           word_to_element)


@lru_cache(maxsize=None)
def _form(system):
    """d C, with d the symmetrizer of the Cartan matrix C."""
    return tuple(tuple(d * x for x in row)
                 for d, row in zip(_symmetrizer(system.cartan), system.cartan.entries))


def bilinear(system, a, b):
    """(a, b) = sum over i, j of a_i b_j d_i C_ij for roots in simple-root
    coordinates, with d the symmetrizer of the Cartan matrix C."""
    form = _form(system)
    return sum((a[i] * b[j] * form[i][j]
                for i in range(system.rank) if a[i]
                for j in range(system.rank) if b[j]), Fraction(0))


def norm2(system, root):
    return bilinear(system, root, root)


def root_to_weight(system, root):
    """A root in the fundamental weights, <alpha_i^vee, root> = sum over j
    of C[i][j] root_j, the whole row of the Cartan matrix C."""
    c = system.cartan.entries
    return tuple(sum(c[i][j] * root[j] for j in range(system.rank))
                 for i in range(system.rank))


def reflect_root(system, i, root):
    """Simple reflection s_i on a root in simple-root coordinates, its
    pairing summed over the whole row i of the Cartan matrix."""
    c = system.cartan.entries[i - 1]
    pairing = sum(c[j] * root[j] for j in range(system.rank))
    return tuple(root[j] - (pairing if j == i - 1 else 0) for j in range(system.rank))


def is_positive(root):
    """A root in simple-root coordinates is positive: no coordinate is
    negative and one is not zero."""
    return all(x >= 0 for x in root) and any(x != 0 for x in root)


def act_root(w, root):
    """Apply w to a root given in simple-root coordinates (linear)."""
    n = w.system.rank
    acc = [0] * n
    for j, coeff in enumerate(root):
        if coeff:
            img = w.images[j]
            for t in range(n):
                acc[t] += coeff * img[t]
    return tuple(acc)


def element(system, images):
    """The element with these simple-root images, its length counted from
    the inversions."""
    return WeylElement(system, images, _inversions(system, images))


@lru_cache(maxsize=None)
def _inversions(system, images):
    """The number of positive roots that the element with these simple-root
    images sends to negative roots, counted once per element."""
    probe = WeylElement(system, images, -1)
    return sum(1 for beta in system.positive_roots
               if not is_positive(act_root(probe, beta)))


def multiply(u, v):
    """Composition of actions: (u*v)(x) = u(v(x))."""
    if u.system is not v.system:
        raise ValueError("cannot multiply elements of different root systems")
    return element(u.system, tuple(act_root(u, img) for img in v.images))


@lru_cache(maxsize=None)
def reflection(system, beta):
    """s_beta for a root beta, not necessarily simple, from its images
    s_beta(alpha_j) = alpha_j - <alpha_j, beta^vee> beta; the pairing
    2 (alpha_j, beta) / (beta, beta) comes from the Fraction form, apart
    from the system's integer coroot table."""
    if tuple(beta) not in system.root_index:
        raise ValueError(f"{beta} is not a root")
    images = []
    for j in range(1, system.rank + 1):
        alpha = system.simple_root(j)
        k = 2 * bilinear(system, alpha, beta) / norm2(system, beta)
        assert k.denominator == 1
        images.append(tuple(a - int(k) * b for a, b in zip(alpha, beta)))
    return element(system, tuple(images))


def mult_simple_right(w, i):
    """w * s_i by the coordinate group law: w s_i(alpha_j) = w(alpha_j) -
    C[i][j] w(alpha_i), and the length moves by one, up exactly when
    w(alpha_i) > 0."""
    system = w.system
    col = tuple(system.cartan.entries[i - 1][j] for j in range(system.rank))
    base = w.images[i - 1]
    images = tuple(
        tuple(a - c * b for a, b in zip(img, base)) if c else img
        for img, c in zip(w.images, col))
    delta = 1 if is_positive(base) else -1
    return WeylElement(system, images, w.length + delta)


def mult_simple_left(w, i):
    """s_i * w."""
    system = w.system
    return element(system, tuple(reflect_root(system, i, img) for img in w.images))


def inverse(w):
    """w^{-1}, the reversed reduced word."""
    return word_to_element(w.system, tuple(reversed(reduced_word(w))))


def stripped_word(w):
    """The canonical reduced word by element products: strip the smallest
    right descent, one multiplication per letter, and read the letters
    backwards."""
    letters = []
    while w.length > 0:
        i = right_descents(w)[0]
        letters.append(i)
        w = mult_simple_right(w, i)
    return tuple(reversed(letters))


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
