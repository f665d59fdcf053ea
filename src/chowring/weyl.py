"""Weyl groups of a root system, read as orbits of dominant weights.

An element is stored by the images of the simple roots, which is a
faithful representation giving canonical equality and hashing.  Reduced
words are derived data, read off the integer weight w^{-1} rho without
multiplying elements; they are not memoized, and each :class:`CosetOrbit`
names its points once, on the first read of its ``names``.  Elements are
built one way only, by left reflections on root indices: for words,
parsing, longest elements and the moves of an orbit walk.  The parabolic
quotient W^theta is one :class:`CosetOrbit` per (system, theta), found as
the orbit of rho_P without enumerating W; it fixes the coset
representatives, their order, reduced words, the Hasse edges and the
Poincare-duality involution for every module that reads W^theta, and
its :class:`RootIndex` tables apply elements to roots by index.  The
order of W and of its parabolic subgroups follows from the root heights.
W itself is the orbit of theta = (), the orbit of rho: it is the one
enumeration of W, and the :class:`WeylGroup` wrapper reads it as the
canonical element list.

A word ``[a1, ..., ak]`` denotes ``s_a1 * s_a2 * ... * s_ak``, acting on
roots right to left.  Elements serialize as the deterministic reduced
word, e.g. ``"s3 s2 s1"``, with the identity written ``"e"``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod

from .rootsystem import InputError, Root, RootSystem, Weight, shown

# The largest Weyl group :class:`WeylGroup` enumerates and the largest coset
# orbit :func:`coset_orbit` walks: W(E6), 51840 elements, still runs;
# W(E7), 2903040 elements, is refused.
MAX_ENUMERATION = 100_000


class SizeLimitError(InputError):
    """A walk or table larger than this program's size bound, refused
    before any of it is built."""


class WeylElement:
    """An element of W(system): ``images[i]`` is the image of the simple root
    alpha_(i+1) and ``length`` the element's length.  Equal elements have
    equal images; the fields are immutable by contract."""

    __slots__ = ("system", "images", "length")

    def __init__(self, system: RootSystem, images: tuple[Root, ...], length: int):
        self.system = system
        self.images = images
        self.length = length

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElement)
                and self.system is other.system
                and self.images == other.images)

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"WeylElement({serialize(self)!r})"


def identity(system: RootSystem) -> WeylElement:
    images = tuple(system.simple_root(i) for i in range(1, system.rank + 1))
    return WeylElement(system, images, 0)


def right_descents(w: WeylElement) -> tuple[int, ...]:
    """Nodes i with l(w s_i) = l(w) - 1, i.e. w(alpha_i) < 0."""
    return tuple(i for i in range(1, w.system.rank + 1)
                 if not w.system.is_positive(w.images[i - 1]))


def inverse_rho(w: WeylElement) -> Weight:
    """w^{-1} rho in the fundamental weights.  Its i-th coordinate
    <w^{-1} rho, alpha_i^vee> = <rho, w(alpha_i)^vee> is the height of the
    coroot of w(alpha_i), negative exactly when i is a right descent of w."""
    coroot = w.system.coroot
    return tuple(sum(coroot(r)) for r in w.images)


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Deterministic reduced word: word(w) = word(w s_i) + (i,), with i the
    smallest right descent of w, and word(e) = ().

    Read off lam = w^{-1} rho alone: the right descents of w are the i with
    lam_i < 0, and (w s_i)^{-1} rho = s_i lam = lam - lam_i alpha_i, so the
    walk down the descent chain is integer weight arithmetic on the
    coordinates alpha_i touches.
    """
    support = w.system.alpha_support
    lam = list(inverse_rho(w))
    letters = []
    while True:
        for i, c in enumerate(lam):
            if c < 0:
                break
        else:
            return tuple(reversed(letters))
        letters.append(i + 1)
        # only the coordinates where alpha_i is nonzero move
        for k, a in support[i]:
            lam[k] -= c * a


def word_to_element(system: RootSystem, word) -> WeylElement:
    """s_a1 ... s_ak, built from the right by left steps on root indices."""
    table, w, lam = root_index(system), identity(system), (1,) * system.rank
    for a in reversed(word):
        w = _step_left(w, a, table, 1 if lam[a - 1] > 0 else -1)
        lam = system.reflect_weight(a, lam)
    return w


def serialize(w: WeylElement) -> str:
    word = reduced_word(w)
    return "e" if not word else " ".join(f"s{i}" for i in word)


def parse_element(system: RootSystem, text: str) -> WeylElement:
    text = text.strip()
    if text == "e" or not text:
        return identity(system)
    word = []
    for tok in text.split():
        digits = tok[1:].lstrip("0")   # int() reads few digits: no rank has 9
        node = int(digits) if tok[:1] == "s" and digits.isdecimal() and len(digits) < 9 else 0
        if not 1 <= node <= system.rank:
            raise InputError(f"bad reflection token {shown(tok)}; expected s1.."
                             f"s{system.rank}")
        word.append(node)
    return word_to_element(system, word)


def normalize_theta(system: RootSystem, theta) -> tuple[int, ...]:
    theta = tuple(sorted(set(int(t) for t in theta)))
    for t in theta:
        if not 1 <= t <= system.rank:
            raise InputError(f"theta node {shown(str(t), str)} out of range 1..{system.rank}")
    return theta


def longest_element(system: RootSystem, theta=None) -> WeylElement:
    """Longest element of the parabolic subgroup W_theta (full group if
    theta covers every node).  Greedy ascent from u = e: while some a in
    theta has (u rho)_a > 0, s_a u is longer; the smallest a is next."""
    if theta is None:
        theta = range(1, system.rank + 1)
    theta = normalize_theta(system, theta)
    lam, word = (1,) * system.rank, []
    while a := next((a for a in theta if lam[a - 1] > 0), 0):
        word.append(a)
        lam = system.reflect_weight(a, lam)
    return word_to_element(system, word[::-1])


def order_from_heights(system: RootSystem, theta=None) -> int:
    """|W_theta| (|W| when theta is None) without enumerating the group.

    By Kostant, n_k - n_(k+1) exponents of the subsystem equal k, where
    n_k counts its positive roots of height k; the order is the product of
    the exponents plus one.
    """
    nodes = (set(range(1, system.rank + 1)) if theta is None
             else set(normalize_theta(system, theta)))
    heights = Counter(sum(root) for root in system.positive_roots
                      if all(i in nodes for i, c in enumerate(root, 1) if c))
    return prod((k + 1) ** (heights[k] - heights[k + 1]) for k in heights)


@lru_cache(maxsize=None)
def _orbit_size(system: RootSystem, theta: tuple[int, ...]) -> int:
    """|W| / |W_theta|, the size of the orbit of rho_P, for a normalized theta."""
    return order_from_heights(system) // order_from_heights(system, theta)


@lru_cache(maxsize=None)
def _opposition(system: RootSystem) -> tuple[int, ...]:
    """sigma with w0(alpha_i) = -alpha_sigma(i), nodes 0-based: the i-th
    coordinate of w0 lam is -lam[sigma[i]]."""
    return tuple(next(j for j, x in enumerate(img) if x)
                 for img in longest_element(system).images)


class RootIndex:
    """The roots of one system by index: the positive roots in the system's
    order, then their negatives in the same order, so index r is positive
    exactly when r < ``positive``.  Per index, ``roots[r]`` is the root
    (one shared tuple) and ``weights[r]`` its expansion in the fundamental
    weights; ``steps[a - 1][r]`` is the index of s_a roots[r].  The tables
    are immutable by contract; an index compares by identity.
    """

    __slots__ = ("roots", "index", "positive", "weights", "steps")

    def __init__(self, roots: tuple[Root, ...], index: dict[Root, int], positive: int,
                 weights: tuple[Weight, ...], steps: tuple[tuple[int, ...], ...]):
        self.roots = roots
        self.index = index
        self.positive = positive
        self.weights = weights
        self.steps = steps


@lru_cache(maxsize=None)
def root_index(system: RootSystem) -> RootIndex:
    """The shared :class:`RootIndex` of a system."""
    positive = system.positive_roots
    roots = positive + tuple(tuple(-x for x in beta) for beta in positive)
    index = {r: k for k, r in enumerate(roots)}
    steps = tuple(tuple(index[system.reflect_root(a, r)] for r in roots)
                  for a in range(1, system.rank + 1))
    return RootIndex(roots, index, len(positive),
                     tuple(system.root_to_weight(r) for r in roots), steps)


def _step_left(w: WeylElement, a: int, table: RootIndex, delta: int = 1) -> WeylElement:
    """s_a w for l(s_a w) = l(w) + delta, s_a on w's images read off the
    root index."""
    roots, index, step = table.roots, table.index, table.steps[a - 1]
    return WeylElement(w.system, tuple(roots[step[index[r]]] for r in w.images),
                       w.length + delta)


class CosetOrbit:
    """W^theta as the orbit of rho_P, the sum of the fundamental weights
    outside theta (Stembridge 2001).  s_a v is in W^theta and one step
    longer than v exactly when <v rho_P, alpha_a^vee> > 0, so a breadth-
    first search along those moves reaches each point once.  The orbit of
    theta = () is W itself: W acts freely on the orbit of rho, and every
    coordinate of w rho is nonzero, so each move down is the reverse of a
    move up.

    Points are indexed in the canonical (length, images) order of their
    minimal representatives v.  Per point k: ``weights[k]`` = v rho_P, and
    ``point_of`` maps each weight back to its point;
    ``minimal[k]`` = v and ``maximal[k]`` = v w_theta (the same tuple when
    theta is empty); ``words[k]``, a reduced word of v, left letter first,
    that puts one letter in front of the word of ``parents[k]`` (-1 for
    rho_P); ``up[k]``, a -> the point of s_a v for every upward move;
    ``opposite[k]``, the point of w0 v, whose weight is w0 v rho_P.
    ``roots`` is the system's :class:`RootIndex`, and ``root_images[k]``,
    built on first read, holds the index of v(beta) for every positive
    root beta.
    ``names[k]``, also built on first read, is ``serialize(minimal[k])``,
    the canonical word of v as text: every export of the orbit's points
    reads these names instead of naming the points again.

    The walk builds both representatives of s_a v from those of v by one
    left reflection each, one step longer.  It asserts the orbit size and,
    per point, v(alpha_i) > 0 and v w_theta(alpha_i) < 0 for every i in
    theta: v is then minimal and v w_theta maximal in the coset.
    """

    def __init__(self, system: RootSystem, theta: tuple[int, ...]):
        n = system.rank
        self.theta = theta
        rho_p = tuple(0 if i in theta else 1 for i in range(1, n + 1))
        # weight -> (v, v w_theta, word of v, weight of the parent), and
        # weight -> {a: weight of s_a v} over the upward moves, breadth first
        e = identity(system)
        self.roots = table = root_index(system)
        found = {rho_p: (e, longest_element(system, theta) if theta else e, (), None)}
        moves: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
        frontier = [rho_p]
        for lam in frontier:
            v, w, word, _ = found[lam]
            up = moves[lam] = {}
            for a in range(1, n + 1):
                if lam[a - 1] <= 0:
                    continue
                mu = up[a] = system.reflect_weight(a, lam)
                if mu not in found:
                    sv = _step_left(v, a, table)
                    found[mu] = (sv, _step_left(w, a, table) if theta else sv,
                                 (a,) + word, lam)
                    frontier.append(mu)
        if len(found) != _orbit_size(system, theta):
            raise AssertionError("the orbit of rho_P does not have |W| / |W_theta| points")
        for v, w, _, _ in found.values():
            for i in theta:
                if not system.is_positive(v.images[i - 1]) or \
                        system.is_positive(w.images[i - 1]):
                    raise AssertionError("the orbit walk left the coset representatives")
        self.weights = tuple(sorted(found, key=lambda lam: (found[lam][0].length,
                                                           found[lam][0].images)))
        self.point_of = index = {lam: k for k, lam in enumerate(self.weights)}
        self.minimal = tuple(found[lam][0] for lam in self.weights)
        self.maximal = (tuple(found[lam][1] for lam in self.weights) if theta
                        else self.minimal)
        self.words = tuple(found[lam][2] for lam in self.weights)
        self.parents = tuple(index[found[lam][3]] if found[lam][2] else -1
                             for lam in self.weights)
        self.up = tuple({a: index[mu] for a, mu in moves[lam].items()}
                        for lam in self.weights)
        sigma = _opposition(system)
        self.opposite = tuple(index[tuple(-lam[j] for j in sigma)]
                              for lam in self.weights)
        self._root_images: tuple[tuple[int, ...], ...] | None = None
        self._names: tuple[str, ...] | None = None

    @property
    def root_images(self) -> tuple[tuple[int, ...], ...]:
        """Per point k, the index in ``roots`` of v(beta), v = ``minimal[k]``,
        for each positive root beta in the system's order; built on the
        first read.  v = s_a u with u the parent's representative and a the
        first letter of ``words[k]``, so the entry is s_a applied by index
        to the parent's entry, one table step per root."""
        if self._root_images is None:
            steps = self.roots.steps
            images = [tuple(range(self.roots.positive))]   # point 0 is e
            for word, parent in zip(self.words[1:], self.parents[1:]):
                images.append(tuple(map(steps[word[0] - 1].__getitem__, images[parent])))
            self._root_images = tuple(images)
        return self._root_images

    @property
    def names(self) -> tuple[str, ...]:
        """Per point k, ``serialize(minimal[k])``; built on the first read."""
        if self._names is None:
            self._names = tuple(map(serialize, self.minimal))
        return self._names


@lru_cache(maxsize=None)
def _coset_orbit(system: RootSystem, theta: tuple[int, ...]) -> CosetOrbit:
    return CosetOrbit(system, theta)


def coset_orbit(system: RootSystem, theta=()) -> CosetOrbit:
    """The shared :class:`CosetOrbit` of W^theta; theta in any order.

    :class:`SizeLimitError`, before anything is walked, when
    |W| / |W_theta| exceeds ``MAX_ENUMERATION``.
    """
    theta = normalize_theta(system, theta)
    size = _orbit_size(system, theta)
    if size > MAX_ENUMERATION:
        raise SizeLimitError(f"W^theta has {size} points, more than the "
                             f"{MAX_ENUMERATION} this program walks")
    return _coset_orbit(system, theta)


class WeylGroup:
    """W as a group: the regular orbit, ``coset_orbit(system, ())``, read
    as the list of its elements.

    Elements are listed by length, ties broken lexicographically on the
    image tuples; this order fixes every downstream basis enumeration.
    The group is walked only when something asks for its elements, and
    only up to ``MAX_ENUMERATION`` elements (:class:`SizeLimitError`
    beyond).  It keeps no table of its own: every read goes to the shared
    cached orbit.
    """

    def __init__(self, system: RootSystem):
        self.system = system

    @property
    def orbit(self) -> CosetOrbit:
        """The orbit of rho, one point per element; the first call walks it."""
        order = _orbit_size(self.system, ())
        if order > MAX_ENUMERATION:
            raise SizeLimitError(f"the Weyl group has {order} elements, more than "
                                 f"the {MAX_ENUMERATION} this program enumerates")
        return _coset_orbit(self.system, ())

    @property
    def elements(self) -> tuple[WeylElement, ...]:
        return self.orbit.minimal

    @property
    def order(self) -> int:
        """|W| from the root heights; nothing is walked."""
        return _orbit_size(self.system, ())

    # -- distinguished elements and cosets ----------------------------------

    @property
    def longest(self) -> WeylElement:
        return longest_element(self.system)

    def minimal_coset_reps(self, theta) -> tuple[WeylElement, ...]:
        """W^theta: elements sending every theta-simple root to a positive
        root; one minimal-length representative per coset, graded by
        length in the canonical order.  Read from the orbit of rho_P."""
        return coset_orbit(self.system, theta).minimal

    def maximal_coset_reps(self, theta) -> tuple[WeylElement, ...]:
        """Maximal-length coset representatives, the minimal ones times the
        longest element of W_theta; the order mirrors the minimal reps."""
        return coset_orbit(self.system, theta).maximal


@lru_cache(maxsize=None)
def get_weyl_group(system: RootSystem) -> WeylGroup:
    return WeylGroup(system)
