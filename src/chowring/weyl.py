"""Weyl group arithmetic on top of a root system.

An element is stored by the images of the simple roots, which is a
faithful representation giving canonical equality and hashing; reduced
words are derived data.  Element-level operations (multiplication,
reduced words, inverses, actions) are plain functions.  The
parabolic quotient W^theta is one :class:`CosetOrbit` per (system, theta),
found as the orbit of rho_P without enumerating W; it fixes the coset
representatives, their order, reduced words, the Hasse edges and the
Poincare-duality involution for every module that reads W^theta.  The
order of W and of its parabolic subgroups follows from the root heights.
The :class:`WeylGroup` wrapper adds the material that needs full
enumeration: the canonical element list and multiplication tables.

Composition is functional: ``multiply(u, v)`` acts as u after v, and a
word ``[a1, ..., ak]`` denotes ``s_a1 * s_a2 * ... * s_ak``.  Elements
serialize as the deterministic reduced word, e.g. ``"s3 s2 s1"``, with
the identity written ``"e"``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .rootsystem import Root, RootSystem

# The largest Weyl group :class:`WeylGroup` enumerates and the largest coset
# orbit :func:`coset_orbit` walks: W(E6), 51840 elements, still runs;
# W(E7), 2903040 elements, is refused.
MAX_ENUMERATION = 100_000


@dataclass(frozen=True, eq=False, slots=True)
class WeylElement:
    system: RootSystem
    images: tuple[Root, ...]
    length: int

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


def simple_reflection(system: RootSystem, i: int) -> WeylElement:
    images = tuple(system.reflect_root(i, system.simple_root(j))
                   for j in range(1, system.rank + 1))
    return WeylElement(system, images, 1)


def reflection(system: RootSystem, beta: Root) -> WeylElement:
    """Reflection in an arbitrary root, not necessarily simple."""
    if not system.is_root(beta):
        raise ValueError(f"{beta} is not a root")
    images = []
    for j in range(1, system.rank + 1):
        alpha = system.simple_root(j)
        k = system.root_coroot_pairing(alpha, beta)
        images.append(tuple(alpha[t] - k * beta[t] for t in range(system.rank)))
    return _element(system, tuple(images))


def act_root(w: WeylElement, root: Root) -> Root:
    """Apply w to a root given in simple-root coordinates (linear)."""
    n = w.system.rank
    acc = [0] * n
    for j, coeff in enumerate(root):
        if coeff:
            img = w.images[j]
            for t in range(n):
                acc[t] += coeff * img[t]
    return tuple(acc)


def _element(system: RootSystem, images: tuple[Root, ...]) -> WeylElement:
    """Build an element from its images, counting inversions for the length."""
    probe = WeylElement(system, images, -1)
    length = sum(1 for beta in system.positive_roots
                 if not system.is_positive(act_root(probe, beta)))
    return WeylElement(system, images, length)


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """Composition of actions: (u*v)(x) = u(v(x))."""
    if u.system is not v.system:
        raise ValueError("cannot multiply elements of different root systems")
    images = tuple(act_root(u, v.images[j]) for j in range(u.system.rank))
    return _element(u.system, images)


def mult_simple_right(w: WeylElement, i: int) -> WeylElement:
    """w * s_i, with the length updated incrementally."""
    system = w.system
    col = tuple(system.cartan.entries[i - 1][j] for j in range(system.rank))
    base = w.images[i - 1]
    # only the rows with C[i][j] != 0 move; the others are shared with w
    images = tuple(
        tuple(a - c * b for a, b in zip(img, base)) if c else img
        for img, c in zip(w.images, col))
    delta = 1 if system.is_positive(base) else -1
    return WeylElement(system, images, w.length + delta)


def mult_simple_left(w: WeylElement, i: int) -> WeylElement:
    """s_i * w."""
    system = w.system
    images = tuple(system.reflect_root(i, img) for img in w.images)
    return _element(system, images)


def right_descents(w: WeylElement) -> tuple[int, ...]:
    """Nodes i with l(w s_i) = l(w) - 1, i.e. w(alpha_i) < 0."""
    return tuple(i for i in range(1, w.system.rank + 1)
                 if not w.system.is_positive(w.images[i - 1]))


# element -> its canonical reduced word, for every element reduced_word
# has passed on a descent chain
_WORDS: dict[WeylElement, tuple[int, ...]] = {}


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Deterministic reduced word: word(w) = word(w s_i) + (i,), with i the
    smallest right descent of w, and word(e) = ().

    Memoized along the descent chain: the walk from w down stops at the
    first element already known (or at e) and records every element it
    passed, so words sharing a prefix build that prefix once.
    """
    chain: list[tuple[WeylElement, int]] = []
    cur = w
    word: tuple[int, ...] = ()
    while cur.length > 0:
        known = _WORDS.get(cur)
        if known is not None:
            word = known
            break
        ds = right_descents(cur)
        if not ds:
            raise AssertionError("positive length but no descent")
        chain.append((cur, ds[0]))
        cur = mult_simple_right(cur, ds[0])
    for cur, i in reversed(chain):
        word = _WORDS[cur] = word + (i,)
    return word


def word_to_element(system: RootSystem, word) -> WeylElement:
    w = identity(system)
    for i in word:
        w = mult_simple_right(w, i)
    return w


def inverse(w: WeylElement) -> WeylElement:
    word = reduced_word(w)
    return word_to_element(w.system, tuple(reversed(word)))


def serialize(w: WeylElement) -> str:
    word = reduced_word(w)
    return "e" if not word else " ".join(f"s{i}" for i in word)


def parse_element(system: RootSystem, text: str) -> WeylElement:
    text = text.strip()
    if text == "e" or not text:
        return identity(system)
    word = []
    for tok in text.split():
        node = int(tok[1:]) if tok[:1] == "s" and tok[1:].isdecimal() else 0
        if not 1 <= node <= system.rank:
            raise ValueError(f"bad reflection token {tok!r}; expected s1.."
                             f"s{system.rank}")
        word.append(node)
    return word_to_element(system, word)


def normalize_theta(system: RootSystem, theta) -> tuple[int, ...]:
    theta = tuple(sorted(set(int(t) for t in theta)))
    for t in theta:
        if not 1 <= t <= system.rank:
            raise ValueError(f"theta node {t} out of range 1..{system.rank}")
    return theta


def longest_element(system: RootSystem, theta=None) -> WeylElement:
    """Longest element of the parabolic subgroup W_theta (full group if
    theta covers every node).  Greedy ascent: keep multiplying by a
    length-increasing generator from theta, smallest index first."""
    if theta is None:
        theta = range(1, system.rank + 1)
    theta = normalize_theta(system, theta)
    w = identity(system)
    while True:
        for i in theta:
            if system.is_positive(w.images[i - 1]):
                w = mult_simple_right(w, i)
                break
        else:
            return w


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


class CosetOrbit:
    """W^theta as the orbit of rho_P, the sum of the fundamental weights
    outside theta (Stembridge 2001).  s_a v is in W^theta and one step
    longer than v exactly when <v rho_P, alpha_a^vee> > 0, so a breadth-
    first search along those moves reaches each point once.

    Points are indexed in the canonical (length, images) order of their
    minimal representatives v.  Per point k: ``weights[k]`` = v rho_P, and
    ``point_of`` maps each weight back to its point;
    ``minimal[k]`` = v and ``maximal[k]`` = v w_theta; ``words[k]``, a
    reduced word of v, left letter first, that puts one letter in front of
    the word of ``parents[k]`` (-1 for rho_P); ``up[k]``, a -> the point
    of s_a v for every upward move; ``opposite[k]``, the point of w0 v.
    """

    def __init__(self, system: RootSystem, theta: tuple[int, ...]):
        n = system.rank
        self.theta = theta
        rho_p = tuple(0 if i in theta else 1 for i in range(1, n + 1))
        # weight -> (v, word of v), breadth first
        found = {rho_p: (identity(system), ())}
        frontier = [rho_p]
        for lam in frontier:
            v, word = found[lam]
            for a in range(1, n + 1):
                if lam[a - 1] <= 0:
                    continue
                mu = system.reflect_weight(a, lam)
                if mu not in found:
                    found[mu] = (WeylElement(system, tuple(
                        system.reflect_root(a, img) for img in v.images), v.length + 1),
                        (a,) + word)
                    frontier.append(mu)
        if len(found) != order_from_heights(system) // order_from_heights(system, theta):
            raise AssertionError("the orbit of rho_P does not have |W| / |W_theta| points")
        self.weights = tuple(sorted(found, key=lambda lam: (found[lam][0].length,
                                                           found[lam][0].images)))
        self.point_of = index = {lam: k for k, lam in enumerate(self.weights)}
        self.minimal = tuple(found[lam][0] for lam in self.weights)
        self.words = tuple(found[lam][1] for lam in self.weights)
        self.parents = tuple(index[system.reflect_weight(word[0], lam)] if word else -1
                             for lam, word in zip(self.weights, self.words))
        self.up = tuple({a: index[system.reflect_weight(a, lam)]
                         for a in range(1, n + 1) if lam[a - 1] > 0}
                        for lam in self.weights)
        w_theta = longest_element(system, theta)
        self.maximal = tuple(
            _element(system, tuple(act_root(v, img) for img in w_theta.images))
            for v in self.minimal)
        if any(w.length != v.length + w_theta.length
               for v, w in zip(self.minimal, self.maximal)):
            raise AssertionError("coset bijection lost length additivity")
        # w0 v is the maximal representative of the opposite point
        w0 = longest_element(system)
        by_images = {w.images: k for k, w in enumerate(self.maximal)}
        self.opposite = tuple(by_images[tuple(act_root(w0, img) for img in v.images)]
                              for v in self.minimal)


@lru_cache(maxsize=None)
def _coset_orbit(system: RootSystem, theta: tuple[int, ...]) -> CosetOrbit:
    return CosetOrbit(system, theta)


def coset_orbit(system: RootSystem, theta=()) -> CosetOrbit:
    """The shared :class:`CosetOrbit` of W^theta; theta in any order.

    ValueError, before anything is walked, when |W| / |W_theta| exceeds
    ``MAX_ENUMERATION``.
    """
    theta = normalize_theta(system, theta)
    size = order_from_heights(system) // order_from_heights(system, theta)
    if size > MAX_ENUMERATION:
        raise ValueError(f"W^theta has {size} points, more than the "
                         f"{MAX_ENUMERATION} this program walks")
    return _coset_orbit(system, theta)


class WeylGroup:
    """Fully enumerated Weyl group with canonical order and fast tables.

    Elements are listed by length, ties broken lexicographically on the
    image tuples; this order fixes every downstream basis enumeration.
    The group is materialized eagerly only when something asks for it,
    and only up to ``MAX_ENUMERATION`` elements (ValueError beyond).
    """

    def __init__(self, system: RootSystem):
        self.system = system
        self.rank = system.rank
        self._elements: tuple[WeylElement, ...] | None = None
        self._index: dict[tuple[Root, ...], int] = {}
        self._right: list[tuple[int, ...]] = []
        self._left: list[tuple[int, ...]] = []
        self._by_length: list[list[int]] = []
        self._left_min_descent: list[int] = []
        self._inverse_idx: list[int] = []

    # -- enumeration -------------------------------------------------------

    def _ensure(self) -> None:
        if self._elements is not None:
            return
        order = order_from_heights(self.system)
        if order > MAX_ENUMERATION:
            raise ValueError(f"the Weyl group has {order} elements, more than the "
                             f"{MAX_ENUMERATION} this program enumerates")
        system = self.system
        n = self.rank
        cartan = system.cartan.entries
        # w s_i(alpha_j) = w(alpha_j) - C[i][j] w(alpha_i): only the j with
        # C[i][j] != 0 (j = i among them) change, per node i (0-based)
        moved = [tuple((j, cartan[i][j]) for j in range(n) if cartan[i][j])
                 for i in range(n)]
        # a root's weight: beta_j times column j of C, over the nonzero entries
        columns = [tuple((k, cartan[k][j]) for k in range(n) if cartan[k][j])
                   for j in range(n)]
        # Breadth first from e; t numbers the elements in the order found.
        # lams[t] = w_t(rho), rho the sum of the fundamental weights: W acts
        # freely on the orbit of rho, so the weight names the element.
        found = [identity(system)]
        lams = [(1,) * n]
        by_images = {found[0].images: 0}
        right_bfs = [[-1] * n]
        for t, w in enumerate(found):
            images = w.images
            row = right_bfs[t]
            for i in range(n):
                if row[i] >= 0:
                    # a descent, filled in from the shorter side: the walk
                    # reaches every element of one length before the next
                    continue
                # so w(alpha_i) > 0 here and l(w s_i) = l(w) + 1
                base = images[i]
                new = list(images)
                for j, c in moved[i]:
                    new[j] = tuple(a - c * b for a, b in zip(images[j], base))
                new = tuple(new)
                u = by_images.get(new)
                if u is None:
                    u = by_images[new] = len(found)
                    found.append(WeylElement(system, new, w.length + 1))
                    # lambda(w s_i) = w(rho - alpha_i) = lambda(w) - wt(w alpha_i)
                    lam = list(lams[t])
                    for j, b in enumerate(base):
                        if b:
                            for k, c in columns[j]:
                                lam[k] -= b * c
                    lams.append(tuple(lam))
                    right_bfs.append([-1] * n)
                row[i] = u
                right_bfs[u][i] = t
        # canonical order: by length, ties broken on the image tuples
        ranked = sorted(range(len(found)), key=lambda t: (found[t].length, found[t].images))
        position = [0] * len(found)
        for k, t in enumerate(ranked):
            position[t] = k
        elements = tuple(found[t] for t in ranked)
        self._elements = elements
        self._index = {w.images: k for k, w in enumerate(elements)}
        right = [tuple(position[u] for u in right_bfs[t]) for t in ranked]
        # s_i w(rho) = s_i lambda(w): subtract lambda_i alpha_i, alpha_i being
        # column i of C in weight coordinates
        by_weight = {lams[t]: k for k, t in enumerate(ranked)}
        left = []
        for t in ranked:
            lam = lams[t]
            row = []
            for i in range(n):
                coeff = lam[i]
                mu = list(lam)
                for k, c in columns[i]:
                    mu[k] -= coeff * c
                row.append(by_weight[tuple(mu)])
            left.append(tuple(row))
        self._right = right
        self._left = left
        lengths = [w.length for w in elements]
        by_length: list[list[int]] = [[] for _ in range(lengths[-1] + 1)]
        for k, length in enumerate(lengths):
            by_length[length].append(k)
        self._by_length = by_length
        left_min = []
        for k, w in enumerate(elements):
            if w.length == 0:
                left_min.append(-1)
                continue
            for i in range(n):
                if lengths[left[k][i]] < w.length:
                    left_min.append(i + 1)
                    break
        self._left_min_descent = left_min
        # (w s_i)^{-1} = s_i w^{-1}: along a right descent of each element,
        # in length order, the inverse of the shorter one is already known.
        inv = [0] * len(elements)
        for k in range(1, len(elements)):
            for i0, j in enumerate(right[k]):
                if lengths[j] < lengths[k]:
                    inv[k] = left[inv[j]][i0]
                    break
        self._inverse_idx = inv

    @property
    def elements(self) -> tuple[WeylElement, ...]:
        self._ensure()
        return self._elements  # type: ignore[return-value]

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, w: WeylElement) -> int:
        self._ensure()
        try:
            return self._index[w.images]
        except KeyError:
            raise ValueError("element does not belong to this group") from None

    def element_at(self, idx: int) -> WeylElement:
        return self.elements[idx]

    def right_index(self, idx: int, i: int) -> int:
        self._ensure()
        return self._right[idx][i - 1]

    def left_index(self, idx: int, i: int) -> int:
        self._ensure()
        return self._left[idx][i - 1]

    def indices_of_length(self, length: int) -> list[int]:
        self._ensure()
        if length < 0 or length >= len(self._by_length):
            return []
        return self._by_length[length]

    def left_min_descent(self, idx: int) -> int:
        self._ensure()
        return self._left_min_descent[idx]

    def inverse_index(self, idx: int) -> int:
        self._ensure()
        return self._inverse_idx[idx]

    @property
    def max_length(self) -> int:
        self._ensure()
        return len(self._by_length) - 1

    # -- distinguished elements and cosets ----------------------------------

    @property
    def identity(self) -> WeylElement:
        return identity(self.system)

    @property
    def longest(self) -> WeylElement:
        return longest_element(self.system)

    def longest_parabolic(self, theta) -> WeylElement:
        return longest_element(self.system, theta)

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
