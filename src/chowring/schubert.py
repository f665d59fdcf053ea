"""Chow rings of projective homogeneous varieties G/P in the Schubert basis.

The basis of CH(G/P_theta) is indexed by the maximal-length coset
representatives; the class indexed by w has codimension l(w0) - l(w).
They are read from the orbit of rho_P (:class:`chowring.weyl.CosetOrbit`),
so building a ring never enumerates the Weyl group.
Four multiplication routes are implemented:

* ``dual_class`` and ``pair_degree`` evaluate products in complementary
  codimensions from the closed formula
  [X_w]*[X_w'] = delta_{w, w0*w'*w_theta} * [pt], read from a duality
  table built once per ring: the dual of the class at orbit point p is the
  class whose sigma-point is p;
* ``chevalley_product`` multiplies by the codimension-1 class through
  Chevalley's rule in minimal-representative form: with [X_w] = sigma^v,
  v = w0*w in W^P, the sum over positive roots beta with v*s_beta in W^P
  one step longer than v, weighted by the coroot pairing
  <beta^vee, omega_alpha>.  It is read off integer tables at the class's
  sigma-point, without multiplying Weyl elements or applying them to
  roots: v(beta) is one entry of the orbit's root-image table
  (``CosetOrbit.root_images``), whose index also gives its sign, and for
  v(beta) > 0 the coset of v*s_beta is the point of the weight
  v rho_P - <rho_P, beta^vee> v(beta), kept when that point lies one step
  farther from rho_P than v's.  The pairings are integer dot products with
  the root system's coroot table.  One product is memoized per (node,
  class); the tests hold them to the Weyl-element products w*s_beta;
* ``pair_product`` handles arbitrary products of two classes by
  localization on the fixed points W^theta of G/P (orbit of rho_P, Billey's
  restriction formula, forward substitution in exact integers over the
  points between the factors' and the product's codimension; see
  :class:`_LocalizationEngine`).  No polynomial is built and the Weyl
  group is never enumerated; each ring builds its engine on the first
  product, and refuses above ``MAX_LOCALIZATION_TABLE``;
* ``giambelli_product`` lifts both factors to the weight polynomial ring
  along  lift([X_w]) = delta_{w^{-1}}(d / |W|)  (Bernstein-Gelfand-Gelfand
  1973; d is the product of the positive roots), multiplies there and
  projects back with the linear map
  c(u) = sum_{l(w) = deg u} delta_w(u) [X_{w0 w}].
  The c map walks one coset orbit, not W: with K the nodes i where
  delta_i(u) = 0 (s_i u = u), a w with a right descent j in K has
  delta_w(u) = delta_{w s_j}(delta_j u) = 0, so the support lies in W^K.
  K is read off u; a product of lifts of G/P_theta classes is
  W_theta-invariant, so K contains theta.
  Each divided-difference chain starts at a parabolic base instead of at
  d: for J the right-descent set of w and w_J the longest element of
  W_J, delta_{w_J}(d) = |W_J| d_{P_J}, where d_{P_J} is the product of
  the positive roots outside Phi_J.  Values stay factored, a multiset S
  of positive roots times a small cofactor Q: the part of S that s_i
  maps to itself has an s_i-invariant product, which passes through
  delta_i, so each step expands only the rest into Q.  Chains and the
  c map take that one step; a product of two lifts reaches the c map as
  the sum of their root multisets and the product of their cofactors,
  never expanded, and the two lifts' common right descents enter K
  without a probe.  A lift is expanded from its chain value only when it
  is asked for itself (see :class:`_GiambelliEngine`).
  It works inside the full flag ring and asserts that the product lands
  back in the subring.  The paper states its hyperplane tables and squares
  through this route, and the tests use it as an oracle; all parabolic
  rings over one Weyl group share one cached engine.

Every product of two basis classes by localization is cross-checked
against the Chevalley formula when a factor has codimension 1 and against
the duality table in complementary codimensions.  The Giambelli route
consults no other route, so the checks that read it judge it on its own.
Each route answers for one pair of basis classes.  Only ``multiply``
(and ``power``, which uses it) extends to whole elements, bilinearly over
``pair_product``.  Chow elements, correspondences and polynomials share
one arithmetic, their base :class:`chowring.poly._Combination`.

A :class:`SchubertClass` belongs to exactly one ring, the one whose
constructor built it, and compares and hashes by identity; the rings'
tables and caches key on the classes themselves, never on their Weyl
elements.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType
from weakref import WeakKeyDictionary

from . import weyl as _weyl
from .poly import (RationalPolynomial, _calculus, _Combination, _raw_add_into, _raw_delta,
                   _raw_scale)
from .rootsystem import InputError, RootSystem, shown
from .weyl import WeylElement, WeylGroup, get_weyl_group


class SubringError(RuntimeError):
    """A product left the span of the parabolic Schubert basis."""


class LatticeError(ValueError):
    """A c-map coefficient is not an integer: the polynomial is not in the
    image lattice of c."""


class SchubertClass:
    """Basis cycle [X_w] of one ring; ``rep`` is the indexing Weyl element,
    ``position`` the class's index in its ring's ``classes`` and ``point``
    the index of its coset in the ring's :class:`~chowring.weyl.CosetOrbit`
    (``rep`` is that point's maximal representative).  The class is
    sigma^v with v = w0 w the minimal representative at ``sigma``, the
    orbit point opposite ``point``: every product addresses it there.

    Only ``ChowRing.__init__`` builds classes, and each ring owns its own.
    A class compares and hashes by identity: the classes of two rings that
    are indexed by the same Weyl element are different classes, and a ring
    raises ``ValueError`` when it is handed a class of another ring.  The
    fields are immutable by contract.
    """

    __slots__ = ("rep", "codim", "position", "point", "sigma")

    def __init__(self, rep: WeylElement, codim: int, position: int, point: int, sigma: int):
        self.rep = rep
        self.codim = codim
        self.position = position
        self.point = point
        self.sigma = sigma

    def __repr__(self) -> str:
        return f"SchubertClass({_weyl.serialize(self.rep)!r}, codim={self.codim})"


class ChowElement(_Combination):
    """Integer combination of Schubert classes of one ring; ``x * y``
    multiplies in the ring."""

    __slots__ = ("ring",)
    _mismatch = "elements of different Chow rings"

    def __init__(self, ring: "ChowRing", terms: dict | None = None):
        self.ring = ring
        self.terms: dict[SchubertClass, int] = \
            {c: v for c, v in (terms or {}).items() if v}

    def _space(self) -> "ChowRing":
        return self.ring

    def _with(self, terms: dict) -> "ChowElement":
        new = ChowElement.__new__(ChowElement)
        new.ring, new.terms = self.ring, terms
        return new

    def _sort_key(self, cls: SchubertClass) -> tuple[int, int]:
        return cls.codim, self.ring.class_position(cls)

    def _label(self, cls: SchubertClass) -> str:
        return self.ring.label_of(cls)

    def __mul__(self, other):
        if isinstance(other, ChowElement):
            return self.ring.multiply(self, other)
        return super().__mul__(other)


class _GiambelliEngine:
    """Per-group lift/c-map machinery over the full flag variety.

    Works on raw integer polynomials keyed by packed monomials (see
    :mod:`chowring.poly`); the lifts delta_w(d) of the product of positive
    roots d are kept unscaled, and all divisions by |W| happen at the very
    end of the c map, with exactness asserted.

    Values are kept factored, Q prod_S beta with S a multiset of positive
    roots (root index -> multiplicity) and Q a raw polynomial, the
    cofactor; a plain polynomial is the case S empty.  ``_step`` is the one
    divided difference on such values.  s_i permutes the positive roots
    other than alpha_i, so the roots of S that s_i fixes, min(m(beta),
    m(s_i beta)) copies each of a pair beta != s_i beta, and the pairs of
    copies of alpha_i (alpha_i^2 = (s_i alpha_i)^2) have an s_i-invariant
    product G.  delta_i is linear over s_i-invariants, so
    delta_i(G F) = G delta_i(F), with F the cofactor times the roots of S
    left over: only F is ever expanded.

    ``delta_d`` never runs the top-degree divided differences from d.  Let
    J be the right-descent set of w and w_J the longest element of W_J;
    then w = y w_J with y in W^J and the lengths add.  Split d = d_J d_{P_J},
    d_J the product of the positive roots of Phi_J and d_{P_J} that of the
    others.  W_J permutes the positive roots outside Phi_J, so d_{P_J} is
    W_J-invariant, the delta_j with j in J pass it through, and

        delta_{w_J}(d) = d_{P_J} delta_{w_J}(d_J) = |W_J| d_{P_J},

    a product of linear forms.  That is the base, memoized as the value at
    w_J.  Above it, delta_w = delta_i delta_{s_i w} for a left descent i
    of y: s_i y is again in W^J, so s_i w = (s_i y) w_J lies in W^J w_J,
    the set of elements whose right-descent set contains J, with lengths
    adding, and its own chain ends at the base of a right-descent set
    containing J.  Every memoized value is therefore exactly delta_{w'}(d).
    A descent whose parent is already memoized is preferred, the smallest
    otherwise.  J empty gives d itself at the identity, and J = all nodes
    gives |W| at w0.

    The chain values are memoized factored, with every multiplicity 1: the
    base is (Phi+ minus Phi_J, |W_J|), never expanded, and each step keeps
    the roots of S whose image under s_i lies in S.  ``delta_d`` expands
    Q prod_S on every request; the memoized chain values and bases are all
    the engine keeps.  A product of two lifts is never expanded:
    ``product_classes`` hands the c map the sum of the two root multisets
    and the product of the two cofactors.
    """

    def __init__(self, group: WeylGroup):
        self.group = group
        self.system = group.system
        # s_i on root indices; index r is positive exactly when r < positive
        table = _weyl.root_index(group.system)
        self._moves, self._positive = table.steps, table.positive
        # idx -> (S, Q), delta_{w_idx}(d) = Q times the positive roots of S
        self._factored: dict[int, tuple[dict[int, int], dict]] = {}
        # J -> the base at w_J: the positive roots outside Phi_J, and |W_J|
        self._bases: dict[tuple[int, ...], tuple[dict[int, int], dict]] = {}

    def _step(self, i: int, roots: dict[int, int], cofactor: dict) -> tuple[dict, dict]:
        """delta_i of the factored value Q prod_S beta, as (S', Q') with S'
        the s_i-invariant part of S kept and Q' = delta_i of Q times the rest
        (see the class docstring)."""
        calc = _calculus(self.system)
        mul, forms = calc.mul, calc.root_forms
        move, positive = self._moves[i - 1], self._positive
        kept: dict[int, int] = {}
        for b, m in roots.items():
            image = move[b]
            if image == b:
                keep = m
            elif image >= positive:
                # b is alpha_i: its pairs are s_i-invariant
                keep = m - m % 2
            else:
                keep = min(m, roots.get(image, 0))
            if keep:
                kept[b] = keep
            for _ in range(m - keep):
                cofactor = mul(cofactor, forms[b])
        return kept, _raw_delta(self.system, i, cofactor)

    def _chain(self, idx: int) -> tuple[dict[int, int], dict]:
        """The memoized factored value of delta_{w_idx}(d), filling the
        chain down to its parabolic base (see the class docstring); the
        recursion is at most |Phi+| deep."""
        memo = self._factored
        if idx in memo:
            return memo[idx]
        system = self.system
        # the orbit of rho is W: the first lift walks it, no ring build does
        orbit = self.group.orbit
        elements, point_of = orbit.minimal, orbit.point_of
        w = elements[idx]
        J = _weyl.right_descents(w)
        base = self._bases.get(J)
        if base is None:
            outside = {b: 1 for b, beta in enumerate(system.positive_roots)
                       if any(c and i not in J for i, c in enumerate(beta, 1))}
            base = self._bases[J] = (outside, {0: _weyl.order_from_heights(system, J)})
        if w.length == len(system.positive_roots) - len(base[0]):
            # w is w_J itself, of length |Phi_J^+|: |W_J| times the roots
            # outside Phi_J
            memo[idx] = base
            return base
        # i is a left descent of y exactly when s_i w = (s_i y) w_J: one step
        # down the orbit (<w rho, alpha_i^vee> < 0) to an element whose right
        # descents still contain J, i.e. that sends each alpha_j, j in J, to a
        # root of negative height
        weight = orbit.weights[idx]
        steps = []
        for i in range(1, system.rank + 1):
            if weight[i - 1] < 0:
                p = point_of[system.reflect_weight(i, weight)]
                if all(sum(elements[p].images[j - 1]) < 0 for j in J):
                    steps.append((i, p))
        i, parent = next(((i, p) for i, p in steps if p in memo), steps[0])
        if parent not in memo:
            self._chain(parent)
            i, parent = next((i, p) for i, p in steps if p in memo)
        memo[idx] = self._step(i, *memo[parent])
        return memo[idx]

    def delta_d(self, idx: int) -> dict:
        """delta_{w_idx}(d), expanded from its memoized factored chain value
        (see the class docstring)."""
        calc = _calculus(self.system)
        roots, expanded = self._chain(idx)
        for b in roots:
            expanded = calc.mul(expanded, calc.root_forms[b])
        return expanded

    def _lift_index(self, w: WeylElement) -> int:
        """The index of w^{-1}, the point of weight w^{-1} rho: |W| times the
        canonical lift of [X_w] is delta_{w^{-1}}(d)."""
        return self.group.orbit.point_of[_weyl.inverse_rho(w)]

    def lift_raw(self, w: WeylElement) -> dict:
        """|W| times the canonical lift of [X_w]."""
        return self.delta_d(self._lift_index(w))

    def c_raw(self, u_raw: dict, degree: int, roots: dict[int, int] | None = None,
              known: frozenset[int] = frozenset()) -> dict[WeylElement, object]:
        """delta_v(u) for every v of the given length, keyed by w0 v, where
        u = Q prod_S beta is given factored: ``u_raw`` is the cofactor Q and
        ``roots`` the multiset S (none: u = Q).

        Let K be the nodes i with delta_i(u) = 0.  A v with a right descent
        j in K has delta_v(u) = delta_{v s_j}(delta_j u) = 0, so the support
        lies in W^K and the walk runs over the coset orbit of K in its
        stored order, delta_v = delta_a delta_{parent} with a the first
        letter of v's word, each step ``_step`` on factored values.  The
        nodes of ``known`` are taken as zero; K is them and the other nodes
        whose probe delta_i(u) comes back zero.  Zero values are pruned so
        dead branches cost nothing.  The leaf at point k is the class of
        w0 v, the maximal representative at ``opposite[k]``; a leaf must
        be a constant with no roots left.

        Returns w0 v -> constant (int or Fraction).
        """
        system = self.system
        if not u_raw or degree > len(system.positive_roots):
            return {}
        roots = roots or {}
        nodes = range(1, system.rank + 1)
        # level 1; degree 0 walks nothing and K is every node
        firsts = {i: self._step(i, roots, u_raw) for i in nodes
                  if i not in known} if degree else {}
        orbit = _weyl.coset_orbit(
            system, [i for i in nodes if i not in firsts or not firsts[i][1]])
        words, parents = orbit.words, orbit.parents
        values: dict[int, tuple[dict[int, int], dict]] = {0: (roots, u_raw)}
        for k in range(1, len(words)):
            word = words[k]
            if len(word) > degree:
                break
            parent = values.get(parents[k])
            if parent is None:
                continue
            val = firsts[word[0]] if len(word) == 1 else self._step(word[0], *parent)
            if val[1]:
                values[k] = val
        out: dict[WeylElement, object] = {}
        for k, (left, raw) in values.items():
            if len(words[k]) != degree:
                continue
            if left or any(raw):
                raise AssertionError("c map met a non-constant leaf")
            const = raw.get(0, 0)
            if const:
                out[orbit.maximal[orbit.opposite[k]]] = const
        return out

    def product_classes(self, wa: WeylElement, wb: WeylElement) -> dict[WeylElement, int]:
        """[X_wa]*[X_wb] over the full flag ring, keyed like ``c_raw``:
        the product of the two lifts, projected by the c map.  The product
        stays factored, the two chain values' root multisets added and their
        cofactors multiplied.  delta_i of a lift delta_{w^{-1}}(d) is zero
        exactly when i is a right descent of w, so by Leibniz every common
        right descent of wa and wb annihilates the product, and the c map
        takes those nodes as known.  The division by |W|^2 must be exact or
        the conventions are broken somewhere.
        """
        top = len(self.system.positive_roots)
        codim = (top - wa.length) + (top - wb.length)
        result: dict[WeylElement, int] = {}
        if codim <= top:
            roots_a, cofactor_a = self._chain(self._lift_index(wa))
            roots_b, cofactor_b = self._chain(self._lift_index(wb))
            roots = dict(roots_a)
            for b, m in roots_b.items():
                roots[b] = roots.get(b, 0) + m
            known = frozenset(_weyl.right_descents(wa)) & frozenset(_weyl.right_descents(wb))
            u = _calculus(self.system).mul(cofactor_a, cofactor_b)
            order2 = self.group.order * self.group.order
            for target, const in self.c_raw(u, codim, roots, known).items():
                q, r = divmod(const, order2)
                if r:
                    raise AssertionError("lift product left the integer lattice")
                if q:
                    result[target] = q
        return result


@lru_cache(maxsize=None)
def _get_engine(group: WeylGroup) -> _GiambelliEngine:
    return _GiambelliEngine(group)


# The largest localization table, |W^P|^2 restrictions, an engine builds:
# E8/P1 (2160 fixed points) builds, E8/P2 (17280) is refused.
MAX_LOCALIZATION_TABLE = 10_000_000


class _LocalizationEngine:
    """Structure constants of one parabolic ring by localization on W^P.

    The torus-fixed points of G/P are the minimal coset representatives
    x in W^P, the points of the ring's :class:`~chowring.weyl.CosetOrbit`,
    each with a reduced word a_1 ... a_l, left letter first.  Each class of
    the ring is sigma^v, addressed by its sigma-point v (``sigma``; the
    ring's ``_at_sigma`` maps each point back to its class), and sigma^v
    restricts to x by Billey's formula (Duke 1999),

        sigma^v|_x = sum over reduced subwords of a_1 ... a_l spelling v
                     of the product of r_j = s_a1 ... s_a(j-1)(alpha_aj),

    run right to left as a dynamic program over orbit points along the
    orbit's upward moves: every suffix of an element of W^P lies in W^P,
    so no state leaves the orbit.
    Every root is evaluated exactly at two integer points alpha_i -> p_i,
    so a restriction is one integer per evaluation point, held in two fixed
    lanes: the table maps each point x to a dict v -> (int, int).
    Roots are handled by their index in the system's
    :class:`~chowring.weyl.RootIndex`, each evaluated once: the r_j of x
    follow from its parent's by one table step.
    Both points are positive, so no root vanishes on them and each
    restriction is positive on the Bruhat interval below x.

    A product is solved by forward substitution.  Equivariantly
    sigma^a sigma^b = sum over w of c_w sigma^w, c_w a polynomial with
    integer coefficients in the simple roots, of degree
    l(a) + l(b) - l(w), and c_w = 0 unless w >= a and w >= b.  The table is
    upper triangular (Knutson-Tao, Duke 2003): sigma^w|_x = 0 unless
    w <= x, and the diagonal sigma^x|_x is the product of the r_j of x.
    Restricting both sides to x therefore gives

        c_x = (sigma^a|_x sigma^b|_x - sum over v < x of c_v sigma^v|_x)
              / sigma^x|_x,

    solved in orbit order, (length, images), which puts every v < x before
    x, over the points of length max(l(a), l(b)) .. l(a) + l(b).  A point
    whose row lacks sigma^a|_x or sigma^b|_x is not above both factors, so
    its coefficient is 0 and it is skipped.  The structure constants are
    the c_x of length l(a) + l(b).  Two assertions guard the table:

    * "integer lattice": each c_x is an integer polynomial at an integer
      point, so every division must be exact; a restriction that is wrong
      in both lanes, such as a diagonal entry, leaves it;
    * "different products at the two evaluation points": the top c_x are
      constants, so both lanes must give the same one; a restriction that
      is wrong in one lane only, while its divisions stay exact, shows here.

    The table holds up to |W^P|^2 restrictions; above
    ``MAX_LOCALIZATION_TABLE`` the engine raises :class:`SizeLimitError`
    before it builds any.
    """

    def __init__(self, ring: "ChowRing"):
        orbit = ring.orbit
        size = len(orbit.words)
        if size * size > MAX_LOCALIZATION_TABLE:
            raise _weyl.SizeLimitError(
                f"localization on {size} fixed points needs a table of "
                f"{size * size} entries, more than the "
                f"{MAX_LOCALIZATION_TABLE} this program builds")
        system = ring.system
        n = system.rank
        self.ring = ring
        self.up = orbit.up
        # exactly two evaluation points, alpha_i -> i and alpha_i -> i^2 + 1:
        # every restriction below is a pair, one lane per point
        self.points = (tuple(range(1, n + 1)),
                       tuple(k * k + 1 for k in range(1, n + 1)))
        table = orbit.roots
        # every root, by its index in the root table, at each evaluation point
        self.values = tuple(tuple(sum(c * x for c, x in zip(r, p)) for p in self.points)
                            for r in table.roots)
        # The roots r_j of each point, by index, from its parent's: parents
        # are one step shorter, so they come first in orbit order.
        factors: list[tuple[int, ...]] = []
        for word, parent in zip(orbit.words, orbit.parents):
            if parent < 0:
                factors.append(())
                continue
            a = word[0]
            factors.append((table.index[system.simple_root(a)],) + tuple(
                map(table.steps[a - 1].__getitem__, factors[parent])))
        self.restrictions = [self._restrictions(word, roots)
                             for word, roots in zip(orbit.words, factors)]
        # the first point of each length 0 .. dim + 1, in orbit order
        lengths = [len(word) for word in orbit.words]
        self.starts = [bisect_left(lengths, k) for k in range(ring.dim + 2)]
        # sigma^x lives at point x
        self.classes = ring._at_sigma

    def _restrictions(self, word, roots) -> dict[int, tuple[int, int]]:
        """sigma^v|_x at both points for every v <= x, keyed by v's index;
        ``roots`` are the r_j of x as root-table indices."""
        up, values = self.up, self.values
        states = {0: (1, 1)}
        for a, r in zip(reversed(word), reversed(roots)):
            r0, r1 = values[r]
            # s_a only moves states with <lambda, alpha_a^vee> > 0 to states
            # with < 0, so no state is both read and written in one step.
            for k, (v0, v1) in list(states.items()):
                target = up[k].get(a)
                if target is None:
                    continue
                old = states.get(target)
                states[target] = (v0 * r0, v1 * r1) if old is None else (
                    old[0] + v0 * r0, old[1] + v1 * r1)
        return states

    def product(self, a: SchubertClass, b: SchubertClass) -> dict[SchubertClass, int]:
        """[X_a]*[X_b] as class -> coefficient, by forward substitution."""
        ka, kb, top = a.sigma, b.sigma, a.codim + b.codim
        if top > self.ring.dim:
            return {}
        rows, first = self.restrictions, self.starts[top]
        # x -> c_x at both points, for every solved x with c_x != 0
        solved: dict[int, tuple[int, int]] = {}
        for x in range(self.starts[max(a.codim, b.codim)], self.starts[top + 1]):
            row = rows[x]
            ra, rb = row.get(ka), row.get(kb)
            if ra is None or rb is None:
                continue
            s0, s1 = ra[0] * rb[0], ra[1] * rb[1]
            for v, (c0, c1) in solved.items():
                rv = row.get(v)
                if rv is not None:
                    s0 -= c0 * rv[0]
                    s1 -= c1 * rv[1]
            d0, d1 = row[x]
            (c0, r0), (c1, r1) = divmod(s0, d0), divmod(s1, d1)
            if r0 or r1:
                raise AssertionError("localization product left the integer lattice"
                                     + self._witness(a, b, x, f"{s0}/{d0}", f"{s1}/{d1}"))
            if c0 or c1:
                if x >= first and c0 != c1:
                    raise AssertionError("localization gives different products at "
                                         "the two evaluation points"
                                         + self._witness(a, b, x, c0, c1))
                solved[x] = (c0, c1)
        return {self.classes[x]: c0 for x, (c0, _) in solved.items() if x >= first}

    def _witness(self, a: SchubertClass, b: SchubertClass, x: int, lane0, lane1) -> str:
        """Where a product was refused: theta, both factors, the point x
        with its length and word, and the value c_x took in each lane."""
        ring = self.ring
        return (f": theta {ring.theta}, {ring.label_of(a)} * {ring.label_of(b)} at "
                f"x = [{ring.orbit.names[x]}] (point {x}, length {len(ring.orbit.words[x])}); "
                f"lanes {lane0} and {lane1}")


class ChowRing:
    """CH(G/P_theta) for the Weyl group of ``system``; theta=() is G/B."""

    def __init__(self, system: RootSystem, theta=()):
        self.system = system
        self.group = get_weyl_group(system)
        self.theta = _weyl.normalize_theta(system, theta)
        self.engine = _get_engine(self.group)
        self.orbit = _weyl.coset_orbit(system, self.theta)
        # the orbit's endpoints: point 0 is rho_P, with minimal representative
        # e and maximal w_theta; the last point is the unique longest, w0
        self.w_theta = self.orbit.maximal[0]
        self.w0 = self.orbit.maximal[-1]
        self.dim = self.w0.length - self.w_theta.length
        # basis order: by codimension, ties broken on the image tuples
        maximal, opposite = self.orbit.maximal, self.orbit.opposite
        points = sorted(range(len(maximal)),
                        key=lambda p: (-maximal[p].length, maximal[p].images))
        self.classes: tuple[SchubertClass, ...] = tuple(
            SchubertClass(maximal[p], self.w0.length - maximal[p].length, k, p, opposite[p])
            for k, p in enumerate(points))
        self._position = {c.rep: c.position for c in self.classes}
        self._by_codim: list[list[SchubertClass]] = [[] for _ in range(self.dim + 1)]
        for c in self.classes:
            self._by_codim[c.codim].append(c)
        self.labels: dict[str, SchubertClass] | None = None
        self._label_of: dict[SchubertClass, str] = {}
        self._pair_products: dict[tuple[SchubertClass, SchubertClass], ChowElement] = {}
        self._localization: _LocalizationEngine | None = None
        # sigma-point -> class, the one table every product reads
        self._at_sigma = at_sigma = tuple(sorted(self.classes, key=lambda c: c.sigma))
        # [X_w] pairs with [X_{w0 w w_theta}] = sigma^{w w_theta}, and w w_theta
        # is the minimal representative at w's own point
        dual = {c: at_sigma[c.point] for c in self.classes}
        for c, d in dual.items():
            if d.codim != self.dim - c.codim or dual[d] is not c:
                raise AssertionError("duality map is not an involution reversing "
                                     "codimension")
        # class -> Poincare dual class, read-only; correspondence composition
        # reads it directly, once per call
        self.duality: Mapping[SchubertClass, SchubertClass] = MappingProxyType(dual)
        # node -> [X_{w0 s_node}] = sigma^{s_node}, at the point one move above rho_P
        self._hyperplanes = {a: at_sigma[p] for a, p in self.orbit.up[0].items()}
        self._hyperplane_nodes = {c: a for a, c in self._hyperplanes.items()}
        # node -> (index of beta, <beta^vee, omega_node>, <rho_P, beta^vee>)
        # per positive root beta with a nonzero coefficient, and
        # (node, class) -> Chevalley product, both filled on first use
        self._chevalley_betas: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._chevalley_products: dict[tuple[int, SchubertClass], ChowElement] = {}
        # target ring -> the canonical (f, g) term keys of correspondences
        # from this ring to it (``correspondence._keys``); weak, so that a
        # target ring is not kept alive by its sources
        self._pair_keys: WeakKeyDictionary = WeakKeyDictionary()

    # -- basis bookkeeping ---------------------------------------------------

    def basis(self, codim: int) -> tuple[SchubertClass, ...]:
        if not 0 <= codim <= self.dim:
            raise ValueError(f"codimension {codim} out of range 0..{self.dim}")
        return tuple(self._by_codim[codim])

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self._by_codim)

    @property
    def unit_class(self) -> SchubertClass:
        return self._by_codim[0][0]

    @property
    def point_class(self) -> SchubertClass:
        return self._by_codim[self.dim][0]

    def class_position(self, cls: SchubertClass) -> int:
        pos = cls.position
        if pos < len(self.classes) and self.classes[pos] is cls:
            return pos
        raise ValueError("class does not belong to this ring")

    def class_of(self, w: WeylElement) -> SchubertClass:
        pos = self._position.get(w)
        if pos is None:
            raise InputError("element does not index a basis class of this ring")
        return self.classes[pos]

    def element(self, terms) -> ChowElement:
        if isinstance(terms, SchubertClass):
            return ChowElement(self, {terms: 1})
        return ChowElement(self, dict(terms))

    def zero(self) -> ChowElement:
        return ChowElement(self)

    @property
    def unit(self) -> ChowElement:
        return self.element(self.unit_class)

    # -- labels (attached by the F4 pipeline) --------------------------------

    def attach_labels(self, mapping: dict[str, SchubertClass]) -> None:
        self.labels = dict(mapping)
        self._label_of = {cls: lab for lab, cls in mapping.items()}

    def label_of(self, cls: SchubertClass) -> str:
        lab = self._label_of.get(cls)
        if lab is not None:
            return lab
        return f"[{_weyl.serialize(cls.rep)}]"

    def class_by_label(self, label: str) -> SchubertClass:
        if self.labels is None or label not in self.labels:
            raise InputError(f"unknown class label {shown(label)}")
        return self.labels[label]

    # -- duality ---------------------------------------------------------------

    def dual_class(self, cls: SchubertClass) -> SchubertClass:
        """The class [X_{w0 w w_theta}] pairing to 1 with [X_w]."""
        try:
            return self.duality[cls]
        except KeyError:
            raise ValueError("class does not belong to this ring") from None

    # -- Chevalley multiplication ----------------------------------------------

    def codim1_node(self, cls: SchubertClass) -> int:
        """Which node's codimension-1 class this is."""
        node = self._hyperplane_nodes.get(cls)
        if node is None:
            raise ValueError("not a codimension-1 Schubert class")
        return node

    def hyperplane_class(self, node: int) -> SchubertClass:
        """[X_{w0 s_node}], the codimension-1 class attached to a node."""
        if node in self.theta:
            raise ValueError(f"node {node} lies in theta; its hyperplane class "
                             "is not in this subring")
        cls = self._hyperplanes.get(node)
        if cls is None:
            raise ValueError(f"node index {node} out of range 1..{self.system.rank}")
        return cls

    def chevalley_product(self, node: int, cls: SchubertClass) -> ChowElement:
        """[X_w] * H_node, the product of ``cls`` with the codimension-1
        class of ``node``.

        Chevalley's rule in minimal-representative form (Fulton-Woodward,
        J. Algebraic Geom. 2004): with [X_w] = sigma^v, v = w0 w in W^P,
        sigma^v * H_node is the sum of <beta^vee, omega_node> sigma^{v s_beta}
        over positive roots beta with v s_beta in W^P and
        l(v s_beta) = l(v) + 1.  It is read off the orbit of rho_P by index,
        at the class's sigma-point, without Weyl-element arithmetic.  Per
        node, one tuple holds, for each positive root beta with
        <beta^vee, omega_node> != 0, its index, that coefficient and
        <rho_P, beta^vee>, integer dot products with the coroot table.  The
        point of v has weight lambda = v rho_P, and v(beta) is an entry of
        the orbit's ``root_images``, positive exactly when its index is
        below the number of positive roots.  For such beta the coset of
        v s_beta is the point of lambda - <rho_P, beta^vee> v(beta); the
        term is kept when that point lies one step farther from rho_P than
        v's.  Products are memoized per (node, class).  The test suite holds
        this route to the Weyl-element products w s_beta on every quotient
        of rank <= 3, of A4 and of D4, and on the F4 quotients with at least
        two nodes in theta, and to localization on the maximal parabolics
        of D5 and E6.
        """
        key = (node, cls)
        product = self._chevalley_products.get(key)
        if product is not None:
            return product
        self.hyperplane_class(node)   # ValueError for a node in theta or out of range
        self.class_position(cls)
        orbit = self.orbit
        betas = self._chevalley_betas.get(node)
        if betas is None:
            system, rho_p = self.system, orbit.weights[0]
            betas = self._chevalley_betas[node] = tuple(
                (b, system.coroot(beta)[node - 1], system.coroot_pairing(beta, rho_p))
                for b, beta in enumerate(system.positive_roots)
                if system.coroot(beta)[node - 1])
        v = cls.sigma
        lam, image = orbit.weights[v], orbit.root_images[v]
        positive, weights = orbit.roots.positive, orbit.roots.weights
        point_of, words = orbit.point_of, orbit.words
        target_length = len(words[v]) + 1
        row = {}
        for b, coeff, shift in betas:
            r = image[b]
            if r >= positive:
                continue
            u = point_of[tuple(x - shift * y for x, y in zip(lam, weights[r]))]
            if len(words[u]) == target_length:
                target = self._at_sigma[u]
                row[target] = row.get(target, 0) + coeff
        product = self._chevalley_products[key] = ChowElement(self, row)
        return product

    # -- Giambelli route ---------------------------------------------------------

    def giambelli_lift(self, cls: SchubertClass) -> RationalPolynomial:
        """Canonical polynomial lift delta_{w^{-1}}(d / |W|) of [X_w]."""
        raw = self.engine.lift_raw(cls.rep)
        scale = Fraction(1, self.group.order)
        return RationalPolynomial._from_raw(self.system, _raw_scale(raw, scale))

    def c_map(self, u: RationalPolynomial) -> ChowElement:
        """c(u) = sum over w of length deg(u) of delta_w(u) [X_{w0 w}].

        Raises :class:`LatticeError` if a coefficient is non-integral and,
        for a parabolic ring, :class:`SubringError` if the support leaves
        the subring.
        """
        if u.system is not self.system:
            raise ValueError("polynomial belongs to a different root system")
        if u.is_zero():
            return self.zero()
        if not u.is_homogeneous():
            raise ValueError("c map needs a homogeneous polynomial")
        den = lcm(*(Fraction(c).denominator for c in u.terms.values()))
        raw = {e: int(c * den) for e, c in u.terms.items()}
        acc: dict[WeylElement, int] = {}
        for target, const in self.engine.c_raw(raw, u.degree()).items():
            q, r = divmod(const, den)
            if r:
                raise LatticeError("polynomial is not in the image lattice of c")
            acc[target] = q
        return self._subring_element(acc, "c map support")

    def _subring_element(self, terms: dict[WeylElement, int], what: str) -> ChowElement:
        """Engine output, keyed by Weyl elements, as an element of this ring;
        SubringError where a key indexes no class of it."""
        acc: dict[SchubertClass, int] = {}
        for w, v in terms.items():
            pos = self._position.get(w)
            if pos is None:
                raise SubringError(f"{what} left the subring at {_weyl.serialize(w)}")
            acc[self.classes[pos]] = v
        return ChowElement(self, acc)

    # -- general products ----------------------------------------------------------

    @property
    def localization(self) -> "_LocalizationEngine":
        """The localization engine, built on first use."""
        if self._localization is None:
            self._localization = _LocalizationEngine(self)
        return self._localization

    def pair_product(self, a: SchubertClass, b: SchubertClass) -> ChowElement:
        """[X_a]*[X_b] by localization, memoized per unordered pair."""
        key = (a, b) if self.class_position(a) <= self.class_position(b) else (b, a)
        cached = self._pair_products.get(key)
        if cached is not None:
            return cached
        if a.codim + b.codim > self.dim:
            result = self.zero()
        else:
            terms = self.localization.product(a, b)
            self._cross_check(a, b, terms)
            result = ChowElement(self, terms)
        self._pair_products[key] = result
        return result

    def _cross_check(self, a: SchubertClass, b: SchubertClass,
                     terms: dict[SchubertClass, int]) -> None:
        """Localization's terms of [X_a]*[X_b] against Chevalley's row when a
        factor has codimension 1, and against the duality table in
        complementary codimensions."""
        if b.codim == 1 or a.codim == 1:
            one, other = (b, a) if b.codim == 1 else (a, b)
            if self.chevalley_product(self.codim1_node(one), other).terms != terms:
                raise AssertionError(
                    f"localization and Chevalley products disagree on "
                    f"{self.label_of(a)} * {self.label_of(b)}")
        if a.codim + b.codim == self.dim:
            if terms != ({self.point_class: 1} if self.pair_degree(a, b) else {}):
                raise AssertionError(
                    f"localization product disagrees with the duality pairing on "
                    f"{self.label_of(a)} * {self.label_of(b)}")

    def giambelli_product(self, a: SchubertClass, b: SchubertClass) -> ChowElement:
        """[X_a]*[X_b] by the Giambelli route (lift, multiply, project with
        c), computed in the full flag ring and asserted to land back in the
        subring; no other route is consulted, and nothing but the shared
        engine's lifts is cached."""
        if a.codim + b.codim > self.dim:
            return self.zero()
        return self._subring_element(self.engine.product_classes(a.rep, b.rep), "product")

    def multiply(self, x: ChowElement, y: ChowElement) -> ChowElement:
        """x*y, the sum of va vb pair_product(a, b) over the terms va a of x
        and vb b of y, both elements of this ring."""
        x._check(y)
        if x.ring is not self:
            raise ValueError("elements belong to a different ring")
        acc: dict[SchubertClass, int] = {}
        for a, va in x.terms.items():
            for b, vb in y.terms.items():
                _raw_add_into(acc, self.pair_product(a, b).terms, va * vb)
        return x._with(acc)

    def pair_degree(self, a: SchubertClass, b: SchubertClass) -> int:
        """degree([X_a]*[X_b]), read from the duality table."""
        return 1 if self.dual_class(a) == b else 0

    def power(self, cls: SchubertClass, n: int) -> ChowElement:
        acc = self.unit
        for _ in range(n):
            acc = self.multiply(acc, self.element(cls))
        return acc

    def __repr__(self) -> str:
        return f"ChowRing(theta={self.theta}, dim={self.dim}, rank={len(self.classes)})"


def get_chow_ring(system: RootSystem, theta=()) -> ChowRing:
    """The shared ring of W^theta; theta in any order."""
    return _get_chow_ring(system, _weyl.normalize_theta(system, theta))


@lru_cache(maxsize=None)
def _get_chow_ring(system: RootSystem, theta: tuple[int, ...]) -> ChowRing:
    return ChowRing(system, theta)


# ---------------------------------------------------------------------------
# multiplication table export


def hyperplane_table(ring: ChowRing, node: int) -> list[dict]:
    """Products H*u for every basis class u of codimension 1..dim-1.

    Rows come in basis order and each product is a sorted list of
    {class, coeff} entries, using ring labels when attached.
    """
    rows = []
    names = {cls: ring.label_of(cls) for cls in ring.classes}
    lhs = names[ring.hyperplane_class(node)]
    for codim in range(1, ring.dim):
        for cls in sorted(ring.basis(codim), key=names.__getitem__):
            entries = sorted(({"class": names[c], "coeff": v}
                              for c, v in ring.chevalley_product(node, cls).terms.items()),
                             key=lambda e: e["class"])
            rows.append({"lhs": lhs, "rhs": names[cls], "product": entries})
    return rows


def format_table_text(rows: list[dict]) -> str:
    lines = []
    width = max(len(f"{r['lhs']}*{r['rhs']}") for r in rows) if rows else 0
    for r in rows:
        rhs = " + ".join(
            (f"{e['coeff']}*{e['class']}" if e["coeff"] != 1 else e["class"])
            for e in r["product"]) or "0"
        lines.append(f"{(r['lhs'] + '*' + r['rhs']).ljust(width)} = {rhs}")
    return "\n".join(lines) + "\n"
