"""Finite root systems built from integer Cartan matrices.

All arithmetic is exact.  A root is an integer coordinate vector in the
simple-root basis, a weight is an integer coordinate vector in the
fundamental-weight basis, and the invariant bilinear form is carried by a
rational symmetrizer.  The form decides finite type, as it must be
positive definite, and, scaled to integers, is used once per root, to
build the integer coordinates of its coroot in the simple coroots; every
coroot pairing is then an integer dot product, and each coroot's height
is tabled beside it.  A :class:`RootSystem` builds all of its tables
once: the reflection closure carries each root's weight, and the roots,
their weights and the simple reflections are kept by root index.  The
closure construction needs nothing beyond the Cartan matrix, so any
finite-type matrix is accepted, not only the named ones used by the F4
pipeline.

Convention: ``cartan.entries[i][j]`` is the pairing of simple root j
against simple coroot i.  Consequently the expansion of the simple root
``alpha_j`` in fundamental weights is column j of the matrix, and the
simple reflection acts on a weight by subtracting its i-th coordinate
times that column.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

Root = tuple[int, ...]
Weight = tuple[int, ...]

BUILTIN_CARTAN: dict[str, tuple[tuple[int, ...], ...]] = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -3), (-1, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "F4": (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    ),
}


class InputError(ValueError):
    """Outside input, refused by the code that parses it."""


class InfiniteRootSystemError(InputError):
    """The Cartan matrix is not of finite type."""


def shown(text, form=repr) -> str:
    """How an error message shows outside text: ``form(text)``, or past 40
    characters ``form`` of the first 40 followed by the length.  A value
    that is no string, as a JSON file may hold where text belongs, is shown
    as the text of its repr."""
    if not isinstance(text, str):
        text, form = repr(text), str
    return form(text) if len(text) <= 40 else f"{form(text[:40])}... ({len(text)} characters)"


def parse_int(text: str) -> int:
    """``int(text)``, or an InputError; past the digit limit, with the first digits only."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isdecimal():
            raise InputError(f"{text[:12]}... has {len(digits)} digits, more than the "
                             "interpreter's integer-conversion limit") from None
        raise InputError(f"{shown(text)} is not an integer") from None


class CartanMatrix:
    """Square integer matrix with 2 on the diagonal and <= 0 off it.

    A value: two matrices with the same ``entries`` are equal and hash
    alike.  ``entries`` is immutable by contract.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        self.entries = entries
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise InputError("Cartan matrix must be square")
        for i in range(n):
            if entries[i][i] != 2:
                raise InputError("Cartan matrix diagonal entries must be 2")
            for j in range(n):
                if i != j and entries[i][j] > 0:
                    raise InputError("off-diagonal Cartan entries must be <= 0")
                if (entries[i][j] == 0) != (entries[j][i] == 0):
                    raise InputError("zero pattern of a Cartan matrix is symmetric")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CartanMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"CartanMatrix(entries={self.entries!r})"

    @property
    def rank(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows) -> "CartanMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_name(cls, name: str) -> "CartanMatrix":
        try:
            return cls(BUILTIN_CARTAN[name])
        except KeyError:
            raise InputError(f"unknown root system type {shown(name)}; "
                             f"known types: {sorted(BUILTIN_CARTAN)}") from None

    @classmethod
    def from_file(cls, path) -> "CartanMatrix":
        """Read rows of space-separated integers, one matrix row per line;
        an InputError names the line of a token that is no integer."""
        rows = []
        with open(path) as f:
            try:
                text = f.read()
            except UnicodeDecodeError as exc:
                raise InputError(str(exc)) from None
        for number, line in enumerate(text.splitlines(), 1):
            try:
                row = [parse_int(tok) for tok in line.split()]
            except InputError as exc:
                raise InputError(f"line {number}: {exc}") from None
            if row:
                rows.append(row)
        if not rows:
            raise InputError("no matrix rows found")
        return cls.from_rows(rows)


def _symmetrizer(cartan: CartanMatrix) -> tuple[Fraction, ...]:
    """Positive rationals d with d[i]*C[i][j] == d[j]*C[j][i].

    (alpha_i, alpha_j) = d[i]*C[i][j] is then an invariant symmetric form.
    Computed by walking the Dynkin graph; a non-symmetrizable matrix is
    rejected.
    """
    n = cartan.rank
    c = cartan.entries
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or c[i][j] == 0:
                    continue
                expected = d[i] * c[i][j] / c[j][i]
                if d[j] is None:
                    d[j] = expected
                    stack.append(j)
                elif d[j] != expected:
                    raise InputError("Cartan matrix is not symmetrizable")
    for i in range(n):
        for j in range(n):
            if d[i] * c[i][j] != d[j] * c[j][i]:
                raise InputError("Cartan matrix is not symmetrizable")
    return tuple(d)  # type: ignore[arg-type]


class RootSystem:
    """The roots, coroots and reflections of a finite-type Cartan matrix,
    built once, by reflection closure (Bourbaki, Lie Groups and Lie
    Algebras, Ch. VI).

    Node indices in the public API are 1-based, matching the usual Dynkin
    diagram numbering (F4 nodes 1,2 long and 3,4 short, double edge between
    2 and 3).  Positive roots are ordered by height, then lexicographically.

    Every root also has an index: ``roots`` holds the positive roots in
    that order, then their negatives in the same order, so index r is
    positive exactly when r < len(positive_roots).  ``root_index`` maps each
    root back to its index, ``root_weights[r]`` is roots[r] in the
    fundamental weights, and ``root_steps[a - 1][r]`` is the index of
    s_a roots[r].  The tables are immutable by contract.
    """

    def __init__(self, cartan: CartanMatrix):
        """The matrix must be of finite type, its symmetrization D C
        positive definite (D from :func:`_symmetrizer`), or
        :class:`InfiniteRootSystemError` is raised before any closure runs."""
        sym = _symmetrizer(cartan)
        if not _positive_definite([[d_i * x for x in row]
                                   for d_i, row in zip(sym, cartan.entries)]):
            raise InfiniteRootSystemError(
                "infinite root system: the symmetrized Cartan matrix is not "
                "positive definite")
        self.cartan = cartan
        self.rank = n = cartan.rank
        # per node i (0-based), alpha_(i+1) in the fundamental weights
        # (column i of the Cartan matrix) and its nonzero entries as
        # (coordinate, entry) pairs: the coordinates s_(i+1) moves
        self.alpha_weights: tuple[Weight, ...] = tuple(zip(*cartan.entries))
        self.alpha_support: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((k, x) for k, x in enumerate(col) if x) for col in self.alpha_weights)
        # roots are sign-coherent, so a root is positive exactly when it
        # compares above the zero tuple
        self.zero: Root = (0,) * n
        weights = self._closure()
        self.positive_roots: tuple[Root, ...] = tuple(
            sorted(weights, key=lambda r: (sum(r), r)))
        self.roots: tuple[Root, ...] = self.positive_roots + tuple(
            tuple(-x for x in beta) for beta in self.positive_roots)
        self.root_index: dict[Root, int] = {r: k for k, r in enumerate(self.roots)}
        positive_weights = tuple(weights[beta] for beta in self.positive_roots)
        self.root_weights: tuple[Weight, ...] = positive_weights + tuple(
            tuple(-x for x in lam) for lam in positive_weights)
        # s_a r = r - <alpha_a^vee, r> alpha_a, the pairing read off r's weight
        self.root_steps: tuple[tuple[int, ...], ...] = tuple(
            tuple(self.root_index[r[:a] + (r[a] - lam[a],) + r[a + 1:]]
                  for r, lam in zip(self.roots, self.root_weights))
            for a in range(n))
        self._coroots = self._coroot_table(sym)
        # root -> <rho, beta^vee>, the height of its coroot, for every root
        self.coroot_heights: dict[Root, int] = {
            beta: sum(coroot) for beta, coroot in self._coroots.items()}

    # -- construction helpers -------------------------------------------

    def _closure(self) -> dict[Root, Weight]:
        """positive root -> its weight, the pairings <alpha_i^vee, root>.

        The closure starts from the simple roots and applies simple
        reflections until no new positive root appears.  s_i moves
        coordinate i of the root and only the weight coordinates where
        alpha_i is nonzero, so a reflection costs the coordinates it moves.
        """
        n = self.rank
        known: dict[Root, Weight] = {self.simple_root(i): self.alpha_weights[i - 1]
                                     for i in range(1, n + 1)}
        frontier: list[Root] = list(known)
        while frontier:
            new_frontier: list[Root] = []
            for root in frontier:
                weight = known[root]
                for i, pairing in enumerate(weight):
                    if pairing == 0:
                        continue
                    image = list(root)
                    image[i] -= pairing
                    if image[i] < 0:
                        continue
                    image = tuple(image)
                    if image not in known:
                        moved = list(weight)
                        for k, x in self.alpha_support[i]:
                            moved[k] -= pairing * x
                        known[image] = tuple(moved)
                        new_frontier.append(image)
            frontier = new_frontier
        return known

    def _coroot_table(self, sym: tuple[Fraction, ...]) -> dict[Root, Root]:
        """root -> beta^vee in the simple coroots, for every root, positive
        or negative.  alpha_k = d_k alpha_k^vee, so the k-th coordinate of
        beta^vee = 2 beta / (beta, beta) is 2 d_k beta_k / (beta, beta).
        The form is scaled to integers, d_k = e_k / m, and each coordinate
        is asserted to be an integer.  (beta, beta) is the sum of
        d_i beta_i <alpha_i^vee, beta> over the nodes, read off the root's
        weight."""
        m = lcm(*(d.denominator for d in sym))
        e = [int(d * m) for d in sym]
        table: dict[Root, Root] = {}
        for beta, weight in zip(self.roots, self.root_weights):
            # m (beta, beta)
            norm = sum(b * e_i * x for b, e_i, x in zip(beta, e, weight) if b)
            coroot = []
            for e_k, b in zip(e, beta):
                q, r = divmod(2 * e_k * b, norm)
                if r:
                    raise ArithmeticError(f"non-integral coroot of {beta}")
                coroot.append(q)
            table[beta] = tuple(coroot)
        return table

    # -- roots ------------------------------------------------------------

    def simple_root(self, i: int) -> Root:
        self._check_node(i)
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    @staticmethod
    def height(root: Root) -> int:
        return sum(root)

    # -- coroots -------------------------------------------------------------

    def coroot(self, beta: Root) -> Root:
        """beta^vee in the simple-coroot basis, integer coordinates."""
        coroot = self._coroots.get(tuple(beta))
        if coroot is None:
            raise ValueError(f"{beta} is not a root of this system")
        return coroot

    def coroot_pairing(self, beta: Root, omega: Weight) -> int:
        """<beta^vee, omega> for a root beta and a weight omega: the dot
        product of beta^vee, in the simple coroots, with omega, in the
        fundamental weights."""
        return sum(c * x for c, x in zip(self.coroot(beta), omega))

    # -- weights ------------------------------------------------------------

    def simple_root_weight(self, j: int) -> Weight:
        """alpha_j expanded in the fundamental-weight basis (column j)."""
        self._check_node(j)
        return self.alpha_weights[j - 1]

    def reflect_weight(self, i: int, omega: Weight) -> Weight:
        """s_i on a weight: subtract the i-th coordinate times alpha_i,
        touching only the coordinates where alpha_i is nonzero."""
        self._check_node(i)
        coeff = omega[i - 1]
        if coeff == 0:
            return tuple(omega)
        out = list(omega)
        for k, x in self.alpha_support[i - 1]:
            out[k] -= coeff * x
        return tuple(out)

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node index {i} out of range 1..{self.rank}")

    def __repr__(self) -> str:
        return f"RootSystem(rank={self.rank}, positive_roots={len(self.positive_roots)})"


def _positive_definite(rows) -> bool:
    """Sylvester's criterion in exact arithmetic: every leading principal
    minor is positive.  Elimination without row swaps has the ratio of the
    k-th and the (k-1)-th minor as its k-th pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    for k, pivot_row in enumerate(m):
        pivot = pivot_row[k]
        if pivot <= 0:
            return False
        for row in m[k + 1:]:
            if row[k]:
                f = row[k] / pivot
                for j in range(k, len(row)):
                    row[j] -= f * pivot_row[j]
    return True


def build_root_system(cartan: CartanMatrix) -> RootSystem:
    """The root system of a finite-type Cartan matrix, tables and all (see
    :class:`RootSystem`)."""
    return RootSystem(cartan)


@lru_cache(maxsize=None)
def root_system(name: str) -> RootSystem:
    """Shared instance of a built-in named root system."""
    return build_root_system(CartanMatrix.from_name(name))
