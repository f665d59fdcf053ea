"""Finite root systems built from integer Cartan matrices.

All arithmetic is exact.  A root is an integer coordinate vector in the
simple-root basis, a weight is an integer coordinate vector in the
fundamental-weight basis, and the invariant bilinear form is carried by a
rational symmetrizer.  The form decides finite type, as it must be
positive definite, and, scaled to integers, is used once per root, to
build the integer coordinates of its coroot in the simple coroots; every
coroot pairing is then an integer dot product.  The
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


def shown(text: str, form=repr) -> str:
    """How an error message shows outside text: ``form(text)``, or past 40
    characters ``form`` of the first 40 followed by the length."""
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
    """Positive roots, pairings and reflections of a finite-type Cartan matrix.

    Node indices in the public API are 1-based, matching the usual Dynkin
    diagram numbering (F4 nodes 1,2 long and 3,4 short, double edge between
    2 and 3).  Positive roots are ordered by height, then lexicographically.
    """

    def __init__(self, cartan: CartanMatrix, positive_roots: tuple[Root, ...],
                 pairings: dict[Root, list[int]]):
        """``pairings`` maps each positive root beta to its pairings
        <alpha_i^vee, beta>, i = 1..rank, as :func:`build_root_system`'s
        closure carries them."""
        self.cartan = cartan
        self.rank = cartan.rank
        self.positive_roots = positive_roots
        # per node i (0-based), alpha_(i+1) in the fundamental weights
        # (column i of the Cartan matrix) and its nonzero entries as
        # (coordinate, entry) pairs: the coordinates s_(i+1) moves
        self.alpha_weights: tuple[Weight, ...] = tuple(zip(*cartan.entries))
        self.alpha_support: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((k, x) for k, x in enumerate(col) if x) for col in self.alpha_weights)
        self._coroots = self._coroot_table(pairings)

    # -- construction helpers -------------------------------------------

    def _coroot_table(self, pairings: dict[Root, list[int]]) -> dict[Root, Root]:
        """root -> beta^vee in the simple coroots, for every root, positive
        or negative.  alpha_k = d_k alpha_k^vee, so the k-th coordinate of
        beta^vee = 2 beta / (beta, beta) is 2 d_k beta_k / (beta, beta).
        The form is scaled to integers, d_k = e_k / m, and each coordinate
        is asserted to be an integer.  (beta, beta) is the sum of
        d_i beta_i <alpha_i^vee, beta> over the nodes, read off the
        closure's pairings."""
        sym = _symmetrizer(self.cartan)
        m = lcm(*(d.denominator for d in sym))
        e = [int(d * m) for d in sym]
        n = self.rank
        table: dict[Root, Root] = {}
        for beta in self.positive_roots:
            # m (beta, beta)
            norm = sum(b * e_i * x for b, e_i, x in zip(beta, e, pairings[beta]) if b)
            coroot = []
            for k in range(n):
                q, r = divmod(2 * e[k] * beta[k], norm)
                if r:
                    raise ArithmeticError(f"non-integral coroot of {beta}")
                coroot.append(q)
            table[beta] = tuple(coroot)
            table[tuple(-x for x in beta)] = tuple(-x for x in coroot)
        return table

    # -- roots ------------------------------------------------------------

    def simple_root(self, i: int) -> Root:
        self._check_node(i)
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def is_positive(self, root: Root) -> bool:
        return all(x >= 0 for x in root) and any(x != 0 for x in root)

    @staticmethod
    def height(root: Root) -> int:
        return sum(root)

    def reflect_root(self, i: int, root: Root) -> Root:
        """Simple reflection s_i on a root in simple-root coordinates."""
        self._check_node(i)
        c = self.cartan.entries[i - 1]
        pairing = sum(c[j] * root[j] for j in range(self.rank))
        return tuple(root[j] - (pairing if j == i - 1 else 0)
                     for j in range(self.rank))

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

    def root_to_weight(self, root: Root) -> Weight:
        c = self.cartan.entries
        return tuple(sum(c[i][j] * root[j] for j in range(self.rank))
                     for i in range(self.rank))

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
    """Generate all positive roots by reflection closure.

    The matrix must be of finite type, its symmetrization D C positive
    definite (D from :func:`_symmetrizer`), or
    :class:`InfiniteRootSystemError` is raised before any closure runs.
    The closure starts from the simple roots and applies simple
    reflections until no new positive root appears.  Each root carries its
    pairings with the simple coroots, updated through the column of the
    reflecting node, so a reflection costs the coordinates it moves.
    """
    d = _symmetrizer(cartan)
    if not _positive_definite([[d_i * x for x in row]
                               for d_i, row in zip(d, cartan.entries)]):
        raise InfiniteRootSystemError(
            "infinite root system: the symmetrized Cartan matrix is not "
            "positive definite")
    n = cartan.rank
    # per node i, the nonzero coordinates (k, C[k][i]) of alpha_i in the
    # fundamental weights
    support = [tuple((k, row[i]) for k, row in enumerate(cartan.entries) if row[i])
               for i in range(n)]
    # positive root -> its weight coordinates, the pairings <alpha_i^vee, root>;
    # s_i moves coordinate i of the root and only the weight coordinates
    # where alpha_i is nonzero
    known: dict[Root, list[int]] = {
        tuple(1 if k == i else 0 for k in range(n)): [row[i] for row in cartan.entries]
        for i in range(n)}
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
                    moved = weight.copy()
                    for k, x in support[i]:
                        moved[k] -= pairing * x
                    known[image] = moved
                    new_frontier.append(image)
        frontier = new_frontier
    ordered = tuple(sorted(known, key=lambda r: (sum(r), r)))
    return RootSystem(cartan, ordered, known)


@lru_cache(maxsize=None)
def root_system(name: str) -> RootSystem:
    """Shared instance of a built-in named root system."""
    return build_root_system(CartanMatrix.from_name(name))
