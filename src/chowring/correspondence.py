"""The algebra of correspondences between products of homogeneous varieties.

A correspondence from X to Y is an integer combination of product classes
f x g with f a Schubert class of X and g one of Y.  Composition uses the
product formula

    (f_b x g_b) o (f_a x g_a) = deg(g_a * f_b) (f_a x g_b),

where deg(g_a * f_b) is 1 when f_b is the Poincare dual of g_a and 0
otherwise, read from the duality table of CH(Y); off-degree inner products
vanish because the degree map only sees the point class.  Squares of
morphism degree, that is total codimension dim X inside X x X, form a ring
whose unit is the diagonal.

``realize`` is the pullback action of a square correspondence: for
p = sum c (f x g) it maps x to sum c deg(x*g) f, where deg(x*g) is the
coefficient of the dual of g in x, so the image of an
idempotent is spanned by its first factors.  (This is the realization of
the motive (X, p); twisting shows up as a shift of the supported
codimensions.)

Modular reduction keeps balanced representatives, e.g. coefficients in
{-1, 0, 1} for modulus 3, so printed cycles carry their natural signs.

Term keys are (f, g) tuples, and each ordered pair of rings has exactly one
key object per class pair: every operation takes its keys from the pair's
table (``_keys``), which the source ring holds, so a term costs no fresh
tuple for the garbage collector to walk.  The table fills one row per first
factor f, when f first appears.  A factor that is not a class of its ring
misses the table or its row and raises ``ValueError``.
"""

from __future__ import annotations

from .poly import _Combination
from .rootsystem import InputError, shown
from .schubert import ChowElement, ChowRing, SchubertClass

Modulus = int  # 0 means integral coefficients


class _Row(dict):
    """g -> (f, g) for one first factor f and every class g of the target;
    a g that is not one raises ``ValueError``."""

    __slots__ = ()

    def __missing__(self, g):
        raise ValueError(f"second factor {g!r} does not belong to the target ring")


class _PairKeys(dict):
    """f -> its :class:`_Row`: the canonical term keys of one ordered pair
    of rings.  It holds the target's classes, not the target ring, so the
    source's weak table can let the target go."""

    __slots__ = ("_sources", "_targets")

    def __init__(self, source: ChowRing, target: ChowRing):
        super().__init__()
        self._sources = source.duality
        self._targets = target.classes

    def __missing__(self, f):
        if f not in self._sources:
            raise ValueError(f"first factor {f!r} does not belong to the source ring")
        row = self[f] = _Row((g, (f, g)) for g in self._targets)
        return row


def _keys(source: ChowRing, target: ChowRing) -> _PairKeys:
    table = source._pair_keys.get(target)
    if table is None:
        table = source._pair_keys[target] = _PairKeys(source, target)
    return table


def _drop_zeros(terms: dict) -> dict:
    for key in [key for key, v in terms.items() if not v]:
        del terms[key]
    return terms


class Correspondence(_Combination):
    """Bigraded integer cycle on X x Y acting as a morphism X -> Y."""

    __slots__ = ("source", "target")
    _mismatch = "correspondences on different variety pairs"

    def __init__(self, source: ChowRing, target: ChowRing,
                 terms: dict | None = None):
        self.source = source
        self.target = target
        keys = _keys(source, target)
        self.terms: dict[tuple[SchubertClass, SchubertClass], int] = \
            {keys[f][g]: v for (f, g), v in (terms or {}).items() if v}

    @classmethod
    def _of(cls, source: ChowRing, target: ChowRing, terms: dict) -> "Correspondence":
        """Takes a fresh zero-free dict of canonical keys as it is."""
        new = cls.__new__(cls)
        new.source, new.target, new.terms = source, target, terms
        return new

    @classmethod
    def from_pairs(cls, source: ChowRing, target: ChowRing, pairs) -> "Correspondence":
        keys = _keys(source, target)
        terms: dict = {}
        for f, g, v in pairs:
            key = keys[f][g]
            terms[key] = terms.get(key, 0) + v
        return cls._of(source, target, _drop_zeros(terms))

    @classmethod
    def from_product(cls, x: ChowElement, y: ChowElement) -> "Correspondence":
        """Outer product of a cycle on X and a cycle on Y."""
        keys = _keys(x.ring, y.ring)
        terms = {}
        for f, vf in x.terms.items():
            row = keys[f]
            for g, vg in y.terms.items():
                terms[row[g]] = vf * vg
        return cls._of(x.ring, y.ring, terms)

    # -- structure -----------------------------------------------------------

    def _space(self) -> tuple[ChowRing, ChowRing]:
        return self.source, self.target

    def _with(self, terms: dict) -> "Correspondence":
        return Correspondence._of(self.source, self.target, terms)

    def _sort_key(self, fg) -> tuple[int, int, int, int]:
        f, g = fg
        return (f.codim, self.source.class_position(f),
                g.codim, self.target.class_position(g))

    def _label(self, fg) -> str:
        return f"{self.source.label_of(fg[0])}x{self.target.label_of(fg[1])}"

    @property
    def is_morphism_degree(self) -> bool:
        return all(f.codim + g.codim == self.source.dim for f, g in self.terms)


# ---------------------------------------------------------------------------
# operations


def transpose(alpha: Correspondence) -> Correspondence:
    keys = _keys(alpha.target, alpha.source)
    return Correspondence._of(alpha.target, alpha.source,
                              {keys[g][f]: v for (f, g), v in alpha.terms.items()})


def compose(beta: Correspondence, alpha: Correspondence) -> Correspondence:
    """beta o alpha for alpha: X -> Y and beta: Y -> Z."""
    if alpha.target is not beta.source:
        raise ValueError("middle varieties do not match")
    dual = alpha.target.duality
    beta_by_first: dict = {}
    for (f_b, g_b), vb in beta.terms.items():
        beta_by_first.setdefault(f_b, []).append((g_b, vb))
    keys = _keys(alpha.source, beta.target)
    acc: dict = {}
    for (f_a, g_a), va in alpha.terms.items():
        matches = beta_by_first.get(dual[g_a])
        if matches:
            row = keys[f_a]
            for g_b, vb in matches:
                key = row[g_b]
                acc[key] = acc.get(key, 0) + va * vb
    return Correspondence._of(alpha.source, beta.target, _drop_zeros(acc))


def intersect(alpha: Correspondence, beta: Correspondence) -> Correspondence:
    """Cup product on X x Y, factorwise via the Chow ring products."""
    alpha._check(beta)
    keys = _keys(alpha.source, alpha.target)
    acc: dict = {}
    for (f_a, g_a), va in alpha.terms.items():
        for (f_b, g_b), vb in beta.terms.items():
            ff = alpha.source.pair_product(f_a, f_b)
            if ff.is_zero():
                continue
            gg = alpha.target.pair_product(g_a, g_b)
            for cf, vf in ff.terms.items():
                row = keys[cf]
                for cg, vg in gg.terms.items():
                    key = row[cg]
                    acc[key] = acc.get(key, 0) + va * vb * vf * vg
    return alpha._with(_drop_zeros(acc))


def diagonal(ring: ChowRing) -> Correspondence:
    """Diagonal cycle: sum over the basis of [X_w] x [dual of X_w]."""
    keys, dual = _keys(ring, ring), ring.duality
    return Correspondence._of(ring, ring,
                              {keys[cls][dual[cls]]: 1 for cls in ring.classes})


def mod_reduce(alpha: Correspondence, m: Modulus) -> Correspondence:
    """Reduce coefficients to balanced representatives in (-m/2, m/2]."""
    if m < 0:
        raise ValueError("modulus must be >= 0")
    if m == 0:
        return alpha
    acc = {}
    for fg, v in alpha.terms.items():
        r = v % m
        if 2 * r > m:
            r -= m
        if r:
            acc[fg] = r
    return alpha._with(acc)


def congruent(alpha: Correspondence, beta: Correspondence, m: Modulus) -> bool:
    return mod_reduce(alpha - beta, m).is_zero()


def _require_square_morphism(p: Correspondence, what: str) -> None:
    if p.source is not p.target:
        raise ValueError(f"{what} needs a correspondence from a variety to itself")
    if not p.is_morphism_degree:
        raise ValueError(f"{what} needs a correspondence of morphism degree")


def is_idempotent(p: Correspondence, m: Modulus) -> bool:
    _require_square_morphism(p, "idempotency")
    return congruent(compose(p, p), p, m)


def are_orthogonal(p: Correspondence, q: Correspondence, m: Modulus) -> bool:
    _require_square_morphism(p, "orthogonality")
    _require_square_morphism(q, "orthogonality")
    if p.source is not q.source:
        raise ValueError("idempotents live on different varieties")
    return (mod_reduce(compose(p, q), m).is_zero()
            and mod_reduce(compose(q, p), m).is_zero())


def realize(p: Correspondence, x: ChowElement) -> ChowElement:
    """Pullback action x -> sum c deg(x*g) f of a square correspondence."""
    if p.source is not p.target:
        raise ValueError("realization needs a square correspondence")
    ring = p.source
    if x.ring is not ring:
        raise ValueError("cycle lives on the wrong variety")
    dual = ring.duality
    acc: dict = {}
    for (f, g), v in p.terms.items():
        vx = x.terms.get(dual[g])
        if vx:
            acc[f] = acc.get(f, 0) + v * vx
    return ChowElement(ring, acc)


# ---------------------------------------------------------------------------
# serialization


def to_jsonable(alpha: Correspondence) -> list[dict]:
    return [{"f": alpha.source.label_of(f), "g": alpha.target.label_of(g),
             "coeff": v}
            for (f, g), v in alpha.sorted_terms()]


def read_keys(obj: dict, *keys: str) -> list:
    """``obj[key]`` for each key; InputError names the first key ``obj`` lacks."""
    for key in keys:
        if key not in obj:
            raise InputError(f"missing key {key!r}")
    return [obj[key] for key in keys]


def from_jsonable(source: ChowRing, target: ChowRing, data) -> Correspondence:
    """Inverse of ``to_jsonable``: a list of objects with string labels f
    and g and a JSON integer coeff; InputError names the shape it missed."""
    shape = 'terms must be a list of {"f": label, "g": label, "coeff": integer} objects'
    if not isinstance(data, list) or not all(isinstance(item, dict) for item in data):
        raise InputError(shape)
    pairs = []
    for item in data:
        f, g, coeff = read_keys(item, "f", "g", "coeff")
        if not (isinstance(f, str) and isinstance(g, str)):
            raise InputError(f"{shape}; labels {shown(f)} and {shown(g)}")
        if type(coeff) is not int:
            raise InputError(f"coefficient {shown(coeff)} is not an integer")
        pairs.append((source.class_by_label(f), target.class_by_label(g), coeff))
    return Correspondence.from_pairs(source, target, pairs)
