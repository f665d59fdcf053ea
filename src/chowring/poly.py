"""Exact polynomials in fundamental-weight variables and the divided
difference kernel that the Giambelli engine runs on.

Coefficients are exact rationals (Python ints or Fractions; the two mix
freely and integer-only inputs stay integer, which keeps the long
divided-difference chains fast).  Floating point never appears.

The divided difference against a simple root is computed through the
telescoping identity

    (w_i^e - L_i^e) / alpha_i  =  sum_{a+b=e-1} w_i^a * L_i^b,

where L_i = s_i(w_i) = w_i - alpha_i.  Since s_i fixes every variable
except w_i, this reduces the operator to a per-monomial table lookup and
no polynomial division is ever performed; the defining identity
alpha_i * delta_i(u) == u - s_i(u) is enforced by the test suite, against
its own Weyl action on polynomials, instead of a remainder check.

Raw term dictionaries (packed monomial -> coefficient) are the working
representation.  A monomial w1^e1 ... wn^en is one non-negative int: the
exponent of w_{t+1} sits in the bit field [t*W, (t+1)*W) and the total
degree e1 + ... + en in the field above them, so a monomial product is one
integer addition and an exponent is one shift and mask.  The field width W
follows from the root system: the smallest width that holds degree 2N,
where N is the number of positive roots (the degree of a product of two
Giambelli lifts), widened while the whole key still fits one digit of a
Python int.  A monomial whose total degree exceeds 2^W - 1 raises
ValueError, both where it is built from exponents and where a product
would reach it; since every exponent is at most the total degree, no
field can wrap into the next.  The constant monomial is key 0.

The same kernels carry :class:`_Combination`, the sparse arithmetic that
Chow elements, correspondences and polynomials share.
:class:`RationalPolynomial` is the combination that ties a term dict to
its root system; exponent tuples appear only at its constructor and in
the text format.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from weakref import WeakKeyDictionary

from .rootsystem import RootSystem

RawPoly = dict  # packed monomial (int) -> int | Fraction, zero coefficients absent


# ---------------------------------------------------------------------------
# raw term-dict arithmetic


def _raw_add_into(acc: RawPoly, other: RawPoly, scale=1) -> None:
    for e, c in other.items():
        v = acc.get(e, 0) + c * scale
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


def _raw_scale(a: RawPoly, scale) -> RawPoly:
    if scale == 0:
        return {}
    return {e: c * scale for e, c in a.items()}


class _Combination:
    """Exact combination of keys in one space, ``terms`` key -> nonzero
    coefficient, on the term-dict kernels above; Chow elements,
    correspondences and polynomials share it.  A scalar that is not one
    of the class's ``_scalars`` (``int`` here, so cycles keep integral
    coefficients) gives NotImplemented, so Python raises TypeError.  A
    subclass supplies ``_space()``, compared by identity, its
    ``_mismatch`` message, ``_with(terms)`` that takes a fresh zero-free
    dict as it is, and, for the default ``repr``, a key's ``_sort_key``
    and ``_label``.
    """

    __slots__ = ("terms",)
    _scalars = int

    def _check(self, other: "_Combination") -> None:
        if self._space() != other._space():
            raise ValueError(self._mismatch)

    def __add__(self, other, sign=1):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        _raw_add_into(acc, other.terms, sign)
        return self._with(acc)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._with(_raw_scale(self.terms, -1))

    def __mul__(self, scalar):
        if not isinstance(scalar, self._scalars):
            return NotImplemented
        return self._with(_raw_scale(self.terms, scalar))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._space() == other._space()
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[object, int]]:
        key = self._sort_key
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))

    def __repr__(self) -> str:
        parts = []
        for key, v in self.sorted_terms():
            label = self._label(key)
            body = label if abs(v) == 1 else f"{abs(v)}*{label}"
            parts.append(("+ " if v > 0 else "- ") + body if parts
                         else (body if v > 0 else f"-{body}"))
        return " ".join(parts) or "0"


class _Calculus:
    """Per-root-system packed layout and the substitution and difference
    tables, all keyed by packed monomials."""

    def __init__(self, system: RootSystem):
        n = system.rank
        width = max((2 * len(system.positive_roots)).bit_length(),
                    sys.int_info.bits_per_digit // (n + 1))
        self.rank = n
        self.shifts = tuple(t * width for t in range(n))
        # all ones in one field: also the largest total degree a monomial may have
        self.mask = (1 << width) - 1
        self.degree_shift = n * width
        # keys at or above limit have a total degree that does not fit
        self.limit = (self.mask + 1) << self.degree_shift
        # w_{t+1} itself: exponent 1 in field t and total degree 1
        self.units = tuple((1 << s) | (1 << self.degree_shift) for s in self.shifts)
        # L_i = w_i - alpha_i as a raw linear form, per node (0-based list).
        self.lin: list[RawPoly] = []
        for i in range(1, n + 1):
            alpha = system.simple_root_weight(i)
            form: RawPoly = {}
            for k in range(n):
                c = (1 if k == i - 1 else 0) - alpha[k]
                if c:
                    form[self.units[k]] = c
            self.lin.append(form)
        # each positive root as a raw linear form, in system.positive_roots order
        self.root_forms: tuple[RawPoly, ...] = tuple(
            {self.units[k]: c for k, c in enumerate(weight) if c}
            for weight in system.root_weights[:len(system.positive_roots)])
        self._diff_pows: list[list[RawPoly]] = [[{}] for _ in range(n)]

    def pack(self, exponents) -> int:
        """The key of w1^e1 ... wn^en; ValueError unless it fits."""
        exponents = tuple(exponents)
        if len(exponents) != self.rank or any(
                not isinstance(x, int) or x < 0 for x in exponents):
            raise ValueError(f"bad exponent vector {exponents} for rank {self.rank}")
        total = sum(exponents)
        if total > self.mask:
            raise ValueError(f"monomial degree {total} exceeds {self.mask}, "
                             "the largest the packed layout of this root system holds")
        return sum(x << s for x, s in zip(exponents, self.shifts)) | (
            total << self.degree_shift)

    def unpack(self, key: int) -> tuple[int, ...]:
        mask = self.mask
        return tuple((key >> s) & mask for s in self.shifts)

    def mul(self, a: RawPoly, b: RawPoly) -> RawPoly:
        """The product of two term dicts; ValueError if its degree does not fit."""
        if not a or not b:
            return {}
        # The largest key carries the largest degree, and the top-degree
        # parts of a and b never cancel in their product.
        if max(a) + max(b) >= self.limit:
            raise ValueError(
                f"product degree {(max(a) + max(b)) >> self.degree_shift} exceeds "
                f"{self.mask}, the largest the packed layout of this root "
                "system holds")
        if len(a) > len(b):
            a, b = b, a
        out: RawPoly = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    def diff_pow(self, i0: int, e: int) -> RawPoly:
        """delta_i(w_i^e), cached.  delta_i(w_i^k) is the sum over
        a + b = k - 1 of w_i^a L_i^b, so
        delta_i(w_i^k) = w_i^(k-1) + L_i delta_i(w_i^(k-1))."""
        pows = self._diff_pows[i0]
        while len(pows) <= e:
            k = len(pows)  # building delta_i(w_i^k)
            acc = self.mul(self.lin[i0], pows[-1])
            top = (k - 1) * self.units[i0]  # the key of w_i^(k-1)
            acc[top] = acc.get(top, 0) + 1
            pows.append({e: c for e, c in acc.items() if c})
        return pows[e]


_CALCULUS: "WeakKeyDictionary[RootSystem, _Calculus]" = WeakKeyDictionary()


def _calculus(system: RootSystem) -> _Calculus:
    calc = _CALCULUS.get(system)
    if calc is None:
        calc = _Calculus(system)
        _CALCULUS[system] = calc
    return calc


def _raw_delta(system: RootSystem, i: int, a: RawPoly) -> RawPoly:
    """Divided difference (u - s_i(u)) / alpha_i via the telescoped table."""
    calc = _calculus(system)
    i0 = i - 1
    shift, mask, unit = calc.shifts[i0], calc.mask, calc.units[i0]
    # diff_pow extends this list in place; it is called only past its end
    pows = calc._diff_pows[i0]
    out: RawPoly = {}
    get = out.get
    for e, c in a.items():
        k = (e >> shift) & mask
        if not k:
            continue
        if k >= len(pows):
            calc.diff_pow(i0, k)
        rest = e - k * unit
        for ed, cd in pows[k].items():
            key = rest + ed
            out[key] = get(key, 0) + c * cd
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# public wrapper


class RationalPolynomial(_Combination):
    """Polynomial in w1..wn tied to a root system; immutable by contract.

    The constructor takes ``terms`` as exponent tuple -> coefficient; the
    attribute ``terms`` holds them packed.  Sums, differences, rational
    multiples and equality are those of :class:`_Combination`; ``*`` of
    two polynomials is their product.
    """

    __slots__ = ("system",)
    _mismatch = "polynomials belong to different root systems"
    _scalars = (int, Fraction)

    def __init__(self, system: RootSystem, terms: dict | None = None):
        pack = _calculus(system).pack
        self.system = system
        self.terms: RawPoly = {pack(e): c for e, c in (terms or {}).items() if c}

    @classmethod
    def _from_raw(cls, system: RootSystem, raw: RawPoly) -> "RationalPolynomial":
        """Wrap a packed term dict of ``system`` without copying it."""
        u = cls.__new__(cls)
        u.system = system
        u.terms = raw
        return u

    def _space(self) -> RootSystem:
        return self.system

    def _with(self, terms: RawPoly) -> "RationalPolynomial":
        return RationalPolynomial._from_raw(self.system, terms)

    def degree(self) -> int:
        return max(self.terms, default=0) >> _calculus(self.system).degree_shift

    def is_homogeneous(self) -> bool:
        shift = _calculus(self.system).degree_shift
        return len({e >> shift for e in self.terms}) <= 1

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            self._check(other)
            return self._with(_calculus(self.system).mul(self.terms, other.terms))
        return super().__mul__(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"RationalPolynomial({format_polynomial(self)!r})"


# ---------------------------------------------------------------------------
# plain-text serialization: "11/6*w1^2*w4^2 + 3/4*w1^2*w2^2 - ..."


def _term_sort_key(e: tuple) -> tuple:
    return (-sum(e), tuple(-x for x in e))


def format_polynomial(u: RationalPolynomial) -> str:
    if not u.terms:
        return "0"
    unpack = _calculus(u.system).unpack
    terms = {unpack(e): c for e, c in u.terms.items()}
    pieces: list[str] = []
    for e in sorted(terms, key=_term_sort_key):
        c = Fraction(terms[e])
        mono = "*".join(
            f"w{k + 1}" + (f"^{e[k]}" if e[k] > 1 else "")
            for k in range(len(e)) if e[k])
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


def parse_polynomial(system: RootSystem, text: str) -> RationalPolynomial:
    """Inverse of :func:`format_polynomial`; whitespace is ignored."""
    compact = "".join(text.split())
    if not compact or compact == "0":
        return RationalPolynomial._from_raw(system, {})
    # split into signed terms
    pack = _calculus(system).pack
    terms: RawPoly = {}
    chunks: list[str] = []
    start = 0
    for k, ch in enumerate(compact):
        if ch in "+-" and k > start and compact[k - 1] not in "+-/^*":
            chunks.append(compact[start:k])
            start = k
    chunks.append(compact[start:])
    n = system.rank
    for chunk in chunks:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        coeff = Fraction(sign)
        expo = [0] * n
        for factor in chunk.split("*"):
            if not factor:
                continue
            if factor[0] == "w":
                var, _, power = factor.partition("^")
                idx = int(var[1:])
                if not 1 <= idx <= n:
                    raise ValueError(f"variable w{idx} out of range for rank {n}")
                expo[idx - 1] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        _raw_add_into(terms, {pack(expo): int(coeff) if coeff.denominator == 1 else coeff})
    return RationalPolynomial._from_raw(system, terms)
