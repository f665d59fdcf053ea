"""The Weyl action and the public divided-difference operators on
polynomials, as an oracle for the tests.

``chowring.poly`` keeps only the raw kernel ``_raw_delta`` that the
Giambelli engine runs on.  The tests hold it to the defining identity
alpha_i * delta_i(u) == u - s_i(u), with s_i applied here by substituting
w_i -> L_i = w_i - alpha_i, and to d, the product of all positive roots,
expanded here in full.
"""

from functools import lru_cache

from chowring.poly import RationalPolynomial, _calculus, _raw_delta
from chowring.weyl import reduced_word


@lru_cache(maxsize=None)
def _lin_pow(system, i0, k):
    """L_i^k as a raw term dict, i = i0 + 1; callers must not mutate it."""
    if not k:
        return {0: 1}
    calc = _calculus(system)
    return calc.mul(_lin_pow(system, i0, k - 1), calc.lin[i0])


def _raw_reflect(system, i, a):
    """s_i(u): substitute w_i -> L_i, all other variables fixed."""
    calc = _calculus(system)
    i0 = i - 1
    shift, mask, unit = calc.shifts[i0], calc.mask, calc.units[i0]
    out = {}
    get = out.get
    for e, c in a.items():
        k = (e >> shift) & mask
        if not k:
            out[e] = get(e, 0) + c
            continue
        rest = e - k * unit
        for el, cl in _lin_pow(system, i0, k).items():
            key = rest + el
            out[key] = get(key, 0) + c * cl
    return {e: c for e, c in out.items() if c}


def _raw_root_product(system):
    """d, the product of all positive roots, as a raw term dict."""
    calc = _calculus(system)
    acc = {0: 1}
    for form in calc.root_forms:
        acc = calc.mul(acc, form)
    return acc


def weyl_act(w, u):
    """Ring automorphism induced by w acting on the weight lattice."""
    if w.system is not u.system:
        raise ValueError("element and polynomial live on different systems")
    raw = u.terms
    for i in reversed(reduced_word(w)):
        raw = _raw_reflect(u.system, i, raw)
    return RationalPolynomial._from_raw(u.system, raw)


def divided_difference(i, u):
    """delta_i(u) = (u - s_i(u)) / alpha_i, exact."""
    u.system._check_node(i)
    return RationalPolynomial._from_raw(u.system, _raw_delta(u.system, i, u.terms))


def divided_difference_word(word, u):
    """Composition delta_{a1} o ... o delta_{ak} (rightmost applied first).

    The word does not need to be reduced; a repeated letter annihilates.
    """
    raw = u.terms
    for i in reversed(tuple(word)):
        u.system._check_node(i)
        raw = _raw_delta(u.system, i, raw)
    return RationalPolynomial._from_raw(u.system, raw)


def positive_root_product(system):
    """Product of all positive roots, expanded in the weight variables."""
    return RationalPolynomial._from_raw(system, _raw_root_product(system))
