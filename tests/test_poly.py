from fractions import Fraction
from math import comb

import pytest

from chowring import poly, weyl
from chowring.poly import RationalPolynomial as RP
from chowring.rootsystem import root_system
import dynkin
import poly_oracle


def _power(rs, i, e):
    """w_i^e, built from its exponent vector."""
    return RP(rs, {tuple(e if k == i else 0 for k in range(1, rs.rank + 1)): 1})


def test_a1_root_product():
    rs = root_system("A1")
    assert poly_oracle.positive_root_product(rs) == poly.parse_polynomial(rs, "2*w1")


def test_f4_root_product_degree(f4):
    d = poly_oracle.positive_root_product(f4)
    assert d.degree() == 24
    assert d.is_homogeneous()


def test_root_product_antisymmetric(f4):
    d = poly_oracle.positive_root_product(f4)
    for i in range(1, 5):
        assert poly_oracle.weyl_act(weyl.word_to_element(f4, (i,)), d) == -1 * d


def test_divided_difference_of_own_variable(f4):
    for i in range(1, 5):
        assert poly_oracle.divided_difference(i, _power(f4, i, 1)) == _power(f4, i, 0)


def test_divided_difference_kills_constants_and_other_variables(f4):
    c = poly.parse_polynomial(f4, "7/3")
    for i in range(1, 5):
        assert poly_oracle.divided_difference(i, c).is_zero()
        for j in range(1, 5):
            if j != i:
                assert poly_oracle.divided_difference(i, _power(f4, j, 1)).is_zero()


def test_divided_difference_kills_symmetric_input(f4):
    # w2 + anything fixed by s_1: pick u = w2*w3 + 5*w4^2
    u = poly.parse_polynomial(f4, "w2*w3 + 5*w4^2")
    assert poly_oracle.divided_difference(1, u).is_zero()


def test_empty_word_is_identity(f4):
    u = poly.parse_polynomial(f4, "w1*w2")
    assert poly_oracle.divided_difference_word((), u) == u


def test_weyl_act_identity_and_generators(f4):
    u = poly.parse_polynomial(f4, "w1^2 + 3*w3")
    assert poly_oracle.weyl_act(weyl.identity(f4), u) == u
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                v = _power(f4, j, 1)
                assert poly_oracle.weyl_act(weyl.word_to_element(f4, (i,)), v) == v


def test_unit_lift_collapse(f4):
    """The full divided-difference chain takes d/|W| to 1."""
    d = poly_oracle.positive_root_product(f4)
    w0 = weyl.longest_element(f4)
    res = poly_oracle.divided_difference_word(weyl.reduced_word(w0),
                                       d * Fraction(1, 1152))
    assert res == poly.parse_polynomial(f4, "1")


def test_degree_drop_is_one(f4):
    u = poly.parse_polynomial(f4, "w1^2*w2")
    v = poly_oracle.divided_difference(2, u)
    assert v.degree() == u.degree() - 1


def test_serialization_examples(f4):
    u = RP(f4, {(2, 0, 0, 2): Fraction(11, 6), (0, 1, 0, 0): -2})
    text = poly.format_polynomial(u)
    assert text == "11/6*w1^2*w4^2 - 2*w2"
    assert poly.parse_polynomial(f4, text) == u


def test_parse_rejects_out_of_range_variable(f4):
    with pytest.raises(ValueError):
        poly.parse_polynomial(f4, "w5")


def test_zero_polynomial(f4):
    assert poly.format_polynomial(RP(f4)) == "0"
    assert poly.parse_polynomial(f4, "0").is_zero()


# -- packed monomials: the largest degree a field holds, and overflow


# E6: 2N = 72 needs 7-bit fields, and six of them plus the degree no
# longer fit one 30-bit digit of an int.
PACKED_SYSTEMS = ["A1", "G2", "F4", "E6"]


def _top(rs) -> int:
    """The largest total degree, and so exponent, a monomial may have."""
    return poly._calculus(rs).mask


@pytest.mark.parametrize("name", PACKED_SYSTEMS)
def test_largest_exponent_round_trips(name):
    rs = dynkin.system(name)
    top = _top(rs)
    assert top >= 2 * len(rs.positive_roots)
    for i in range(1, rs.rank + 1):
        text = f"w{i}^{top}"
        u = poly.parse_polynomial(rs, text)
        assert poly.format_polynomial(u) == text
        assert u == _power(rs, i, top)
        assert u.degree() == top
    if rs.rank > 1:
        text = f"-3/2*w1^{top - 1}*w{rs.rank}"
        assert poly.format_polynomial(poly.parse_polynomial(rs, text)) == text


@pytest.mark.parametrize("name", PACKED_SYSTEMS)
def test_product_reaching_the_top_degree_does_not_wrap(name):
    rs = dynkin.system(name)
    top = _top(rs)
    assert poly.format_polynomial(_power(rs, 1, top - 1) * _power(rs, 1, 1)) == f"w1^{top}"
    if rs.rank > 1:
        u = _power(rs, 1, top // 2) * _power(rs, rs.rank, top - top // 2)
        assert poly.format_polynomial(u) == f"w1^{top // 2}*w{rs.rank}^{top - top // 2}"


def test_top_degree_reflection_fills_the_next_field(f4):
    """s_1 sends w1 to -w1 + w2, so s_1(w1^top) puts w2^top in the field
    next to w1's; s_1 twice is the identity and delta_1 drops the degree."""
    top = _top(f4)
    s1 = weyl.word_to_element(f4, (1,))
    v = _power(f4, 1, top)
    image = poly_oracle.weyl_act(s1, v)
    # (w2 - w1)^top by the binomial theorem
    assert image == RP(f4, {(top - k, k, 0, 0): comb(top, k) * (-1) ** (top - k)
                            for k in range(top + 1)})
    assert poly_oracle.weyl_act(s1, image) == v
    assert poly_oracle.divided_difference(1, v).degree() == top - 1


@pytest.mark.parametrize("name", PACKED_SYSTEMS)
def test_overflowing_monomials_raise(name):
    rs = dynkin.system(name)
    top = _top(rs)
    w1, wn, one = _power(rs, 1, 1), _power(rs, rs.rank, 1), _power(rs, 1, 0)
    with pytest.raises(ValueError):
        _power(rs, 1, top) * wn
    with pytest.raises(ValueError):
        (_power(rs, 1, top) + one) * (wn + one)
    with pytest.raises(ValueError):
        poly.parse_polynomial(rs, f"w1^{top + 1}")
    with pytest.raises(ValueError):
        poly.parse_polynomial(rs, f"w1^{top}*w{rs.rank}")
    with pytest.raises(ValueError):
        RP(rs, {(top,) + (0,) * (rs.rank - 1): 1}) * w1
    with pytest.raises(ValueError):
        RP(rs, {(top + 1,) + (0,) * (rs.rank - 1): 1})


def test_negative_exponent_is_rejected(f4):
    with pytest.raises(ValueError):
        poly.parse_polynomial(f4, "w1^-1")
    with pytest.raises(ValueError):
        RP(f4, {(1, -1, 0, 0): 1})
