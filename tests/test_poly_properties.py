"""Property tests for the divided-difference calculus."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from chowring import poly, weyl
from chowring.poly import RationalPolynomial as RP
from chowring.rootsystem import root_system
import poly_oracle
import weyl_oracle

SYSTEMS = [root_system("A2"), root_system("B2"), root_system("F4")]


def _draw_poly(draw, rs, max_degree=4, max_terms=5):
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(0, max_degree)) for _ in range(rs.rank))
        num = draw(st.integers(-6, 6))
        den = draw(st.sampled_from([1, 1, 2, 3]))
        if num:
            terms[e] = terms.get(e, 0) + Fraction(num, den)
    return RP(rs, terms)


@st.composite
def polynomials(draw, max_degree=4, max_terms=5):
    rs = draw(st.sampled_from(SYSTEMS))
    return _draw_poly(draw, rs, max_degree, max_terms)


@st.composite
def poly_pairs(draw):
    rs = draw(st.sampled_from(SYSTEMS))
    return _draw_poly(draw, rs), _draw_poly(draw, rs)


@given(polynomials(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_nil_relation(u, data):
    i = data.draw(st.integers(1, u.system.rank))
    assert poly_oracle.divided_difference_word((i, i), u).is_zero()


@given(polynomials(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_defining_identity(u, data):
    """alpha_i * delta_i(u) == u - s_i(u); the quotient is exact."""
    rs = u.system
    i = data.draw(st.integers(1, rs.rank))
    alpha = poly.parse_polynomial(rs, "0")
    alpha_terms = {}
    for k, c in enumerate(rs.simple_root_weight(i)):
        if c:
            alpha_terms[tuple(1 if t == k else 0 for t in range(rs.rank))] = c
    alpha = RP(rs, alpha_terms)
    lhs = alpha * poly_oracle.divided_difference(i, u)
    rhs = u - poly_oracle.weyl_act(weyl.word_to_element(rs, (i,)), u)
    assert lhs == rhs


@given(poly_pairs(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_twisted_leibniz(pair, data):
    u, v = pair
    rs = u.system
    i = data.draw(st.integers(1, rs.rank))
    lhs = poly_oracle.divided_difference(i, u * v)
    rhs = (poly_oracle.divided_difference(i, u) * v
           + poly_oracle.weyl_act(weyl.word_to_element(rs, (i,)), u)
           * poly_oracle.divided_difference(i, v))
    assert lhs == rhs


@given(poly_pairs(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_weyl_act_is_ring_automorphism(pair, data):
    u, v = pair
    rs = u.system
    word = data.draw(st.lists(st.integers(1, rs.rank), max_size=6))
    w = weyl.word_to_element(rs, word)
    assert poly_oracle.weyl_act(w, u * v) == poly_oracle.weyl_act(w, u) * poly_oracle.weyl_act(w, v)


@given(polynomials())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_braid_relations(u):
    """Both sides of each braid relation act identically."""
    rs = u.system
    c = rs.cartan.entries
    for i in range(1, rs.rank + 1):
        for j in range(i + 1, rs.rank + 1):
            m = {0: 2, 1: 3, 2: 4, 3: 6}[c[i - 1][j - 1] * c[j - 1][i - 1]]
            left = ([i, j] * m)[:m]
            right = ([j, i] * m)[:m]
            assert (poly_oracle.divided_difference_word(left, u)
                    == poly_oracle.divided_difference_word(right, u))


@given(polynomials(), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reduced_word_independence(u, data):
    """delta_w does not depend on the chosen reduced word."""
    rs = u.system
    letters = data.draw(st.lists(st.integers(1, rs.rank), max_size=6))
    w = weyl.word_to_element(rs, letters)
    canonical = weyl.reduced_word(w)
    # a different reduced word: strip the largest right descent first
    other = []
    cur = w
    while cur.length:
        i = weyl.right_descents(cur)[-1]
        other.append(i)
        cur = weyl_oracle.mult_simple_right(cur, i)
    other.reverse()
    assert (poly_oracle.divided_difference_word(canonical, u)
            == poly_oracle.divided_difference_word(tuple(other), u))
