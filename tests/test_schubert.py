import itertools
import random
from fractions import Fraction

import pytest

from chowring import f4pipeline as pipe
from chowring import weyl
from chowring.poly import parse_polynomial
from chowring.rootsystem import BUILTIN_CARTAN, root_system
from chowring.schubert import ChowElement, ChowRing, get_chow_ring
import poly_oracle
import weyl_oracle


def _by_label(ring, text):
    return ring.element(ring.class_by_label(text))


def _degree(ring, x):
    """The coefficient of the point class."""
    return x.terms.get(ring.point_class, 0)


def test_basis_extremes(x1):
    assert len(x1.basis(0)) == 1
    assert len(x1.basis(15)) == 1
    assert x1.unit_class.rep == x1.w0
    assert x1.point_class.rep == x1.w_theta
    with pytest.raises(ValueError):
        x1.basis(16)


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_ring_endpoints_are_the_longest_elements(name):
    """w0 and w_theta, read off the ends of the orbit of rho_P, are the
    greedy longest elements of W and W_theta on every theta."""
    system = root_system(name)
    w0 = weyl.longest_element(system)
    for size in range(system.rank + 1):
        for theta in itertools.combinations(range(1, system.rank + 1), size):
            ring = get_chow_ring(system, theta)
            w_theta = weyl.longest_element(system, theta)
            assert (ring.w0, ring.w0.length) == (w0, w0.length)
            assert (ring.w_theta, ring.w_theta.length) == (w_theta, w_theta.length)
            assert ring.dim == w0.length - w_theta.length
    w_theta = get_chow_ring(system, ()).w_theta
    assert (w_theta, w_theta.length) == (weyl.identity(system), 0)


def test_get_chow_ring_normalizes_theta():
    """theta in any order, as a tuple or a list, names one shared ring,
    so the units of two spellings multiply."""
    b3 = root_system("B3")
    ring = get_chow_ring(b3, (1, 2))
    assert get_chow_ring(b3, (2, 1)) is ring
    assert get_chow_ring(b3, [2, 1]) is ring
    assert get_chow_ring(b3, (2, 1)).unit * ring.unit == ring.unit


def test_ranks_per_codim(x1, x4):
    expected = (1, 1, 1, 1) + (2,) * 8 + (1, 1, 1, 1)
    assert x1.ranks() == expected
    assert x4.ranks() == expected
    assert len(x1.classes) == 24 == len(x4.classes)


def test_unit_and_point_duality(x1):
    unit = x1.unit
    point = x1.element(x1.point_class)
    assert x1.pair_degree(x1.unit_class, x1.point_class) == 1
    assert _degree(x1, x1.multiply(unit, point)) == 1


def test_duality_pairing_is_permutation_matrix(x1, x4):
    """The point coefficients of the localization products in
    complementary codimensions form a permutation matrix."""
    for ring in (x1, x4):
        for s in range(ring.dim + 1):
            rows = ring.basis(s)
            cols = ring.basis(ring.dim - s)
            matrix = [[_degree(ring, ring.multiply(ring.element(a), ring.element(b)))
                       for b in cols] for a in rows]
            assert all(sorted(row) == [0] * (len(cols) - 1) + [1]
                       for row in matrix)
            assert all(sorted(col) == [0] * (len(rows) - 1) + [1]
                       for col in zip(*matrix))


def test_duality_delta_in_labels():
    """h_i^s h_j^(15-s) = delta_ij h1^15 and the same for g."""
    for variety, ring in zip(pipe.VARIETIES, pipe.get_f4_varieties()):
        letter = variety.letter
        point = ring.element(ring.class_by_label(f"{letter}1^15"))
        for s in range(16):
            for i in (1, 2):
                for j in (1, 2):
                    try:
                        a = _by_label(ring, f"{letter}{i}^{s}")
                        b = _by_label(ring, f"{letter}{j}^{15 - s}")
                    except ValueError:
                        continue
                    want = point if i == j else ring.zero()
                    assert ring.multiply(a, b) == want


def test_duality_rejects_non_complementary(x1, x4):
    with pytest.raises(ValueError):
        x4.dual_class(x1.point_class)


def test_ring_rejects_classes_of_another_ring(x1, x4):
    """A class belongs to the ring that built it: X4's unit class indexes
    w0 like X1's, and a second build of X1 has classes at the same
    positions, yet X1 refuses both."""
    copy = ChowRing(x1.system, x1.theta)
    assert x4.unit_class.rep == x1.unit_class.rep
    for foreign in (x4.unit_class, copy.unit_class, copy.classes[5]):
        with pytest.raises(ValueError):
            x1.class_position(foreign)
        with pytest.raises(ValueError):
            x1.pair_product(foreign, x1.unit_class)
        with pytest.raises(ValueError):
            x1.pair_product(x1.unit_class, foreign)
        with pytest.raises(ValueError):
            x1.dual_class(foreign)
    for other in (x4, copy):
        with pytest.raises(ValueError, match="different ring"):
            x1.multiply(other.unit, other.element(other.point_class))
    assert x4.unit_class != x1.unit_class
    assert [x1.class_position(c) for c in x1.classes] == list(range(24))


def test_pair_degree_matches_giambelli_degree(x1, x4, a2_flag, b2_flag):
    """The duality table and the Giambelli engine agree on every degree."""
    g2_flag = get_chow_ring(root_system("G2"), ())
    for ring in (x1, x4, a2_flag, b2_flag, g2_flag):
        for a in ring.classes:
            for b in ring.basis(ring.dim - a.codim):
                assert ring.pair_degree(a, b) == _degree(ring, ring.giambelli_product(a, b))


def test_chevalley_of_unit_is_hyperplane(x1, x4):
    assert x1.chevalley_product(1, x1.unit_class) == _by_label(x1, "h1^1")
    assert x4.chevalley_product(4, x4.unit_class) == _by_label(x4, "g1^1")


def test_chevalley_rejects_theta_nodes(x1):
    with pytest.raises(ValueError, match="lies in theta"):
        x1.chevalley_product(2, x1.unit_class)
    # node 0 would read the last coroot coordinate, node 5 past the end
    for node in (0, 5):
        with pytest.raises(ValueError, match="out of range"):
            x1.chevalley_product(node, x1.unit_class)
    with pytest.raises(ValueError):
        x1.hyperplane_class(3)


def test_chevalley_rows_walk_no_reduced_word(monkeypatch):
    """Chevalley's rule reads the sigma-points: every row of a fresh F4/P1
    ring comes out with ``reduced_word`` refused, equal to the rows of a
    ring built before."""
    system = root_system("F4")

    def rows(ring):
        return [ring.chevalley_product(1, cls).terms for cls in ring.classes]

    want = rows(ChowRing(system, (2, 3, 4)))

    def refuse(w):
        raise AssertionError("a reduced word was walked")

    monkeypatch.setattr(weyl, "reduced_word", refuse)
    ring = ChowRing(system, (2, 3, 4))
    got = rows(ring)
    assert [{c.position: v for c, v in row.items()} for row in got] == \
        [{c.position: v for c, v in row.items()} for row in want]


def test_hyperplane_classes_and_nodes(x1, x4):
    for ring in (x1, x4, get_chow_ring(root_system("B3"), ())):
        for node in range(1, ring.system.rank + 1):
            if node in ring.theta:
                continue
            h = ring.hyperplane_class(node)
            assert h.codim == 1 and h.rep == weyl_oracle.mult_simple_right(ring.w0, node)
            assert ring.codim1_node(h) == node
    with pytest.raises(ValueError, match="lies in theta"):
        x1.hyperplane_class(2)
    for cls in (x1.unit_class, x1.class_by_label("h1^2"), x4.hyperplane_class(4)):
        with pytest.raises(ValueError, match="not a codimension-1 Schubert class"):
            x1.codim1_node(cls)


def test_published_product_examples(x1, x4):
    assert (x1.chevalley_product(1, x1.class_by_label("h1^3"))
            == _by_label(x1, "h1^4") + 2 * _by_label(x1, "h2^4"))
    assert x4.chevalley_product(4, x4.class_by_label("g2^8")) == _by_label(x4, "g2^9")
    # bilinear duality combination
    got = x1.multiply(_by_label(x1, "h1^4"),
                      _by_label(x1, "h1^11") + _by_label(x1, "h2^11"))
    assert got == _by_label(x1, "h1^15")
    assert _degree(x1, x1.multiply(_by_label(x1, "h1^8"),
                                   _by_label(x1, "h1^7") + _by_label(x1, "h2^7"))) == 1


def test_giambelli_squares(x1, x4):
    h14 = x1.class_by_label("h1^4")
    assert (x1.giambelli_product(h14, h14)
            == 8 * _by_label(x1, "h1^8") + 6 * _by_label(x1, "h2^8"))
    g14 = x4.class_by_label("g1^4")
    assert (x4.giambelli_product(g14, g14)
            == 4 * _by_label(x4, "g1^8") + 3 * _by_label(x4, "g2^8"))


def test_unit_lift_is_one_and_point_lift_is_chain_start(f4):
    gb = get_chow_ring(f4, ())
    unit_lift = gb.giambelli_lift(gb.unit_class)
    assert unit_lift == parse_polynomial(f4, "1")
    point_lift = gb.giambelli_lift(gb.point_class)
    assert point_lift == poly_oracle.positive_root_product(f4) * Fraction(1, 1152)
    assert point_lift.degree() == 24


def test_lift_roundtrip_all_classes(x1, x4):
    for ring in (x1, x4):
        for cls in ring.classes:
            assert ring.c_map(ring.giambelli_lift(cls)) == ring.element(cls)


def test_lift_degree_matches_codim_random(f4):
    gb = get_chow_ring(f4, ())
    rng = random.Random(20240810)
    chosen = rng.sample(range(gb.group.order), 50)
    for idx in chosen:
        w = gb.group.elements[idx]
        cls = gb.class_of(w)
        lift = gb.giambelli_lift(cls)
        if cls.codim == 0:
            assert lift == parse_polynomial(f4, "1")
        else:
            assert lift.degree() == cls.codim
            assert lift.is_homogeneous()


def test_c_map_of_one_is_unit(x1):
    assert x1.c_map(parse_polynomial(x1.system, "1")) == x1.unit


def test_c_map_rejects_off_lattice(f4):
    gb = get_chow_ring(f4, ())
    u = parse_polynomial(f4, "1/2*w1")
    with pytest.raises(ValueError):
        gb.c_map(u)


def test_multiply_truncates_above_dimension(x1):
    h18 = _by_label(x1, "h1^8")
    assert x1.multiply(h18, x1.multiply(h18, h18)).is_zero()


def test_giambelli_product_above_dimension_skips_the_flag_ring(x1, monkeypatch):
    """Codimensions summing past the dimension give zero by the Giambelli
    route without a product in the full flag ring; one summing to the
    dimension still reaches it."""
    def refuse(a, b):
        raise AssertionError("product in the full flag ring")

    monkeypatch.setattr(x1.engine, "product_classes", refuse)
    h18 = x1.class_by_label("h1^8")
    assert x1.giambelli_product(h18, h18) == x1.zero()
    with pytest.raises(AssertionError, match="full flag ring"):
        x1.giambelli_product(h18, x1.class_by_label("h1^7"))


def test_chevalley_agrees_with_giambelli_everywhere():
    for variety, ring in zip(pipe.VARIETIES, pipe.get_f4_varieties()):
        h = ring.hyperplane_class(variety.node)
        for cls in ring.classes:
            assert ring.giambelli_product(h, cls) == ring.chevalley_product(variety.node, cls)


def test_ring_axioms_on_random_f4_triples(x1):
    rng = random.Random(99)
    classes = x1.classes

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(classes)] = rng.randint(-3, 3)
        return ChowElement(x1, terms)

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert x1.multiply(a, b) == x1.multiply(b, a)
        assert x1.multiply(x1.multiply(a, b), c) == x1.multiply(a, x1.multiply(b, c))
        assert x1.multiply(a, b + c) == x1.multiply(a, b) + x1.multiply(a, c)


def test_full_flag_ring_axioms_exhaustive(a2_flag, b2_flag):
    for ring in (a2_flag, b2_flag):
        elems = [ring.element(c) for c in ring.classes]
        for a in elems:
            for b in elems:
                assert ring.multiply(a, b) == ring.multiply(b, a)
                for c in elems:
                    assert (ring.multiply(ring.multiply(a, b), c)
                            == ring.multiply(a, ring.multiply(b, c)))


def test_c_map_subring_error(x1):
    """A lift of a class outside the parabolic basis is rejected."""
    from chowring.schubert import SubringError
    gb = get_chow_ring(x1.system, ())
    outside = next(w for w in gb.group.elements
                   if w.length == 20 and w not in {c.rep for c in x1.classes})
    lift = gb.giambelli_lift(gb.class_of(outside))
    assert gb.c_map(lift) == gb.element(gb.class_of(outside))
    with pytest.raises(SubringError):
        x1.c_map(lift)


def test_lift_word_invariance_for_codim4_reps():
    """The canonical lift agrees with the chain built from a different
    reduced word of the same element (here for the degree-4 generators)."""
    from fractions import Fraction as F
    for variety, ring in zip(pipe.VARIETIES, pipe.get_f4_varieties()):
        cls = ring.class_by_label(variety.squared)
        inv = weyl_oracle.inverse(cls.rep)
        # alternative reduced word: strip the largest right descent first
        other = []
        cur = inv
        while cur.length:
            i = weyl.right_descents(cur)[-1]
            other.append(i)
            cur = weyl_oracle.mult_simple_right(cur, i)
        other.reverse()
        assert tuple(other) != weyl.reduced_word(inv)
        d = poly_oracle.positive_root_product(ring.system) * F(1, 1152)
        assert (poly_oracle.divided_difference_word(tuple(other), d)
                == ring.giambelli_lift(cls))
