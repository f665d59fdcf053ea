"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 9 draws all of its randomized cases from a fixed seed and
reports the exact tally (at least 1000 cases overall).
"""

import random
from fractions import Fraction

from chowring import correspondence as corr
from chowring import f4pipeline as pipe
from chowring import poly, weyl
from chowring.correspondence import Correspondence
from chowring.poly import RationalPolynomial as RP
from chowring.rootsystem import root_system
from chowring.schubert import ChowElement, get_chow_ring
import poly_oracle
import weyl_oracle

SEED = 20240809


def _report(n, text):
    print(f"ACCEPTANCE criterion {n}: PASS - {text}")


def test_criterion_01_structure(f4, f4_group, x1, x4):
    assert len(f4.positive_roots) == 24
    assert f4_group.order == len(f4_group.elements) == 1152
    assert f4_group.longest.length == 24
    assert len(f4_group.minimal_coset_reps((2, 3, 4))) == 24
    assert len(f4_group.minimal_coset_reps((1, 2, 3))) == 24
    assert x1.dim == 15 and x4.dim == 15
    expected = (1, 1, 1, 1) + (2,) * 8 + (1, 1, 1, 1)
    assert x1.ranks() == expected and x4.ranks() == expected
    _report(1, "24 positive roots, |W|=1152, l(w0)=24, 24 coset reps per "
               "theta, dim 15, ranks 1,1,1,1,2,...,2,1,1,1,1")


def test_criterion_02_pieri_tables():
    checked = 0
    for variety, ring in zip(pipe.VARIETIES, pipe.get_f4_varieties()):
        h = ring.hyperplane_class(variety.node)
        for _, rhs, product in pipe.load_table(variety.stem):
            x = ring.class_by_label(rhs)
            want = ChowElement(ring, {ring.class_by_label(c): v
                                      for c, v in product})
            assert ring.chevalley_product(variety.node, x) == want
            assert ring.giambelli_product(h, x) == want
            checked += 1
    assert checked == 44
    _report(2, "all 44 hyperplane products reproduce exactly via both the "
               "Chevalley and the Giambelli route")


def test_criterion_03_giambelli_squares(x1, x4):
    h14 = x1.class_by_label("h1^4")
    want1 = ChowElement(x1, {x1.class_by_label("h1^8"): 8,
                             x1.class_by_label("h2^8"): 6})
    assert x1.giambelli_product(h14, h14) == want1
    g14 = x4.class_by_label("g1^4")
    want4 = ChowElement(x4, {x4.class_by_label("g1^8"): 4,
                             x4.class_by_label("g2^8"): 3})
    assert x4.giambelli_product(g14, g14) == want4
    _report(3, "h1^4*h1^4 = 8h1^8+6h2^8 and g1^4*g1^4 = 4g1^8+3g2^8, exact")


def test_criterion_04_preimage_polynomials(f4, x1, x4):
    u = poly.parse_polynomial(f4, pipe._data_text("h14_preimage.txt"))
    assert x1.c_map(u) == x1.element(x1.class_by_label("h1^4"))
    v = poly.parse_polynomial(f4, pipe._data_text("g14_preimage.txt"))
    assert x4.c_map(v) == x4.element(x4.class_by_label("g1^4"))
    _report(4, "c of each transcribed preimage polynomial returns h1^4 "
               "resp. g1^4, exact")


def test_criterion_05_congruences():
    c = pipe.construction()
    for eps in (1, -1):
        r2, fixtures = pipe.fixture_congruences(eps)
        assert corr.mod_reduce(pipe.r_power(c, eps), 3) == r2
        rhos = pipe.rhos(c, eps)
        assert len(rhos) == len(fixtures) == 8
        for i in range(8):
            assert corr.mod_reduce(rhos[i], 3) == fixtures[i]
    _report(5, "r^2 and all eight rho_i match the displayed congruences "
               "mod 3 (balanced representatives), both eps values")


def test_criterion_06_idempotent_suite():
    for eps in (1, -1):
        pipe.compute_idempotents.cache_clear()
        pipe.compute_idempotents(eps)   # raises when a congruence fails
    for family, ring in zip(pipe.fixture_idempotents(), pipe.get_f4_varieties()):
        cycles = list(family) + [corr.transpose(c) for c in family]
        for a in range(8):
            assert corr.is_idempotent(cycles[a], 0)
            for b in range(8):
                if a != b:
                    assert corr.compose(cycles[a], cycles[b]).is_zero()
        total = None
        for c in family:
            piece = c + corr.transpose(c)
            total = piece if total is None else total + piece
        assert total == corr.diagonal(ring)
    _report(6, "compositions are congruent mod 3 to the displayed cycles; "
               "the eight displayed cycles are idempotent, orthogonal and "
               "complete over the integers")


def test_criterion_07_twist_structure(x1):
    p, q = pipe.fixture_idempotents()
    for family in (p, q):
        for i in range(4):
            assert pipe._support_ranks(family[i]) == {i: 1, i + 4: 1, i + 8: 1}
            assert pipe._support_ranks(corr.transpose(family[i])) == \
                {7 - i: 1, 11 - i: 1, 15 - i: 1}
    ok, _, witness = pipe.check_end_basis()
    assert ok, witness
    _report(7, "realization ranks are 1 exactly in codims {i, i+4, i+8}; "
               "End(X1, p'_0) has rank 3 with the displayed basis")


def test_criterion_08_isomorphism(x1, x4):
    for eps in (1, -1):
        J = pipe.build_J(eps)
        assert len(J.terms) == 24
        for (f, g), v in J.terms.items():
            fi, fs = pipe._parse_label(x1.label_of(f))
            gi, gs = pipe._parse_label(x4.label_of(g))
            assert abs(v) == 1 and fi == gi and fs + gs == 15
        Jt = corr.transpose(J)
        assert corr.congruent(corr.compose(Jt, J), corr.diagonal(x1), 3)
        assert corr.congruent(corr.compose(J, Jt), corr.diagonal(x4), 3)
    _report(8, "J is a signed diagonal (24 terms, coefficients +-1) and "
               "J^t o J, J o J^t are the diagonals mod 3, both eps values")


def _random_poly(rng, rs, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_degree) for _ in range(rs.rank))
        c = rng.randint(-5, 5)
        if c:
            terms[e] = terms.get(e, 0) + Fraction(c, rng.choice((1, 1, 2, 3)))
    return RP(rs, terms)


def test_criterion_09_property_suites(x1, x4, a2_flag, b2_flag):
    rng = random.Random(SEED)
    systems = [root_system("A2"), root_system("B2"), root_system("F4")]
    cases = 0

    # divided-difference nil relation: delta_i o delta_i = 0
    for _ in range(300):
        rs = rng.choice(systems)
        u = _random_poly(rng, rs)
        i = rng.randint(1, rs.rank)
        assert poly_oracle.divided_difference_word((i, i), u).is_zero()
        cases += 1

    # reduced-word invariance of delta_w (covers the braid relations)
    f4 = root_system("F4")
    for w in get_chow_ring(f4, ()).group.elements:
        if not 0 < w.length <= 6:
            continue
        u = _random_poly(rng, f4)
        canonical = weyl.reduced_word(w)
        other = []
        cur = w
        while cur.length:
            i = weyl.right_descents(cur)[-1]
            other.append(i)
            cur = weyl_oracle.mult_simple_right(cur, i)
        other.reverse()
        assert (poly_oracle.divided_difference_word(canonical, u)
                == poly_oracle.divided_difference_word(tuple(other), u))
        cases += 1

    # twisted Leibniz rule
    for _ in range(300):
        rs = rng.choice(systems)
        u, v = _random_poly(rng, rs), _random_poly(rng, rs)
        i = rng.randint(1, rs.rank)
        lhs = poly_oracle.divided_difference(i, u * v)
        rhs = (poly_oracle.divided_difference(i, u) * v
               + poly_oracle.weyl_act(weyl.word_to_element(rs, (i,)), u)
               * poly_oracle.divided_difference(i, v))
        assert lhs == rhs
        cases += 1

    # ring axioms on random triples
    rings = [x1, x4, a2_flag, b2_flag]
    for _ in range(200):
        ring = rng.choice(rings)

        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[rng.choice(ring.classes)] = rng.randint(-3, 3)
            return ChowElement(ring, terms)

        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert ring.multiply(a, b) == ring.multiply(b, a)
        assert (ring.multiply(ring.multiply(a, b), c)
                == ring.multiply(a, ring.multiply(b, c)))
        assert ring.multiply(a, b + c) == ring.multiply(a, b) + ring.multiply(a, c)
        cases += 1

    # Poincare pairing is a permutation matrix in every degree: the point
    # coefficients of the localization products
    for ring in (x1, x4):
        for s in range(ring.dim + 1):
            rows = ring.basis(s)
            cols = ring.basis(ring.dim - s)
            matrix = [[ring.multiply(ring.element(a), ring.element(b)).terms.get(
                           ring.point_class, 0) for b in cols] for a in rows]
            assert all(sorted(r) == [0] * (len(cols) - 1) + [1] for r in matrix)
            assert all(sorted(c) == [0] * (len(rows) - 1) + [1]
                       for c in zip(*matrix))

    # Chevalley vs Giambelli on every basis class of both F4 quotients
    for variety, ring in zip(pipe.VARIETIES, pipe.get_f4_varieties()):
        h = ring.hyperplane_class(variety.node)
        for cls in ring.classes:
            assert ring.giambelli_product(h, cls) == ring.chevalley_product(variety.node, cls)

    # unit laws on the whole morphism-degree basis
    delta = corr.diagonal(x1)
    for u in x1.classes:
        for v in x1.classes:
            if u.codim + v.codim != x1.dim:
                continue
            alpha = Correspondence(x1, x1, {(u, v): 1})
            assert corr.compose(delta, alpha) == alpha
            assert corr.compose(alpha, delta) == alpha

    # composition associativity on random correspondences
    morph = [(u, v) for u in x1.classes for v in x1.classes
             if u.codim + v.codim == 15]
    cross = [(u, v) for u in x1.classes for v in x4.classes
             if u.codim + v.codim == 15]
    for _ in range(150):
        a = Correspondence(x1, x1, {rng.choice(morph): rng.randint(-2, 2)})
        b = Correspondence(x1, x4, {rng.choice(cross): rng.randint(-2, 2),
                                    rng.choice(cross): rng.randint(-2, 2)})
        c = Correspondence(x4, x1,
                           {(v, u): rng.randint(-2, 2)
                            for u, v in rng.sample(cross, 2)})
        assert (corr.compose(c, corr.compose(b, a))
                == corr.compose(corr.compose(c, b), a))
        cases += 1

    assert cases >= 1000
    _report(9, f"property suites pass with zero failures across {cases} "
               f"randomized cases at seed {SEED}")


def test_criterion_10_small_rank_oracle(a2_flag, b2_flag):
    from test_oracle_smallrank import chevalley_only_table
    for ring in (a2_flag, b2_flag):
        table = chevalley_only_table(ring)
        for (a, b), bootstrap in table.items():
            assert ring.giambelli_product(a, b) == bootstrap
    _report(10, "A2 and B2 full-flag structure constants agree between the "
                "Chevalley-only bootstrap and the Giambelli route, "
                "exhaustively")
