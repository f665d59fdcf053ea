import gc
import random
import weakref

import pytest

from chowring import correspondence as corr
from chowring import f4pipeline
from chowring.correspondence import Correspondence
from chowring.rootsystem import root_system
from chowring.schubert import ChowElement, ChowRing
from chowring.weyl import WeylElement


def _label(ring, text):
    return ring.class_by_label(text)


@pytest.fixture
def p0():
    return f4pipeline.fixture_idempotents()[0][0]


def test_transpose_involution_and_diagonal(x1):
    delta = corr.diagonal(x1)
    assert corr.transpose(delta) == delta
    assert len(delta.terms) == 24
    assert corr.compose(delta, delta) == delta
    assert corr.is_idempotent(delta, 0)


def test_from_pairs_sums_duplicates_and_drops_zeros(x1, x4):
    h, pt = x1.unit_class, x1.point_class
    g = x4.unit_class
    alpha = Correspondence.from_pairs(x1, x4, [(h, g, 2), (pt, g, 1), (h, g, 3),
                                               (pt, g, -1), (h, g, 0)])
    assert alpha.terms == {(h, g): 5}
    assert alpha == Correspondence(x1, x4, {(h, g): 5})
    cancelled = Correspondence.from_pairs(x1, x4, [(h, g, 1), (h, g, -1)])
    assert cancelled.terms == {}
    assert cancelled == Correspondence(x1, x4)


def test_diagonal_matches_delta_formula(x1):
    """Delta = sum over i, s of h_i^s x h_i^(15-s)."""
    delta = corr.diagonal(x1)
    for (f, g), v in delta.terms.items():
        fi, fs = f4pipeline._parse_label(x1.label_of(f))
        gi, gs = f4pipeline._parse_label(x1.label_of(g))
        assert v == 1 and fi == gi and fs + gs == 15


def test_diagonal_is_two_sided_unit_on_full_basis(x1):
    delta = corr.diagonal(x1)
    for u in x1.classes:
        for v in x1.classes:
            if u.codim + v.codim != x1.dim:
                continue
            alpha = Correspondence(x1, x1, {(u, v): 1})
            assert corr.compose(delta, alpha) == alpha
            assert corr.compose(alpha, delta) == alpha


def test_point_projector_composition(x1):
    point = Correspondence(x1, x1, {(x1.unit_class, x1.point_class): 1})
    assert corr.compose(point, point) == point


def test_compose_dies_off_degree(x1):
    one_x_h11 = Correspondence(x1, x1, {(x1.unit_class, _label(x1, "h1^11")): 1})
    h14_x_pt = Correspondence(x1, x1, {(_label(x1, "h1^4"), x1.point_class): 1})
    # inner product pairs codim 11 against codim 4 complementary: survives
    assert not corr.compose(h14_x_pt, one_x_h11).is_zero()
    # but pairing codim 11 against codim 8 dies
    h18_x_pt = Correspondence(x1, x1, {(_label(x1, "h1^8"), x1.point_class): 1})
    assert corr.compose(h18_x_pt, one_x_h11).is_zero()


def test_transpose_antiautomorphism_on_basis(x1):
    terms = [(u, v) for u in x1.classes for v in x1.classes
             if u.codim + v.codim == x1.dim]
    rng = random.Random(5)
    for _ in range(200):
        a = Correspondence(x1, x1, {rng.choice(terms): rng.randint(-2, 2)})
        b = Correspondence(x1, x1, {rng.choice(terms): rng.randint(-2, 2)})
        assert (corr.transpose(corr.compose(b, a))
                == corr.compose(corr.transpose(a), corr.transpose(b)))


def test_compose_associative_random(x1, x4):
    rng = random.Random(17)
    morph_x1 = [(u, v) for u in x1.classes for v in x1.classes
                if u.codim + v.codim == 15]
    cross = [(u, v) for u in x1.classes for v in x4.classes
             if u.codim + v.codim == 15]

    def rand(pairs, source, target, n=2):
        terms = {}
        for _ in range(n):
            terms[rng.choice(pairs)] = rng.randint(-2, 2)
        return Correspondence(source, target, terms)

    for _ in range(100):
        a = rand(morph_x1, x1, x1)
        b = rand(cross, x1, x4)
        c = rand([(v, u) for u, v in cross], x4, x1)
        left = corr.compose(c, corr.compose(b, a))
        right = corr.compose(corr.compose(c, b), a)
        assert left == right


def _r(eps):
    """r = h1^4 x 1 + eps (1 x g1^4): r^(p-1) of the F4 record taken at p = 2."""
    return f4pipeline.r_power(f4pipeline.construction()._replace(p=2), eps)


def test_intersect_unit(x1, x4):
    r = _r(1)
    unit = Correspondence(x1, x4, {(x1.unit_class, x4.unit_class): 1})
    assert corr.intersect(unit, r) == r


def test_r_squared_exact_and_mod3(x1, x4):
    r2 = f4pipeline.r_power(f4pipeline.construction(), 1)
    want = {}
    want[(_label(x1, "h1^8"), x4.unit_class)] = 8
    want[(_label(x1, "h2^8"), x4.unit_class)] = 6
    want[(_label(x1, "h1^4"), _label(x4, "g1^4"))] = 2
    want[(x1.unit_class, _label(x4, "g1^8"))] = 4
    want[(x1.unit_class, _label(x4, "g2^8"))] = 3
    assert r2 == Correspondence(x1, x4, want)
    reduced = corr.mod_reduce(r2, 3)
    assert reduced == f4pipeline.fixture_congruences(1)[0]


def test_r_homogeneous_total_codim(x1, x4):
    r = _r(-1)
    assert {f.codim + g.codim for f, g in r.terms} == {4}
    rho = f4pipeline.rhos(f4pipeline.construction(), -1)[3]
    assert {f.codim + g.codim for f, g in rho.terms} == {15}
    assert rho.is_morphism_degree


def test_transpose_of_r_shape(x4):
    rt = corr.transpose(_r(1))
    assert rt.source is x4
    codims = {(f.codim, g.codim) for f, g in rt.terms}
    assert codims == {(0, 4), (4, 0)}


def test_mod_reduce_balanced(x1):
    h = _label(x1, "h1^8")
    alpha = Correspondence(x1, x1, {(h, _label(x1, "h1^7")): 8,
                                    (h, _label(x1, "h2^7")): 3})
    reduced = corr.mod_reduce(alpha, 3)
    assert reduced.terms == {(h, _label(x1, "h1^7")): -1}
    assert corr.mod_reduce(alpha, 0) == alpha
    assert corr.mod_reduce(3 * alpha, 3).is_zero()


def test_repr_of_a_labeled_correspondence(x1, x4):
    """Terms print as source label x target label, in basis order."""
    c = Correspondence(x1, x4, {(_label(x1, "h2^8"), x4.point_class): 1,
                                (_label(x1, "h1^4"), _label(x4, "g1^4")): 2,
                                (x1.unit_class, _label(x4, "g2^8")): -1})
    assert repr(c) == "-h1^0xg2^8 + 2*h1^4xg1^4 + h2^8xg1^15"


def test_mod_reduce_balanced_for_an_even_modulus(x1):
    """Representatives lie in (-m/2, m/2]: for m = 4, 2 stays 2 and -2
    becomes 2, 3 becomes -1."""
    h = _label(x1, "h1^8")
    g1, g2, unit = _label(x1, "h1^7"), _label(x1, "h2^7"), x1.unit_class
    alpha = Correspondence(x1, x1, {(h, g1): 2, (h, g2): -2, (unit, unit): 3})
    assert corr.mod_reduce(alpha, 4).terms == {(h, g1): 2, (h, g2): 2, (unit, unit): -1}


def test_mod_reduce_is_ring_hom_for_compose(x1):
    rng = random.Random(23)
    pairs = [(u, v) for u in x1.classes for v in x1.classes
             if u.codim + v.codim == 15]
    for _ in range(100):
        terms_a = {rng.choice(pairs): rng.randint(-9, 9) for _ in range(2)}
        terms_b = {rng.choice(pairs): rng.randint(-9, 9) for _ in range(2)}
        a = Correspondence(x1, x1, terms_a)
        b = Correspondence(x1, x1, terms_b)
        direct = corr.mod_reduce(corr.compose(b, a), 3)
        reduced = corr.mod_reduce(
            corr.compose(corr.mod_reduce(b, 3), corr.mod_reduce(a, 3)), 3)
        assert direct == reduced


def test_is_idempotent_examples(x1, p0):
    assert corr.is_idempotent(p0, 0)
    assert not corr.is_idempotent(2 * p0, 0)
    with pytest.raises(ValueError):
        corr.is_idempotent(Correspondence(x1, x1,
                                          {(x1.unit_class, x1.unit_class): 1}), 0)


def test_orthogonality_examples(x1, p0):
    p1 = f4pipeline.fixture_idempotents()[0][1]
    assert corr.are_orthogonal(p0, p1, 0)
    assert not corr.are_orthogonal(p0, p0, 0)
    assert corr.are_orthogonal(p0, corr.transpose(p0), 0)


def test_realize_diagonal_is_identity(x1):
    delta = corr.diagonal(x1)
    for cls in x1.classes:
        x = x1.element(cls)
        assert corr.realize(delta, x) == x


def test_compose_and_realize_never_multiply(f4, monkeypatch):
    """Composition degrees come from the duality table, not from products."""
    def refuse(*args):
        raise AssertionError("pair_product called")

    monkeypatch.setattr(ChowRing, "pair_product", refuse)
    ring = ChowRing(f4, (2, 3, 4))   # uncached, so no product is memoized
    delta = corr.diagonal(ring)
    assert corr.compose(delta, delta) == delta
    rng = random.Random(5)
    pairs = [(f, g) for f in ring.classes for g in ring.classes
             if f.codim + g.codim == ring.dim]
    alpha = Correspondence(ring, ring,
                           {fg: rng.randint(-3, 3) for fg in rng.sample(pairs, 8)})
    assert corr.compose(delta, alpha) == alpha == corr.compose(alpha, delta)
    for cls in ring.classes:
        x = ring.element(cls)
        assert corr.realize(delta, x) == x


def test_algebra_on_warm_rings_never_hashes_weyl_elements(x1, x4, p0, monkeypatch):
    """Terms are keyed by Schubert classes, which hash by identity, so no
    correspondence operation reaches the hash of a Weyl element."""
    p1 = f4pipeline.fixture_idempotents()[0][1]
    J = f4pipeline.build_J(1)
    delta1, delta4 = corr.diagonal(x1), corr.diagonal(x4)

    def refuse(self):
        raise AssertionError("a Weyl element was hashed")

    monkeypatch.setattr(WeylElement, "__hash__", refuse)
    Jt = corr.transpose(J)
    assert corr.transpose(Jt) == J
    assert corr.mod_reduce(corr.compose(Jt, J) - delta1, 3).is_zero()
    assert corr.mod_reduce(corr.compose(J, Jt) - delta4, 3).is_zero()
    assert corr.realize(p0, x1.unit) == x1.unit
    assert corr.is_idempotent(p0, 0) and corr.is_idempotent(p0, 3)
    assert not corr.is_idempotent(2 * p0, 0)
    assert corr.are_orthogonal(p0, p1, 0) and corr.are_orthogonal(p0, p1, 3)
    assert not corr.are_orthogonal(p0, p0, 0)


def test_realize_p0_fixes_unit_and_kills_point(x1, p0):
    assert corr.realize(p0, x1.unit) == x1.unit
    assert corr.realize(p0, x1.element(x1.point_class)).is_zero()
    # the transpose realizes the point instead
    pt = x1.element(x1.point_class)
    assert corr.realize(corr.transpose(p0), pt) == pt


def test_realize_is_projector_with_complementary_rank(x1, p0):
    from chowring import linalg
    delta = corr.diagonal(x1)
    complement = delta - p0 - corr.transpose(
        f4pipeline.fixture_idempotents()[0][0])
    # realize twice equals realize once, on every basis class
    for cls in x1.classes:
        once = corr.realize(p0, x1.element(cls))
        assert corr.realize(p0, once) == once
    rows_p = [[corr.realize(p0, x1.element(c)).terms.get(y, 0)
               for y in x1.classes] for c in x1.classes]
    rest = delta - p0
    rows_r = [[corr.realize(rest, x1.element(c)).terms.get(y, 0)
               for y in x1.classes] for c in x1.classes]
    # the rank of an integer matrix is the size of its Hermite basis
    assert len(linalg.hermite_row_basis(rows_p)) + \
        len(linalg.hermite_row_basis(rows_r)) == 24


def test_serialization_roundtrip(x1, x4):
    rho = f4pipeline.rhos(f4pipeline.construction(), 1)[2]
    data = corr.to_jsonable(rho)
    back = corr.from_jsonable(x1, x4, data)
    assert back == rho


def test_compose_distributes_over_addition(x1):
    rng = random.Random(31)
    pairs = [(u, v) for u in x1.classes for v in x1.classes
             if u.codim + v.codim == 15]
    for _ in range(50):
        a = Correspondence(x1, x1, {rng.choice(pairs): rng.randint(-2, 2)})
        b = Correspondence(x1, x1, {rng.choice(pairs): rng.randint(-2, 2)})
        c = Correspondence(x1, x1, {rng.choice(pairs): rng.randint(-2, 2)})
        assert corr.compose(c, a + b) == corr.compose(c, a) + corr.compose(c, b)
        assert corr.compose(a + b, c) == corr.compose(a, c) + corr.compose(b, c)


def test_mod_reduce_is_hom_for_intersect(x1, x4):
    r_plus = _r(1)
    r_scaled = 4 * r_plus
    direct = corr.mod_reduce(corr.intersect(r_scaled, r_scaled), 3)
    reduced = corr.mod_reduce(
        corr.intersect(corr.mod_reduce(r_scaled, 3), corr.mod_reduce(r_scaled, 3)), 3)
    assert direct == reduced


def test_a_foreign_class_is_rejected_when_a_correspondence_is_built(x1, x4):
    """A class of the wrong ring fails at construction, naming its factor,
    instead of later inside repr or sorted_terms."""
    h, g = x1.unit_class, x4.point_class
    with pytest.raises(ValueError, match="first factor .* source ring"):
        Correspondence.from_pairs(x1, x4, [(g, h, 1)])
    with pytest.raises(ValueError, match="second factor .* target ring"):
        Correspondence.from_pairs(x1, x4, [(h, g, 1), (h, h, 1)])
    with pytest.raises(ValueError, match="first factor .* source ring"):
        Correspondence(x1, x1, {(g, h): 1})
    with pytest.raises(ValueError, match="second factor .* target ring"):
        Correspondence(x1, x1, {(h, g): 1})
    with pytest.raises(ValueError, match="first factor .* source ring"):
        Correspondence.from_product(ChowElement(x1, {g: 1}), x4.unit)
    with pytest.raises(ValueError, match="second factor .* target ring"):
        Correspondence.from_product(x1.unit, ChowElement(x4, {h: 1}))


def _assert_canonical(alpha):
    keys = corr._keys(alpha.source, alpha.target)
    for key in alpha.terms:
        f, g = key
        assert key is keys[f][g]


def test_every_operation_keys_terms_by_the_canonical_objects(x1, x4, p0):
    """One key object per class pair and ring pair: no operation leaves a
    term keyed by a tuple of its own."""
    r, J = _r(1), f4pipeline.build_J(1)
    Jt = corr.transpose(J)
    delta1, delta4 = corr.diagonal(x1), corr.diagonal(x4)
    h8, g4 = _label(x1, "h1^8"), _label(x4, "g1^4")
    results = [
        r, J, Jt, delta1, delta4,
        Correspondence(x1, x4, {(h8, g4): 2, (x1.unit_class, x4.point_class): -1}),
        Correspondence.from_pairs(x1, x1, [(h8, _label(x1, "h1^7"), 1)]),
        corr.compose(r, delta1), corr.compose(Jt, J), corr.compose(delta1, p0),
        Correspondence.from_product(x1.element(h8) + x1.unit, x4.element(g4)),
        corr.intersect(r, r), corr.intersect(p0, delta1),
        corr.mod_reduce(4 * r, 3), r + r, delta1 - p0, -p0, 3 * p0,
        f4pipeline.rhos(f4pipeline.construction(), -1)[2]]
    for alpha in results:
        assert alpha.terms
        _assert_canonical(alpha)


def test_random_compositions_share_at_most_one_key_per_class_pair(x1, x4):
    rng = random.Random(29)
    square = [(u, v) for u in x1.classes for v in x1.classes
              if u.codim + v.codim == x1.dim]
    cross = [(u, v) for u in x1.classes for v in x4.classes
             if u.codim + v.codim == x1.dim]
    results = []
    for _ in range(300):
        a = Correspondence(x1, x1, {fg: rng.randint(1, 3) for fg in rng.sample(square, 12)})
        b = Correspondence(x1, x4, {fg: rng.randint(1, 3) for fg in rng.sample(cross, 12)})
        results.append(corr.compose(b, a))
    for alpha in results:
        _assert_canonical(alpha)
    # the results stay alive, so a fresh tuple per term would show here
    ids = {id(key) for alpha in results for key in alpha.terms}
    assert sum(len(alpha.terms) for alpha in results) > len(x1.classes) * len(x4.classes)
    assert len(ids) <= len(x1.classes) * len(x4.classes)


def test_key_table_fills_used_rows_and_lets_the_target_ring_go():
    system = root_system("B2")
    source, target = ChowRing(system), ChowRing(system)
    f, g = source.point_class, target.unit_class
    alpha = Correspondence.from_pairs(source, target, [(f, g, 1)])
    keys = corr._keys(source, target)
    assert list(keys) == [f] and len(keys[f]) == len(target.classes)
    gone = weakref.ref(target)
    del alpha, keys, target, g
    gc.collect()
    assert gone() is None
    assert len(source._pair_keys) == 0
