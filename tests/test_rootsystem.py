import time
from fractions import Fraction
from math import lcm

import pytest

from chowring import rootsystem
from chowring.rootsystem import (BUILTIN_CARTAN, CartanMatrix,
                                 InfiniteRootSystemError, build_root_system,
                                 root_system)
from chowring.weyl import coset_orbit, order_from_heights
import dynkin
import weyl_oracle


def _omega(system, j):
    """omega_j in the fundamental weights: the unit vector that
    ``simple_root`` gives for alpha_j in the simple roots."""
    return system.simple_root(j)


@pytest.mark.parametrize("name,count", [
    ("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6), ("B3", 9), ("F4", 24),
])
def test_positive_root_counts(name, count):
    assert len(root_system(name).positive_roots) == count


def test_dynkin_generator_matches_published_data():
    """tests/dynkin.py against the package's own matrices and against the
    published orders of the Weyl groups and numbers of positive roots
    (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-VII)."""
    for name in ("A1", "A2", "B2", "B3"):
        assert dynkin.cartan(name) == BUILTIN_CARTAN[name]
    orders = {"A5": 720, "B4": 384, "D4": 192, "D5": 1920, "E6": 51840,
              "E7": 2903040, "E8": 696729600}
    for name, order in orders.items():
        assert order_from_heights(dynkin.system(name)) == order, name
    assert [len(dynkin.system(name).positive_roots) for name in ("E6", "E7", "E8")] \
        == [36, 63, 120]


def test_a1_positive_roots_is_the_simple_root():
    rs = root_system("A1")
    assert rs.positive_roots == ((1,),)


def test_root_order_graded_by_height():
    rs = root_system("F4")
    heights = [rs.height(r) for r in rs.positive_roots]
    assert heights == sorted(heights)
    assert rs.positive_roots[-1] == (2, 3, 4, 2)


def test_infinite_type_rejected():
    """Affine A1 and an indefinite rank-10 diagram, a nine-node chain with
    a tenth node on node 5, are refused before any closure runs."""
    affine = CartanMatrix.from_rows([[2, -2], [-2, 2]])
    with pytest.raises(InfiniteRootSystemError):
        build_root_system(affine)
    rows = dynkin.from_edges(10, [(k, k + 1) for k in range(1, 9)] + [(5, 10)])
    start = time.perf_counter()
    with pytest.raises(InfiniteRootSystemError):
        build_root_system(CartanMatrix(rows))
    assert time.perf_counter() - start < 1.0


def test_bad_cartan_matrices_rejected():
    with pytest.raises(ValueError):
        CartanMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        CartanMatrix.from_rows([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        CartanMatrix.from_rows([[2, -1], [0, 2]])


def test_cartan_from_file(tmp_path):
    path = tmp_path / "b2.txt"
    path.write_text("2 -1\n-2 2\n")
    rs = build_root_system(CartanMatrix.from_file(path))
    assert len(rs.positive_roots) == 4
    assert rs.cartan.entries == BUILTIN_CARTAN["B2"]


def test_coroot_pairing_simple_roots_delta(f4):
    for i in range(1, 5):
        for j in range(1, 5):
            got = f4.coroot_pairing(f4.simple_root(i), _omega(f4, j))
            assert got == (1 if i == j else 0)


def test_coroot_pairing_highest_root(f4):
    # the pairing of the highest coroot against omega_1 is the comark 2
    assert f4.coroot_pairing(f4.positive_roots[-1], _omega(f4, 1)) == 2


def test_coroot_pairing_antisymmetric_in_beta(f4):
    beta = f4.positive_roots[10]
    omega = (1, 2, 0, 3)
    minus = tuple(-x for x in beta)
    assert f4.coroot_pairing(minus, omega) == -f4.coroot_pairing(beta, omega)


def test_coroot_pairing_rejects_non_roots(f4):
    with pytest.raises(ValueError):
        f4.coroot_pairing((1, 0, 0, 1), _omega(f4, 1))
    with pytest.raises(ValueError):
        f4.coroot_pairing((3, 0, 0, 0), _omega(f4, 1))


def test_reflect_weight_fixes_other_fundamentals(f4):
    for i in range(1, 5):
        for j in range(1, 5):
            got = f4.reflect_weight(i, _omega(f4, j))
            if i != j:
                assert got == _omega(f4, j)
            else:
                assert got != _omega(f4, j)


def test_reflect_weight_involution(f4):
    omega = (3, -1, 2, 5)
    for i in range(1, 5):
        assert f4.reflect_weight(i, f4.reflect_weight(i, omega)) == omega


def test_reflection_convention_lock(f4):
    # s_i(alpha_i) = -alpha_i with alpha_i expanded in the weight basis
    for i in range(1, 5):
        alpha = f4.simple_root_weight(i)
        assert f4.reflect_weight(i, alpha) == tuple(-x for x in alpha)


def test_reflect_root_permutes_positive_roots(f4):
    """s_i, read off the step table, sends alpha_i to -alpha_i and permutes
    the other positive roots."""
    for i, step in enumerate(f4.root_steps, 1):
        images = {f4.roots[step[b]] for b in range(len(f4.positive_roots))}
        flipped = {tuple(-x for x in r) for r in images if not weyl_oracle.is_positive(r)}
        assert flipped == {f4.simple_root(i)}
        assert sum(1 for r in images if weyl_oracle.is_positive(r)) == 23


def test_node_index_out_of_range(f4):
    with pytest.raises(ValueError):
        f4.reflect_weight(0, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        f4.reflect_weight(5, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        f4.reflect_weight(0, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        f4.reflect_weight(5, (1, 1, 1, 1))


def test_reflect_weight_matches_the_column_formula(f4):
    """s_i lam = lam - lam_i alpha_i, alpha_i column i of the Cartan matrix,
    on every weight of the W(F4) orbits of rho and of each fundamental
    weight."""
    columns = [tuple(row[i] for row in f4.cartan.entries) for i in range(4)]
    weights = set(coset_orbit(f4, ()).weights)
    for node in range(1, 5):
        theta = tuple(i for i in range(1, 5) if i != node)
        weights.update(coset_orbit(f4, theta).weights)
    assert len(weights) == 1152 + 24 + 96 + 96 + 24
    for i in range(1, 5):
        alpha = f4.simple_root_weight(i)
        assert alpha == columns[i - 1]
        for lam in weights:
            assert f4.reflect_weight(i, lam) == tuple(
                x - lam[i - 1] * a for x, a in zip(lam, alpha))


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_integer_coroots_match_the_fraction_form(name):
    """beta^vee = 2 beta / (beta, beta) with alpha_k = (alpha_k, alpha_k)/2
    alpha_k^vee, expanded by the Fraction form, for every root; and its
    pairing with every fundamental weight and every root against that
    expansion."""
    system = root_system(name)
    n = system.rank
    simple = [system.simple_root(k) for k in range(1, n + 1)]
    roots = system.positive_roots + tuple(tuple(-x for x in beta)
                                          for beta in system.positive_roots)
    for beta in roots:
        norm = weyl_oracle.norm2(system, beta)
        want = tuple(Fraction(b) * weyl_oracle.norm2(system, alpha) / norm
                     for b, alpha in zip(beta, simple))
        assert system.coroot(beta) == want
        for j in range(1, n + 1):
            omega = _omega(system, j)
            assert system.coroot_pairing(beta, omega) == want[j - 1]
        for alpha in roots:
            assert system.coroot_pairing(beta, weyl_oracle.root_to_weight(system, alpha)) == \
                2 * weyl_oracle.bilinear(system, alpha, beta) / norm


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN) + ["E6", "E7", "E8"])
def test_coroot_heights_and_root_signs_match_the_oracle(name):
    """The coroot-height table holds sum(beta^vee) for every root, positive
    or negative, and no other key.  A root compares above ``zero`` exactly
    when it is positive, and below it exactly when it is negative; the
    root index agrees.  Each root's weight is its Cartan-row expansion, and
    each step table entry the index of the oracle's reflection of the root.
    Root tables only: no orbit is walked."""
    system = dynkin.system(name)
    roots, index = system.roots, system.root_index
    positive_count = len(system.positive_roots)
    assert sorted(system.coroot_heights) == sorted(roots)
    assert len(roots) == 2 * positive_count == len(index) == len(system.root_weights)
    reflections = [weyl_oracle.reflection(system, system.simple_root(a))
                   for a in range(1, system.rank + 1)]
    for r, root in enumerate(roots):
        assert index[root] == r
        assert system.coroot_heights[root] == sum(system.coroot(root))
        positive = weyl_oracle.is_positive(root)
        assert positive != weyl_oracle.is_positive(tuple(-x for x in root))
        assert (root > system.zero) == positive == (r < positive_count)
        assert (root < system.zero) == (not positive)
        assert system.root_weights[r] == weyl_oracle.root_to_weight(system, root)
        for s_a, step in zip(reflections, system.root_steps):
            assert roots[step[r]] == weyl_oracle.act_root(s_a, root)


def test_building_a_system_symmetrizes_once(monkeypatch):
    """The finiteness check and the coroot table share one symmetrizer."""
    calls = []
    real = rootsystem._symmetrizer
    monkeypatch.setattr(rootsystem, "_symmetrizer",
                        lambda cartan: calls.append(cartan) or real(cartan))
    cartan = CartanMatrix.from_name("F4")
    build_root_system(cartan)
    assert calls == [cartan]


def test_coroot_and_root_coroot_pairing_reject_non_roots(f4):
    with pytest.raises(ValueError):
        f4.coroot((1, 0, 0, 1))
    with pytest.raises(ValueError):
        f4.coroot_pairing((2, 0, 0, 0), weyl_oracle.root_to_weight(f4, f4.simple_root(1)))


def _closure_by_full_pairings(cartan):
    """The positive roots by reflection closure, every pairing
    <alpha_i^vee, root> summed over the whole row of the Cartan matrix."""
    n = cartan.rank
    c = cartan.entries
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    known = set(simple)
    frontier = list(simple)
    while frontier:
        new_frontier = []
        for root in frontier:
            for i in range(n):
                pairing = sum(c[i][j] * root[j] for j in range(n))
                if pairing == 0:
                    continue
                image = tuple(root[j] - (pairing if j == i else 0) for j in range(n))
                if all(x >= 0 for x in image) and image not in known:
                    known.add(image)
                    new_frontier.append(image)
        frontier = new_frontier
    return tuple(sorted(known, key=lambda r: (sum(r), r)))


def test_a30_positive_roots_are_the_intervals():
    """The positive roots of A_n are the sums alpha_i + ... + alpha_j."""
    roots = dynkin.system("A30").positive_roots
    intervals = {tuple(1 if i <= k <= j else 0 for k in range(30))
                 for i in range(30) for j in range(i, 30)}
    assert len(roots) == len(intervals) == 465
    assert set(roots) == intervals


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN) + ["E6"])
def test_closure_matches_the_full_pairing_closure(name):
    system = dynkin.system(name)
    assert system.positive_roots == _closure_by_full_pairings(system.cartan)


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN) + ["E6", "A60"])
def test_coroot_table_matches_the_double_sum_norm(name):
    """The coroot table reads m (beta, beta) off the closure's pairings, one
    sum over the nodes; the oracle sums beta_i beta_j m (alpha_i, alpha_j)
    over the whole support, in integers, for every root, positive or
    negative."""
    system = dynkin.system(name)
    n = system.rank
    form = weyl_oracle._form(system)
    m = lcm(*(x.denominator for row in form for x in row))
    form = [[int(x * m) for x in row] for row in form]
    for beta in system.positive_roots:
        support = [i for i in range(n) if beta[i]]
        norm = sum(beta[i] * beta[j] * form[i][j] for i in support for j in support)
        want = tuple(Fraction(b * form[k][k], norm) for k, b in enumerate(beta))
        assert all(x.denominator == 1 for x in want), beta
        assert system.coroot(beta) == want
        assert system.coroot(tuple(-x for x in beta)) == tuple(-x for x in want)
