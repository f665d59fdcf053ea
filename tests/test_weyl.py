import itertools
import random
from collections import Counter

import pytest

from chowring import cli, weyl
from chowring.cli import main
from chowring.rootsystem import (BUILTIN_CARTAN, CartanMatrix, InputError,
                                  build_root_system, root_system)
from chowring.schubert import ChowRing
from chowring.weyl import get_weyl_group
import dynkin
import weyl_oracle
from weyl_oracle import listed_group


def test_identity_and_involutions(f4):
    e = weyl.identity(f4)
    for i in range(1, 5):
        s = weyl.word_to_element(f4, (i,))
        assert weyl_oracle.multiply(e, s) == s
        assert weyl_oracle.multiply(s, e) == s
        assert weyl_oracle.multiply(s, s) == e
        assert s.length == 1


def test_mixed_systems_rejected():
    a = weyl.identity(root_system("A2"))
    b = weyl.identity(root_system("B2"))
    with pytest.raises(ValueError):
        weyl_oracle.multiply(a, b)


@pytest.mark.parametrize("name,order", [
    ("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("B3", 48), ("F4", 1152),
])
def test_group_orders(name, order):
    group = get_weyl_group(root_system(name))
    assert group.order == len(group.elements) == order


def test_longest_element_f4(f4_group):
    w0 = f4_group.longest
    assert w0.length == 24 == len(f4_group.system.positive_roots)
    word = weyl.reduced_word(w0)
    assert len(word) == 24
    assert weyl.word_to_element(f4_group.system, word) == w0


def test_longest_element_parabolic(f4_group):
    f4 = f4_group.system
    assert weyl.longest_element(f4, ()).length == 0
    assert weyl.longest_element(f4, (1, 2, 3)).length == 9
    assert weyl.longest_element(f4, (2, 3, 4)).length == 9
    # dimension of both quotients
    assert 24 - 9 == 15


@pytest.mark.parametrize("theta", [(2, 3, 4), (1, 2, 3)])
def test_minimal_coset_reps_profile(f4_group, theta):
    reps = f4_group.minimal_coset_reps(theta)
    assert len(reps) == 24
    profile = Counter(w.length for w in reps)
    for m in range(16):
        assert profile[m] == (2 if 4 <= m <= 11 else 1)


def test_minimal_reps_full_theta(f4_group):
    assert f4_group.minimal_coset_reps((1, 2, 3, 4)) == (weyl.identity(f4_group.system),)


def test_maximal_reps_shift_lengths(f4_group):
    minimal = f4_group.minimal_coset_reps((2, 3, 4))
    maximal = f4_group.maximal_coset_reps((2, 3, 4))
    assert len(maximal) == len(minimal)
    for v, w in zip(minimal, maximal):
        assert w.length == v.length + 9


def test_maximal_reps_empty_theta_is_whole_group(f4_group):
    assert set(f4_group.maximal_coset_reps(())) == set(listed_group(f4_group.system)[0])


def test_lagrange_partition(f4_group):
    reps = f4_group.minimal_coset_reps((1, 2, 3))
    parabolic_order = get_weyl_group(root_system("B3")).order
    assert len(reps) * parabolic_order == f4_group.order == 24 * 48


@pytest.mark.parametrize("theta", [(2, 3, 4), (1, 2, 3)])
def test_coset_pairing_bijection(f4_group, theta):
    """(w, v) -> w*v is a length-additive bijection W^theta x W_theta -> W."""
    reps = f4_group.minimal_coset_reps(theta)
    parabolic = [w for w in f4_group.elements
                 if set(weyl.reduced_word(w)) <= set(theta)]
    assert len(reps) * len(parabolic) == f4_group.order
    seen = set()
    for w in reps:
        for v in parabolic:
            wv = weyl_oracle.multiply(w, v)
            assert wv.length == w.length + v.length
            seen.add(wv)
    assert len(seen) == f4_group.order


def test_reduced_word_small_groups_exhaustive():
    for name in ("A2", "B2", "G2"):
        group = get_weyl_group(root_system(name))
        for w in group.elements:
            word = weyl.reduced_word(w)
            assert len(word) == w.length
            assert weyl.word_to_element(group.system, word) == w


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3", "F4", "D5", "A5"])
def test_reduced_word_matches_stripping_oracle(name):
    """Every element's word is the stripped one, whether the group is named
    from the longest elements down or from the shortest up."""
    elements = weyl.WeylGroup(dynkin.system(name)).elements
    oracle = {w: weyl_oracle.stripped_word(w) for w in elements}
    for order in (elements[::-1], elements):
        for w in order:
            assert weyl.reduced_word(w) == oracle[w], weyl.serialize(w)


def test_equal_elements_built_apart_get_one_word(f4_group):
    """The group's elements, an orbit's minimal and maximal representatives
    and elements parsed from the orbit's own words are built along different
    paths; equal elements get the same word."""
    system = f4_group.system
    orbit = weyl.coset_orbit(system, (2, 3, 4))
    sources = [f4_group.elements, orbit.minimal, orbit.maximal,
               [weyl.parse_element(system, " ".join(f"s{i}" for i in word))
                for word in orbit.words]]
    words = [{w.images: weyl.reduced_word(w) for w in source} for source in sources]
    for found in words[1:]:
        assert found == {images: words[0][images] for images in found}
    assert words[1] == words[3]


def test_naming_w_multiplies_no_element(monkeypatch):
    """Every word of W(F4) is read off w^{-1} rho: serializing the whole
    group builds no element (``_step_left`` builds every element but e)
    and calls no ``right_descents``.  The system is built apart from
    the shared one, so no earlier test can have named its elements."""
    system = build_root_system(CartanMatrix.from_name("F4"))
    elements = weyl.WeylGroup(system).elements
    calls = []
    for name in ("_step_left", "right_descents"):
        real = getattr(weyl, name)
        monkeypatch.setattr(weyl, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    words = [weyl.serialize(w) for w in elements]
    assert calls == []
    assert len(set(words)) == len(elements) == 1152


def test_length_matches_word_on_random_f4_elements(f4_group):
    rng = random.Random(20240809)
    system = f4_group.system
    for _ in range(1000):
        w = weyl.identity(system)
        for _ in range(rng.randint(0, 40)):
            w = weyl_oracle.mult_simple_right(w, rng.randint(1, 4))
        word = weyl.reduced_word(w)
        assert len(word) == w.length
        assert weyl.word_to_element(system, word) == w


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_word_to_element_matches_the_right_product_fold(name):
    """word_to_element, built by left steps on root indices, against the
    oracle's fold of right products w s_i: the same images and length on
    the empty word and on seeded words up to length 40, reduced and not;
    parse_element refuses nodes 0 and rank + 1."""
    system = root_system(name)
    rng = random.Random(f"words-{name}")

    def fold(word):
        w = weyl.identity(system)
        for i in word:
            w = weyl_oracle.mult_simple_right(w, i)
        return w

    words = [()]
    for _ in range(200):
        word = tuple(rng.randint(1, system.rank) for _ in range(rng.randint(1, 40)))
        words += [word, weyl.reduced_word(fold(word))]
    for word in words:
        w, want = weyl.word_to_element(system, word), fold(word)
        assert (w.images, w.length) == (want.images, want.length), word
    assert weyl.word_to_element(system, ()).length == 0
    for node in (0, system.rank + 1):
        with pytest.raises(InputError, match=f"bad reflection token 's{node}'"):
            weyl.parse_element(system, f"s1 s{node}")


def test_inverse(f4_group):
    rng = random.Random(7)
    system = f4_group.system
    e = weyl.identity(system)
    for _ in range(50):
        w = weyl.identity(system)
        for _ in range(rng.randint(0, 30)):
            w = weyl_oracle.mult_simple_right(w, rng.randint(1, 4))
        assert weyl_oracle.multiply(w, weyl_oracle.inverse(w)) == e
        assert weyl_oracle.inverse(w).length == w.length


def test_serialize_roundtrip(f4):
    e = weyl.identity(f4)
    assert weyl.serialize(e) == "e"
    assert weyl.parse_element(f4, "e") == e
    w = weyl.word_to_element(f4, (3, 2, 1))
    assert weyl.parse_element(f4, weyl.serialize(w)) == w


def test_positive_roots_stable_up_to_sign(f4_group):
    rng = random.Random(11)
    system = f4_group.system
    pos = set(system.positive_roots)
    for _ in range(20):
        w = weyl.identity(system)
        for _ in range(rng.randint(0, 30)):
            w = weyl_oracle.mult_simple_right(w, rng.randint(1, 4))
        for beta in system.positive_roots:
            image = weyl_oracle.act_root(w, beta)
            if image not in pos:
                assert tuple(-x for x in image) in pos


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_coset_orbit_matches_enumeration(name):
    """On every quotient, the orbit of rho_P against W listed by right
    products: the W filter with its lengths, v * w_theta with the lengths
    multiply recounts, the s_i * v Hasse rule, w0 * v and |W^theta|."""
    system = root_system(name)
    group = get_weyl_group(system)
    elements, _ = listed_group(system)
    w0 = group.longest
    assert weyl.order_from_heights(system) == group.order == len(elements)
    nodes = range(1, system.rank + 1)
    for theta in itertools.chain.from_iterable(
            itertools.combinations(nodes, r) for r in range(system.rank + 1)):
        orbit = weyl.coset_orbit(system, theta)
        minimal = [w for w in elements
                   if all(weyl_oracle.is_positive(w.images[t - 1]) for t in theta)]
        assert list(orbit.minimal) == minimal
        assert [v.length for v in orbit.minimal] == [v.length for v in minimal]
        w_theta = weyl.longest_element(system, theta)
        maximal = [weyl_oracle.multiply(v, w_theta) for v in minimal]
        assert ([(w.images, w.length) for w in orbit.maximal]
                == [(w.images, w.length) for w in maximal])
        assert (weyl.order_from_heights(system)
                // weyl.order_from_heights(system, theta)) == len(minimal)
        index = {v: k for k, v in enumerate(minimal)}
        for k, v in enumerate(minimal):
            up = {}
            for i in range(1, system.rank + 1):
                u = weyl_oracle.mult_simple_left(v, i)
                if u.length == v.length + 1 and u in index:
                    up[i] = index[u]
            assert orbit.up[k] == up
            assert weyl.word_to_element(system, orbit.words[k]) == v
            if orbit.parents[k] >= 0:
                assert orbit.words[k][1:] == orbit.words[orbit.parents[k]]
            assert orbit.maximal[orbit.opposite[k]] == weyl_oracle.multiply(w0, v)


def test_coset_orbit_is_shared_per_normalized_theta(f4):
    assert weyl.coset_orbit(f4, [4, 3, 2, 2]) is weyl.coset_orbit(f4, (2, 3, 4))
    with pytest.raises(ValueError):
        weyl.coset_orbit(f4, (5,))


@pytest.mark.parametrize("name,theta", [
    ("F4", (2, 3, 4)), ("F4", (1, 3, 4)), ("F4", (1, 2, 4)), ("F4", (1, 2, 3)),
    ("B3", ()),
])
def test_orbit_names_are_the_serialized_minimal_reps(name, theta):
    orbit = weyl.coset_orbit(root_system(name), theta)
    assert len(orbit.names) == len(orbit.minimal)
    for k, v in enumerate(orbit.minimal):
        assert orbit.names[k] == weyl.serialize(v)
    # built on the first read and kept
    assert orbit.names is orbit.names


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_weyl_order_cli_matches_enumeration(name, capsys):
    assert main(["weyl", "order", "--type", name]) == 0
    assert capsys.readouterr().out == f"{len(get_weyl_group(root_system(name)).elements)}\n"


def test_enumeration_above_the_bound_is_refused(f4, monkeypatch):
    """A group larger than MAX_ENUMERATION raises before it is listed."""
    walked = []
    cached = weyl._coset_orbit
    monkeypatch.setattr(weyl, "_coset_orbit",
                        lambda system, theta: walked.append(theta) or cached(system, theta))
    monkeypatch.setattr(weyl, "MAX_ENUMERATION", 1000)
    group = weyl.WeylGroup(f4)
    with pytest.raises(weyl.SizeLimitError, match="1152 elements, more than the 1000"):
        group.elements
    assert walked == []
    assert group.order == 1152
    assert walked == []
    monkeypatch.setattr(weyl, "MAX_ENUMERATION", 1152)
    assert len(group.elements) == 1152
    assert walked == [()]


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN) + ["D5"])
def test_group_tables_match_element_products(name):
    """W as the orbit of rho, element by element, against W listed by
    right products and against the element-level products, inverses and
    lengths: the listing order, and the moves the Giambelli engine makes,
    s_i w by weight lookup, right descents and w^{-1} by the weight of the
    coroot heights of w(alpha_i)."""
    system = dynkin.system(name)
    group = weyl.WeylGroup(system)
    orbit = group.orbit
    elements = group.elements
    index = {w.images: k for k, w in enumerate(elements)}
    assert group.order == weyl.order_from_heights(system)
    assert ([(w.images, w.length) for w in elements]
            == [(w.images, w.length) for w in listed_group(system)[0]])
    e = weyl.identity(system)
    nodes = range(1, system.rank + 1)
    reflections = {i: weyl.word_to_element(system, (i,)) for i in nodes}
    for k, w in enumerate(elements):
        assert index[w.images] == k   # no element is listed twice
        weight = orbit.weights[k]
        for i in nodes:
            right = weyl_oracle.multiply(w, reflections[i])
            assert elements[index[weyl_oracle.mult_simple_right(w, i).images]] == right
            assert elements[index[right.images]].length == right.length
            left = weyl_oracle.mult_simple_left(w, i)
            moved = orbit.point_of[system.reflect_weight(i, weight)]
            assert elements[moved] == left
            assert elements[moved].length == left.length
            assert (weight[i - 1] < 0) == (left.length < w.length)
        inverse = elements[index[weyl_oracle.inverse(w).images]]
        assert weyl_oracle.multiply(w, inverse) == e and inverse.length == w.length
        heights = tuple(sum(system.coroot(r)) for r in w.images)
        assert elements[orbit.point_of[heights]] == inverse
        assert weyl.right_descents(w) == tuple(
            i for i in nodes if weyl_oracle.multiply(w, reflections[i]).length < w.length)
    assert max(w.length for w in elements) == len(system.positive_roots)


def test_orbit_above_the_bound_is_refused(f4, monkeypatch):
    """|W| / |W_theta| above MAX_ENUMERATION raises before the orbit is
    walked or read from the cache.  The size limit is a ValueError, so
    library callers that catch ValueError still catch it."""
    assert issubclass(weyl.SizeLimitError, ValueError)
    walked = []
    cached = weyl._coset_orbit
    monkeypatch.setattr(weyl, "_coset_orbit",
                        lambda system, theta: walked.append(theta) or cached(system, theta))
    monkeypatch.setattr(weyl, "MAX_ENUMERATION", 1000)
    with pytest.raises(weyl.SizeLimitError,
                       match="^W\\^theta has 1152 points, more than the 1000"):
        weyl.coset_orbit(f4, ())
    assert walked == []
    assert len(weyl.coset_orbit(f4, (2, 3, 4)).minimal) == 24


def test_orbit_walk_refuses_a_wrong_orbit_size(monkeypatch):
    """A walk that does not reach |W| / |W_theta| points fails the size
    assertion, with its message; the walk is a fresh one on a system of its
    own, so no cache answers for it."""
    system = build_root_system(CartanMatrix.from_name("B3"))
    size = weyl._orbit_size(system, (2,))
    assert len(weyl.CosetOrbit(system, (2,)).weights) == size
    monkeypatch.setattr(weyl, "_orbit_size", lambda system, theta: size + 1)
    with pytest.raises(AssertionError) as excinfo:
        weyl.CosetOrbit(system, (2,))
    assert str(excinfo.value) == "the orbit of rho_P does not have |W| / |W_theta| points"


@pytest.mark.parametrize("source,target", [
    ((1, 0), (-1, 0)),    # s2 v(alpha_1) < 0: v is not minimal in its coset
    ((-1, 0), (1, 0)),    # s2 v w_theta(alpha_1) > 0: not maximal
])
def test_orbit_walk_refuses_a_wrong_representative(source, target):
    """On A2 with theta = (1,), the first move is s2, from e and from
    w_theta = s1.  A step table of s2 tampered to send ``source`` to
    ``target`` builds a representative that leaves its coset's end while
    the weights, and so the orbit size, stay right: the sign check fails,
    with its message.  The system is fresh, so the tampered table is its
    own."""
    system = build_root_system(CartanMatrix.from_name("A2"))
    steps = [list(row) for row in system.root_steps]
    steps[1][system.root_index[source]] = system.root_index[target]
    system.root_steps = tuple(map(tuple, steps))
    with pytest.raises(AssertionError) as excinfo:
        weyl.CosetOrbit(system, (1,))
    assert str(excinfo.value) == "the orbit walk left the coset representatives"


@pytest.mark.parametrize("argv", [
    ["weyl", "cosets", "--type", "F4"],
    ["weyl", "cosets", "--type", "F4", "--maximal"],
    ["hasse", "--type", "F4"],
    ["chow", "basis", "--type", "F4"],
    ["hasse", "--type", "F4", "--pieri", "--node", "1"],
    ["chow", "table", "--type", "F4", "--node", "1"],
    ["chow", "mult", "--type", "F4", "--lhs", "h1^4", "--rhs", "h1^4"],
    ["chow", "giambelli-lift", "--type", "F4", "--class", "h1^1"],
])
def test_orbit_above_the_bound_is_usage_error(argv, monkeypatch, capsys):
    """Every command that builds W^theta of F4/B refuses it above the bound
    with one error line and exit code 2; F4/P1, 24 points, is under it,
    but the Giambelli route walks all of W, so a lift is refused there too."""
    monkeypatch.setattr(weyl, "MAX_ENUMERATION", 1000)
    # a fresh ring, so a cached F4/B ring of another test is not reused
    monkeypatch.setattr(cli, "get_chow_ring", ChowRing)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: W^theta has 1152 points, more than the 1000 "
                            "this program walks\n")
    theta_err = ("error: the Weyl group has 1152 elements, more than the 1000 "
                 "this program enumerates\n") if "giambelli-lift" in argv else ""
    assert main(argv + ["--theta", "2,3,4"]) == (2 if theta_err else 0)
    assert capsys.readouterr().err == theta_err


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_root_images_match_act_root(name):
    """On every point of every quotient, the orbit's root-image table read
    for the minimal representative v at beta, against ``act_root``."""
    system = root_system(name)
    roots = system.roots
    n = system.rank
    for size in range(n + 1):
        for theta in itertools.combinations(range(1, n + 1), size):
            orbit = weyl.coset_orbit(system, theta)
            for v, image in zip(orbit.minimal, orbit.root_images):
                for b, beta in enumerate(system.positive_roots):
                    assert roots[image[b]] == weyl_oracle.act_root(v, beta)
