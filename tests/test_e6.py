"""E6 quotients without the Weyl group: the ring basis, duality,
localization and Chevalley products and coset lists all come from the
orbit of rho_P, so none of them may enumerate the 51840 elements of W(E6)."""

import pytest

from chowring import weyl
from chowring.cli import main
from chowring.schubert import ChowRing
from chowring.weyl import longest_element, serialize
import dynkin
from weyl_oracle import multiply, stripped_word


@pytest.fixture
def e6_file(tmp_path):
    path = tmp_path / "e6.txt"
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in dynkin.cartan("E6")))
    return str(path)


@pytest.mark.parametrize("node", [1, 6])
def test_cayley_plane_degree(no_weyl_enumeration, node):
    """E6/P1 and E6/P6: 27 classes and deg H^16 = 78 (Weyl's formula)."""
    system = dynkin.system("E6")
    ring = ChowRing(system, [i for i in range(1, 7) if i != node])
    assert (len(ring.classes), ring.dim) == (27, 16)
    h = ring.hyperplane_class(node)
    assert ring.power(h, 16).terms == {ring.point_class: 78}


@pytest.mark.parametrize("node", [1, 6])
def test_cayley_plane_degree_by_chevalley(no_weyl_enumeration, node):
    """H^16 = 78 [pt] by the Chevalley rule alone, which reads the orbit
    and never builds the localization engine."""
    system = dynkin.system("E6")
    ring = ChowRing(system, [i for i in range(1, 7) if i != node])
    x = ring.unit
    for _ in range(16):
        x = sum((v * ring.chevalley_product(node, c) for c, v in x.terms.items()),
                ring.zero())
    assert x == 78 * ring.element(ring.point_class)
    assert ring._localization is None


@pytest.mark.parametrize("node", [1, 6])
def test_orbit_representatives_match_element_products(no_weyl_enumeration, node):
    """E6/P1 and E6/P6: each maximal representative is v w_theta, images
    and the length multiply recounts, and the opposite point's is w0 v.
    On E6, w0 is not -1 on the weights, so a lookup of -lambda would
    find the wrong point."""
    system = dynkin.system("E6")
    theta = tuple(i for i in range(1, 7) if i != node)
    orbit = weyl.coset_orbit(system, theta)
    w_theta = longest_element(system, theta)
    w0 = longest_element(system)
    for k, v in enumerate(orbit.minimal):
        for got, want in ((orbit.maximal[k], multiply(v, w_theta)),
                          (orbit.maximal[orbit.opposite[k]], multiply(w0, v))):
            assert (got.images, got.length) == (want.images, want.length)


@pytest.mark.parametrize("node", [1, 6])
def test_coset_rep_words_match_stripping_oracle(no_weyl_enumeration, node):
    """Both representatives of every point of E6/P1 and E6/P6, words up to
    36 letters, against the word stripped by element products."""
    system = dynkin.system("E6")
    orbit = weyl.coset_orbit(system, [i for i in range(1, 7) if i != node])
    reps = orbit.minimal + orbit.maximal
    assert max(w.length for w in reps) == 36
    for w in reps:
        assert weyl.reduced_word(w) == stripped_word(w), serialize(w)


@pytest.mark.parametrize("argv", [
    ["weyl", "cosets"], ["weyl", "cosets", "--maximal"], ["chow", "basis"]])
def test_cli_lists_27_classes(no_weyl_enumeration, e6_file, argv, capsys):
    code = main([*argv, "--cartan-file", e6_file, "--theta", "2,3,4,5,6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    if argv[0] == "weyl":
        assert out[-1] == "count 27"
        out = out[:-1]
    assert len(out) == len(set(out)) == 27


def test_weyl_order_from_heights(no_weyl_enumeration, e6_file, capsys):
    assert main(["weyl", "order", "--cartan-file", e6_file]) == 0
    assert capsys.readouterr().out == "51840\n"


def test_giambelli_lift_above_the_bound_is_usage_error(e6_file, monkeypatch, capsys):
    """The Giambelli route enumerates W; with the bound below |W(E6)| a
    lift ends with a one-line error and exit code 2 instead."""
    monkeypatch.setattr(weyl, "MAX_ENUMERATION", 50_000)
    theta = (2, 3, 4, 5, 6)
    point = serialize(longest_element(dynkin.system("E6"), theta))
    code = main(["chow", "giambelli-lift", "--cartan-file", e6_file,
                 "--theta", "2,3,4,5,6", "--class", f"[{point}]"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("error: the Weyl group has 51840 elements, more than the "
                   "50000 this program enumerates\n")
