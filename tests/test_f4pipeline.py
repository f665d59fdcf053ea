import json

import pytest

from chowring import correspondence as corr
from chowring import f4pipeline as pipe
from chowring.cli import main
from chowring.schubert import SubringError


def test_labeled_rings_dimensions(x1, x4):
    assert x1.dim == 15 and x4.dim == 15
    assert x1.labels is not None and x4.labels is not None
    assert x1.class_by_label("h1^0") == x1.unit_class
    assert x4.class_by_label("g1^15") == x4.point_class


def test_label_solve_is_stable(x1):
    from chowring import weyl
    frozen = json.loads(pipe._data_text("labels_p1.json"))
    for lab, word in frozen.items():
        assert weyl.serialize(x1.class_by_label(lab).rep) == word


def test_build_r(x1, x4):
    r = pipe.build_r(1)
    assert r.terms == {(x1.class_by_label("h1^4"), x4.unit_class): 1,
                       (x1.unit_class, x4.class_by_label("g1^4")): 1}
    r_minus = pipe.build_r(-1)
    assert r_minus.terms[(x1.unit_class, x4.class_by_label("g1^4"))] == -1
    with pytest.raises(ValueError):
        pipe.build_r(2)


@pytest.mark.parametrize("eps", [1, -1])
def test_rho_congruences_match_fixtures(eps):
    fixtures = pipe.fixture_congruence("rho", eps)
    for i in range(8):
        assert corr.mod_reduce(pipe.build_rho(i, eps), 3) == fixtures[i]


@pytest.mark.parametrize("eps", [1, -1])
def test_rho_morphism_degree(eps):
    for i in range(8):
        rho = pipe.build_rho(i, eps)
        assert {f.codim + g.codim for f, g in rho.terms} == {15}


def test_idempotent_candidates_equal_for_both_eps():
    assert pipe.compute_idempotents(1) == pipe.compute_idempotents(-1)


def test_displayed_cycles_idempotent_orthogonal_complete(x1, x4):
    p, q = pipe.fixture_idempotents()
    for family, ring in ((p, x1), (q, x4)):
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


def test_twist_support_ranks():
    p, q = pipe.fixture_idempotents()
    for i in range(4):
        assert pipe._support_ranks(p[i]) == {i: 1, i + 4: 1, i + 8: 1}
        assert pipe._support_ranks(q[i]) == {i: 1, i + 4: 1, i + 8: 1}
        assert pipe._support_ranks(corr.transpose(p[i])) == \
            {7 - i: 1, 11 - i: 1, 15 - i: 1}


def test_total_realization_rank_is_24(x1):
    p = pipe.fixture_idempotents()[0]
    total = 0
    for i in range(4):
        total += sum(pipe._support_ranks(p[i]).values())
        total += sum(pipe._support_ranks(corr.transpose(p[i])).values())
    assert total == 24


@pytest.mark.parametrize("eps", [1, -1])
def test_J_shape_and_inverse(eps, x1, x4):
    J = pipe.build_J(eps)
    assert len(J.terms) == 24
    assert all(abs(v) == 1 for v in J.terms.values())
    for (f, g), v in J.terms.items():
        fi, fs = pipe._parse_label(x1.label_of(f))
        gi, gs = pipe._parse_label(x4.label_of(g))
        assert fi == gi and fs + gs == 15
    Jt = corr.transpose(J)
    assert corr.congruent(corr.compose(Jt, J), corr.diagonal(x1), 3)
    assert corr.congruent(corr.compose(J, Jt), corr.diagonal(x4), 3)


def test_J_sign_pattern_symmetric(x1, x4):
    """The sign at (i, s) equals the sign at (i, 15-s); forced by J^t o J."""
    for eps in (1, -1):
        J = pipe.build_J(eps)
        signs = {}
        for (f, g), v in J.terms.items():
            fi, fs = pipe._parse_label(x1.label_of(f))
            signs[(fi, fs)] = v
        for (i, s), v in signs.items():
            assert signs[(i, 15 - s)] == v


def test_end_basis_fixed_pointwise(x1):
    """The three displayed basis cycles are fixed by p0 o (.) o p0."""
    p0 = pipe.fixture_idempotents()[0][0]
    lab = x1.class_by_label
    from chowring.correspondence import Correspondence
    basis = [
        Correspondence.from_pairs(x1, x1, [(lab("h1^0"), lab("h1^15"), 1)]),
        Correspondence.from_pairs(x1, x1, [(lab("h1^4"), lab("h1^11"), 1),
                                           (lab("h1^4"), lab("h2^11"), 1)]),
        Correspondence.from_pairs(x1, x1, [(lab("h1^8"), lab("h1^7"), 1),
                                           (lab("h1^8"), lab("h2^7"), 1)]),
    ]
    for alpha in basis:
        assert corr.compose(p0, corr.compose(alpha, p0)) == alpha
    # off-degree compositions of basis elements vanish
    assert corr.compose(basis[0], basis[2]).is_zero()
    assert p0 == basis[0] + basis[1] + basis[2]


def test_full_report_passes_and_is_deterministic():
    report1 = pipe.run_f4_verification("both")
    assert report1.passed
    assert len(report1.checks) == 21
    report2 = pipe.run_f4_verification("both")
    assert report1.to_json() == report2.to_json()
    assert report1.to_text() == report2.to_text()


def test_single_eps_report():
    report = pipe.run_f4_verification(1)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "idempotent-eps-independence" not in names


def test_report_failure_carries_witness(x1):
    result = pipe.CheckResult("demo", False, "broken", witness={"got": "x"})
    report = pipe.VerificationReport([result])
    assert not report.passed
    assert "witness" in report.to_text()
    payload = json.loads(report.to_json())
    assert payload["checks"][0]["witness"] == {"got": "x"}


@pytest.fixture
def fresh_idempotents(monkeypatch):
    """monkeypatch, with the idempotent caches cleared before the test and
    again before its patches are undone."""
    pipe.fixture_idempotents.cache_clear()
    pipe.compute_idempotents.cache_clear()
    yield monkeypatch
    pipe.fixture_idempotents.cache_clear()
    pipe.compute_idempotents.cache_clear()


def _check_congruences(eps):
    return pipe._run(pipe.VerificationReport(), "idempotent-congruences",
                     lambda: pipe.check_idempotent_congruences(eps))


def test_engine_fault_in_idempotent_congruences_is_error(fresh_idempotents):
    """A SubringError is an engine fault: ERROR, never FAIL."""
    def broken(i, eps):
        raise SubringError("product left the subring at s1")

    fresh_idempotents.setattr(pipe, "build_rho", broken)
    result = _check_congruences(1)
    assert result.status == "ERROR"
    assert result.detail == "SubringError: product left the subring at s1"
    assert result.witness is None


Q2_MISMATCH = "composition rho_2 o rho_5^t is not congruent to the displayed cycle q'_2"


def _corrupt_q2(monkeypatch):
    """Add one to the first coefficient of the displayed q'_2, through
    ``_data_text``, and clear the caches that read it.  Returns the
    reduced composition rho_2 o rho_5^t, computed before the edit."""
    reduced = corr.to_jsonable(pipe.compute_idempotents(1)[1][2])
    data = json.loads(pipe._data_text("idempotent_cycles.json"))
    data["q"][2][0]["coeff"] += 1
    text = json.dumps(data)
    real = pipe._data_text
    monkeypatch.setattr(
        pipe, "_data_text",
        lambda name: text if name == "idempotent_cycles.json" else real(name))
    pipe.fixture_idempotents.cache_clear()
    pipe.compute_idempotents.cache_clear()
    return reduced


def test_corrupted_idempotent_cycle_fails_with_witness(fresh_idempotents):
    """One coefficient of the displayed q'_2 off by one: FAIL, and the
    witness holds i, the cycle and the reduced composition."""
    reduced = _corrupt_q2(fresh_idempotents)
    result = _check_congruences(1)
    assert result.status == "FAIL"
    assert result.detail == Q2_MISMATCH
    assert result.witness == {"i": 2, "cycle": "q'", "reduced": reduced}


def test_corrupted_idempotent_cycle_verify_exits_fail(fresh_idempotents, capsys):
    """The same edit through the whole command: every check that reads the
    mismatch FAILs with a witness, none reads ERROR, and verify exits 1."""
    reduced = _corrupt_q2(fresh_idempotents)
    rc = main(["verify", "f4", "--eps", "both", "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    failing = {c["name"]: c for c in checks if not c["passed"]}
    assert not any(c.get("error") for c in checks)
    assert sorted(failing) == ["idempotent-completeness", "idempotent-congruences[eps=+1]",
                               "idempotent-congruences[eps=-1]",
                               "idempotent-eps-independence", "idempotent-exactness"]
    witness = {"i": 2, "cycle": "q'", "reduced": reduced}
    for name in ("idempotent-congruences[eps=+1]", "idempotent-congruences[eps=-1]",
                 "idempotent-eps-independence"):
        assert failing[name]["detail"] == Q2_MISMATCH
        assert failing[name]["witness"] == witness
    assert failing["idempotent-exactness"]["witness"] == ["q2", "q2t"]
    assert failing["idempotent-completeness"]["witness"] == ["q"]
    assert rc == 1


def _verify_json(capsys):
    rc = main(["verify", "f4", "--eps", "both", "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert not any(c.get("error") for c in checks)
    return rc, {c["name"]: c for c in checks if not c["passed"]}


LATTICE = "polynomial is not in the image lattice of c"


@pytest.mark.parametrize("fname,old,new,error", [
    # a coefficient that leaves the W_theta-invariants
    ("h14_preimage.txt", "11/6*w1^2*w4^2", "17/6*w1^2*w4^2",
     "c map support left the subring at "),
    # one that leaves the integer lattice
    ("h14_preimage.txt", "11/6*w1^2*w4^2", "12/6*w1^2*w4^2", LATTICE),
    # an extra term
    ("g14_preimage.txt", "- 2/3*w2*w3^3", "- 2/3*w2*w3^3 - 1/7*w1^4", LATTICE),
], ids=["h14-subring", "h14-lattice", "g14-extra-term"])
def test_preimage_transcription_error_fails_with_witness(fname, old, new, error,
                                                         monkeypatch, capsys):
    """One edit to a transcribed preimage polynomial, through ``_data_text``:
    preimage-polynomials FAILs, each witness row names the polynomial and
    the c map's error, nothing reads ERROR and verify exits 1."""
    text = pipe._data_text(fname)
    assert text.count(old) == 1
    real = pipe._data_text
    monkeypatch.setattr(pipe, "_data_text", lambda name: text.replace(old, new)
                        if name == fname else real(name))
    rc, failing = _verify_json(capsys)
    assert sorted(failing) == ["preimage-polynomials"]
    witness = failing["preimage-polynomials"]["witness"]
    assert [row["poly"] for row in witness] == [fname, fname + " squared"]
    assert all(row["error"].startswith(error) for row in witness)
    assert rc == 1


def test_eps_dependent_candidates_fail_with_witness(monkeypatch, capsys):
    """The eps=-1 candidates p'_1 and p'_2 swapped: eps-independence FAILs,
    and its witness names p'_1 with the candidate of each eps."""
    real = pipe.compute_idempotents
    p, q = real(1)

    def swapped(eps):
        return ((p[0], p[2], p[1], p[3]), q) if eps == -1 else real(eps)

    monkeypatch.setattr(pipe, "compute_idempotents", swapped)
    rc, failing = _verify_json(capsys)
    assert sorted(failing) == ["idempotent-eps-independence"]
    assert failing["idempotent-eps-independence"]["witness"] == {
        "family": "p'", "i": 1, "eps=+1": corr.to_jsonable(p[1]),
        "eps=-1": corr.to_jsonable(p[2])}
    assert rc == 1


def test_J_missing_a_term_fails_inverse_with_witness(monkeypatch, capsys):
    """build_J without its first term, h1^0 x g1^15: both isomorphism-inverse
    checks FAIL, and each witness gives both sides with their residue mod 3
    against the diagonal, the two terms that the dropped one and its
    transpose paired with g1^0 x h1^15 and h1^15 x g1^0."""
    real = pipe.build_J

    def dropped(eps):
        J = real(eps)
        (first, _), *_ = J.sorted_terms()
        return J._with({fg: v for fg, v in J.terms.items() if fg != first})

    monkeypatch.setattr(pipe, "build_J", dropped)
    rc, failing = _verify_json(capsys)
    assert sorted(failing) == ["isomorphism-inverse[eps=+1]", "isomorphism-inverse[eps=-1]",
                               "isomorphism-shape[eps=+1]", "isomorphism-shape[eps=-1]"]
    want = [{"side": side, "residue": [{"coeff": -1, "f": f"{x}^0", "g": f"{x}^15"},
                                       {"coeff": -1, "f": f"{x}^15", "g": f"{x}^0"}]}
            for side, x in (("J^t o J", "h1"), ("J o J^t", "g1"))]
    for eps in ("+1", "-1"):
        assert failing[f"isomorphism-inverse[eps={eps}]"]["witness"] == want
    assert rc == 1
