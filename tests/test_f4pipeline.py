import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chowring import correspondence as corr
from chowring import f4pipeline as pipe
from chowring import weyl
from chowring.cli import main
from chowring.schubert import ChowRing, SubringError

CHECK_NAMES = [c["name"] for c in json.loads(
    (Path(__file__).parent / "golden" / "verify_f4.json").read_text())["checks"]]
SRC = Path(__file__).resolve().parent.parent / "src"


def test_labeled_rings_dimensions(x1, x4):
    assert x1.dim == 15 and x4.dim == 15
    assert x1.labels is not None and x4.labels is not None
    assert x1.class_by_label("h1^0") == x1.unit_class
    assert x4.class_by_label("g1^15") == x4.point_class


def test_label_solve_is_stable():
    """Exactly one assignment reproduces each hyperplane table under
    Chevalley's rule, and it is the frozen one the rings carry."""
    for v, ring in zip(pipe.VARIETIES, pipe.get_f4_varieties()):
        assert pipe.solve_labels(ring, v.node, v.letter, pipe.load_table(v.stem)) == [ring.labels]


def brute_force_labels(ring, node, letter, table):
    """The label search as an oracle: every ordering of every codimension's
    basis, each complete assignment checked against the whole table, row by
    row in table order, by Chevalley's rule."""
    chev = {cls: ring.chevalley_product(node, cls).terms for cls in ring.classes}
    orders = (itertools.permutations(ring.basis(s)) for s in range(ring.dim + 1))
    found = []
    for choice in itertools.product(*orders):
        label = {f"{letter}{i}^{s}": cls for s, basis in enumerate(choice)
                 for i, cls in enumerate(basis, 1)}
        name = {cls: lab for lab, cls in label.items()}
        if all({name[c]: v for c, v in chev[label[rhs]].items()} == dict(want)
               for _, rhs, want in table):
            found.append(label)
    return found


def outcome(search, *args):
    """The list ``search`` returns, or the type and text of what it raises."""
    try:
        return search(*args)
    except Exception as exc:
        return type(exc), str(exc)


def tampered_tables(table, letter, rng):
    """(kind, table) for one tamper of each kind: a changed coefficient, two
    swapped rows, a right-hand side that names no class, a label past
    codimension 15 (on either side of a row), and a changed coefficient
    together with a right-hand side that names no class."""
    def changed(rows):
        k = rng.randrange(len(rows))
        lhs, rhs, want = rows[k]
        j = rng.randrange(len(want))
        want = list(want)
        want[j] = (want[j][0], want[j][1] + rng.choice([-2, -1, 1, 3]))
        return rows[:k] + [(lhs, rhs, tuple(want))] + rows[k + 1:]

    def no_class(rows):
        k = rng.randrange(len(rows))
        lhs, _, want = rows[k]
        rhs = rng.choice([f"{letter}3^5", f"{letter}2^0", f"{letter}2^13", "x1^1", ""])
        return rows[:k] + [(lhs, rhs, want)] + rows[k + 1:]

    rows = list(table)
    yield "coefficient", changed(rows)
    i, j = rng.sample(range(len(rows)), 2)
    swapped = list(rows)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield "swap", swapped
    yield "no-class", no_class(rows)
    k = rng.randrange(len(rows))
    lhs, rhs, want = rows[k]
    past = (lhs, f"{letter}1^16", want) if rng.random() < 0.5 else \
        (lhs, rhs, want + ((f"{letter}1^16", 1),))
    yield "past-15", rows[:k] + [past] + rows[k + 1:]
    yield "coefficient-and-no-class", no_class(changed(rows))


def test_label_search_matches_brute_force(monkeypatch):
    """On both frozen tables and on seeded tampered ones, the codimension by
    codimension search returns the brute-force oracle's exact list, or
    raises what the oracle raises; on a frozen table it evaluates at most 32
    (partial) assignments, where the oracle checks all 256."""
    real, calls = pipe._table_misses, []
    monkeypatch.setattr(pipe, "_table_misses",
                        lambda *args: calls.append(1) or real(*args))
    kinds = set()
    for v, ring in zip(pipe.VARIETIES, pipe.get_f4_varieties()):
        table = pipe.load_table(v.stem)
        args = (ring, v.node, v.letter)
        calls.clear()
        assert pipe.solve_labels(*args, table) == brute_force_labels(*args, table) == [ring.labels]
        assert 0 < len(calls) <= 32
        rng = random.Random(f"labels-{v.stem}")
        for _ in range(6):
            for kind, tampered in tampered_tables(table, v.letter, rng):
                want = outcome(brute_force_labels, *args, tampered)
                assert outcome(pipe.solve_labels, *args, tampered) == want, kind
                kinds.add((kind, "raises" if isinstance(want, tuple) else len(want)))
    # the tampers reach a raise, an empty result and the frozen labels
    assert {n for _, n in kinds} >= {"raises", 0, 1}


def test_shared_rings_carry_no_labels():
    """In a fresh interpreter, the shared ring of F4/P1 from get_chow_ring
    stays unlabeled: after a CLI query on another theta of F4, which builds
    nothing of the pipeline, and after the pipeline built its own rings."""
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(SRC)!r})
from chowring import cli, f4pipeline, get_chow_ring, root_system

ring = get_chow_ring(root_system("F4"), (2, 3, 4))
seen = []

def look(what):
    seen.append([what, ring.labels is None, ring.label_of(ring.classes[5]),
                 f4pipeline.get_f4_varieties.cache_info().currsize])

with contextlib.redirect_stdout(io.StringIO()):
    look(cli.main(["chow", "basis", "--type", "F4", "--theta", "1,3,4"]))
look(f4pipeline.get_f4_varieties()[0] is ring)
print(json.dumps(seen))
"""
    child = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                           capture_output=True, text=True, check=True)
    (rc, unlabeled, label, built), after = json.loads(child.stdout)
    assert (rc, unlabeled, built) == (0, True, 0)
    assert label.startswith("[s") and label.endswith("]")
    assert after == [False, True, label, 1]


def _clear_pipeline_caches():
    for fn in vars(pipe).values():
        if hasattr(fn, "cache_clear") and fn.__module__ == pipe.__name__:
            fn.cache_clear()


@pytest.fixture
def fresh_pipeline(monkeypatch):
    """monkeypatch, with every cache of f4pipeline cleared before the test,
    and again once its patches are undone: the rings and cycles an edit
    built die with the caches, and a later test builds its own."""
    _clear_pipeline_caches()
    yield monkeypatch
    monkeypatch.undo()
    _clear_pipeline_caches()


def _edit_data(monkeypatch, fname, edit):
    """Serve ``fname`` through ``_data_text`` with one edit: a pair (old,
    new) replaces a substring that occurs once, a function edits the parsed
    JSON in place.  The checked-in file is never touched."""
    text = pipe._data_text(fname)
    if isinstance(edit, tuple):
        assert text.count(edit[0]) == 1
        text = text.replace(*edit)
    else:
        data = json.loads(text)
        edit(data)
        text = json.dumps(data)
    real = pipe._data_text
    monkeypatch.setattr(pipe, "_data_text",
                        lambda name: text if name == fname else real(name))


def _swap(*pairs):
    def edit(words):
        for a, b in pairs:
            words[a], words[b] = words[b], words[a]
    return edit


def _table_coeff(rhs, coeff):
    def edit(rows):
        next(row for row in rows if row["rhs"] == rhs)["product"][0]["coeff"] = coeff
    return edit


def _r2_first_coeff(data):
    data["r2"][0]["coeff"] = "1"      # displayed as -1


def _q2_first_coeff(data):
    data["q"][2][0]["coeff"] += 1


def _h14_class_named_twice(words):
    words["h2^4"] = words["h1^4"]


def test_labels_load_without_solving_or_chevalley(fresh_pipeline, x1):
    """get_f4_varieties reads the frozen words; it neither solves labels
    nor multiplies by Chevalley's rule."""
    def refuse(*args):
        raise AssertionError("label solving at load")

    fresh_pipeline.setattr(pipe, "solve_labels", refuse)
    fresh_pipeline.setattr(ChowRing, "chevalley_product", refuse)
    assert pipe.get_f4_varieties()[0] is x1
    frozen = json.loads(pipe._data_text("labels_p1.json"))
    assert {lab: weyl.serialize(cls.rep) for lab, cls in x1.labels.items()} == frozen


def test_table_checks_take_separate_routes(x1, monkeypatch):
    """pieri-tables-chevalley passes without a product in the full flag
    ring; pieri-tables-giambelli computes its products there, and passes
    without a Chevalley product."""
    def refuse(a, b):
        raise AssertionError("product in the full flag ring")

    def refuse_chevalley(*args):
        raise AssertionError("Chevalley product")

    with monkeypatch.context() as m:
        m.setattr(x1.engine, "product_classes", refuse)
        assert pipe.check_table_labels()[0]
        with pytest.raises(AssertionError, match="full flag ring"):
            pipe.check_tables()
    monkeypatch.setattr(ChowRing, "chevalley_product", refuse_chevalley)
    assert pipe.check_tables()[0]


def test_labels_not_aligned_with_duality_fail(x1, monkeypatch):
    """A duality that sends each class to itself: the tables still pin the
    frozen labels, but every label of X1 is out of line with it."""
    monkeypatch.setattr(x1, "dual_class", lambda cls: cls)
    passed, _, witness = pipe.check_table_labels()
    assert not passed
    assert witness == {"p1": {"assignments": 1, "missed": [],
                              "unaligned": sorted(x1.labels)}}


def test_structure_failure_witness_lists_got_and_want(x1, monkeypatch):
    """Each fact that differs maps to [got, want], tuples given as lists."""
    monkeypatch.setattr(ChowRing, "ranks", lambda self: (1,) * 24)
    monkeypatch.setattr(x1, "dim", 16)
    passed, _, witness = pipe.check_structure()
    want = [1, 1, 1, 1] + [2] * 8 + [1, 1, 1, 1]
    assert not passed
    assert witness == {"dim X1": [16, 15], "ranks X1": [[1] * 24, want],
                       "ranks X4": [[1] * 24, want]}


def test_build_r(x1, x4):
    """r itself is r^(p-1) of the F4 record taken at p = 2."""
    c = pipe.construction()._replace(p=2)
    r = pipe.r_power(c, 1)
    assert r.terms == {(x1.class_by_label("h1^4"), x4.unit_class): 1,
                       (x1.unit_class, x4.class_by_label("g1^4")): 1}
    r_minus = pipe.r_power(c, -1)
    assert r_minus.terms[(x1.unit_class, x4.class_by_label("g1^4"))] == -1
    with pytest.raises(ValueError):
        pipe.r_power(c, 2)


@pytest.mark.parametrize("eps", [1, -1])
def test_rho_congruences_match_fixtures(eps):
    fixtures = pipe.fixture_congruences(eps)[1]
    for i, rho in enumerate(pipe.rhos(pipe.construction(), eps)):
        assert corr.mod_reduce(rho, 3) == fixtures[i]


@pytest.mark.parametrize("eps", [1, -1])
def test_rho_morphism_degree(eps):
    rhos = pipe.rhos(pipe.construction(), eps)
    assert len(rhos) == 8
    for rho in rhos:
        assert {f.codim + g.codim for f, g in rho.terms} == {15}


def test_idempotent_candidates_equal_for_both_eps():
    assert pipe.compute_idempotents(1) == pipe.compute_idempotents(-1)


def test_displayed_cycles_idempotent_orthogonal_complete():
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


def _check_congruences(eps):
    return pipe._run(pipe.VerificationReport(), "idempotent-congruences",
                     lambda: pipe.check_idempotent_congruences(eps))


def test_engine_fault_in_idempotent_congruences_is_error(fresh_pipeline):
    """A SubringError is an engine fault: ERROR, never FAIL."""
    def broken(c, eps):
        raise SubringError("product left the subring at s1")

    fresh_pipeline.setattr(pipe, "rhos", broken)
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
    _edit_data(monkeypatch, "idempotent_cycles.json", _q2_first_coeff)
    _clear_pipeline_caches()
    return reduced


def test_corrupted_idempotent_cycle_fails_with_witness(fresh_pipeline):
    """One coefficient of the displayed q'_2 off by one: FAIL, and the
    witness holds i, the cycle and the reduced composition."""
    reduced = _corrupt_q2(fresh_pipeline)
    result = _check_congruences(1)
    assert result.status == "FAIL"
    assert result.detail == Q2_MISMATCH
    assert result.witness == {"i": 2, "cycle": "q'", "reduced": reduced}


def test_corrupted_idempotent_cycle_verify_exits_fail(fresh_pipeline, capsys):
    """The same edit through the whole command: every check that reads the
    mismatch FAILs with a witness, none reads ERROR, and verify exits 1."""
    reduced = _corrupt_q2(fresh_pipeline)
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
    _edit_data(monkeypatch, fname, (old, new))
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


def _both_eps(*names):
    return [f"{name}[eps={e}]" for name in names for e in ("+1", "-1")]


TABLES = ["pieri-tables-chevalley", "pieri-tables-giambelli"]
IDEMPOTENTS = [*_both_eps("idempotent-congruences"), "idempotent-eps-independence",
               "idempotent-exactness", "idempotent-completeness"]
# two labels of one codimension swapped: every check that reads those
# labels FAILs; the realization ranks, the endomorphism lattice and
# J's inverse do not see which of the two classes carries which name
LABEL_SWAP = [*TABLES, "giambelli-squares", "preimage-polynomials",
              *_both_eps("r2-congruence", "rho-congruences", "isomorphism-shape"),
              *IDEMPOTENTS, "idempotent-orthogonality"]


@pytest.mark.parametrize("fname,edit,status,failing,rc", [
    ("labels_p1.json", _swap(("h1^4", "h2^4")), "FAIL", LABEL_SWAP, 1),
    ("labels_p4.json", _swap(("g1^8", "g2^8")), "FAIL", LABEL_SWAP, 1),
    ("pieri_table_p1.json", _table_coeff("h1^2", 3), "FAIL", TABLES, 1),
    ("pieri_table_p4.json", _table_coeff("g1^2", 2), "FAIL", TABLES, 1),
    ("rho_congruences.json", _r2_first_coeff, "FAIL", _both_eps("r2-congruence"), 1),
    ("idempotent_cycles.json", _q2_first_coeff, "FAIL", IDEMPOTENTS, 1),
    ("h14_preimage.txt", ("11/6*w1^2*w4^2", "17/6*w1^2*w4^2"), "FAIL",
     ["preimage-polynomials"], 1),
    ("g14_preimage.txt", ("- 2/3*w2*w3^3", "- 2/3*w2*w3^3 - 1/7*w1^4"), "FAIL",
     ["preimage-polynomials"], 1),
    # a file that does not name each class once is a fixture error at load
    ("labels_p1.json", _h14_class_named_twice, "ERROR", CHECK_NAMES, 3),
], ids=["labels-p1-swap", "labels-p4-swap", "table-p1", "table-p4", "rho-congruences",
        "idempotent-cycles", "h14-preimage", "g14-preimage", "labels-p1-structure"])
def test_data_edit_verdicts(fname, edit, status, failing, rc, fresh_pipeline, capsys):
    """One edit per data file, through ``_data_text``: the status of every
    check of ``verify f4 --eps both`` and its exit code."""
    _edit_data(fresh_pipeline, fname, edit)
    code = main(["verify", "f4", "--eps", "both", "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    got = {c["name"]: "ERROR" if c.get("error") else "PASS" if c["passed"] else "FAIL"
           for c in checks}
    assert got == {name: status if name in failing else "PASS" for name in CHECK_NAMES}
    assert code == rc


def test_corrupted_table_fails_both_table_checks_with_witness(fresh_pipeline, capsys):
    """h1^1*h1^2 = 3 h1^3 in the table: no assignment reproduces it, and
    both routes name the row with what they got and what the table wants."""
    _edit_data(fresh_pipeline, "pieri_table_p1.json", _table_coeff("h1^2", 3))
    rc, failing = _verify_json(capsys)
    row = {"row": "h1^1*h1^2", "got": {"h1^3": 2}, "want": {"h1^3": 3}}
    assert sorted(failing) == TABLES
    assert failing["pieri-tables-chevalley"]["witness"] == {
        "p1": {"assignments": 0, "missed": [row], "unaligned": []}}
    assert failing["pieri-tables-giambelli"]["witness"] == {"p1": [row]}
    assert rc == 1


def test_wrong_chevalley_row_fails_only_the_chevalley_table_check(fresh_pipeline, x1,
                                                                   capsys):
    """X1's Chevalley row h1^1*h1^5 off by one: pieri-tables-chevalley
    FAILs with the row as witness, pieri-tables-giambelli still PASSes, and
    the checks whose localization products meet the row in the
    cross-check read ERROR.  ``x1`` is built after the caches are cleared,
    so no product memoized by an earlier test hides the row from the
    cross-check."""
    real = ChowRing.chevalley_product
    h15 = x1.class_by_label("h1^5")

    def corrupt(self, node, cls):
        row = real(self, node, cls)
        if self is x1 and cls is h15:
            return self.element({c: v + 1 for c, v in row.terms.items()})
        return row

    fresh_pipeline.setattr(ChowRing, "chevalley_product", corrupt)
    rc = main(["verify", "f4", "--eps", "both", "--format", "json"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    got = {name: "ERROR" if c.get("error") else "PASS" if c["passed"] else "FAIL"
           for name, c in checks.items()}
    errors = [*_both_eps("rho-congruences", "idempotent-congruences"),
              "idempotent-eps-independence",
              *_both_eps("isomorphism-shape", "isomorphism-inverse")]
    want = {name: "ERROR" if name in errors else "PASS" for name in CHECK_NAMES}
    want["pieri-tables-chevalley"] = "FAIL"
    assert got == want
    row = {"row": "h1^1*h1^5", "got": {"h1^6": 3}, "want": {"h1^6": 2}}
    assert checks["pieri-tables-chevalley"]["witness"] == {
        "p1": {"assignments": 0, "missed": [row], "unaligned": []}}
    detail = "AssertionError: localization and Chevalley products disagree on h1^5 * h1^1"
    assert all(checks[name]["detail"] == detail for name in errors)
    assert rc == 3


def test_wrong_giambelli_product_fails_the_giambelli_table_check(x1, monkeypatch):
    """3 added to the one-term Giambelli product h1^1*h1^1: check_tables
    FAILs with the row as witness instead of raising."""
    real = x1.engine.product_classes
    h11 = x1.class_by_label("h1^1").rep

    def corrupt(wa, wb):
        got = real(wa, wb)
        if wa == h11 and wb == h11:
            (w, v), = got.items()
            return {w: v + 3}
        return got

    monkeypatch.setattr(x1.engine, "product_classes", corrupt)
    passed, _, witness = pipe.check_tables()
    assert not passed
    assert witness == {"p1": [{"row": "h1^1*h1^1", "got": {"h1^2": 4}, "want": {"h1^2": 1}}]}


@pytest.mark.parametrize("pairs,unaligned", [
    ((("h1^4", "h2^4"),), ["h1^11", "h1^4", "h2^11", "h2^4"]),
    # the dual pair swapped as well keeps the labels in line with duality
    ((("h1^4", "h2^4"), ("h1^11", "h2^11")), []),
], ids=["one-pair", "dual-pairs"])
def test_swapped_labels_fail_the_table_check_with_witness(pairs, unaligned, fresh_pipeline):
    """Labels of one codimension swapped in the fixture: the tables still
    pin one assignment, but not the frozen one; the witness names the rows
    the frozen labels miss and the labels out of line with duality."""
    _edit_data(fresh_pipeline, "labels_p1.json", _swap(*pairs))
    passed, _, witness = pipe.check_table_labels()
    assert not passed
    assert list(witness) == ["p1"]
    assert witness["p1"]["assignments"] == 1
    assert {"h1^1*h1^4", "h1^1*h2^4"} <= {row["row"] for row in witness["p1"]["missed"]}
    assert witness["p1"]["unaligned"] == unaligned


def _rename(old, new):
    def edit(words):
        words[new] = words.pop(old)
    return edit


FIXTURE_ERROR = (RuntimeError, "label fixture error: labels_p1.json does not name each "
                 "basis class once, in its codimension")


@pytest.mark.parametrize("edit,error", [
    (_h14_class_named_twice, FIXTURE_ERROR),
    (_swap(("h1^4", "h1^5")), FIXTURE_ERROR),         # each class in the other's codimension
    (_rename("h1^0", "g1^0"), FIXTURE_ERROR),         # the other variety's letter
    (lambda words: words.pop("h1^15"), FIXTURE_ERROR),
    (_rename("h1^15", "h1^15x"), (ValueError, "invalid literal")),
    (lambda words: words.update({"h1^15": "s9"}), (ValueError, "bad reflection token")),
], ids=["class-named-twice", "codimensions-swapped", "letter", "missing", "malformed-label",
        "malformed-word"])
def test_label_fixture_structure_errors_at_load(edit, error, fresh_pipeline):
    """A label file that does not name each basis class once, in the
    codimension of its label, is a fixture error of get_f4_varieties."""
    _edit_data(fresh_pipeline, "labels_p1.json", edit)
    kind, message = error
    with pytest.raises(kind, match=message):
        pipe.get_f4_varieties()
