import json
import subprocess
import sys
from pathlib import Path

import pytest

from chowring.cli import main
from golden_runs import GOLDEN_RUNS


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_roots_f4(capsys):
    code, out, _ = run_cli("roots", "--type", "F4", capsys=capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 24


def test_roots_json(capsys):
    code, out, _ = run_cli("roots", "--type", "A2", "--format", "json",
                           capsys=capsys)
    payload = json.loads(out)
    assert len(payload) == 3
    assert payload[-1] == {"coords": [1, 1], "height": 2}


def test_roots_from_cartan_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 -1\n-1 2\n")
    code, out, _ = run_cli("roots", "--cartan-file", str(path), capsys=capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_unknown_type_is_usage_error(capsys):
    code, _, err = run_cli("roots", "--type", "E9", capsys=capsys)
    assert code == 2
    assert "unknown root system" in err


def test_bad_theta_is_usage_error(capsys):
    code, _, err = run_cli("weyl", "longest", "--type", "F4",
                           "--theta", "1,9", capsys=capsys)
    assert code == 2


def _corr(coeff="1", f="h1^0", g="h1^15") -> str:
    """A one-term correspondence on X1 with JSON ``coeff``, or none."""
    term = f'"f": "{f}", "g": "{g}"' + ("" if coeff is None else f', "coeff": {coeff}')
    return '{"source": "x1", "target": "x1", "terms": [{%s}]}' % term


# the inputs below whose file cannot be opened, with their whole error line
PATH_ERRORS = {
    "cartan-directory": "{dir}: Is a directory",
    "cartan-missing": "{file}: No such file or directory",
    "output-to-missing-directory": "{file}/x.json: No such file or directory",
}


@pytest.mark.parametrize("argv, file_text", [
    (["chow", "mult", "--type", "F4", "--theta", "2,3,4",
      "--lhs", "[s9]", "--rhs", "h1^1"], None),
    (["chow", "mult", "--type", "F4", "--theta", "2,3,4",
      "--lhs", "[s1]", "--rhs", "h1^1"], None),
    (["chow", "giambelli-lift", "--type", "F4", "--theta", "2,3,4",
      "--class", "[x1]"], None),
    (["corr", "transpose", "{file}"],
     '{"source": "x1", "terms": []}'),
    (["roots", "--cartan-file", "{file}"], "2 -1\n-1\n"),
    (["chow", "basis", "--type", "F4", "--theta", "2,3,4", "--codim", "99"], None),
    (["chow", "table", "--type", "F4", "--theta", "2,3,4", "--node", "2"], None),
    (["hasse", "--type", "F4", "--theta", "2,3,4", "--pieri", "--node", "9"], None),
    (["corr", "transpose", "{file}"], _corr("1.5")),
    (["corr", "transpose", "{file}"], _corr("true")),
    (["corr", "transpose", "{file}"], _corr('"1"')),
    (["corr", "transpose"], None),
    (["corr", "compose"], None),
    (["corr", "compose", "{file}"], _corr()),
    (["corr", "compose", "{file}", "{file}", "{file}"], _corr()),
    (["corr", "diagonal", "{file}"], _corr()),
    (["weyl", "order", "--type", "F4", "--format", "json"], None),
    (["weyl", "longest", "--type", "F4", "--format", "dot"], None),
    (["weyl", "cosets", "--type", "F4", "--theta", "2,3,4", "--format", "text"], None),
    (["roots", "--type", "F4", "--format", "dot"], None),
    (["chow", "basis", "--type", "F4", "--theta", "2,3,4", "--format", "json"], None),
    (["chow", "mult", "--type", "F4", "--theta", "2,3,4",
      "--lhs", "h1^1", "--rhs", "h1^1", "--format", "json"], None),
    (["chow", "giambelli-lift", "--type", "F4", "--theta", "2,3,4",
      "--class", "h1^1", "--format", "json"], None),
    (["chow", "table", "--type", "F4", "--theta", "2,3,4", "--format", "dot"], None),
    (["hasse", "--type", "F4", "--theta", "2,3,4", "--format", "text"], None),
    (["weyl", "order", "--type", "A2", "--theta", "1"], None),
    (["weyl", "order", "--type", "A2", "--maximal"], None),
    (["weyl", "longest", "--type", "A2", "--maximal"], None),
    (["hasse", "--type", "F4", "--theta", "2,3,4", "--format", "json", "--by-codim"], None),
    (["hasse", "--type", "F4", "--theta", "2,3,4", "--pieri", "--by-codim"], None),
    (["hasse", "--type", "F4", "--theta", "2,3,4", "--node", "1"], None),
    (["chow", "mult", "--type", "F4", "--theta", "2,3,4",
      "--lhs", "h1^1", "--rhs", "h1^1", "--codim", "2"], None),
    (["chow", "basis", "--type", "F4", "--theta", "2,3,4", "--lhs", "h1^1"], None),
    (["chow", "table", "--type", "F4", "--theta", "2,3,4", "--rhs", "h1^1"], None),
    (["chow", "basis", "--type", "F4", "--theta", "2,3,4", "--class", "h1^1"], None),
    (["chow", "basis", "--type", "F4", "--theta", "2,3,4", "--node", "1"], None),
    (["corr", "diagonal", "--mod", "3"], None),
    (["corr", "transpose", "{file}", "--variety", "x4"], _corr()),
    (["corr", "compose", "{file}", "{file}"],
     '{"source": "x1", "target": "x4", "terms": '
     '[{"f": "h1^0", "g": "g1^15", "coeff": 1}]}'),
    (["corr", "compose", "{file}", "{file}", "--mod", "0"], _corr()),
    (["chow", "basis", "--type", "F4", "--theta", "2,3,4", "--format", "text"], None),
    (["chow", "mult", "--type", "F4", "--theta", "2,3,4", "--lhs", "h1^1"], None),
    (["chow", "--type", "F4", "--theta", "2,3,4", "basis"], None),
    (["roots", "--cartan-file", "{file}"], "2 -2\n-2 2\n"),
    (["roots", "--cartan-file", "{file}"], "3 -1\n-1 2\n"),
    (["roots", "--cartan-file", "{file}"], "2 1\n1 2\n"),
    (["roots", "--cartan-file", "{file}"], "2 -1\n0 2\n"),
    (["roots", "--cartan-file", "{file}"], "2 -%d\n-1 2\n" % 10 ** 30),
    (["roots", "--cartan-file", "{dir}"], None),
    (["roots", "--cartan-file", "{file}"], None),
    (["corr", "transpose", "{file}"], _corr(f="zz")),
    (["corr", "transpose", "{file}"], _corr(g="g1^15")),
    (["corr", "transpose", "{file}"], _corr(coeff=None)),
    (["corr", "diagonal", "-o", "{file}/x.json"], None),
], ids=["node-out-of-range", "not-a-basis-class", "bad-token",
        "corr-missing-target", "ragged-cartan", "codim-out-of-range",
        "table-node-in-theta", "pieri-node-out-of-range",
        "corr-fractional-coeff", "corr-bool-coeff", "corr-string-coeff",
        "corr-transpose-no-file", "corr-compose-no-file",
        "corr-compose-one-file", "corr-compose-three-files",
        "corr-diagonal-with-file", "weyl-order-json", "weyl-longest-dot",
        "weyl-cosets-text", "roots-dot", "chow-basis-json", "chow-mult-json",
        "chow-lift-json", "chow-table-dot", "hasse-text", "weyl-order-theta",
        "weyl-order-maximal", "weyl-longest-maximal", "hasse-json-by-codim",
        "pieri-by-codim", "hasse-node-without-pieri", "chow-mult-codim",
        "chow-basis-lhs", "chow-table-rhs", "chow-basis-class", "chow-basis-node",
        "corr-diagonal-mod", "corr-transpose-variety",
        "corr-compose-middle-mismatch", "corr-compose-mod-0",
        "chow-basis-format-text", "chow-mult-no-rhs", "option-before-query",
        "cartan-affine", "cartan-diagonal-3", "cartan-positive-off-diagonal",
        "cartan-asymmetric-zeros", "cartan-huge-entry", "cartan-directory",
        "cartan-missing", "corr-unknown-label", "corr-foreign-label",
        "corr-missing-coeff", "output-to-missing-directory"])
def test_malformed_input_is_usage_error(argv, file_text, tmp_path, capsys, request):
    """Exit code 2, nothing on stdout and one ``error:`` line; with no
    ``file_text``, ``{file}`` names a path that does not exist.  A file that
    cannot be opened is named first, then the reason."""
    path = tmp_path / "input"
    if file_text is not None:
        path.write_text(file_text)

    def fill(text):
        return text.replace("{file}", str(path)).replace("{dir}", str(tmp_path))

    code, out, err = run_cli(*map(fill, argv), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    opened = PATH_ERRORS.get(request.node.callspec.id)
    if opened is not None:
        assert err == f"error: {fill(opened)}\n"


@pytest.mark.parametrize("content", [
    b"not json\n", b"\xff\xfe{", b'[{"source": "x1"}]\n', b'"x1"\n',
    b'{"source": "x1", "target": "x1", "terms": {"f": "h1^0"}}\n',
    b'{"source": "x1", "target": "x1", "terms": [1]}\n',
    b'{"source": ["x1"], "target": "x1", "terms": []}\n',
    b'{"source": "x1", "target": "x1", "terms": [{"f": ["h1^0"], "g": "h1^15", "coeff": 1}]}\n',
    b"[" * 100_000,
], ids=["not-json", "not-utf8", "json-array", "json-string", "terms-object",
        "terms-of-integers", "source-list", "label-list", "deep-nesting"])
def test_corr_file_that_is_no_json_object_is_named(content, tmp_path, capsys):
    """A correspondence file that is not JSON, whose JSON is not an
    object, or whose source, terms or labels have the wrong shape is a
    one-line usage error that names the file, not a Python internal."""
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli("corr", "transpose", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not any(leak in err for leak in ("indices", "subscriptable", "unhashable"))


@pytest.mark.parametrize("text, message", [
    ("2 x\n-1 2\n", "line 1: 'x' is not an integer"),
    ("2 -1\n\n-1 2.0\n", "line 3: '2.0' is not an integer"),
    ("", "no matrix rows found"),
], ids=["letter", "decimal-after-blank-line", "empty"])
def test_cartan_file_error_names_line_and_token(text, message, tmp_path, capsys):
    """A Cartan file with a token that is no integer names its line and the
    token; an empty file is named once."""
    path = tmp_path / "e.txt"
    path.write_text(text)
    code, out, err = run_cli("roots", "--cartan-file", str(path), capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def test_chow_mult_above_the_localization_bound_is_usage_error(monkeypatch, capsys):
    """An engine whose table would exceed the bound ends ``chow mult`` with
    one error line and exit code 2; the ring is built fresh, so no cached
    engine hides the guard."""
    from chowring import cli, schubert

    monkeypatch.setattr(cli, "get_chow_ring", schubert.ChowRing)
    monkeypatch.setattr(schubert, "MAX_LOCALIZATION_TABLE", 48 * 48 - 1)
    code, out, err = run_cli("chow", "mult", "--type", "B3", "--lhs", "[s1 s2 s3 s2 s1]",
                             "--rhs", "[s2 s3 s2 s1 s2]", capsys=capsys)
    assert (code, out) == (2, "")
    assert err == ("error: localization on 48 fixed points needs a table of 2304 "
                   "entries, more than the 2303 this program builds\n")


def test_weyl_order_and_longest(capsys):
    code, out, _ = run_cli("weyl", "order", "--type", "F4", capsys=capsys)
    assert (code, out) == (0, "1152\n")
    code, out, _ = run_cli("weyl", "longest", "--type", "F4",
                           "--theta", "1,2,3", capsys=capsys)
    assert code == 0
    assert "length 9" in out


def test_weyl_cosets(capsys):
    code, out, _ = run_cli("weyl", "cosets", "--type", "F4",
                           "--theta", "2,3,4", capsys=capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "count 24"


def test_hasse_dot_output(capsys):
    code, out, _ = run_cli("hasse", "--type", "F4", "--theta", "2,3,4",
                           "--format", "dot", capsys=capsys)
    assert code == 0
    assert out.count("->") == 30
    assert len([l for l in out.splitlines() if "label=" in l and "->" not in l]) == 24


def test_hasse_pieri_json(capsys):
    code, out, _ = run_cli("hasse", "--type", "F4", "--theta", "2,3,4",
                           "--pieri", "--format", "json", capsys=capsys)
    payload = json.loads(out)
    assert len(payload["edges"]) == 32


def test_hasse_pieri_reads_the_cartan_file_once(tmp_path, monkeypatch, capsys):
    """The system and theta of ``hasse --pieri`` are parsed once: one root
    system is built, and the Pieri ring is built on it."""
    from chowring import cli

    built = []
    build = cli.build_root_system
    monkeypatch.setattr(cli, "build_root_system",
                        lambda cartan: built.append(cartan) or build(cartan))
    path = tmp_path / "b2.txt"
    path.write_text("2 -1\n-2 2\n")
    code, out, _ = run_cli("hasse", "--cartan-file", str(path), "--theta", "1",
                           "--pieri", "--format", "json", capsys=capsys)
    assert code == 0
    assert len(built) == 1
    assert len(json.loads(out)["vertices"]) == 4


def test_chow_off_the_pipeline_thetas_reads_no_f4_system(monkeypatch, capsys):
    """A ring whose theta is no F4 variety's is matched against the
    pipeline's records without asking for the F4 root system."""
    from chowring import cli

    named = []
    real = cli.root_system
    monkeypatch.setattr(cli, "root_system", lambda name: named.append(name) or real(name))
    code, _, _ = run_cli("chow", "basis", "--type", "A2", "--theta", "1", capsys=capsys)
    assert code == 0
    assert named == ["A2"]


def test_chow_basis(capsys):
    code, out, _ = run_cli("chow", "basis", "--type", "F4",
                           "--theta", "2,3,4", "--codim", "4", capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert any("h1^4" in line for line in lines)


def test_chow_mult(capsys):
    code, out, _ = run_cli("chow", "mult", "--type", "F4", "--theta", "2,3,4",
                           "--lhs", "h1^4", "--rhs", "h1^4", capsys=capsys)
    assert code == 0
    assert out.strip() == "8*h1^8 + 6*h2^8"


def test_chow_giambelli_lift(capsys):
    code, out, _ = run_cli("chow", "giambelli-lift", "--type", "F4",
                           "--theta", "2,3,4", "--class", "h1^1",
                           capsys=capsys)
    assert code == 0
    assert out.strip() == "w1"


def test_chow_table_matches_fixture(capsys):
    from chowring.f4pipeline import _data_text
    code, out, _ = run_cli("chow", "table", "--type", "F4", "--theta", "2,3,4",
                           "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out) == json.loads(_data_text("pieri_table_p1.json"))
    code, out, _ = run_cli("chow", "table", "--type", "F4", "--theta", "1,2,3",
                           "--format", "json", capsys=capsys)
    assert json.loads(out) == json.loads(_data_text("pieri_table_p4.json"))


def test_chow_table_text_deterministic(capsys):
    code, out1, _ = run_cli("chow", "table", "--type", "F4",
                            "--theta", "1,2,3", capsys=capsys)
    code, out2, _ = run_cli("chow", "table", "--type", "F4",
                            "--theta", "1,2,3", capsys=capsys)
    assert out1 == out2
    assert "g1^1*g1^7" in out1


def test_corr_diagonal_and_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli("corr", "diagonal", "--variety", "x4",
                           capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 24
    path = tmp_path / "delta.json"
    path.write_text(out)
    code, out2, _ = run_cli("corr", "compose", str(path), str(path),
                            capsys=capsys)
    assert code == 0
    assert json.loads(out2) == payload
    code, out3, _ = run_cli("corr", "transpose", str(path), capsys=capsys)
    assert json.loads(out3)["terms"] == payload["terms"]


def test_verify_f4_single_eps(capsys):
    """Each eps alone, text and JSON, byte for byte."""
    golden = Path(__file__).parent / "golden"
    for eps, name in (("1", "plus1"), ("-1", "minus1")):
        for fmt, ext in (("text", "txt"), ("json", "json")):
            code, out, _ = run_cli("verify", "f4", "--eps", eps, "--format", fmt,
                                   capsys=capsys)
            assert code == 0
            assert out.encode() == (golden / f"verify_f4_eps_{name}.{ext}").read_bytes()


def test_verify_f4_report_matches_golden_copy(capsys):
    """The paper's result, byte for byte: both eps values, JSON report."""
    golden = Path(__file__).parent / "golden" / "verify_f4.json"
    code, out, _ = run_cli("verify", "f4", "--eps", "both", "--format", "json",
                           capsys=capsys)
    assert code == 0
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("golden, argv", GOLDEN_RUNS)
def test_cli_output_matches_golden_copy(golden, argv, capsys):
    """Coset lists, diagrams, bases, tables, Giambelli lifts and products
    of X1 and X4, a six-term F4/P2 product and the text report of
    ``verify f4``, byte for byte."""
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "golden" / golden).read_bytes()


def test_verify_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli("verify", "f4", "--eps", "both", "--report",
                           str(path), capsys=capsys)
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) == 21


def test_verify_report_to_unwritable_path_prints_nothing(tmp_path, monkeypatch, capsys):
    """An unwritable --report ends with exit code 2, one error line and an
    empty stdout, before any check runs: the report file is opened first."""
    from chowring import f4pipeline

    runs = []
    verify = f4pipeline.run_f4_verification
    monkeypatch.setattr(f4pipeline, "run_f4_verification",
                        lambda eps: runs.append(eps) or verify(eps))
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli("verify", "f4", "--eps", "both", "--report", str(path),
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: No such file or directory\n"
    assert runs == []


def test_verify_timings_go_to_stderr(tmp_path, capsys):
    """--timings prints one line per check to stderr; stdout and the
    report stay byte-identical to the goldens."""
    golden = Path(__file__).parent / "golden"
    path = tmp_path / "report.json"
    code, out, err = run_cli("verify", "f4", "--eps", "both", "--timings", "--report",
                             str(path), capsys=capsys)
    assert code == 0
    assert out.encode() == (golden / "verify_f4.txt").read_bytes()
    assert path.read_bytes() == (golden / "verify_f4.json").read_bytes()
    lines = err.splitlines()
    assert len(lines) == 21
    names = [c["name"] for c in json.loads(path.read_text())["checks"]]
    assert [line.split(" ", 1)[1] for line in lines] == names
    assert all(float(line.split(" ", 1)[0]) >= 0 for line in lines)


def test_verify_reports_internal_error_apart_from_failure(monkeypatch, capsys):
    """A check that raises is an ERROR with exit code 3, not a FAIL."""
    from chowring import f4pipeline

    def broken():
        raise TypeError("unsupported operand")

    monkeypatch.setattr(f4pipeline, "check_structure", broken)
    code, out, _ = run_cli("verify", "f4", "--eps", "1", "--format", "json",
                           capsys=capsys)
    assert code == 3
    payload = json.loads(out)
    check = payload["checks"][0]
    assert check == {"name": "structure", "passed": False, "error": True,
                     "detail": "TypeError: unsupported operand"}
    assert all("error" not in c for c in payload["checks"][1:])
    code, out, _ = run_cli("verify", "f4", "--eps", "1", capsys=capsys)
    assert code == 3
    assert out.startswith("ERROR structure: TypeError: unsupported operand\n")
    assert "ERROR overall (" in out


@pytest.mark.parametrize("fault", [ValueError("boom"), AssertionError("boom")])
def test_command_fault_is_internal_error(fault, monkeypatch, capsys):
    """A fault inside a command is no usage error: its traceback goes to
    stderr, nothing to stdout, and the exit code is 3."""
    from chowring import schubert

    def broken(self, x, y):
        raise fault

    monkeypatch.setattr(schubert.ChowRing, "multiply", broken)
    code, out, err = run_cli("chow", "mult", "--type", "F4", "--theta", "2,3,4",
                             "--lhs", "h1^4", "--rhs", "h1^4", capsys=capsys)
    assert (code, out) == (3, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith(f"{type(fault).__name__}: boom\n")


def test_cli_subprocess_deterministic():
    cmd = [sys.executable, "-m", "chowring.cli", "hasse", "--type", "F4",
           "--theta", "1,2,3", "--format", "dot"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout
