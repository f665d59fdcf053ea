"""src/chowring holds what the program's own traffic reaches.

The traffic is every golden CLI run (``golden_runs``), ``verify f4`` as JSON
and as text, and the commands that no golden pins: ``roots``, ``corr``,
``weyl order`` and ``longest``, a ``--cartan-file`` system, a malformed
command line and a refused class word.  It runs in a fresh interpreter, so that no cache an earlier
test filled hides a path, under ``sys.setprofile``.  Every function
defined in src/chowring must be reached, or be on ``ALLOWED`` with a
reason; an allowlisted function that the traffic reaches, or that no
longer exists, fails as well.

Code objects are matched to definitions by file and first line (the line
of the first decorator, for a decorated function): ``co_qualname`` does
not exist before Python 3.11.  Run as a script, this file is the traced
child: it reads the argv lists as JSON on stdin, runs them through
``chowring.cli.main`` and prints the exit codes and the reached
(file, first line) pairs as JSON.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from golden_runs import GOLDEN_RUNS

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "chowring"

# The commands that no golden pins, with the exit code each must give;
# {tmp} is a scratch directory.
EXTRA_RUNS = [
    (["verify", "f4", "--eps", "both", "--format", "json"], 0),
    (["verify", "f4", "--eps", "both", "--timings", "--report", "{tmp}/report.json"], 0),
    (["roots", "--type", "F4"], 0),
    (["roots", "--type", "A2", "--format", "json"], 0),
    (["roots", "--cartan-file", "{tmp}/b2.txt"], 0),
    (["weyl", "order", "--type", "F4"], 0),
    (["weyl", "longest", "--type", "F4"], 0),
    (["weyl", "longest", "--type", "F4", "--theta", "1,2,3"], 0),
    (["corr", "diagonal", "--variety", "x4", "-o", "{tmp}/delta.json"], 0),
    (["corr", "transpose", "{tmp}/delta.json"], 0),
    (["corr", "compose", "{tmp}/delta.json", "{tmp}/delta.json", "--mod", "3"], 0),
    (["weyl", "bogus", "--type", "F4"], 2),
    (["chow", "mult", "--type", "B3", "--lhs", "[s1 s9]", "--rhs", "[s1]"], 2),
]

# Functions the traffic does not reach, each with the reason it stays.
ALLOWED = {
    "poly.RationalPolynomial.__repr__": "debugging aid; the CLI prints polynomials "
                                        "with format_polynomial",
    "rootsystem.RootSystem.__repr__": "debugging aid; no command prints a system",
    "rootsystem.CartanMatrix.__repr__": "debugging aid; no command prints a matrix",
    "rootsystem.CartanMatrix.__eq__": "public value type: matrices built from the same "
                                      "rows are equal; no command compares two",
    "rootsystem.CartanMatrix.__hash__": "public value type: hashes alike when equal; no "
                                        "command hashes a matrix",
    "schubert.ChowRing.__repr__": "debugging aid; no command prints a ring",
    "schubert.SchubertClass.__repr__": "debugging aid; reports print class labels",
    "weyl.WeylElement.__repr__": "debugging aid; the CLI prints elements with serialize",
    "correspondence.Correspondence._label": "only repr reads it; the CLI prints "
                                            "correspondences as JSON",
    "correspondence._Row.__missing__": "the CLI names classes only by the labels of "
                                       "the right ring",
    "f4pipeline.IdempotentMismatch.__init__": "raised only when an idempotent check FAILs",
    "schubert._LocalizationEngine._witness": "the message of a refused localization "
                                             "product; runs only when one is refused",
    "poly._Combination.__hash__": "public arithmetic: combinations are values and hash "
                                  "by their terms",
    "poly._Combination.__neg__": "public arithmetic: the negation beside + and -",
    "schubert.ChowRing.zero": "public constructor; products above the dimension and "
                              "the c map of 0 return it",
    "poly.RationalPolynomial.__init__": "public constructor from exponent tuples; the "
                                        "engines wrap packed terms instead",
    "correspondence.are_orthogonal": "public check; the benchmark's corr-algebra "
                                     "workload calls it",
    "hasse.HasseDiagram.lengths": "the benchmark's group-diagrams workload reads it",
    "schubert.ChowElement.__mul__": "public x * y, the ring product; the CLI calls "
                                    "ChowRing.multiply itself",
    "weyl.WeylGroup.maximal_coset_reps": "the benchmark's group-diagrams workload "
                                         "reads it",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every function in src/chowring."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = name
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def _traced_child() -> None:
    runs = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    from chowring.cli import main
    codes = []
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
    sys.setprofile(None)
    reached = sorted({(os.path.realpath(f), line) for f, line in seen})
    json.dump({"codes": codes, "reached": reached}, sys.stdout)


def test_src_holds_what_its_traffic_reaches(tmp_path):
    (tmp_path / "b2.txt").write_text("2 -1\n-2 2\n")
    runs = [(argv, 0) for _, argv in GOLDEN_RUNS] + EXTRA_RUNS
    argvs = [[a.replace("{tmp}", str(tmp_path)) for a in argv] for argv, _ in runs]
    child = subprocess.run([sys.executable, __file__], input=json.dumps(argvs),
                           capture_output=True, text=True, check=True)
    result = json.loads(child.stdout)
    assert result["codes"] == [code for _, code in runs]
    reached = {(f, line) for f, line in result["reached"]}
    defined = defined_functions()
    assert len(set(defined.values())) == len(defined)
    unreached = {name for key, name in defined.items() if key not in reached}
    assert sorted(unreached - ALLOWED.keys()) == [], \
        "functions that the traffic does not reach and ALLOWED does not name"
    assert sorted(ALLOWED.keys() & set(defined.values()) - unreached) == [], \
        "allowlisted functions that the traffic reaches"
    assert sorted(ALLOWED.keys() - set(defined.values())) == [], \
        "allowlisted functions that src/chowring no longer defines"


if __name__ == "__main__":
    _traced_child()
