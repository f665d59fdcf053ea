"""The exit-code contract on generated malformed command lines.

For every command and query, a seeded generator breaks one valid command
line at a time: it drops a required option, adds an option that only
another query reads, moves an option in front of the query, gives
``--format``, ``--mod`` or ``--variety`` a value no query takes, or hands a
``corr`` query the wrong number of files.  Each line runs through
``chowring.cli.main`` in process and must end with exit code 2, nothing on
stdout, and exactly one stderr line that starts with ``error: ``, names
the offending option, value or argument, and shows no traceback.  A
second generator points each query's ``-o`` (``verify``'s ``--report``)
into a directory that does not exist: the error line names that path
first.  A third generator writes malformed input the commands parse:
Cartan files, theta and node values, class strings and correspondence
files, among them integers past the interpreter's conversion limit and
theta, node, codim, type, label, word and Cartan-file tokens thousands of
characters long; each line must fail the same way, name the file, token
or value, and stay short.  Last, a plain ``ValueError`` raised inside the
library where input is parsed, or a ``KeyError`` raised while a
correspondence file is read, is a fault, not a refusal: exit code 3 and a
traceback.

The file uses the standard library and the tests' ``dynkin`` module only, so
``python tests/test_usage_errors.py`` runs the same checks on an
interpreter without pytest.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile

from chowring import cli, correspondence, weyl
from chowring.cli import build_parser, main
from chowring.schubert import ChowRing
import dynkin

# A valid command line per query: the words that name it, the options it
# requires, then the other options it reads.  Every option of the program
# is read by at least one query here; "{file}" is a path.
QUERIES = [
    (["roots"], ["--type", "A2"], ["--format", "json", "-o", "{file}"]),
    (["weyl", "order"], ["--type", "A2"], ["-o", "{file}"]),
    (["weyl", "longest"], ["--type", "A2"], ["--theta", "1", "-o", "{file}"]),
    (["weyl", "cosets"], ["--type", "A2"], ["--theta", "1", "--maximal", "-o", "{file}"]),
    (["hasse"], ["--type", "A2"],
     ["--theta", "1", "--format", "json", "--pieri", "--node", "2", "--by-codim",
      "-o", "{file}"]),
    (["chow", "basis"], ["--type", "A2"], ["--theta", "1", "--codim", "1", "-o", "{file}"]),
    (["chow", "mult"], ["--type", "A2", "--lhs", "[s1]", "--rhs", "[s2 s1]"],
     ["--theta", "1", "-o", "{file}"]),
    (["chow", "table"], ["--type", "A2"],
     ["--theta", "1", "--format", "json", "--node", "2", "-o", "{file}"]),
    (["chow", "giambelli-lift"], ["--type", "A2", "--class", "[s1]"],
     ["--theta", "1", "-o", "{file}"]),
    (["corr", "diagonal"], [], ["--variety", "x4", "-o", "{file}"]),
    (["corr", "transpose", "{file}"], [], ["-o", "{file}"]),
    (["corr", "compose", "{file}", "{file}"], [], ["--mod", "3", "-o", "{file}"]),
    (["verify", "f4"], [], ["--eps", "1", "--format", "json", "--report", "{file}",
                            "--timings"]),
]

# the options that name a file the query writes
OUTPUTS = ("-o", "--report")

# a correspondence file that the corr queries read
CORR = '{"source": "x4", "target": "x4", "terms": [{"f": "g1^0", "g": "g1^15", "coeff": 1}]}'

# values that no query takes
BAD_VALUES = {
    "--format": ["xml", "", "JSON", "txt", "dot json"],
    "--mod": ["0", "2", "-3", "x", "3.0", ""],
    "--variety": ["x2", "X1", "", "x1,x4", "f4"],
}

SEEDS = (0, 1, 2)


def run(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def refused_once(code, out, err, *named):
    """Exit code 2, nothing on stdout, and one ``error:`` line on stderr,
    at most 400 characters long, that contains every string of ``named``
    and no traceback."""
    return (code == 2 and out == "" and err.startswith("error: ")
            and err.count("\n") == 1 and err.endswith("\n") and len(err) <= 400
            and all(n in err for n in named) and "Traceback" not in err)


def options(tokens):
    """Split option tokens into [flag, value...] groups."""
    groups = []
    for tok in tokens:
        if tok.startswith("-") and not tok[1:].isdigit():
            groups.append([tok])
        else:
            groups[-1].append(tok)
    return groups


def malformed_lines(seed, path):
    """(argv, a string the error line must contain) for every query."""
    rng = random.Random(seed)

    def sub(tokens):
        return [path if t == "{file}" else t for t in tokens]

    flags_of = [{g[0]: g for g in options(req + opt)} for _, req, opt in QUERIES]
    for index, (words, required, optional) in enumerate(QUERIES):
        words = sub(words)
        groups = options(sub(required + optional))
        command, query = words[0], words[1:2]
        positionals = words[1 + len(query):]

        def line(gs):
            return words + [tok for g in gs for tok in g]

        for k, g in enumerate(options(sub(required))):
            yield line(groups[:k] + groups[k + 1:]), g[0]

        foreign = sorted({flag for i, flags in enumerate(flags_of) if i != index
                          for flag in flags} - set(flags_of[index]))
        for flag in rng.sample(foreign, 3):
            other = next(f[flag] for f in flags_of if flag in f)
            gs = list(groups)
            gs.insert(rng.randrange(len(gs) + 1), sub(other))
            yield line(gs), flag

        for k, g in enumerate(groups):
            if g[0] in BAD_VALUES:
                bad = rng.choice(BAD_VALUES[g[0]])
                gs = groups[:k] + [[g[0], bad]] + groups[k + 1:]
                yield line(gs), bad if g[0] == "--variety" else g[0]

        if command in ("weyl", "chow", "corr") and groups:
            moved = rng.choice(groups)
            rest = [g for g in groups if g is not moved]
            yield ([command, *moved, *query, *positionals]
                   + [tok for g in rest for tok in g]), moved[-1]

        if command == "corr":
            count = rng.choice([n for n in range(4) if n != len(positionals)])
            files = [f"{path}{n}" for n in range(count)]
            named = files[-1] if count > len(positionals) else "required"
            yield [command, *query, *files] + [tok for g in groups for tok in g], named


def missing_directory_lines(path, missing):
    """(argv, the path its error line must start with) for every query: its
    required options and --theta, with its output option set to
    ``missing``, a path in a directory that does not exist."""
    for words, required, optional in QUERIES:
        groups = options(required + optional)
        kept = [g for g in groups if g[0] == "--theta"]
        kept += [[g[0], missing] for g in groups if g[0] in OUTPUTS]
        argv = words + required + [tok for g in kept for tok in g]
        yield [path if t == "{file}" else t for t in argv], missing


def broken_cartan(kind, rng):
    """The bytes of a Cartan file broken as ``kind`` says, and the token its
    error line must name besides the path ("" for none; the line number of
    a huge integer)."""
    n = rng.randint(3, 5)
    rows = [list(row) for row in dynkin.cartan(f"A{n}")]
    i = rng.randrange(n - 1)
    token = ""
    if kind == "empty":
        return rng.choice(["", "\n", " \n\t\n"]).encode(), token
    if kind == "token":
        token = rng.choice(["x", "2.0", "1/2", "--1", "0x1", "two"])
        rows[rng.randrange(n)][rng.randrange(n)] = token
        token = repr(token)
    elif kind == "huge":   # an integer past the interpreter's conversion limit
        r, digits = rng.randrange(n), rng.randint(4301, 6000)
        rows[r][rng.randrange(n)] = rng.choice(["", "-"]) + "9" * digits
        token = f"line {r + 1}: "
    elif kind == "ragged":
        del rows[rng.randrange(n)][-1]
    elif kind == "positive":
        rows[i][i + 1] = rows[i + 1][i] = rng.randint(1, 3)
    elif kind == "zeros":
        j, k = rng.choice([(i, i + 1), (i + 1, i)])
        rows[j][k] = 0
    elif kind == "unsymmetrizable":   # a cycle 1-2-3 whose products differ
        rows[0][2], rows[2][0] = -1, -rng.randint(2, 3)
    elif kind == "infinite":          # affine or indefinite
        if rng.random() < 0.5:
            rows[0][n - 1] = rows[n - 1][0] = -1
        else:
            a = rng.randint(1, 4)
            b = -(-4 // a) + rng.randint(0, 1)   # a * b >= 4
            rows[i][i + 1], rows[i + 1][i] = -a, -b
    text = "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()
    if kind == "bytes":
        bad = rng.choice([b"\xff", b"\xfe", b"\x80", b"\xc3("])
        return (bad + text if rng.random() < 0.5 else text + bad), token
    return text, token


def _labels(tag):
    letter = "h" if tag == "x1" else "g"
    return [f"{letter}1^{k}" for k in range(16)] + [f"{letter}2^{k}" for k in range(4, 12)]


def broken_corr(kind, rng):
    """The text of a correspondence file broken as ``kind`` says."""
    if kind == "deep":
        return "[" * 100_000
    source, target = rng.choice("x1 x4".split()), rng.choice("x1 x4".split())
    terms = [{"f": rng.choice(_labels(source)), "g": rng.choice(_labels(target)),
              "coeff": rng.choice([-2, -1, 1, 3])} for _ in range(rng.randint(1, 3))]
    payload = {"source": source, "target": target, "terms": terms}
    term = rng.choice(terms)
    if kind == "not-json":
        text = json.dumps(payload)
        return rng.choice(["", "nope", text[:rng.randrange(len(text))]])
    if kind == "not-object":
        return json.dumps(rng.choice([[payload], source, 3, None]))
    if kind == "missing-key":
        owner = rng.choice([payload, term])
        del owner[rng.choice(sorted(owner))]
    elif kind == "nesting":
        payload["terms"] = rng.choice([term, [terms], [1, 2], term["f"]])
    elif kind == "label-type":
        key = rng.choice("fg")
        term[key] = rng.choice([1, None, True, [term[key]], {"label": term[key]}])
    elif kind == "coeff":
        term["coeff"] = rng.choice([True, False, 1.0, 2.5, float("nan"), "1", None])
    elif kind == "foreign-label":
        term["f"] = rng.choice(_labels("x4" if source == "x1" else "x1"))
    elif kind == "huge-coeff":   # json.dumps cannot write an int past the limit
        term["coeff"] = "HUGE"
        return json.dumps(payload).replace('"HUGE"', "-" * rng.randint(0, 1)
                                           + "7" * rng.randint(4301, 6000))
    return json.dumps(payload)


CARTAN_KINDS = ("empty", "token", "ragged", "positive", "zeros", "unsymmetrizable",
                "infinite", "bytes", "huge")
CORR_KINDS = ("not-json", "not-object", "missing-key", "nesting", "label-type", "coeff",
              "foreign-label", "deep", "huge-coeff")
# what the error line says of an integer past the interpreter's conversion limit
LIMIT = "digits, more than the interpreter's integer-conversion limit"
# (--type, --theta) of the rings the class, theta and node lines query
RINGS = [("F4", "2,3,4"), ("F4", "1,2,3"), ("B3", "1"), ("G2", "2"), ("A2", "1")]
# the tokens that come thousands of characters long
LONG_KINDS = ("theta", "node", "codim", "type", "label", "word", "cartan")


def long_token_line(kind, rng, tmp):
    """(argv, strings its error line must contain) for one token of
    ``kind`` thousands of characters long: digits on either side of the
    interpreter's conversion limit, or letters; a bracketed word holds a
    node past the limit.  The line shows the first characters and the length."""
    digits = "9" * rng.randint(1000, 6000)
    letters = rng.choice("hgxQ") * rng.randint(1000, 6000)
    name, theta = rng.choice(RINGS)
    system = ["--type", name, "--theta=" + theta]
    if kind == "theta":
        raw = "1," + rng.choice([digits, letters])
        return ["weyl", "cosets", "--type", name, "--theta=" + raw], ("theta", " characters)")
    if kind == "node":
        query = rng.choice([["chow", "table"], ["hasse", "--pieri"]])
        return query + system + ["--node=" + digits], ("--node", f"({len(digits)} characters)")
    if kind == "codim":
        return ["chow", "basis", *system, "--codim=" + digits], ("--codim",
                                                                   f"({len(digits)} characters)")
    if kind == "type":
        return ["roots", "--type=" + letters], ("unknown root system type",
                                                 f"({len(letters)} characters)")
    if kind == "label":
        return (["chow", "mult", *system, "--lhs", letters, "--rhs", letters],
                ("unknown class label", f"({len(letters)} characters)"))
    if kind == "word":
        word = "s" + "9" * rng.randint(4301, 6000)   # a node past the conversion limit
        return (["chow", "mult", *system, "--lhs", f"[s1 {word}]", "--rhs", "[s1]"],
                ("bad reflection token", f"({len(word)} characters)"))
    path = os.path.join(tmp, f"cartan-long-{len(letters)}")
    with open(path, "w") as fh:
        fh.write(f"2 {letters}\n-1 2\n")
    return ["roots", "--cartan-file", path], (path, "line 1: ", f"({len(letters)} characters)")


def malformed_input_lines(seed, tmp):
    """(argv, strings its error line must contain) for one input of every
    kind; the files are written under ``tmp``."""
    rng = random.Random(seed)
    for kind in CARTAN_KINDS:
        path = os.path.join(tmp, f"cartan-{kind}-{seed}")
        data, token = broken_cartan(kind, rng)
        with open(path, "wb") as fh:
            fh.write(data)
        command = rng.choice([["roots"], ["weyl", "order"], ["weyl", "cosets"],
                              ["chow", "basis"], ["hasse"]])
        yield command + ["--cartan-file", path], (path, token) + (LIMIT,) * (kind == "huge")

    valid = os.path.join(tmp, f"corr-{seed}")
    with open(valid, "w") as fh:
        fh.write(CORR)
    for kind in CORR_KINDS:
        path = os.path.join(tmp, f"corr-{kind}-{seed}")
        with open(path, "w") as fh:
            fh.write(broken_corr(kind, rng))
        files = rng.choice([[path], [path, valid], [valid, path]])
        named = (path, LIMIT) if kind == "huge-coeff" else (path,)
        yield ["corr", "transpose" if len(files) == 1 else "compose", *files], named

    for name, theta in rng.sample(RINGS, 2):
        rank = int(name[1])
        system = ["--type", name, "--theta=" + theta]
        ring_query = rng.choice([["chow", "basis"], ["chow", "table"], ["hasse"],
                                 ["weyl", "cosets"], ["weyl", "longest"]])
        raw = f"{rng.randint(1, rank)},{rng.choice(['x', '1.5', 'one', '2;3', '0x1'])}"
        yield ring_query + ["--type", name, "--theta=" + raw], (repr(raw),)
        node = rng.choice([0, -1, rank + 1, rank + rng.randint(2, 99)])
        yield ring_query + ["--type", name, f"--theta={node}"], (f"theta node {node} ",)

        node_query = rng.choice([["chow", "table"], ["hasse", "--pieri"]])
        bad = rng.choice(["x", "1.0", "", "one"])
        yield node_query + system + ["--node", bad], ("--node", repr(bad))
        node = rng.choice([int(theta[0]), 0, -1, rank + 1])   # in theta, or no node
        yield node_query + system + [f"--node={node}"], (f"--node {node} ",)

        # with theta nonempty, e and each s_i off theta index no class
        outside = [f"[s{i}]" for i in range(1, rank + 1) if str(i) not in theta.split(",")]
        other = "g" if theta == "2,3,4" else "h"   # a label of the other F4 variety
        classes = [
            f"[s1 {rng.choice(['s0', f's{rank + 1}', 'x1', 's', 't2', 's1.0'])}]",
            rng.choice(["[e]", "[]", *outside]),
            rng.choice([f"{other}1^1", "h1^16", "g2^3", "h3^1", "h1", "x"]),
            rng.choice(["[s1", "s1]", "[[s1]", "[s1]]", "(s1)"]),
        ]
        for text in classes:
            query = rng.choice([["--lhs", text, "--rhs", text], ["--class", text]])
            words = ["chow", "mult" if len(query) == 4 else "giambelli-lift"]
            yield words + system + query, (f"error: {text}: ",)

    for kind in LONG_KINDS:
        yield long_token_line(kind, rng, tmp)


def boom(*args, **kwargs):
    raise ValueError("boom")


def key_boom(*args, **kwargs):
    raise KeyError("boom")


# (owner, attribute, argv, fault): a library call on the path of a query
# that parses input; "{cartan}" and "{corr}" name valid files
FAULTS = [
    (cli, "build_root_system", ["roots", "--cartan-file", "{cartan}"], boom),
    (cli, "root_system", ["roots", "--type", "A2"], boom),
    (weyl, "normalize_theta", ["weyl", "cosets", "--type", "A2", "--theta", "1"], boom),
    (ChowRing, "class_of", ["chow", "mult", "--type", "B3", "--lhs", "[s1]", "--rhs", "[s2]"],
     boom),
    (correspondence, "from_jsonable", ["corr", "transpose", "{corr}"], boom),
    (correspondence, "compose", ["corr", "compose", "{corr}", "{corr}"], boom),
    (correspondence.Correspondence, "from_pairs", ["corr", "transpose", "{corr}"], key_boom),
]


def test_every_query_line_is_valid():
    """The lines the generator breaks parse as they stand."""
    parser = build_parser()
    for words, required, optional in QUERIES:
        argv = [t.replace("{file}", "out") for t in words + required + optional]
        parser.parse_args(argv)


def test_generated_malformed_lines_exit_2():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        bad = []
        count = 0
        for seed in SEEDS:
            for argv, named in malformed_lines(seed, path):
                count += 1
                result = run(argv)
                if not refused_once(*result, named):
                    bad.append((argv, *result))
        assert count > 100
        assert not os.listdir(tmp)
    assert bad == []


def test_outputs_into_a_missing_directory_exit_2():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w") as fh:
            fh.write(CORR)
        missing = os.path.join(tmp, "missing", "out")
        bad = []
        lines = list(missing_directory_lines(path, missing))
        for argv, named in lines:
            result = run(argv)
            if not (refused_once(*result) and result[2].startswith(f"error: {named}: ")):
                bad.append((argv, *result))
        assert len(lines) == len(QUERIES)
        assert os.listdir(tmp) == ["input"]
    assert bad == []


def test_generated_malformed_input_exit_2():
    with tempfile.TemporaryDirectory() as tmp:
        bad = []
        count = 0
        for seed in SEEDS:
            for argv, named in malformed_input_lines(seed, tmp):
                count += 1
                result = run(argv)
                if not refused_once(*result, *named):
                    bad.append((argv, *result))
        assert count == len(SEEDS) * (len(CARTAN_KINDS) + len(CORR_KINDS) + 2 * 8
                                      + len(LONG_KINDS))
    assert bad == []


def test_faults_where_input_is_parsed_exit_3():
    """A ``ValueError`` that is no ``InputError``, or a ``KeyError`` raised
    while a correspondence file is read, is a fault of the program: its
    traceback goes to stderr, nothing to stdout, and the exit code is 3."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {"{cartan}": ("cartan", "2 -1\n-1 2\n"), "{corr}": ("corr", CORR)}
        for name, text in files.values():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        bad = []
        for owner, attribute, argv, fault in FAULTS:
            argv = [os.path.join(tmp, files[t][0]) if t in files else t for t in argv]
            original = vars(owner)[attribute]   # a classmethod stays one
            setattr(owner, attribute, fault)
            try:
                code, out, err = run(argv)
            finally:
                setattr(owner, attribute, original)
            last = "KeyError: 'boom'" if fault is key_boom else "ValueError: boom"
            if (code, out) != (3, "") or not (
                    err.startswith("Traceback (most recent call last):\n")
                    and err.endswith(f"\n{last}\n")):
                bad.append((argv, code, out, err))
    assert bad == []


if __name__ == "__main__":
    test_every_query_line_is_valid()
    test_generated_malformed_lines_exit_2()
    test_outputs_into_a_missing_directory_exit_2()
    test_generated_malformed_input_exit_2()
    test_faults_where_input_is_parsed_exit_3()
    print(f"ok on Python {sys.version.split()[0]}")
