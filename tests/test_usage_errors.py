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
first.

The file uses the standard library only, so ``python tests/test_usage_errors.py``
runs the same checks on an interpreter without pytest.
"""

import contextlib
import io
import os
import random
import sys
import tempfile

from chowring.cli import build_parser, main

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
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                err = err.getvalue()
                if (code != 2 or out.getvalue() or not err.startswith("error: ")
                        or err.count("\n") != 1 or not err.endswith("\n")
                        or named not in err or "Traceback" in err):
                    bad.append((argv, code, out.getvalue(), err))
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
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            err = err.getvalue()
            if (code != 2 or out.getvalue() or not err.startswith(f"error: {named}: ")
                    or err.count("\n") != 1 or not err.endswith("\n")):
                bad.append((argv, code, out.getvalue(), err))
        assert len(lines) == len(QUERIES)
        assert os.listdir(tmp) == ["input"]
    assert bad == []


if __name__ == "__main__":
    test_every_query_line_is_valid()
    test_generated_malformed_lines_exit_2()
    test_outputs_into_a_missing_directory_exit_2()
    print(f"ok on Python {sys.version.split()[0]}")
