"""Command-line front end.

Sub-commands mirror the library layers: ``roots`` and ``weyl`` for the
combinatorial substrate, ``hasse`` for diagram export, ``chow`` for basis
and product queries, ``corr`` for correspondence arithmetic, and
``verify f4`` for the full verification pipeline.  Each query of ``weyl``,
``chow`` and ``corr`` is a subcommand that declares only the options it
reads, so argparse refuses any other.  Every command is deterministic:
repeated invocations print identical bytes.

Exit codes: 0 success, 1 verification failure, 2 usage error: an
``InputError`` (a size bound is one) or a path that cannot be read or
written, 3 a check or a command raised an internal error: a raising check
is reported as ERROR, any other fault as a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import correspondence as corr
from . import f4pipeline, hasse, poly
from . import weyl as weylmod
from .rootsystem import (BUILTIN_CARTAN, CartanMatrix, InputError, RootSystem,
                         build_root_system, parse_int, root_system, shown)
from .schubert import format_table_text, get_chow_ring, hyperplane_table
from .weyl import get_weyl_group


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a usage error: one ``error:`` line on
    stderr and exit code 2, as for the errors the commands find."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _int(text: str) -> int:
    """argparse's ``type=int``, with a long value shown shortened."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


def _system(args) -> RootSystem:
    if args.cartan_file:
        try:
            return build_root_system(CartanMatrix.from_file(args.cartan_file))
        except InputError as exc:
            raise InputError(f"{args.cartan_file}: {exc}") from None
    if not args.type:
        raise InputError("one of --type or --cartan-file is required")
    return root_system(args.type)


def _theta(args, system: RootSystem) -> tuple[int, ...]:
    raw = getattr(args, "theta", None)
    if not raw:
        return ()
    try:
        theta = tuple(int(tok) for tok in raw.split(",") if tok != "")
    except ValueError:
        raise InputError(f"cannot parse theta {shown(raw)}; expected e.g. 2,3,4") from None
    return weylmod.normalize_theta(system, theta)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pipeline_ring(matches):
    """The F4 pipeline's labeled ring whose variety record ``matches``, or
    None; builds nothing of the pipeline when no record does."""
    k = next((k for k, v in enumerate(f4pipeline.VARIETIES) if matches(v)), None)
    return None if k is None else f4pipeline.get_f4_varieties()[k]


def _ring(system: RootSystem, theta: tuple[int, ...]):
    ring = _pipeline_ring(lambda v: system is root_system("F4") and v.theta == theta)
    return ring if ring is not None else get_chow_ring(system, theta)


def _parse_chow(ring, text):
    """Either a class label like h1^4 or a reduced word in brackets."""
    text = text.strip()
    try:
        if text.startswith("[") and text.endswith("]"):
            w = weylmod.parse_element(ring.system, text[1:-1])
            return ring.element(ring.class_of(w))
        return ring.element(ring.class_by_label(text))
    except InputError as exc:
        raise InputError(f"{shown(text, str)}: {exc}") from None


def _node(args, ring, what: str) -> int:
    """The hyperplane node: --node, or the complement of theta when unique."""
    nodes = [i for i in range(1, ring.system.rank + 1) if i not in ring.theta]
    if args.node is None:
        if len(nodes) != 1:
            raise InputError(f"--node is required for {what} of this theta")
        return nodes[0]
    if args.node not in nodes:
        raise InputError(f"--node {shown(str(args.node), str)} is not one of {nodes}")
    return args.node


# -- commands -----------------------------------------------------------------


def cmd_roots(args) -> int:
    system = _system(args)
    if args.format == "json":
        payload = [{"coords": list(r), "height": system.height(r)}
                   for r in system.positive_roots]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [" ".join(str(x) for x in r) for r in system.positive_roots]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_weyl(args) -> int:
    system = _system(args)
    theta = _theta(args, system)
    if args.query == "order":
        _emit(f"{weylmod.order_from_heights(system)}\n", args.output)
    elif args.query == "longest":
        w = weylmod.longest_element(system, theta or None)
        _emit(f"{weylmod.serialize(w)}\nlength {w.length}\n", args.output)
    elif args.query == "cosets":
        orbit = weylmod.coset_orbit(system, theta)
        names = (tuple(map(weylmod.serialize, orbit.maximal)) if args.maximal
                 else orbit.names)
        _emit("\n".join(names) + f"\ncount {len(names)}\n", args.output)
    return 0


def cmd_hasse(args) -> int:
    system = _system(args)
    if args.by_codim and (args.pieri or args.format == "json"):
        raise InputError("--by-codim flips the edges of a dot Hasse diagram only")
    if args.node is not None and not args.pieri:
        raise InputError("--node picks the hyperplane of --pieri only")
    theta = _theta(args, system)
    if args.pieri:
        ring = _ring(system, theta)
        diagram = hasse.build_pieri_diagram(ring, _node(args, ring, "a Pieri diagram"))
    else:
        diagram = hasse.build_hasse(get_weyl_group(system), theta)
    if args.format == "json":
        _emit(hasse.export_json(diagram), args.output)
    else:
        _emit(hasse.export_dot(diagram, by_codim=args.by_codim), args.output)
    return 0


def cmd_chow(args) -> int:
    system = _system(args)
    ring = _ring(system, _theta(args, system))
    if args.query == "basis":
        if args.codim is not None and not 0 <= args.codim <= ring.dim:
            raise InputError(f"--codim {shown(str(args.codim), str)} is out of range "
                             f"0..{ring.dim}")
        codims = [args.codim] if args.codim is not None else range(ring.dim + 1)
        lines = []
        for s in codims:
            for cls in ring.basis(s):
                lines.append(f"codim {s}: {ring.label_of(cls)} "
                             f"[{weylmod.serialize(cls.rep)}]")
        _emit("\n".join(lines) + "\n", args.output)
    elif args.query == "mult":
        x = _parse_chow(ring, args.lhs)
        y = _parse_chow(ring, args.rhs)
        _emit(repr(ring.multiply(x, y)) + "\n", args.output)
    elif args.query == "table":
        rows = hyperplane_table(ring, _node(args, ring, "a table"))
        if args.format == "json":
            _emit(json.dumps(rows, indent=2) + "\n", args.output)
        else:
            _emit(format_table_text(rows), args.output)
    elif args.query == "giambelli-lift":
        x = _parse_chow(ring, args.cls)
        (cls, coeff), = x.terms.items()
        _emit(poly.format_polynomial(coeff * ring.giambelli_lift(cls)) + "\n", args.output)
    return 0


def _f4_variety(tag):
    """The labeled F4 ring tagged ``tag``, the only rings a correspondence names."""
    ring = _pipeline_ring(lambda v: v.tag == tag)
    if ring is None:
        raise InputError(f"unknown variety {tag!r}; use x1 or x4")
    return ring


def _load_corr(path: str):
    with open(path) as fh:
        try:
            payload = json.load(fh, parse_int=parse_int)
        except InputError as exc:   # an integer past the interpreter's digit limit
            raise InputError(f"{path}: {exc}") from None
        # JSONDecodeError, bytes that are not UTF-8, or nesting past the stack
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path}: expected a JSON object with source, target and terms")
    try:
        source, target, terms = corr.read_keys(payload, "source", "target", "terms")
        return corr.from_jsonable(_f4_variety(source), _f4_variety(target), terms)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _dump_corr(alpha) -> str:
    tag = {ring: v.tag for v, ring in zip(f4pipeline.VARIETIES, f4pipeline.get_f4_varieties())}
    payload = {"source": tag[alpha.source], "target": tag[alpha.target],
               "terms": corr.to_jsonable(alpha)}
    return json.dumps(payload, indent=2) + "\n"


def cmd_corr(args) -> int:
    if args.query == "diagonal":
        ring = _f4_variety(args.variety)
        _emit(_dump_corr(corr.diagonal(ring)), args.output)
    elif args.query == "transpose":
        alpha = _load_corr(args.alpha)
        _emit(_dump_corr(corr.transpose(alpha)), args.output)
    elif args.query == "compose":
        beta = _load_corr(args.beta)
        alpha = _load_corr(args.alpha)
        if alpha.target is not beta.source:
            raise InputError("middle varieties do not match")
        composed = corr.compose(beta, alpha)
        if args.mod:
            composed = corr.mod_reduce(composed, args.mod)
        _emit(_dump_corr(composed), args.output)
    return 0


def cmd_verify(args) -> int:
    # opened first: an unwritable path is refused before any check runs
    with open(args.report, "w") if args.report else nullcontext() as sink:
        report = f4pipeline.run_f4_verification(args.eps)
        if sink is not None:
            sink.write(report.to_json())
    _emit(report.to_json() if args.format == "json" else report.to_text(), None)
    if args.timings:
        # kept off stdout and the report, which stay byte-identical
        for c in report.checks:
            print(f"{c.elapsed:.3f} {c.name}", file=sys.stderr)
    if report.errored:
        return 3
    return 0 if report.passed else 1


# -- parser -------------------------------------------------------------------


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chowring",
        description="Schubert calculus for Chow rings of G/P and the "
                    "verification pipeline for the two F4 varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("-o", "--output", help="write to a file instead of stdout")

    def common(p, formats=(), theta=True):
        """The system options, and --format when the command or query prints
        more than one format; the first of ``formats`` is the default."""
        p.add_argument("--type", help=f"named root system ({', '.join(BUILTIN_CARTAN)})")
        p.add_argument("--cartan-file", help="plain-text integer Cartan matrix")
        if theta:
            p.add_argument("--theta",
                           help="parabolic subset, comma-separated nodes, "
                                "e.g. 2,3,4")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        output(p)

    def queries(name, help, fn):
        """A command whose queries are subcommands, each declaring only the
        options it reads; None when ``command`` is given and is another."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p.add_subparsers(dest="query", required=True) if command in (None, name) else None

    p = sub.add_parser("roots", help="list positive roots")
    common(p, ("text", "json"), theta=False)
    p.set_defaults(fn=cmd_roots)

    weyl_queries = queries("weyl", "Weyl group queries", cmd_weyl)
    if weyl_queries:
        common(weyl_queries.add_parser("order", help="the order of W"), theta=False)
        common(weyl_queries.add_parser("longest", help="the longest element of W or W_theta"))
        q = weyl_queries.add_parser("cosets", help="coset representatives of W/W_theta")
        common(q)
        q.add_argument("--maximal", action="store_true",
                       help="maximal instead of minimal coset representatives")

    p = sub.add_parser("hasse", help="export Hasse or Pieri diagrams")
    common(p, ("dot", "json"))
    p.add_argument("--pieri", action="store_true",
                   help="weighted hyperplane-multiplication diagram")
    p.add_argument("--node", type=_int,
                   help="hyperplane node for --pieri (defaults to the "
                        "complement of theta when unique)")
    p.add_argument("--by-codim", action="store_true",
                   help="flip edge orientation to increasing codimension")
    p.set_defaults(fn=cmd_hasse)

    a_class = "a class label like h1^4, or a reduced word in brackets"
    chow_queries = queries("chow", "Chow ring queries", cmd_chow)
    if chow_queries:
        q = chow_queries.add_parser("basis", help="the Schubert basis, by codimension")
        common(q)
        q.add_argument("--codim", type=_int, help="list this codimension only")
        q = chow_queries.add_parser("mult", help="the product of two classes")
        common(q)
        q.add_argument("--lhs", required=True, help=a_class)
        q.add_argument("--rhs", required=True, help=a_class)
        q = chow_queries.add_parser("table", help="the hyperplane multiplication table")
        common(q, ("text", "json"))
        q.add_argument("--node", type=_int,
                       help="hyperplane node (defaults to the complement of theta "
                            "when unique)")
        q = chow_queries.add_parser("giambelli-lift", help="the Giambelli polynomial of a class")
        common(q)
        q.add_argument("--class", dest="cls", required=True, help=a_class)

    corr_queries = queries("corr", "correspondence arithmetic on the F4 pair", cmd_corr)
    if corr_queries:
        q = corr_queries.add_parser("diagonal", help="the diagonal of X1 or X4")
        q.add_argument("--variety", default="x1", help="x1 or x4 (default x1)")
        output(q)
        q = corr_queries.add_parser("transpose", help="the transpose of a correspondence")
        q.add_argument("alpha", help="correspondence JSON file")
        output(q)
        q = corr_queries.add_parser("compose", help="the composite beta o alpha")
        q.add_argument("beta", help="correspondence JSON file, applied second")
        q.add_argument("alpha", help="correspondence JSON file, applied first")
        q.add_argument("--mod", type=_int, choices=(3,), help="reduce the composite mod 3")
        output(q)

    p = sub.add_parser("verify", help="run a verification pipeline")
    p.add_argument("what", choices=("f4",))
    p.add_argument("--eps", default="both", choices=("1", "-1", "both"))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--report", help="also write a JSON report to this path")
    p.add_argument("--timings", action="store_true",
                   help="print each check's seconds to stderr")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # the top level reads no option but -h: its first other token is the command
        args = build_parser(next((t for t in argv if t[:1] != "-"), "")).parse_args(argv)
        return args.fn(args)
    except (InputError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback   # here, not at the top: the import adds ~0.3 MiB to every run
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
