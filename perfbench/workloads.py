"""The four workloads, as run inside one fresh process.

Each workload has ``setup(seed)`` (inputs and declared warm-up),
``solve(state)`` (the measured calls into the program) and
``serialize(state, results)`` (JSON-able outputs for the checker, built
after the clock stops).  Program functions are always reached through
their module attribute, so a traced run sees every call.

Inputs come from the seed through :mod:`inputs`; the program only ever
receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from chowring import (cli, correspondence, f4pipeline, hasse, rootsystem,
                      schubert, weyl)

import inputs
import oracle

REFS = Path(__file__).resolve().parent / "refs"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _system(type_name: str):
    """Built-in types by name; the others from the benchmark's own Cartan
    matrix through ``build_root_system``."""
    if type_name in rootsystem.BUILTIN_CARTAN:
        return rootsystem.root_system(type_name)
    cartan = rootsystem.CartanMatrix.from_rows(oracle.CARTAN[type_name])
    return rootsystem.build_root_system(cartan)


# ---------------------------------------------------------------------------
# verify-f4: the paper's result, through the command line entry point

VERIFY_ARGV = ["verify", "f4", "--eps", "both", "--format", "json"]


def verify_setup(seed: int) -> dict:
    return {}


def verify_solve(state: dict):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(VERIFY_ARGV)
    except Exception as exc:  # a crash is a failed output, not a harness crash
        return _error(exc)
    return {"rc": rc, "stdout": buf.getvalue()}


def verify_serialize(state: dict, results) -> dict:
    return results


# ---------------------------------------------------------------------------
# ring-tables: every structure constant of several rings, all cache misses


def rings_setup(seed: int) -> dict:
    pool = json.loads((REFS / "ring_tables.json").read_text())["F4/P2"]["pool"]
    rings = []
    for name, type_name, theta, sample in inputs.ring_specs(seed, pool):
        ring = schubert.get_chow_ring(_system(type_name), theta)
        names = {cls: weyl.serialize(cls.rep) for cls in ring.classes}
        by_name = {v: k for k, v in names.items()}
        if sample is None:
            pairs = [(a, b) for i, a in enumerate(ring.classes)
                     for b in ring.classes[i:] if a.codim + b.codim <= ring.dim]
        else:
            pairs = [(by_name[a], by_name[b]) for a, b in sample]
        rings.append((name, ring, names, pairs))
    return {"rings": rings}


def rings_solve(state: dict) -> list:
    out = []
    for name, ring, names, pairs in state["rings"]:
        products = []
        for a, b in pairs:
            try:
                products.append(ring.pair_product(a, b))
            except Exception as exc:
                products.append(exc)
        out.append(products)
    return out


def rings_serialize(state: dict, results: list) -> list:
    out = []
    for (name, ring, names, pairs), products in zip(state["rings"], results):
        rows = []
        for (a, b), prod in zip(pairs, products):
            if isinstance(prod, Exception):
                rows.append([names[a], names[b], _error(prod)])
            else:
                rows.append([names[a], names[b],
                             sorted([names[c], v] for c, v in prod.terms.items())])
        out.append({"name": name, "dim": ring.dim,
                    "classes": [[names[c], c.codim] for c in ring.classes],
                    "products": rows})
    return out


# ---------------------------------------------------------------------------
# group-diagrams: W, cosets, Hasse and Pieri diagrams of every maximal
# parabolic of F4, D5 and A5; no polynomial products


def diagrams_setup(seed: int) -> dict:
    return {"systems": [(t, _system(t)) for t in inputs.DIAGRAM_TYPES]}


def _one_parabolic(group, system, node: int) -> dict:
    theta = tuple(i for i in range(1, system.rank + 1) if i != node)
    mins = group.minimal_coset_reps(theta)
    maxs = group.maximal_coset_reps(theta)
    diagram = hasse.build_hasse(group, theta)
    texts = [hasse.export_dot(diagram), hasse.export_json(diagram)]
    ring = schubert.get_chow_ring(system, theta)
    pieri = hasse.build_pieri_diagram(ring, node)
    pieri_text = hasse.export_json(pieri)
    table = schubert.hyperplane_table(ring, node)
    return {"node": node, "min_reps": len(mins), "max_reps": len(maxs),
            "lengths": list(diagram.lengths()), "dim": ring.dim,
            "hasse": texts, "pieri": pieri_text, "table": table}


def diagrams_solve(state: dict) -> list:
    out = []
    for type_name, system in state["systems"]:
        try:
            group = weyl.get_weyl_group(system)
            order = group.order
        except Exception as exc:
            out.append({"type": type_name, **_error(exc)})
            continue
        parabolics = []
        for node in range(1, system.rank + 1):
            try:
                parabolics.append(_one_parabolic(group, system, node))
            except Exception as exc:
                parabolics.append({"node": node, **_error(exc)})
        out.append({"type": type_name, "order": order, "parabolics": parabolics})
    return out


def diagrams_serialize(state: dict, results: list) -> list:
    out = []
    for entry in results:
        entry = dict(entry)
        pars = []
        for par in entry.get("parabolics", []):
            par = dict(par)
            if "error" not in par:
                par["hasse_sha"] = sha("".join(par.pop("hasse")))
                par["pieri_sha"] = sha(par.pop("pieri"))
                par["table_sha"] = sha(json.dumps(par["table"], sort_keys=True))
            pars.append(par)
        entry["parabolics"] = pars
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# corr-algebra: random correspondence algebra on the labeled F4 pair


def corr_setup(seed: int) -> dict:
    x1, x4 = f4pipeline.get_f4_varieties()
    rings = {"X1": x1, "X4": x4}
    # Declared warm-up: every complementary pair degree, so that the solve
    # phase reads the Schubert caches and never writes them.
    for ring in (x1, x4):
        for a in ring.classes:
            for b in ring.classes:
                if a.codim + b.codim == ring.dim:
                    ring.pair_degree(a, b)

    def to_corr(c):
        src, dst, terms = c
        s, t = rings[src], rings[dst]
        return correspondence.Correspondence.from_pairs(
            s, t, [(s.class_by_label(f), t.class_by_label(g), v)
                   for (f, g), v in terms.items()])

    def to_cycle(variety, x):
        ring = rings[variety]
        return ring.element({ring.class_by_label(lab): v for lab, v in x.items()})

    diagonals = {v: correspondence.diagonal(ring) for v, ring in rings.items()}
    ops = []
    for op in inputs.corr_ops(seed):
        args = dict(op)
        for key in ("a", "b", "c", "p", "q"):
            if key in op:
                args[key] = to_corr(op[key])
        if op["kind"] == "realize":
            args["x"] = to_cycle(op["p"][0], op["x"])
        if op["kind"] == "unit":
            args["dx"], args["dy"] = diagonals[op["a"][0]], diagonals[op["a"][1]]
        ops.append(args)
    return {"ops": ops, "varieties": {ring: v for v, ring in rings.items()}}


def _corr_op(op: dict):
    c = correspondence
    kind = op["kind"]
    if kind == "assoc":
        return (c.compose(c.compose(op["c"], op["b"]), op["a"]),
                c.compose(op["c"], c.compose(op["b"], op["a"])))
    if kind == "transpose":
        return (c.transpose(c.compose(op["b"], op["a"])),
                c.compose(c.transpose(op["a"]), c.transpose(op["b"])))
    if kind == "unit":
        return (c.compose(op["dy"], op["a"]), c.compose(op["a"], op["dx"]))
    if kind == "realize":
        return c.realize(op["p"], op["x"])
    if kind == "mod":
        return c.mod_reduce(op["a"], op["m"])
    if kind == "idem":
        return c.is_idempotent(op["p"], op["m"])
    if kind == "orth":
        return c.are_orthogonal(op["p"], op["q"], op["m"])
    raise ValueError(f"unknown op kind {kind!r}")


def corr_solve(state: dict) -> list:
    out = []
    for op in state["ops"]:
        try:
            out.append(_corr_op(op))
        except Exception as exc:
            out.append(exc)
    return out


def _canon(value, varieties: dict):
    """Label-keyed JSON form of a program result."""
    if isinstance(value, Exception):
        return _error(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, tuple):
        return [_canon(v, varieties) for v in value]
    if isinstance(value, correspondence.Correspondence):
        src, dst = value.source, value.target
        return [varieties[src], varieties[dst],
                sorted([src.label_of(f), dst.label_of(g), v]
                       for (f, g), v in value.terms.items())]
    ring = value.ring
    return sorted([ring.label_of(cls), v] for cls, v in value.terms.items())


def corr_serialize(state: dict, results: list) -> list:
    return [inputs.digest(_canon(r, state["varieties"])) for r in results]


WORKLOADS = {
    "verify-f4": (verify_setup, verify_solve, verify_serialize),
    "ring-tables": (rings_setup, rings_solve, rings_serialize),
    "group-diagrams": (diagrams_setup, diagrams_solve, diagrams_serialize),
    "corr-algebra": (corr_setup, corr_solve, corr_serialize),
}
