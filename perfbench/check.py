"""The checker: judges one process's outputs against the oracles and the
frozen references.  ``check(workload, seed, outputs)`` returns
``(attempted, failed, notes)``; ``outputs`` is None when the process
crashed or printed nothing, and then every op counts as failed.  The
checker never raises on malformed outputs: a wrong shape is a failed op.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import inputs
import oracle

REFS = Path(__file__).resolve().parent / "refs"


@lru_cache(maxsize=None)
def ref(name: str):
    path = REFS / name
    return path.read_text() if name.endswith(".txt") else json.loads(path.read_text())


# ---------------------------------------------------------------------------
# verify-f4: byte-identical report, 21/21 PASS, exit code 0


def check_verify(seed: int, outputs) -> tuple[int, int, list[str]]:
    frozen = ref("verify_f4.txt")
    want = json.loads(frozen)["checks"]
    attempted = len(want)
    if not isinstance(outputs, dict) or "stdout" not in outputs:
        return attempted, attempted, [f"no report: {str(outputs)[:200]}"]
    text = outputs["stdout"]
    if text == frozen and outputs.get("rc") == 0:
        return attempted, 0, []
    notes = [f"report differs from the frozen copy (exit code {outputs.get('rc')})"]
    try:
        got = json.loads(text)["checks"]
    except (ValueError, KeyError, TypeError):
        return attempted, attempted, notes + ["report is not valid JSON"]
    failed = sum(1 for k in range(attempted)
                 if k >= len(got) or got[k] != want[k] or not got[k].get("passed"))
    failed += max(0, len(got) - attempted)
    return attempted, max(failed, 1), notes + [f"{failed} checks differ or fail"]


# ---------------------------------------------------------------------------
# ring-tables: every product against the frozen table, and deg H^dim
# through the product chain against Weyl's degree formula


def _degree_through_products(ring: dict, table: dict):
    """deg H^dim with H the sum of the codimension-1 classes, multiplying
    one factor H at a time through the computed products."""
    codim = {name: s for name, s in ring["classes"]}
    hyper = [name for name, s in ring["classes"] if s == 1]
    current = {name: 1 for name in hyper}
    for _ in range(ring["dim"] - 1):
        nxt: dict = {}
        for cls, v in current.items():
            for h in hyper:
                for target, c in table[frozenset((h, cls))]:
                    nxt[target] = nxt.get(target, 0) + v * c
        current = {k: v for k, v in nxt.items() if v}
    (point, deg), = current.items()
    if codim[point] != ring["dim"]:
        raise ValueError("H^dim is not a multiple of the point class")
    return deg


def check_rings(seed: int, outputs) -> tuple[int, int, list[str]]:
    refs = ref("ring_tables.json")
    specs = inputs.ring_specs(seed, refs[inputs.SAMPLED_RING]["pool"])
    full = [name for name, _, _, sample in specs if sample is None]
    attempted = sum(len(refs[n]["products"]) for n in full) + inputs.SAMPLE_SIZE + len(full)
    if not isinstance(outputs, list):
        return attempted, attempted, [f"no tables: {str(outputs)[:200]}"]
    failed, notes = 0, []
    by_name = {r.get("name"): r for r in outputs if isinstance(r, dict)}
    for name, type_name, theta, sample in specs:
        want = {frozenset((a, b)): p for a, b, p in refs[name]["products"]}
        keys = list(want) if sample is None else [frozenset(p) for p in sample]
        ring = by_name.get(name)
        got = {}
        if ring is not None:
            for row in ring.get("products", []):
                if len(row) == 3 and isinstance(row[2], list):
                    got[frozenset(row[:2])] = row[2]
        bad = [k for k in keys if got.get(k) != want[k]]
        failed += len(bad)
        if bad:
            notes.append(f"{name}: {len(bad)} of {len(keys)} products differ, "
                         f"e.g. {sorted(bad[0])}")
        # A sample cannot reach H^dim; test_checker.py holds the sampled
        # ring's frozen H row to Weyl's formula instead.
        if sample is None:
            expected = oracle.parabolic_dim_degree(oracle.CARTAN[type_name], theta)
            try:
                deg = _degree_through_products(ring, got)
                ok = (ring["dim"], deg) == expected
            except (KeyError, ValueError, TypeError):
                ok, deg = False, None
            if not ok:
                failed += 1
                notes.append(f"{name}: deg H^dim = {deg}, Weyl's formula gives "
                             f"{expected[1]} (dim {expected[0]})")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# group-diagrams: |W|, |W^P| = |W|/|W_theta|, palindromic ranks, deg H^dim
# from the Pieri table, and the frozen diagram digests

PARABOLIC_CHECKS = ("min_reps", "max_reps", "palindromic", "degree",
                    "hasse_sha", "pieri_sha", "table_sha")


def _degree_from_table(rows: list, dim: int) -> int:
    table = {r["rhs"]: r["product"] for r in rows}
    current = {rows[0]["lhs"]: 1}
    for _ in range(dim - 1):
        nxt: dict = {}
        for cls, v in current.items():
            for e in table[cls]:
                nxt[e["class"]] = nxt.get(e["class"], 0) + v * e["coeff"]
        current = {k: v for k, v in nxt.items() if v}
    (_, deg), = current.items()
    return deg


def _check_parabolic(type_name: str, par: dict, frozen: dict) -> list[str]:
    c = oracle.CARTAN[type_name]
    node = par["node"]
    theta = tuple(i for i in range(1, len(c) + 1) if i != node)
    quotient = oracle.KNOWN_ORDERS[type_name] // oracle.subgroup_order(c, theta)
    dim, deg = oracle.parabolic_dim_degree(c, theta)
    lengths = par["lengths"]
    ranks = [lengths.count(k) for k in range(max(lengths) + 1)]
    ok = {
        "min_reps": par["min_reps"] == quotient,
        "max_reps": par["max_reps"] == quotient,
        "palindromic": ranks == ranks[::-1] and len(lengths) == quotient,
        "degree": par["dim"] == dim and _degree_from_table(par["table"], dim) == deg,
    }
    for key in ("hasse_sha", "pieri_sha", "table_sha"):
        ok[key] = par[key] == frozen[key]
    return [k for k in PARABOLIC_CHECKS if not ok[k]]


def check_diagrams(seed: int, outputs) -> tuple[int, int, list[str]]:
    refs = ref("group_diagrams.json")
    per_type = {t: len(oracle.CARTAN[t]) for t in inputs.DIAGRAM_TYPES}
    attempted = sum(1 + n * len(PARABOLIC_CHECKS) for n in per_type.values())
    if not isinstance(outputs, list):
        return attempted, attempted, [f"no diagrams: {str(outputs)[:200]}"]
    failed, notes = 0, []
    by_type = {e.get("type"): e for e in outputs if isinstance(e, dict)}
    for type_name, rank in per_type.items():
        entry = by_type.get(type_name, {})
        if entry.get("order") != oracle.KNOWN_ORDERS[type_name]:
            failed += 1
            notes.append(f"{type_name}: |W| = {entry.get('order')}")
        pars = {p.get("node"): p for p in entry.get("parabolics", [])}
        for node in range(1, rank + 1):
            par = pars.get(node, {})
            try:
                bad = _check_parabolic(type_name, par, refs[type_name][str(node)])
            except (KeyError, ValueError, TypeError) as exc:
                bad = list(PARABOLIC_CHECKS)
                notes.append(f"{type_name}/P{node}: {par.get('error') or repr(exc)}")
            if bad:
                failed += len(bad)
                notes.append(f"{type_name}/P{node}: {', '.join(bad)} wrong")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# corr-algebra: identities and the reference algebra, op by op


@lru_cache(maxsize=None)
def _corr_expected(seed: int) -> tuple:
    ops = inputs.corr_ops(seed)
    return tuple(ops), tuple(inputs.digest(inputs.corr_expected(op)) for op in ops)


def check_corr(seed: int, outputs) -> tuple[int, int, list[str]]:
    ops, expected = _corr_expected(seed)
    attempted = len(ops)
    if not isinstance(outputs, list) or len(outputs) != attempted:
        return attempted, attempted, [f"no op results: {str(outputs)[:200]}"]
    failed, notes = 0, []
    for k, (op, got, want) in enumerate(zip(ops, outputs, expected)):
        if got != want:
            failed += 1
            if len(notes) < 5:
                notes.append(f"op {k} ({op['kind']}) differs from the reference algebra")
    return attempted, failed, notes


CHECKERS = {
    "verify-f4": check_verify,
    "ring-tables": check_rings,
    "group-diagrams": check_diagrams,
    "corr-algebra": check_corr,
}


def check(workload: str, seed: int, outputs) -> tuple[int, int, list[str]]:
    return CHECKERS[workload](seed, outputs)
