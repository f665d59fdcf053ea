"""Regenerate the frozen references in ``perfbench/refs`` from the program
as it is now.  Run once at the commit that defines the baseline:

    PYTHONPATH=src python3 perfbench/freeze.py

A change under test must never rerun this: the references are what its
outputs are judged against.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import inputs
import workloads

POOL_SIZE = 40


def _write(name: str, payload) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=1, sort_keys=True) + "\n"
    (workloads.REFS / name).write_text(text)


def freeze_verify() -> None:
    out = workloads.verify_solve({})
    if out.get("rc") != 0:
        sys.exit("verify f4 did not pass; refusing to freeze its report")
    _write("verify_f4.txt", out["stdout"])


def _products(name: str, ring, pairs) -> dict:
    state = {"rings": [(name, ring, {c: workloads.weyl.serialize(c.rep)
                                     for c in ring.classes}, pairs)]}
    table, = workloads.rings_serialize(state, workloads.rings_solve(state))
    return table


def freeze_rings() -> None:
    payload = {}
    for name, type_name, theta in inputs.RING_SPECS:
        ring = workloads.schubert.get_chow_ring(workloads._system(type_name), theta)
        pairs = [(a, b) for i, a in enumerate(ring.classes) for b in ring.classes[i:]
                 if a.codim + b.codim <= ring.dim]
        entry = {}
        if name == inputs.SAMPLED_RING:
            nontrivial = [(a, b) for a, b in pairs if a.codim and b.codim]
            pairs = sorted(random.Random(0).sample(nontrivial, POOL_SIZE),
                           key=lambda p: p[0].codim + p[1].codim)
        table = _products(name, ring, pairs)
        entry.update(dim=table["dim"], classes=table["classes"],
                     products=table["products"])
        if name == inputs.SAMPLED_RING:
            entry["pool"] = [row[:2] for row in table["products"]]
            # H times every class below the point: the products the chain
            # deg H^dim reads, so test_checker.py can hold this ring's
            # products to Weyl's degree formula.
            hyper = [(h, x) for h in ring.classes if h.codim == 1
                     for x in ring.classes if 0 < x.codim < ring.dim]
            entry["hyper_row"] = _products(name, ring, hyper)["products"]
        payload[name] = entry
        print(f"{name}: {len(entry['products'])} products", flush=True)
    _write("ring_tables.json", payload)


def freeze_diagrams() -> None:
    state = workloads.diagrams_setup(0)
    results = workloads.diagrams_serialize(state, workloads.diagrams_solve(state))
    payload = {e["type"]: {str(p["node"]): {k: p[k] for k in ("hasse_sha", "pieri_sha",
                                                               "table_sha")}
                           for p in e["parabolics"]}
               for e in results}
    _write("group_diagrams.json", payload)


PARTS = {"verify": freeze_verify, "rings": freeze_rings,
         "diagrams": freeze_diagrams}

if __name__ == "__main__":
    if len(sys.argv) > 1:
        PARTS[sys.argv[1]]()
    else:
        # Each part in a fresh process, as the workloads run: the program
        # keeps per-process caches (the F4 rings carry labels once the
        # pipeline has run), and they must not leak between parts.
        workloads.REFS.mkdir(exist_ok=True)
        for part in PARTS:
            subprocess.run([sys.executable, __file__, part], check=True)
