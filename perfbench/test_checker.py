"""Failure-injection tests for the benchmark's checker.

    PYTHONPATH=src python3 perfbench/test_checker.py

Each injected fault must raise the failed count and must not crash the
harness.  Only the raising-call test imports chowring (G2 only, fast).
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SEED = 7


def ring_outputs(seed: int) -> list:
    """The outputs a correct ring-tables process produces, from the refs."""
    refs = check.ref("ring_tables.json")
    out = []
    for name, _, _, sample in inputs.ring_specs(seed, refs[inputs.SAMPLED_RING]["pool"]):
        rows = refs[name]["products"]
        if sample is not None:
            wanted = {frozenset(p) for p in sample}
            rows = [r for r in rows if frozenset(r[:2]) in wanted]
        out.append({"name": name, "dim": refs[name]["dim"],
                    "classes": refs[name]["classes"], "products": copy.deepcopy(rows)})
    return out


def _inner_row(ring: dict) -> int:
    """Index of a product of two classes of codimension >= 2, which the
    degree chain H^dim does not read."""
    codim = dict(map(tuple, ring["classes"]))
    return next(k for k, (a, b, p) in enumerate(ring["products"])
                if codim[a] >= 2 and codim[b] >= 2 and p)


class RingTables(unittest.TestCase):
    def test_correct_tables_pass(self):
        a, f, _ = check.check("ring-tables", SEED, ring_outputs(SEED))
        self.assertEqual(f, 0)
        self.assertGreater(a, 900)

    def test_changed_structure_constant(self):
        out = ring_outputs(SEED)
        ring = next(r for r in out if r["name"] == "B3/B")
        row = ring["products"][_inner_row(ring)]
        row[2][0][1] += 1
        _, f, notes = check.check("ring-tables", SEED, out)
        self.assertEqual(f, 1)
        self.assertIn("B3/B", notes[0])

    def test_changed_degree_chain_fails_the_degree_oracle(self):
        out = ring_outputs(SEED)
        ring = next(r for r in out if r["name"] == "A5/P3")
        codim = dict(map(tuple, ring["classes"]))
        row = next(r for r in ring["products"] if codim[r[0]] == 1 and r[2])
        row[2][0][1] += 1
        _, f, notes = check.check("ring-tables", SEED, out)
        self.assertEqual(f, 2)      # the product itself and deg H^dim
        self.assertTrue(any("Weyl's formula" in n for n in notes))

    def test_frozen_sampled_ring_meets_weyls_formula(self):
        # A run checks its F4/P2 sample against the frozen table only; the
        # frozen H row holds that table to Weyl's degree formula.
        name, type_name, theta = next(s for s in inputs.RING_SPECS
                                      if s[0] == inputs.SAMPLED_RING)
        ring = check.ref("ring_tables.json")[name]
        table = {frozenset(r[:2]): r[2] for r in ring["hyper_row"]}
        self.assertEqual((ring["dim"], check._degree_through_products(ring, table)),
                         oracle.parabolic_dim_degree(oracle.CARTAN[type_name], theta))

    def test_raising_call(self):
        import workloads
        from chowring import schubert

        ring = schubert.get_chow_ring(workloads._system("G2"), ())
        names = {c: workloads.weyl.serialize(c.rep) for c in ring.classes}
        pairs = [(a, b) for i, a in enumerate(ring.classes) for b in ring.classes[i:]
                 if a.codim + b.codim <= ring.dim]
        victim = next(p for p in pairs if p[0].codim >= 2 and p[1].codim >= 2)
        original = schubert.ChowRing.pair_product

        def faulty(self, a, b):
            if (a, b) == victim:
                raise RuntimeError("injected")
            return original(self, a, b)

        state = {"rings": [("G2/B", ring, names, pairs)]}
        schubert.ChowRing.pair_product = faulty
        try:
            results = workloads.rings_solve(state)
        finally:
            schubert.ChowRing.pair_product = original
        g2, = workloads.rings_serialize(state, results)
        out = [g2 if r["name"] == "G2/B" else r for r in ring_outputs(SEED)]
        _, f, notes = check.check("ring-tables", SEED, out)
        self.assertEqual(f, 1)
        self.assertIn("G2/B", notes[0])


class VerifyReport(unittest.TestCase):
    def report(self) -> str:
        return check.ref("verify_f4.txt")

    def test_frozen_report_passes(self):
        self.assertEqual(check.check("verify-f4", 0, {"rc": 0, "stdout": self.report()}),
                         (21, 0, []))

    def test_one_changed_byte(self):
        text = self.report()
        k = text.index("all 44 hyperplane products via chevalley")
        changed = text[:k] + "A" + text[k + 1:]
        a, f, _ = check.check("verify-f4", 0, {"rc": 0, "stdout": changed})
        self.assertEqual((a, f), (21, 1))

    def test_broken_json_fails_every_check(self):
        a, f, _ = check.check("verify-f4", 0, {"rc": 0, "stdout": self.report()[1:]})
        self.assertEqual((a, f), (21, 21))

    def test_nonzero_exit_code(self):
        _, f, _ = check.check("verify-f4", 0, {"rc": 1, "stdout": self.report()})
        self.assertEqual(f, 1)


class CorrAlgebra(unittest.TestCase):
    def test_raising_op(self):
        ops, expected = check._corr_expected(SEED)
        outputs = list(expected)
        outputs[3] = inputs.digest({"error": "RuntimeError: injected"})
        a, f, _ = check.check("corr-algebra", SEED, outputs)
        self.assertEqual((a, f), (len(ops), 1))

    def test_reference_algebra_passes(self):
        _, expected = check._corr_expected(SEED)
        self.assertEqual(check.check("corr-algebra", SEED, list(expected))[1], 0)


class Harness(unittest.TestCase):
    def test_missing_outputs_fail_every_op(self):
        for workload in check.CHECKERS:
            a, f, notes = check.check(workload, SEED, None)
            self.assertEqual(a, f)
            self.assertGreater(a, 0)

    def test_malformed_outputs_do_not_crash(self):
        for workload in check.CHECKERS:
            for bad in ({}, [], [{"name": 1}], "x", [[]]):
                a, f, _ = check.check(workload, SEED, bad)
                self.assertGreater(f, 0, (workload, bad))

    def test_unrepeated_counts_are_reported(self):
        layers = {"weyl.elements": 1152, "weyl.enumerate_s": 0.9}
        runs = [{"traced": True, "t0": 0.0, "t_done": 1.0, "root_span_s": 0.5,
                 "layers": dict(layers)},
                {"traced": True, "t0": 0.0, "t_done": 1.0, "root_span_s": 0.5,
                 "layers": dict(layers, **{"weyl.elements": 1151})}]
        units = {"weyl.elements": "count", "weyl.enumerate_s": "s"}
        _, unrepeated = run.per_layer(runs, units)
        self.assertEqual(unrepeated, ["weyl.elements"])


if __name__ == "__main__":
    unittest.main()
