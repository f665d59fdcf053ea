"""Seeded inputs of the workloads.  The same seed gives the same inputs;
nothing here imports chowring, so the checker can rebuild them too."""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache

import oracle

# (name, type, theta).  F4/P2 is too large for a full table per run, so
# each run takes a seeded sample of its frozen pool of pairs.
RING_SPECS = (
    ("G2/B", "G2", ()),
    ("B3/B", "B3", ()),
    ("A5/P3", "A5", (1, 2, 4, 5)),
    ("B4/P4", "B4", (1, 2, 3)),
    ("F4/P2", "F4", (1, 3, 4)),
)
SAMPLED_RING = "F4/P2"
SAMPLE_SIZE = 4

DIAGRAM_TYPES = ("F4", "D5", "A5")

CORR_OPS = 8000
# Terms drawn per random cycle; a morphism-degree cycle on the F4 pair has
# at most 40 distinct terms.
MIN_TERMS, MAX_TERMS = 20, 40
CORR_KINDS = ("assoc", "transpose", "unit", "realize", "mod", "idem", "orth")


def ring_specs(seed: int, pool: list) -> list:
    """(name, type, theta, sampled pairs or None for the full table).

    The pool is sorted by codimension sum, which sets a pair's cost (it
    ranges about a hundredfold over the pool).  One pair from each quarter
    keeps a run's work nearly the same for every seed."""
    rng = random.Random(seed)
    step = len(pool) // SAMPLE_SIZE
    sample = [tuple(rng.choice(pool[k * step:(k + 1) * step])) for k in range(SAMPLE_SIZE)]
    return [(name, t, theta, sample if name == SAMPLED_RING else None)
            for name, t, theta in RING_SPECS]


@lru_cache(maxsize=None)
def _basis(src: str, dst: str) -> list[tuple[str, str]]:
    """The product classes f x g on src x dst of total codimension 15."""
    right = oracle.f4_labels(dst)
    return [(f, g) for f, s in oracle.f4_labels(src) for g, t in right
            if s + t == oracle.F4_DIM]


def _coeff(rng, top: int) -> int:
    return rng.choice([-1, 1]) * rng.randint(1, top)


def _morphism(rng, src: str, dst: str, top: int = 4):
    """Random cycle on src x dst of total codimension 15."""
    keys = rng.choices(_basis(src, dst), k=rng.randint(MIN_TERMS, MAX_TERMS))
    values = rng.choices([v for v in range(-top, top + 1) if v], k=len(keys))
    terms: dict = {}
    for key, v in zip(keys, values):
        terms[key] = terms.get(key, 0) + v
    return (src, dst, {k: v for k, v in terms.items() if v})


def _partial_diagonal(variety: str, labels: list[str]):
    return (variety, variety, {(lab, oracle.dual_label(lab)): 1 for lab in labels})


def corr_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    varieties = ("X1", "X4")
    ops = []
    for _ in range(CORR_OPS):
        kind = rng.choice(CORR_KINDS)
        x, y, z, w = (rng.choice(varieties) for _ in range(4))
        op: dict = {"kind": kind}
        if kind == "assoc":
            op.update(a=_morphism(rng, x, y), b=_morphism(rng, y, z),
                      c=_morphism(rng, z, w))
        elif kind == "transpose":
            op.update(a=_morphism(rng, x, y), b=_morphism(rng, y, z))
        elif kind == "unit":
            op.update(a=_morphism(rng, x, y))
        elif kind == "realize":
            labs = [lab for lab, _ in oracle.f4_labels(x)]
            cycle: dict = {}
            for lab in rng.sample(labs, rng.randint(1, 6)):
                cycle[lab] = _coeff(rng, 5)
            op.update(p=_morphism(rng, x, x), x=cycle)
        elif kind == "mod":
            op.update(a=_morphism(rng, x, y, top=9), m=rng.choice((2, 3, 5)))
        else:
            labs = [lab for lab, _ in oracle.f4_labels(x)]
            rng.shuffle(labs)
            cut = rng.randint(1, len(labs) - 1)
            if kind == "idem":
                p = _partial_diagonal(x, labs[:cut])
                if rng.random() < 0.5:
                    extra = _morphism(rng, x, x)[2]
                    p = (x, x, {k: p[2].get(k, 0) + extra.get(k, 0)
                                for k in set(p[2]) | set(extra)})
                    p = (x, x, {k: v for k, v in sorted(p[2].items()) if v})
                op.update(p=p, m=rng.choice((0, 3)))
            else:
                other = labs[cut:] if rng.random() < 0.5 else \
                    rng.sample(labs, rng.randint(1, len(labs)))
                op.update(p=_partial_diagonal(x, labs[:cut]),
                          q=_partial_diagonal(x, other), m=rng.choice((0, 3)))
        ops.append(op)
    return ops


def corr_expected(op: dict):
    """The oracle's answer for one op, in the checker's JSON form."""
    o = oracle
    kind = op["kind"]
    if kind == "assoc":
        want = o.compose(op["c"], o.compose(op["b"], op["a"]))
        return [corr_json(want), corr_json(want)]
    if kind == "transpose":
        want = o.transpose(o.compose(op["b"], op["a"]))
        return [corr_json(want), corr_json(want)]
    if kind == "unit":
        return [corr_json(op["a"]), corr_json(op["a"])]
    if kind == "realize":
        return sorted([lab, v] for lab, v in o.realize(op["p"], op["x"]).items())
    if kind == "mod":
        return corr_json(o.mod_reduce(op["a"], op["m"]))
    if kind == "idem":
        return o.is_idempotent(op["p"], op["m"])
    return o.are_orthogonal(op["p"], op["q"], op["m"])


def digest(value) -> str:
    """Short digest of one op's result in its JSON form."""
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def corr_json(c) -> list:
    src, dst, terms = c
    return [src, dst, sorted([f, g, v] for (f, g), v in terms.items() if v)]
