"""End-to-end verification for the two 15-dimensional homogeneous varieties
of the split group of type F4.

The varieties are the quotients by the maximal parabolic subgroups that
omit node 1 and node 4 of the Dynkin diagram.  Their Chow rings carry the
labels h/g with ``h1^s, h2^s`` (and ``g1^s, g2^s``) in each codimension s,
read from a frozen fixture of reduced words.  That the checked-in
hyperplane multiplication tables pin exactly these labels is itself one of
the checks: it solves the labels as a constraint problem against the
tables and compares the one solution with the fixture.

On top of the labeled rings the pipeline constructs the rational cycle
r = h1^4 x 1 + eps (1 x g1^4), the fifteen-codimensional cycles
rho_i = r^2 (h1^1)^i x (g1^1)^(7-i), the eight idempotents obtained from
the compositions rho_{7-i}^t o rho_i and rho_i o rho_{7-i}^t, and the
isomorphism cycle J.  Every claimed congruence is checked modulo 3 with
balanced representatives for both values of eps; idempotency,
orthogonality and completeness of the displayed cycles are checked over
the integers exactly.

The report is deterministic: serializing it twice gives identical bytes
(timings are kept out of the canonical serialization for that reason).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import namedtuple
from functools import lru_cache

from . import correspondence as corr
from . import linalg
from . import poly
from . import weyl as _weyl
from .correspondence import Correspondence
from .rootsystem import root_system
from .schubert import ChowElement, ChowRing, LatticeError, SubringError

# Per variety: its tag in correspondence files, theta, the node of its
# hyperplane class, its label letter and fixture stem, the class whose
# square the paper displays with that square, the preimage file of that
# class, and its idempotent family.
Variety = namedtuple("Variety", "tag theta node letter stem squared square preimage family")

VARIETIES = (
    Variety("x1", (2, 3, 4), 1, "h", "p1", "h1^4", (("h1^8", 8), ("h2^8", 6)),
            "h14_preimage.txt", "p"),
    Variety("x4", (1, 2, 3), 4, "g", "p4", "g1^4", (("g1^8", 4), ("g2^8", 3)),
            "g14_preimage.txt", "q"),
)


# ---------------------------------------------------------------------------
# fixtures


# the package's fixture files, installed beside the modules
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _data_text(name: str) -> str:
    with open(os.path.join(_DATA, name)) as f:
        return f.read()


@lru_cache(maxsize=None)
def load_table(which: str) -> tuple:
    rows = json.loads(_data_text(f"pieri_table_{which}.json"))
    return tuple((row["lhs"], row["rhs"],
                  tuple((e["class"], e["coeff"]) for e in row["product"]))
                 for row in rows)


def _eps_coeff(text: str, eps: int) -> int:
    sign = 1
    body = text
    if body.startswith("-"):
        sign, body = -1, body[1:]
    if body == "e":
        return sign * eps
    return sign * int(body)


# ---------------------------------------------------------------------------
# labeled rings


def _table_misses(multiply, label: dict, table):
    """Yield the rows of a hyperplane table that ``multiply`` does not
    reproduce when the classes carry ``label``; ``multiply`` maps the class
    of a row's right-hand side to the terms of its hyperplane product."""
    inverse = {cls: lab for lab, cls in label.items()}
    for lhs, rhs, want in table:
        got = {inverse[c]: v for c, v in multiply(label[rhs]).items()}
        if got != dict(want):
            yield {"row": f"{lhs}*{rhs}", "got": got, "want": dict(want)}


def solve_labels(ring: ChowRing, node: int, letter: str, table) -> list[dict]:
    """Every label assignment, ``{letter}i^s`` naming the i-th class of an
    ordering of each codimension s, under which Chevalley's rule reproduces
    the hyperplane table, or what checking them all raises.  Searched by
    codimension: a row is checked, in table order, once its classes are
    named (from the first row that names no class on, once all are)."""
    multiply = {cls: ring.chevalley_product(node, cls).terms for cls in ring.classes}.__getitem__
    codim = {f"{letter}{i}^{s}": s for s, n in enumerate(ring.ranks()) for i in range(1, n + 1)}
    head = next((k for k, row in enumerate(table) if row[1] not in codim), len(table))
    stage = [min(codim[row[1]] + 1, ring.dim) if k < head else ring.dim
             for k, row in enumerate(table)]
    labels = [{}]
    for s in range(ring.dim + 1):
        rows = [row for row, t in zip(table, stage) if t == s]
        labels = [label | {f"{letter}{i}^{s}": cls for i, cls in enumerate(order, 1)}
                  for label in labels for order in itertools.permutations(ring.basis(s))]
        labels = [label for label in labels if not any(_table_misses(multiply, label, rows))]
    return labels


def _parse_label(lab: str) -> tuple[int, int]:
    head, _, s = lab.partition("^")
    return int(head[1:]), int(s)


@lru_cache(maxsize=None)
def get_f4_varieties() -> tuple[ChowRing, ChowRing]:
    """The rings of ``VARIETIES``, built here and labeled by the frozen
    reduced-word fixtures, which must name each basis class once, in the
    codimension of its label (that the tables pin the labels is the
    ``pieri-tables-chevalley`` check).  They are the only labeled rings:
    the shared rings of ``get_chow_ring`` carry none."""
    system = root_system("F4")
    rings = []
    for v in VARIETIES:
        ring = ChowRing(system, v.theta)
        words = json.loads(_data_text(f"labels_{v.stem}.json"))
        labels = {lab: ring.class_of(_weyl.parse_element(system, word))
                  for lab, word in words.items()}
        if (len(labels) != len(ring.classes) or len(set(labels.values())) != len(labels)
                or any(lab != f"{v.letter}{_parse_label(lab)[0]}^{cls.codim}"
                       for lab, cls in labels.items())):
            raise RuntimeError(f"label fixture error: labels_{v.stem}.json does not "
                               "name each basis class once, in its codimension")
        ring.attach_labels(labels)
        rings.append(ring)
    return tuple(rings)


# ---------------------------------------------------------------------------
# cycles


@lru_cache(maxsize=None)
def hyperplane_power(k: int, n: int) -> ChowElement:
    """H^n on the variety ``VARIETIES[k]``, H its hyperplane class."""
    ring = get_f4_varieties()[k]
    return ring.power(ring.hyperplane_class(VARIETIES[k].node), n)


def _check_eps(eps: int) -> int:
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    return eps


def build_r(eps: int) -> Correspondence:
    """r = h1^4 x 1 + eps (1 x g1^4) on X1 x X4."""
    _check_eps(eps)
    x1, x4 = get_f4_varieties()
    return Correspondence.from_pairs(x1, x4, [
        (x1.class_by_label("h1^4"), x4.unit_class, 1),
        (x1.unit_class, x4.class_by_label("g1^4"), eps),
    ])


@lru_cache(maxsize=None)
def r_squared(eps: int) -> Correspondence:
    r = build_r(eps)
    return corr.intersect(r, r)


@lru_cache(maxsize=None)
def build_rho(i: int, eps: int) -> Correspondence:
    """rho_i = r^2 . ((h1^1)^i x (g1^1)^(7-i)), total codimension 15."""
    if not 0 <= i <= 7:
        raise ValueError("rho index must lie in 0..7")
    _check_eps(eps)
    powers = Correspondence.from_product(hyperplane_power(0, i), hyperplane_power(1, 7 - i))
    return corr.intersect(r_squared(eps), powers)


@lru_cache(maxsize=None)
def fixture_idempotents() -> tuple[tuple[Correspondence, ...], tuple[Correspondence, ...]]:
    """The displayed families p' on X1 and q' on X4."""
    data = json.loads(_data_text("idempotent_cycles.json"))
    return tuple(tuple(corr.from_jsonable(ring, ring, cycle) for cycle in data[v.family])
                 for v, ring in zip(VARIETIES, get_f4_varieties()))


def fixture_congruence(kind: str, eps: int) -> Correspondence | tuple:
    """r^2 / rho fixtures with the symbolic eps substituted."""
    _check_eps(eps)
    x1, x4 = get_f4_varieties()
    data = json.loads(_data_text("rho_congruences.json"))

    def build(items):
        return Correspondence.from_pairs(x1, x4, [
            (x1.class_by_label(e["f"]), x4.class_by_label(e["g"]),
             _eps_coeff(e["coeff"], eps)) for e in items])

    if kind == "r2":
        return build(data["r2"])
    return tuple(build(items) for items in data["rho"])


class IdempotentMismatch(Exception):
    """A reduced composition is not congruent mod 3 to its displayed cycle.

    A mathematical FAIL, not an internal fault; ``witness`` names the index
    i, the displayed cycle (p' or q') and the reduced composition.
    """

    def __init__(self, message: str, i: int, cycle: str, reduced: Correspondence):
        super().__init__(message)
        self.witness = {"i": i, "cycle": cycle, "reduced": corr.to_jsonable(reduced)}


@lru_cache(maxsize=None)
def compute_idempotents(eps: int) -> tuple[tuple[Correspondence, ...], tuple[Correspondence, ...]]:
    """Balanced mod-3 reductions of rho_{7-i}^t o rho_i and rho_i o rho_{7-i}^t.

    They are asserted congruent to the displayed cycles, else
    :class:`IdempotentMismatch`; the displayed (exact integral) cycles are
    what downstream consumers get via :func:`fixture_idempotents`.
    """
    _check_eps(eps)
    fixtures = fixture_idempotents()
    found: tuple[list, list] = ([], [])
    for i in range(4):
        rho, mate_t = build_rho(i, eps), corr.transpose(build_rho(7 - i, eps))
        # p'_i on X1 from rho_{7-i}^t o rho_i, q'_i on X4 from rho_i o rho_{7-i}^t
        for k, (beta, alpha, shown) in enumerate(((mate_t, rho, f"rho_{7-i}^t o rho_{i}"),
                                                  (rho, mate_t, f"rho_{i} o rho_{7-i}^t"))):
            reduced = corr.mod_reduce(corr.compose(beta, alpha), 3)
            cycle = f"{VARIETIES[k].family}'"
            if not corr.congruent(reduced, fixtures[k][i], 3):
                raise IdempotentMismatch(f"composition {shown} is not congruent to the "
                                         f"displayed cycle {cycle}_{i}", i, cycle, reduced)
            found[k].append(reduced)
    return tuple(found[0]), tuple(found[1])


@lru_cache(maxsize=None)
def build_J(eps: int) -> Correspondence:
    """The isomorphism cycle on X1 x X4, reduced modulo 3.

    The defining combination rho_0 + rho_1 + eps rho_2 + eps rho_3 covers
    the first-factor codimensions 0..11; its transpose lives on X4 x X1,
    and the role of that half on X1 x X4 is played by the index-mirrored
    combination rho_7 + rho_6 + eps rho_5 + eps rho_4 (the mirror i -> 7-i
    is exactly transposition composed with the swap of the two factors).
    The sum reduces to a signed diagonal with 24 terms.
    """
    _check_eps(eps)
    front = (build_rho(0, eps) + build_rho(1, eps)
             + eps * build_rho(2, eps) + eps * build_rho(3, eps))
    mirror = (build_rho(7, eps) + build_rho(6, eps)
              + eps * build_rho(5, eps) + eps * build_rho(4, eps))
    return corr.mod_reduce(front + mirror, 3)


# ---------------------------------------------------------------------------
# verification report plumbing


class CheckResult:
    """The verdict of one check; ``error`` means the check raised instead of
    deciding.  The fields are immutable by contract; a result compares by
    identity."""

    __slots__ = ("name", "passed", "detail", "witness", "elapsed", "error")

    def __init__(self, name: str, passed: bool, detail: str, witness: object | None = None,
                 elapsed: float = 0.0, error: bool = False):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.witness = witness
        self.elapsed = elapsed
        self.error = error

    @property
    def status(self) -> str:
        if self.error:
            return "ERROR"
        return "PASS" if self.passed else "FAIL"


class VerificationReport:
    """The checks of one run, in the order they ran; each report owns its
    list, which the run appends to."""

    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult] | None = None):
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def errored(self) -> bool:
        return any(c.error for c in self.checks)

    @property
    def status(self) -> str:
        if self.errored:
            return "ERROR"
        return "PASS" if self.passed else "FAIL"

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{c.status} {c.name}: {c.detail}")
            if not c.passed and c.witness is not None:
                lines.append(f"     witness: {json.dumps(c.witness, sort_keys=True)}")
        lines.append(f"{self.status} overall "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail,
                 **({"error": True} if c.error else {}),
                 **({"witness": c.witness} if c.witness is not None else {})}
                for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _run(report: VerificationReport, name: str, fn) -> CheckResult:
    start = time.perf_counter()
    error = False
    try:
        passed, detail, witness = fn()
    except Exception as exc:  # an internal error, reported apart from FAIL
        passed, detail, witness = False, f"{type(exc).__name__}: {exc}", None
        error = True
    result = CheckResult(name, passed, detail, witness,
                         time.perf_counter() - start, error)
    report.checks.append(result)
    return result


# ---------------------------------------------------------------------------
# individual checks


def check_structure():
    system = root_system("F4")
    rings = get_f4_varieties()
    group = rings[0].group
    expected_ranks = (1, 1, 1, 1) + (2,) * 8 + (1, 1, 1, 1)
    facts = {
        "positive roots": (len(system.positive_roots), 24),
        "|W|": (len(group.elements), 1152),
        "l(w0)": (group.longest.length, 24),
    }
    for v, ring in zip(VARIETIES, rings):
        facts[f"|W^theta| {v.stem.upper()}"] = (len(group.minimal_coset_reps(v.theta)), 24)
        facts[f"dim {v.tag.upper()}"] = (ring.dim, 15)
        facts[f"ranks {v.tag.upper()}"] = (ring.ranks(), expected_ranks)
    bad = {k: [list(got), list(want)] if isinstance(want, tuple) else [got, want]
           for k, (got, want) in facts.items() if got != want}
    return (not bad, "root count, group order, coset sizes and codimension "
            "ranks", bad or None)


def check_table_labels():
    """The hyperplane tables pin the frozen labels: under Chevalley's rule
    exactly one assignment reproduces each table, it is the frozen one, and
    the dual of h_i^s (g_i^s) is h_i^(15-s) (g_i^(15-s))."""
    witness = {}
    for v, ring in zip(VARIETIES, get_f4_varieties()):
        table = load_table(v.stem)
        solutions = solve_labels(ring, v.node, v.letter, table)
        unaligned = [lab for lab, cls in sorted(ring.labels.items())
                     if _parse_label(ring.label_of(ring.dual_class(cls)))
                     != (_parse_label(lab)[0], ring.dim - cls.codim)]
        if solutions != [ring.labels] or unaligned:
            missed = list(_table_misses(
                lambda cls: ring.chevalley_product(v.node, cls).terms,
                ring.labels, table))
            witness[v.stem] = {"assignments": len(solutions), "missed": missed,
                               "unaligned": unaligned}
    return (not witness, "all 44 hyperplane products via chevalley", witness or None)


def check_tables():
    """Each hyperplane table, reproduced by the Giambelli route."""
    witness = {}
    for v, ring in zip(VARIETIES, get_f4_varieties()):
        h = ring.hyperplane_class(v.node)
        missed = list(_table_misses(
            lambda cls: ring.giambelli_product(h, cls).terms,
            ring.labels, load_table(v.stem)))
        if missed:
            witness[v.stem] = missed
    return (not witness, "all 44 hyperplane products via giambelli", witness or None)


def _square(ring: ChowRing, v: Variety) -> ChowElement:
    """The paper's square of the class ``v.squared`` of ``ring``."""
    return ChowElement(ring, {ring.class_by_label(c): n for c, n in v.square})


def check_squares():
    failures = []
    for v, ring in zip(VARIETIES, get_f4_varieties()):
        cls = ring.class_by_label(v.squared)
        got = ring.giambelli_product(cls, cls)
        if got != _square(ring, v):
            failures.append({"square": v.squared, "got": repr(got)})
    shown = " and ".join(f"{v.squared}*{v.squared} = " + "+".join(f"{n}{c}" for c, n in v.square)
                         for v in VARIETIES)
    return not failures, shown, failures or None


def check_preimages():
    failures = []
    for v, ring in zip(VARIETIES, get_f4_varieties()):
        u = poly.parse_polynomial(ring.system, _data_text(v.preimage))
        for what, f, want in ((v.preimage, u, ring.element(ring.class_by_label(v.squared))),
                              (v.preimage + " squared", u * u, _square(ring, v))):
            # a transcription error can leave the image lattice or the
            # subring: a FAIL of the data, not a fault of the program
            try:
                got = ring.c_map(f)
            except (LatticeError, SubringError) as exc:
                failures.append({"poly": what, "error": str(exc)})
                continue
            if got != want:
                failures.append({"poly": what, "c": repr(got)})
    return (not failures, "c of each transcribed preimage polynomial returns "
            "its class and its square matches", failures or None)


def check_r2_congruence(eps: int):
    got = corr.mod_reduce(r_squared(eps), 3)
    want = fixture_congruence("r2", eps)
    ok = got == want
    return (ok, f"r^2 mod 3 matches the displayed cycle (eps={eps:+d})",
            None if ok else {"got": corr.to_jsonable(got)})


def check_rho_congruences(eps: int):
    fixtures = fixture_congruence("rho", eps)
    failures = []
    for i in range(8):
        got = corr.mod_reduce(build_rho(i, eps), 3)
        if got != fixtures[i]:
            failures.append({"rho": i, "got": corr.to_jsonable(got)})
    return (not failures, f"all eight rho_i mod 3 match the displayed cycles "
            f"(eps={eps:+d})", failures or None)


def check_idempotent_congruences(eps: int):
    try:
        compute_idempotents(eps)
    except IdempotentMismatch as exc:
        return False, str(exc), exc.witness
    return (True, f"rho_(7-i)^t o rho_i and rho_i o rho_(7-i)^t are congruent "
            f"mod 3 to the displayed p'_i, q'_i (eps={eps:+d})", None)


def check_eps_independence():
    try:
        plus, minus = compute_idempotents(1), compute_idempotents(-1)
    except IdempotentMismatch as exc:
        return False, str(exc), exc.witness
    witness = next(({"family": f"{v.family}'", "i": i, "eps=+1": corr.to_jsonable(a),
                     "eps=-1": corr.to_jsonable(b)}
                    for v, fa, fb in zip(VARIETIES, plus, minus)
                    for i, (a, b) in enumerate(zip(fa, fb)) if a != b), None)
    return (witness is None, "the mod-3 idempotent candidates are identical "
            "for both values of eps", witness)


def _all_eight(family: tuple[Correspondence, ...]) -> list[Correspondence]:
    return list(family) + [corr.transpose(c) for c in family]


def check_idempotent_exactness():
    failures = []
    for v, family in zip(VARIETIES, fixture_idempotents()):
        for k, cycle in enumerate(_all_eight(family)):
            if not corr.is_idempotent(cycle, 0):
                failures.append(f"{v.family}{k % 4}{'t' if k >= 4 else ''}")
    return (not failures, "all eight displayed cycles and transposes are "
            "idempotent over the integers", failures or None)


def check_orthogonality():
    failures = []
    for v, family in zip(VARIETIES, fixture_idempotents()):
        cycles = _all_eight(family)
        for a in range(len(cycles)):
            for b in range(len(cycles)):
                if a == b:
                    continue
                if not corr.compose(cycles[a], cycles[b]).is_zero():
                    failures.append({"family": v.family, "pair": [a, b]})
    return (not failures, "the 8x8 composition table is diagonal on each "
            "variety (integral orthogonality)", failures or None)


def check_completeness():
    failures = []
    for v, ring, family in zip(VARIETIES, get_f4_varieties(), fixture_idempotents()):
        cycles = _all_eight(family)
        if sum(cycles[1:], cycles[0]) != corr.diagonal(ring):
            failures.append(v.family)
    return (not failures, "sum of the idempotents and transposes equals the "
            "diagonal cycle on each variety", failures or None)


def _support_ranks(p: Correspondence) -> dict[int, int]:
    ring = p.source
    ranks = {}
    for s in range(ring.dim + 1):
        basis = ring.basis(s)
        rows = []
        for x in basis:
            image = corr.realize(p, ring.element(x))
            rows.append([image.terms.get(y, 0) for y in basis])
        # the rank of an integer matrix is the size of its Hermite basis
        r = len(linalg.hermite_row_basis(rows))
        if r:
            ranks[s] = r
    return ranks


def check_twist_support():
    failures = []
    for v, family in zip(VARIETIES, fixture_idempotents()):
        for i, cycle in enumerate(family):
            want = {i: 1, i + 4: 1, i + 8: 1}
            got = _support_ranks(cycle)
            if got != want:
                failures.append({"idempotent": f"{v.family}'_{i}", "ranks": got})
            want_t = {15 - i - 8: 1, 15 - i - 4: 1, 15 - i: 1}
            got_t = _support_ranks(corr.transpose(cycle))
            if got_t != want_t:
                failures.append({"idempotent": f"{v.family}'_{i}^t", "ranks": got_t})
    return (not failures, "each idempotent realizes rank 1 exactly in "
            "codimensions {i, i+4, i+8} and its transpose in the "
            "complementary ones", failures or None)


def check_end_basis():
    """End(X1, p'_0) inside the degree-15 correspondences has rank 3."""
    x1, _ = get_f4_varieties()
    p0 = fixture_idempotents()[0][0]
    n = len(x1.classes)
    pos = {cls: k for k, cls in enumerate(x1.classes)}

    def vec(alpha: Correspondence) -> list[int]:
        row = [0] * (n * n)
        for (f, g), v in alpha.terms.items():
            row[pos[f] * n + pos[g]] = v
        return row

    rows = []
    for u in x1.classes:
        for v in x1.classes:
            if u.codim + v.codim != x1.dim:
                continue  # End sits in morphism degree, CH^15(X1 x X1)
            basis_corr = Correspondence(x1, x1, {(u, v): 1})
            image = corr.compose(p0, corr.compose(basis_corr, p0))
            if not image.is_zero():
                rows.append(vec(image))
    got = linalg.hermite_row_basis(rows)

    lab = x1.class_by_label
    displayed = [
        Correspondence.from_pairs(x1, x1, [(lab("h1^0"), lab("h1^15"), 1)]),
        Correspondence.from_pairs(x1, x1, [(lab("h1^4"), lab("h1^11"), 1),
                                           (lab("h1^4"), lab("h2^11"), 1)]),
        Correspondence.from_pairs(x1, x1, [(lab("h1^8"), lab("h1^7"), 1),
                                           (lab("h1^8"), lab("h2^7"), 1)]),
    ]
    want = linalg.hermite_row_basis([vec(alpha) for alpha in displayed])
    ok = got == want and len(got) == 3
    if ok and p0 != displayed[0] + displayed[1] + displayed[2]:
        ok = False
    return (ok, "p'_0 o CH^15(X1 x X1) o p'_0 is the rank-3 lattice spanned "
            "by the displayed cycles", None if ok else
            {"rank": len(got)})


def check_isomorphism_shape(eps: int):
    x1, x4 = get_f4_varieties()
    J = build_J(eps)
    seen_f, seen_g = set(), set()
    failures = []
    for (f, g), v in J.terms.items():
        fi, fs = _parse_label(x1.label_of(f))
        gi, gs = _parse_label(x4.label_of(g))
        if abs(v) != 1 or fi != gi or fs + gs != 15:
            failures.append({"term": f"{x1.label_of(f)} x {x4.label_of(g)}",
                             "coeff": v})
        seen_f.add(f)
        seen_g.add(g)
    if len(J.terms) != 24 or len(seen_f) != 24 or len(seen_g) != 24:
        failures.append({"terms": len(J.terms)})
    signs = {f"{x1.label_of(f)} x {x4.label_of(g)}": v
             for (f, g), v in J.sorted_terms()}
    return (not failures, f"J has the signed-diagonal shape: 24 terms "
            f"h_i^s x g_i^(15-s) with coefficients +-1 (eps={eps:+d})",
            {"signs": signs} if not failures else failures)


def check_isomorphism_inverse(eps: int):
    x1, x4 = get_f4_varieties()
    J = build_J(eps)
    Jt = corr.transpose(J)
    failures = []
    for side, product, ring in (("J^t o J", corr.compose(Jt, J), x1),
                                ("J o J^t", corr.compose(J, Jt), x4)):
        residue = corr.mod_reduce(product - corr.diagonal(ring), 3)
        if not residue.is_zero():
            failures.append({"side": side, "residue": corr.to_jsonable(residue)})
    return (not failures, f"J^t o J and J o J^t are congruent mod 3 to the "
            f"diagonals (eps={eps:+d})", failures or None)


# ---------------------------------------------------------------------------
# driver


def run_f4_verification(eps: str | int = "both") -> VerificationReport:
    if eps == "both":
        eps_values: tuple[int, ...] = (1, -1)
    else:
        eps_values = (_check_eps(int(eps)),)
    report = VerificationReport()
    _run(report, "structure", check_structure)
    _run(report, "pieri-tables-chevalley", check_table_labels)
    _run(report, "pieri-tables-giambelli", check_tables)
    _run(report, "giambelli-squares", check_squares)
    _run(report, "preimage-polynomials", check_preimages)
    for e in eps_values:
        _run(report, f"r2-congruence[eps={e:+d}]",
             lambda e=e: check_r2_congruence(e))
        _run(report, f"rho-congruences[eps={e:+d}]",
             lambda e=e: check_rho_congruences(e))
        _run(report, f"idempotent-congruences[eps={e:+d}]",
             lambda e=e: check_idempotent_congruences(e))
    if len(eps_values) == 2:
        _run(report, "idempotent-eps-independence", check_eps_independence)
    _run(report, "idempotent-exactness", check_idempotent_exactness)
    _run(report, "idempotent-orthogonality", check_orthogonality)
    _run(report, "idempotent-completeness", check_completeness)
    _run(report, "twist-support", check_twist_support)
    _run(report, "endomorphism-basis", check_end_basis)
    for e in eps_values:
        _run(report, f"isomorphism-shape[eps={e:+d}]",
             lambda e=e: check_isomorphism_shape(e))
        _run(report, f"isomorphism-inverse[eps={e:+d}]",
             lambda e=e: check_isomorphism_inverse(e))
    return report
