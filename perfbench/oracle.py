"""Independent oracles: root data, Weyl group orders, Weyl's degree
formula, and a reference correspondence algebra for the F4 pair.

Nothing here imports chowring.  The benchmark judges the program's outputs
against these and against the frozen references in ``refs/``, so a change
under test cannot move its own yardstick.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def cartan_a(n: int) -> list[list[int]]:
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


def cartan_b(n: int) -> list[list[int]]:
    """B_n with node n short: entry [n-1][n-2] = <alpha_{n-1}, alpha_n^vee> = -2."""
    m = cartan_a(n)
    m[n - 1][n - 2] = -2
    return m


def cartan_d(n: int) -> list[list[int]]:
    """D_n with the fork at node n-2 (1-based) and spin nodes n-1, n."""
    m = cartan_a(n)
    m[n - 2][n - 1] = m[n - 1][n - 2] = 0
    m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    return m


CARTAN = {
    "G2": [[2, -3], [-1, 2]],
    "B3": cartan_b(3),
    "B4": cartan_b(4),
    "A5": cartan_a(5),
    "D5": cartan_d(5),
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
}

# Published orders of the Weyl groups the workloads use.
KNOWN_ORDERS = {"G2": 12, "B3": 48, "B4": 384, "A5": 720, "D5": 1920, "F4": 1152}


def _symmetrizer(c) -> list[Fraction]:
    n = len(c)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is None:
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if i != j and c[i][j] and d[j] is None:
                        d[j] = d[i] * c[i][j] / c[j][i]
                        stack.append(j)
    return d  # type: ignore[return-value]


def positive_roots(c) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by reflection closure.

    ``c[i][j]`` is <alpha_j, alpha_i^vee>, so s_i(beta) = beta - (sum_j
    c[i][j] beta_j) alpha_i.
    """
    n = len(c)
    simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    known = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                p = sum(c[i][j] * beta[j] for j in range(n))
                image = tuple(beta[k] - (p if k == i else 0) for k in range(n))
                if all(x >= 0 for x in image) and image not in known:
                    known.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(known, key=lambda r: (sum(r), r))


def _coroot_pairing(c, d, beta, weight) -> Fraction:
    """<weight, beta^vee> with the weight in fundamental-weight coordinates."""
    n = len(c)
    norm = sum(beta[i] * beta[j] * d[i] * c[i][j] for i in range(n) for j in range(n))
    return sum((weight[k] * beta[k] * 2 * d[k] / norm for k in range(n)), Fraction(0))


def subgroup_order(c, nodes) -> int:
    """|W_nodes|, as the orbit size of rho_nodes, a regular weight for it."""
    n = len(c)
    start = tuple(1 if i + 1 in nodes else 0 for i in range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for lam in frontier:
            for i in nodes:
                k = lam[i - 1]
                if k:
                    # alpha_i in fundamental-weight coordinates is column i.
                    image = tuple(lam[t] - k * c[t][i - 1] for t in range(n))
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
        frontier = nxt
    return len(seen)


def parabolic_dim_degree(c, theta) -> tuple[int, int]:
    """(dim G/P_theta, degree of G/P_theta under the line bundle of
    lambda = sum of the fundamental weights outside theta), by Weyl's
    dimension formula: deg = dim! * prod <lambda, b^vee> / <rho, b^vee>
    over the positive roots b with <lambda, b^vee> > 0."""
    n = len(c)
    d = _symmetrizer(c)
    lam = tuple(0 if i + 1 in theta else 1 for i in range(n))
    rho = (1,) * n
    dim, ratio = 0, Fraction(1)
    for beta in positive_roots(c):
        p = _coroot_pairing(c, d, beta, lam)
        if p:
            dim += 1
            ratio *= p / _coroot_pairing(c, d, beta, rho)
    deg = factorial(dim) * ratio
    if deg.denominator != 1:
        raise ArithmeticError(f"non-integral degree {deg}")
    return dim, int(deg)


# ---------------------------------------------------------------------------
# the F4 pair: labels and the published duality

F4_DIM = 15
F4_LETTER = {"X1": "h", "X4": "g"}


def f4_labels(variety: str) -> list[tuple[str, int]]:
    """(label, codimension) of the 24 basis classes; codimensions 4..11
    carry two classes x1^s, x2^s, the others one."""
    x = F4_LETTER[variety]
    out = []
    for s in range(F4_DIM + 1):
        out.append((f"{x}1^{s}", s))
        if 4 <= s <= 11:
            out.append((f"{x}2^{s}", s))
    return out


def _parse(label: str) -> tuple[int, int]:
    head, _, s = label.partition("^")
    return int(head[1:]), int(s)


def dual_label(label: str) -> str:
    i, s = _parse(label)
    return f"{label[0]}{i}^{F4_DIM - s}"


def pair_degree(a: str, b: str) -> int:
    """deg(x_i^s * x_j^t) = 1 exactly when (j, t) = (i, 15 - s)."""
    return int(b == dual_label(a))


# A correspondence is (source, target, {(f, g): coeff}) with label keys.

def _clean(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v}


def compose(beta, alpha):
    """beta o alpha via (f_b x g_b) o (f_a x g_a) = deg(g_a f_b) (f_a x g_b);
    the degree is 1 exactly when f_b is the dual of g_a."""
    src_a, mid, ta = alpha
    mid_b, dst, tb = beta
    if mid != mid_b:
        raise ValueError("middle varieties differ")
    by_first: dict = {}
    for (fb, gb), vb in tb.items():
        by_first.setdefault(fb, []).append((gb, vb))
    acc: dict = {}
    for (fa, ga), va in ta.items():
        for gb, vb in by_first.get(dual_label(ga), ()):
            acc[(fa, gb)] = acc.get((fa, gb), 0) + va * vb
    return (src_a, dst, _clean(acc))


def transpose(alpha):
    src, dst, terms = alpha
    return (dst, src, {(g, f): v for (f, g), v in terms.items()})


def mod_reduce(alpha, m: int):
    src, dst, terms = alpha
    if m == 0:
        return alpha
    out = {}
    for k, v in terms.items():
        r = v % m
        if 2 * r > m:
            r -= m
        out[k] = r
    return (src, dst, _clean(out))


def _sub(a, b):
    acc = dict(a[2])
    for k, v in b[2].items():
        acc[k] = acc.get(k, 0) - v
    return (a[0], a[1], _clean(acc))


def is_idempotent(p, m: int) -> bool:
    return not mod_reduce(_sub(compose(p, p), p), m)[2]


def are_orthogonal(p, q, m: int) -> bool:
    return (not mod_reduce(compose(p, q), m)[2]
            and not mod_reduce(compose(q, p), m)[2])


def realize(p, x: dict) -> dict:
    """x -> sum c deg(x * g) f, for a cycle x given as {label: coeff}."""
    acc: dict = {}
    for (f, g), v in p[2].items():
        for lab, vx in x.items():
            d = pair_degree(lab, g)
            if d:
                acc[f] = acc.get(f, 0) + v * vx * d
    return _clean(acc)
