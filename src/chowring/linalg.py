"""Tiny exact linear algebra used for rank and lattice computations."""

from __future__ import annotations


def hermite_row_basis(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the integer row space (row-style Hermite form).

    Positive pivots, entries above each pivot reduced into [0, pivot).
    Two sets of integer vectors span the same lattice exactly when their
    Hermite bases coincide.
    """
    m = [list(map(int, row)) for row in rows if any(row)]
    if not m:
        return ()
    cols = len(m[0])
    r = 0
    for c in range(cols):
        # gcd-eliminate column c below row r
        while True:
            live = [k for k in range(r, len(m)) if m[k][c]]
            if not live:
                break
            k = min(live, key=lambda k: abs(m[k][c]))
            m[r], m[k] = m[k], m[r]
            done = True
            for k in range(r + 1, len(m)):
                if m[k][c]:
                    q = m[k][c] // m[r][c]
                    m[k] = [a - q * b for a, b in zip(m[k], m[r])]
                    if m[k][c]:
                        done = False
            if done:
                break
        if r < len(m) and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            for k in range(r):
                q = m[k][c] // m[r][c]
                if q:
                    m[k] = [a - q * b for a, b in zip(m[k], m[r])]
            r += 1
            if r == len(m):
                break
    return tuple(tuple(row) for row in m[:r])
