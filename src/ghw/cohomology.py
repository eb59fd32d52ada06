"""Integer cohomology of the holonomy action on the standard lattice.

The first cohomology group controls the outer automorphism count. The
holonomy acts diagonally, so Z^n is the sum of the rank-1 modules Z_chi,
one per coordinate character chi, and H^1 splits with it: 0 for a
trivial chi (Hom(G, Z) = 0 for the finite G), Z/2 for a nontrivial one.
Hence |H^1| = 2^(n - b1) in closed form. The Smith normal form, integer
solving and kernel bases below are exact Python-int tools and public API.
Nothing else in the package calls them; the tests use them as the
reference for |H^1| and for the didicosm witness.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import GhwPresentation, _fields, _require_valid

__all__ = [
    "SnfResult",
    "smith_normal_form",
    "h1_order",
    "h1_closed_form",
]


class SnfResult(NamedTuple):
    """Decomposition left @ matrix @ right = diag(diagonal), both transforms
    unimodular, diagonal entries positive with each dividing the next."""

    diagonal: tuple[int, ...]
    rank: int
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix) -> SnfResult:
    """Smith normal form over Z with both unimodular transforms.

    Deterministic: the pivot is the entry of least absolute value in the
    working submatrix, first in row-major order on ties.

    >>> smith_normal_form([[2, 4], [6, 8]]).diagonal
    (2, 4)
    >>> smith_normal_form([[1, 0], [0, 1]]).diagonal
    (1, 1)
    >>> smith_normal_form([[0, 0], [0, 0]]).diagonal
    ()
    """
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    u = _identity(m)
    v = _identity(n)
    t = 0
    while t < min(m, n):
        # Pick the least nonzero entry by absolute value.
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (best == 0 or x < best):
                    best, pi, pj = x, i, j
        if pi < 0:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        d = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // d
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // d
                for row in a:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # Column and row are clean; enforce divisibility of the rest.
        stuck = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % d:
                    stuck = i
                    break
            if stuck is not None:
                break
        if stuck is not None:
            a[t] = [x + y for x, y in zip(a[t], a[stuck])]
            u[t] = [x + y for x, y in zip(u[t], u[stuck])]
            continue
        t += 1
    diagonal = tuple(a[i][i] for i in range(min(m, n)) if a[i][i])
    assert all(
        diagonal[i + 1] % diagonal[i] == 0 for i in range(len(diagonal) - 1)
    )
    return SnfResult(
        diagonal=diagonal,
        rank=len(diagonal),
        left=tuple(tuple(row) for row in u),
        right=tuple(tuple(row) for row in v),
    )


def _matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


def solve_integer(a, b):
    """One integer solution X of A X = B, or None when none exists."""
    m = len(a)
    k = len(a[0]) if m else 0
    q = len(b[0]) if b else 0
    if len(b) != m:
        raise ValueError("shape mismatch")
    res = smith_normal_form(a)
    ub = _matmul([list(r) for r in res.left], b)
    y = [[0] * q for _ in range(k)]
    for t in range(m):
        d = res.diagonal[t] if t < res.rank else 0
        for c in range(q):
            if d:
                if ub[t][c] % d:
                    return None
                if t < k:
                    y[t][c] = ub[t][c] // d
            elif ub[t][c]:
                return None
    return _matmul([list(r) for r in res.right], y)


def kernel_basis(a):
    """Columns spanning the integer kernel of A, as a list of vectors."""
    m = len(a)
    k = len(a[0]) if m else 0
    res = smith_normal_form(a)
    return [[res.right[i][j] for i in range(k)] for j in range(res.rank, k)]


def h1_order(p: GhwPresentation) -> int:
    """|H^1(holonomy, Z^n)| for the presentation's holonomy representation.

    The lattice splits as the sum of the rank-1 modules Z_chi, one per
    coordinate character chi. A trivial chi gives H^1 = Hom(G, Z) = 0,
    since G is finite. A nontrivial chi gives Z/2: a crossed homomorphism
    is fixed by its value on one t with chi(t) = -1, and the principal
    ones take the values 2w there. So the order is 2^(n - b1), b1 the
    number of trivial characters.
    """
    _require_valid(p)
    return _fields(p.n, p.support_mask)["h1_order"]


def h1_closed_form(p: GhwPresentation) -> int:
    """2 to the number of nontrivial coordinate characters: h1_order, under
    the name of its formula."""
    return h1_order(p)
