"""Rational homology from holonomy invariants on exterior powers.

For a flat manifold the j-th Betti number is the dimension of the invariant
subspace of the holonomy action on the j-th exterior power of the fiber. For
diagonal actions every exterior power is a permutation-free sum of characters
and the invariant dimension is a plain character average: the j-th elementary
symmetric polynomial in the diagonal entries, summed over the group and
divided by its order. Integer arithmetic throughout; divisions are asserted
exact.
"""

from __future__ import annotations

from functools import lru_cache

from .core import GhwPresentation, _require_valid

__all__ = [
    "exterior_invariant_dim",
    "betti_vector",
    "is_rational_homology_sphere",
]


@lru_cache(maxsize=1024)
def _character_sums(n: int, support_mask: int) -> tuple[int, ...]:
    """Character sums over the kernel of the support parity, which is the
    holonomy of every valid group with that support."""
    total = [0] * (n + 1)
    for m in range(1 << n):
        if (m & support_mask).bit_count() & 1:
            continue
        poly = [1]
        for i in range(n):
            d = -1 if m >> i & 1 else 1
            nxt = [0] * (len(poly) + 1)
            for t, c in enumerate(poly):
                nxt[t] += c
                nxt[t + 1] += d * c
            poly = nxt
        for t, c in enumerate(poly):
            total[t] += c
    return tuple(total)


def exterior_invariant_dim(p: GhwPresentation, j: int) -> int:
    """Invariant dimension of the j-th exterior power, 0 <= j <= n."""
    _require_valid(p)
    if not 0 <= j <= p.n:
        raise ValueError(f"exterior degree {j} out of range 0..{p.n}")
    total = _character_sums(p.n, p.support_mask)[j]
    order = len(p.elements)
    assert total % order == 0, "character sum not divisible by group order"
    return total // order


def betti_vector(p: GhwPresentation) -> tuple[int, ...]:
    """All Betti numbers b_0..b_n at once, one character-average pass."""
    _require_valid(p)
    order = len(p.elements)
    out = []
    for total in _character_sums(p.n, p.support_mask):
        assert total % order == 0, "character sum not divisible by group order"
        out.append(total // order)
    return tuple(out)


def is_rational_homology_sphere(p: GhwPresentation) -> bool:
    b = betti_vector(p)
    return b[0] == 1 and b[-1] == 1 and not any(b[1:-1])
