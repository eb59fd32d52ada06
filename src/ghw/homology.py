"""Rational homology from holonomy invariants on exterior powers.

For a flat manifold the j-th Betti number is the dimension of the invariant
subspace of the holonomy action on the j-th exterior power of the fiber. For
diagonal actions that is a character average: the j-th elementary symmetric
polynomial in the diagonal entries, averaged over the holonomy. For a GHW
group with support of size k the holonomy H is every sign vector whose flips
meet the support evenly, so Sum_H Prod_i (1 + d_i x) is half the sum over
all sign vectors, 2^n, plus half the sum weighted by the parity on the
support, (2x)^k 2^(n-k): that is 2^(n-1) (1 + x^k). Divided by
|H| = 2^(n-1), the Betti numbers are 1 in degrees 0 and k and 0 elsewhere.
tests/oracles.brute_betti_vector is the character average summed term by
term.
"""

from __future__ import annotations

from .core import GhwPresentation, _fields, _require_valid

__all__ = [
    "exterior_invariant_dim",
    "betti_vector",
    "is_rational_homology_sphere",
]


def betti_vector(p: GhwPresentation) -> tuple[int, ...]:
    """All Betti numbers b_0..b_n: 1 in degrees 0 and k, 0 elsewhere."""
    _require_valid(p)
    return _fields(p.n, p.support_mask)["betti"]


def exterior_invariant_dim(p: GhwPresentation, j: int) -> int:
    """Invariant dimension of the j-th exterior power, 0 <= j <= n."""
    b = betti_vector(p)
    if not 0 <= j <= p.n:
        raise ValueError(f"exterior degree {j} out of range 0..{p.n}")
    return b[j]


def is_rational_homology_sphere(p: GhwPresentation) -> bool:
    b = betti_vector(p)
    return b[0] == 1 and b[-1] == 1 and not any(b[1:-1])
