"""Outer automorphism counting.

Out factors as |H^1| times the normalizer quotient. The normalizer of the
holonomy image inside GL_n(Z) consists of signed permutations since the
coordinate characters are pairwise distinct; all sign changes act trivially
on translation classes and contribute a single factor of 2 through the global
flip, so the rest is the count of support-preserving coordinate permutations
fixing the cocycle class up to coboundaries.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from . import _kernels
from .cohomology import h1_order
from .core import GhwPresentation, first_betti, _require_valid

__all__ = ["OutReport", "normalizer_stabilizer_order", "out_order"]


class OutReport(NamedTuple):
    h1_order: int
    perm_stabilizer_order: int
    n_alpha_quotient_order: int
    out_order: int
    bound: int


def normalizer_stabilizer_order(p: GhwPresentation) -> int:
    """Permutations of the coordinates preserving support and cocycle class.

    Counted after the support is moved onto {1..k}, as for the canonical key;
    the count is invariant under that relabeling.
    """
    _require_valid(p)
    return _kernels.stabilizer_order(*_kernels.normalized_ranks(p))


def out_order(p: GhwPresentation) -> OutReport:
    """Exact |Out| with the a-priori bound it must respect."""
    _require_valid(p)
    n = p.n
    h1 = h1_order(p)
    stab = normalizer_stabilizer_order(p)
    quotient = 2 * stab
    out = h1 * quotient
    if first_betti(p) == 0:
        bound = (1 << (n + 1)) * factorial(n)
    else:
        bound = (1 << n) * factorial(n - 1)
    assert out <= bound, (out, bound)
    return OutReport(
        h1_order=h1,
        perm_stabilizer_order=stab,
        n_alpha_quotient_order=quotient,
        out_order=out,
        bound=bound,
    )
