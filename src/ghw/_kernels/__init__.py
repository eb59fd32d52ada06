"""The census kernel: one walk and one permutation primitive (common.py).

It is pure Python at every dimension; column codes are Python ints, so no
dimension needs a separate path. HAS_NUMBA and active_backend() describe
the kernel to callers that record their environment (perfbench/child.py).
"""

from .common import canonicalize_batch, census_leaves

HAS_NUMBA = False

__all__ = [
    "HAS_NUMBA", "active_backend", "census_leaves", "canonicalize_batch",
]


def active_backend() -> str:
    """Name of the one census kernel."""
    return "python"
