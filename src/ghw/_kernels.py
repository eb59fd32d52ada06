"""The census kernel: one walk and the one permutation primitive it rests on.

All tables are per (dimension, support size), with the support normalized to
{1..k}. A column code packs the cocycle values of one coordinate over the
2^(n-1) sign elements, one bit per element in ascending mask order. Every
column of a valid cocycle is a character of H, so it is one of T = 2^(n-1)
codes; the kernel holds a column as its rank among them, and ranks compare
the way codes do. Column codes are Python ints, so every dimension runs the
same pure-Python code.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from types import SimpleNamespace

# Recorded with each benchmark run (perfbench/child.py); there is no numba path.
HAS_NUMBA = False


def active_backend() -> str:
    """Name of the one census kernel, recorded with each benchmark run."""
    return "python"


@lru_cache(maxsize=None)
def build_tables(n: int, k: int) -> SimpleNamespace:
    """Tables driving enumeration and canonicalization.

    Fields:
      T          number of sign elements, 2^(n-1)
      H          sorted element masks
      codes      the T character codes in ascending order, indexed by rank
      rank       code -> rank
      red        per coordinate, rank -> rank of the code reduced modulo
                 that coordinate's coboundary
      colfix     per coordinate, bitset of elements fixing it
      needcheck  per coordinate, elements whose last fixed coordinate it is
      cands      per coordinate, sorted reduced ranks
      perms      support-preserving coordinate permutations as
                 (inv, image): new coordinate j takes old coordinate
                 inv[j], and image[r] is the rank of character r relabeled
      stab       per depth d, the perms mapping {0..d} onto itself
    """
    if n < 2 or not 1 <= k <= n or k % 2 == 0:
        raise ValueError(f"no support class of size {k} in dimension {n}")
    smask = (1 << k) - 1
    H = [m for m in range(1 << n) if (m & smask).bit_count() % 2 == 0]
    T = len(H)
    assert T == 1 << (n - 1)
    # The character of mask m; m and m ^ smask agree on H.
    char = [
        sum(((m & h).bit_count() & 1) << t for t, h in enumerate(H))
        for m in range(1 << n)
    ]
    codes = sorted(set(char))
    assert len(codes) == T
    rank = {c: r for r, c in enumerate(codes)}
    mask_rank = [rank[c] for c in char]
    rep = [0] * T
    for m in range(1 << n):
        rep[mask_rank[m]] = m
    # Adding the coordinate character xbar_j = char[1 << j] moves mask m to
    # m ^ 1 << j; the reduced code is the smaller of the two.
    red = [
        tuple(min(r, mask_rank[rep[r] ^ 1 << j]) for r in range(T))
        for j in range(n)
    ]
    colfix = [sum((~H[t] >> i & 1) << t for t in range(T)) for i in range(n)]
    # Every nonidentity element fixes something: the all-flip vector is not in H.
    needcheck = [0] * n
    for t in range(1, T):
        last = max(i for i in range(n) if not H[t] >> i & 1)
        needcheck[last] |= 1 << t
    perms = []
    for pa in itertools.permutations(range(k)):
        for pb in itertools.permutations(range(k, n)):
            dst = pa + pb
            # img[m] is mask m with bit j moved to bit dst[j].
            img = [0]
            for j in range(n):
                bit = 1 << dst[j]
                img += [x | bit for x in img]
            inv = [0] * n
            for j, c in enumerate(dst):
                inv[c] = j
            perms.append((tuple(inv), tuple([mask_rank[img[m]] for m in rep])))
    stab = [
        tuple(p for p in perms if all(i <= d for i in p[0][:d + 1]))
        for d in range(n)
    ]
    return SimpleNamespace(
        n=n, k=k, T=T, H=tuple(H), codes=tuple(codes), rank=rank,
        red=tuple(red), colfix=tuple(colfix), needcheck=tuple(needcheck),
        cands=tuple(tuple(sorted(set(r))) for r in red),
        perms=tuple(perms), stab=tuple(stab),
    )


def relabel(tab, perm, ranks) -> tuple[int, ...]:
    """The permutation primitive: reduced ranks after relabeling by perm.

    ranks may be a prefix of length d+1 when perm maps {0..d} onto itself.
    """
    inv, image = perm
    red = tab.red
    return tuple([red[j][image[ranks[inv[j]]]] for j in range(len(ranks))])


def reduced(tab, cols) -> tuple[int, ...]:
    """Ranks of column codes, each reduced modulo its coboundary."""
    return tuple(tab.red[j][tab.rank[c]] for j, c in enumerate(cols))


def canonical(tab, ranks) -> tuple[int, ...]:
    """Lexicographically least relabeling of a reduced rank tuple."""
    return min(relabel(tab, perm, ranks) for perm in tab.perms)


def stabilizer_order(tab, ranks) -> int:
    """Number of support-preserving permutations fixing a reduced tuple."""
    return sum(relabel(tab, perm, ranks) == ranks for perm in tab.perms)


def to_codes(tab, ranks) -> tuple[int, ...]:
    return tuple(tab.codes[r] for r in ranks)


def normalized_ranks(p):
    """Tables for p's support size and p's reduced column ranks, after the
    support of p is moved onto {1..k}.

    The columns are read straight from p's cocycle table: new coordinate j
    is old coordinate src[j] under p.report.normalizing_permutation, and
    bit t of new column j is that coordinate of s at the old mask of H[t].
    """
    n = p.n
    tab = build_tables(n, p.support_mask.bit_count())
    src = [0] * n
    for i, pos in enumerate(p.report.normalizing_permutation):
        src[pos - 1] = i
    # old[m] is new mask m with bit j moved back to bit src[j].
    old = [0]
    for i in src:
        old += [x | 1 << i for x in old]
    s = p.s_by_mask
    vals = [s[old[h]] for h in tab.H]
    cols = [sum((v >> i & 1) << t for t, v in enumerate(vals)) for i in src]
    return tab, reduced(tab, cols)


def census_leaves(n: int, k: int, deadline: float | None = None):
    """Canonical torsion-free column tuples for support {1..k}, lex sorted.

    Orderly generation: when a permutation mapping {0..d} onto itself makes
    the prefix of depth d lexicographically smaller, no completion of that
    prefix is canonical, so its subtree is cut. At the last depth that test
    is the full canonical test. The deadline (a time.monotonic value) is
    checked at every node; TimeoutError is raised once it passes.
    """
    tab = build_tables(n, k)
    out = []

    def walk(depth, sat, prefix):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"census {n=} {k=} exceeded its budget")
        for r in tab.cands[depth]:
            s2 = sat | (tab.codes[r] & tab.colfix[depth])
            # Elements whose last fixed coordinate this is need a witness now.
            if tab.needcheck[depth] & ~s2:
                continue
            cur = prefix + (r,)
            if any(relabel(tab, p, cur) < cur for p in tab.stab[depth]):
                continue
            if depth == n - 1:
                out.append(to_codes(tab, cur))
            else:
                walk(depth + 1, s2, cur)

    walk(0, 0, ())
    return out


def canonicalize_batch(n: int, k: int, rows) -> list[tuple[int, ...]]:
    """Canonical forms of raw column-code rows, support already normalized."""
    tab = build_tables(n, k)
    return [to_codes(tab, canonical(tab, reduced(tab, row))) for row in rows]
