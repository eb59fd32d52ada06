"""The census kernel: one walk and the one permutation primitive it rests on.

All tables are per (dimension, support size), with the support normalized to
{1..k}. A column code packs the cocycle values of one coordinate over the
2^(n-1) sign elements, one bit per element in ascending mask order. Every
column of a valid cocycle is a character of H, so it is one of T = 2^(n-1)
codes; the kernel holds a column as its rank among them, and ranks compare
the way codes do. Column codes are Python ints, so every dimension runs the
same pure-Python code.

A cocycle enters as its half-step functionals: column c is the character
of one mask, which functional_ranks maps to its rank through one table per
(dimension, support), so no element of H is scanned.

The permutation primitive is least: it relabels reduced ranks by a list of
permutations one position at a time, keeps at each position only the
permutations that reach the least value there, and returns the least
relabeling with the number of permutations that reach it. canonical is its
tuple and stabilizer_order its count; the census walk checks each prefix
against itself with it, cuts the subtree when something is smaller, and
reads the leaf's stabilizer from the count. No table is precomposed per
permutation, so a key one dimension above the census cap costs no more
memory than the permutation list itself.
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
      mask_rank  per mask m of n bits, the rank of m's character on H
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
    # p maps {0..d} onto itself iff the largest of inv[:d+1] is d.
    stab = [[] for _ in range(n)]
    for p in perms:
        top = -1
        for d, i in enumerate(p[0]):
            if i > top:
                top = i
            if top == d:
                stab[d].append(p)
    return SimpleNamespace(
        n=n, k=k, T=T, H=tuple(H), codes=tuple(codes), rank=rank,
        red=tuple(red), colfix=tuple(colfix), needcheck=tuple(needcheck),
        cands=tuple(tuple(sorted(set(r))) for r in red),
        mask_rank=tuple(mask_rank), perms=tuple(perms),
        stab=tuple(map(tuple, stab)),
    )


def least(tab, perms, ranks, ref=None):
    """The permutation primitive: the least relabeling of ranks over perms,
    as (tuple, number of perms that give it).

    Position j of a relabeling is red[j][image[ranks[inv[j]]]]. Each
    position is computed for the surviving permutations only, and those
    that miss its minimum are dropped. When perms is a group, the survivors
    form a coset of the stabilizer of ranks, so the count is its order.
    ranks may be a prefix of length d+1 when every perm maps {0..d} onto
    itself. With ref, the result is None as soon as the least relabeling
    falls below ref, which it does exactly when it is lexicographically
    smaller; once it rises above ref, ref is no longer read.
    """
    red = tab.red
    out = []
    for j, rj in enumerate(red[:len(ranks)]):
        vals = [rj[image[ranks[inv[j]]]] for inv, image in perms]
        m = min(vals)
        if ref is not None and m != ref[j]:
            if m < ref[j]:
                return None
            ref = None
        out.append(m)
        if vals.count(m) < len(vals):
            perms = [p for p, v in zip(perms, vals) if v == m]
    return tuple(out), len(perms)


def reduced(tab, cols) -> tuple[int, ...]:
    """Ranks of column codes, each reduced modulo its coboundary."""
    return tuple(tab.red[j][tab.rank[c]] for j, c in enumerate(cols))


def canonical(tab, ranks) -> tuple[int, ...]:
    """Lexicographically least relabeling of a reduced rank tuple."""
    return least(tab, tab.perms, ranks)[0]


def stabilizer_order(tab, ranks) -> int:
    """Number of support-preserving permutations fixing a reduced tuple."""
    return least(tab, tab.perms, ranks)[1]


def to_codes(tab, ranks) -> tuple[int, ...]:
    return tuple(tab.codes[r] for r in ranks)


def cocycle_functionals(p) -> list[int]:
    """Per coordinate c, a mask lam[c] whose parity against each m of H is
    bit c of p.s_by_mask[m], with its lowest support bit clear.

    The table is linear on H, so it is read on a basis of H: e_j off the
    support, and e_j + e_low for each other support coordinate j.
    """
    sigma = p.support_mask
    low = sigma & -sigma
    vals = [p.s_by_mask[1 << j ^ (low if sigma >> j & 1 else 0)]
            for j in range(p.n)]
    return [sum((v >> c & 1) << j for j, v in enumerate(vals))
            for c in range(p.n)]


@lru_cache(maxsize=None)
def _support_ranks(n: int, support_mask: int):
    """Tables, the order src (the support, then the rest, each increasing,
    as in core._support_alignment) and, per mask m, mask_rank of m with
    each bit src[j] moved to bit j."""
    tab = build_tables(n, support_mask.bit_count())
    src = sorted(range(n), key=lambda i: (not support_mask >> i & 1, i))
    img = [0]
    for i in range(n):
        img += [x | 1 << src.index(i) for x in img]
    return tab, src, tuple([tab.mask_rank[x] for x in img])


def functional_ranks(n: int, support_mask: int, lams):
    """Tables and reduced column ranks of the table with half-step
    functionals lams, its support moved onto {1..k}."""
    tab, src, ranks = _support_ranks(n, support_mask)
    return tab, tuple([tab.red[j][ranks[lams[i]]] for j, i in enumerate(src)])


def normalized_ranks(p):
    """functional_ranks of a presentation's own cocycle table."""
    return functional_ranks(p.n, p.support_mask, cocycle_functionals(p))


def census_leaves(n: int, k: int, deadline: float | None = None):
    """Canonical torsion-free column tuples for support {1..k}, lex sorted,
    each paired with its stabilizer order: a list of (codes, stab) pairs.

    Orderly generation: when a permutation mapping {0..d} onto itself makes
    the prefix of depth d lexicographically smaller, no completion of that
    prefix is canonical, so its subtree is cut. least checks the prefix
    against itself over those permutations. At the last depth that is the
    full canonical test, and the permutations that reach the leaf are
    exactly its stabilizer. The deadline (a time.monotonic value) is
    checked at every node; TimeoutError is raised once it passes.
    """
    tab = build_tables(n, k)
    out = []

    def walk(depth, sat, prefix):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"census {n=} {k=} exceeded its budget")
        stab = tab.stab[depth]
        leaf = depth == n - 1
        for r in tab.cands[depth]:
            s2 = sat | (tab.codes[r] & tab.colfix[depth])
            # Elements whose last fixed coordinate this is need a witness now.
            if tab.needcheck[depth] & ~s2:
                continue
            cur = prefix + (r,)
            hit = least(tab, stab, cur, cur)
            if hit is None:
                continue
            if leaf:
                out.append((to_codes(tab, cur), hit[1]))
            else:
                walk(depth + 1, s2, cur)

    walk(0, 0, ())
    return out


def canonicalize_batch(n: int, k: int, rows) -> list[tuple[int, ...]]:
    """Canonical forms of raw column-code rows, support already normalized."""
    tab = build_tables(n, k)
    return [to_codes(tab, canonical(tab, reduced(tab, row))) for row in rows]
