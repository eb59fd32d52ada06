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

The permutation primitive is least: it relabels reduced ranks by the
permutations that map {0..d} onto themselves one position at a time, keeps
at each position only the permutations that reach the least value there,
and returns the least relabeling with the number of permutations that reach
it. Position 0 is not scanned: first_position tables, per depth, the least
position-0 value and the permutations that reach it for each old coordinate
and rank (the first level of a Sims stabilizer chain), and is built the
first time that depth is used. canonical is least's tuple and
stabilizer_order its count, both at the last depth; the census walk checks
each prefix against itself at its own depth, cuts the subtree when
something is smaller, and reads the leaf's stabilizer from the count. A
permutation's image is one byte per rank, so ranks fit a byte up to n = 9,
one dimension above the census cap, and no table is precomposed per
permutation.
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


def _byte_table(values) -> bytes:
    """A bytes.translate table: the given values, then zeros up to 256."""
    return bytes(values).ljust(256, b"\0")


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
      perms      the support-preserving coordinate permutations, in no
                 promised order, as (inv, image): new coordinate j takes
                 old coordinate inv[j], and image (bytes) holds at r the
                 rank of character r relabeled
    """
    if n > 9:
        raise ValueError(f"dimension {n}: a rank must fit a byte (n <= 9)")
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
    # Start from the identity and grow S_{i+1} as the union over j < i of
    # (j i)·S_i, plus S_i itself, inside the support and inside the rest.
    # Swapping destination bits j and i relabels each image by one rank
    # table (one bytes.translate) and swaps inv[j] with inv[i].
    perms = [(tuple(range(n)), bytes(range(T)))]
    for i in itertools.chain(range(1, k), range(k + 1, n)):
        coset = []
        for j in range(0 if i < k else k, i):
            x = 1 << i | 1 << j
            swap = _byte_table(mask_rank[m ^ x if (m >> i ^ m >> j) & 1 else m]
                               for m in rep)
            tau = list(range(n))
            tau[i], tau[j] = j, i
            coset += [(tuple(map(inv.__getitem__, tau)), image.translate(swap))
                      for inv, image in perms]
        perms += coset
    return SimpleNamespace(
        n=n, k=k, T=T, H=tuple(H), codes=tuple(codes), rank=rank,
        red=tuple(red), colfix=tuple(colfix), needcheck=tuple(needcheck),
        cands=tuple(tuple(sorted(set(r))) for r in red),
        mask_rank=tuple(mask_rank), perms=tuple(perms),
    )


@lru_cache(maxsize=None)
def first_position(n: int, k: int, d: int):
    """Position 0 of least over the perms that map {0..d} onto itself,
    ahead of time: per old coordinate i that they move to position 0, and
    per rank r, the pair (least position-0 value, the permutations with
    inv[0] = i that reach it), the permutations in the order of perms.

    Position 0 of a relabeling is red[0][image[ranks[i]]] with i = inv[0],
    so both depend on (i, ranks[i]) alone. Since the perms keep {0..d} and
    the support {0..k-1}, i runs over 0..min(d, k-1); the rows' lists are
    disjoint.
    """
    tab = build_tables(n, k)
    # p keeps {0..d} iff max(inv[:d+1]) is d; every p does at d = n - 1.
    kept = tab.perms if d == n - 1 else [
        p for p in tab.perms if max(p[0][:d + 1]) == d]
    red0 = _byte_table(tab.red[0])
    rows = []
    for i in range(min(d, k - 1) + 1):
        perms = [p for p in kept if p[0][0] == i]
        # Row t of vals is perm t's position-0 value for each rank, so its
        # column r (a strided slice) holds every perm's value for rank r.
        vals = b"".join([image.translate(red0) for _, image in perms])
        row = []
        # Ranks whose minimizers are the same perms share one tuple.
        seen = {}
        for r in range(tab.T):
            col = vals[r::tab.T]
            m = min(col)
            # 1 for each perm that reaches m, 0 for the rest.
            hit = col.translate(bytes(m) + b"\1" + bytes(255 - m))
            if hit not in seen:
                seen[hit] = tuple(itertools.compress(perms, hit))
            row.append((m, seen[hit]))
        rows.append(tuple(row))
    return tuple(rows)


def least(tab, d, ranks, ref=None):
    """The permutation primitive: the least relabeling of ranks over the
    perms that keep {0..d}, as (tuple, number of them that give it).

    Position j of a relabeling is red[j][image[ranks[inv[j]]]]. Position 0
    is read from first_position: the least of at most k table cells, and
    the permutations of the cells that reach it. Each later position is
    computed for the surviving permutations only, and those that miss its
    minimum are dropped. The survivors form a coset of the stabilizer of
    ranks among those permutations, so the count is its order. ranks may
    be a prefix of length d+1, since they map {0..d} onto itself. With
    ref, the result is None as soon as the least relabeling falls below
    ref, which it does exactly when it is lexicographically smaller; once
    it rises above ref, ref is no longer read.
    """
    cells = [row[ranks[i]]
             for i, row in enumerate(first_position(tab.n, tab.k, d))]
    m = min([c[0] for c in cells])
    perms = [p for c in cells if c[0] == m for p in c[1]]
    out = []
    for j, rj in enumerate(tab.red[:len(ranks)]):
        if j:
            vals = [rj[image[ranks[inv[j]]]] for inv, image in perms]
            m = min(vals)
        if ref is not None and m != ref[j]:
            if m < ref[j]:
                return None
            ref = None
        out.append(m)
        if j and vals.count(m) < len(vals):
            perms = [p for p, v in zip(perms, vals) if v == m]
    return tuple(out), len(perms)


def reduced(tab, cols) -> tuple[int, ...]:
    """Ranks of column codes, each reduced modulo its coboundary."""
    return tuple(tab.red[j][tab.rank[c]] for j, c in enumerate(cols))


def canonical(tab, ranks) -> tuple[int, ...]:
    """Lexicographically least relabeling of a reduced rank tuple."""
    return least(tab, tab.n - 1, ranks)[0]


def stabilizer_order(tab, ranks) -> int:
    """Number of support-preserving permutations fixing a reduced tuple."""
    return least(tab, tab.n - 1, ranks)[1]


def to_codes(tab, ranks) -> tuple[int, ...]:
    return tuple(tab.codes[r] for r in ranks)


def support_order(n: int, support_mask: int) -> list[int]:
    """The coordinates (from 0) of a support, then the rest, each in
    increasing order: the order every support alignment keeps."""
    return sorted(range(n), key=lambda i: (not support_mask >> i & 1, i))


@lru_cache(maxsize=None)
def _support_ranks(n: int, support_mask: int):
    """Tables, the support_order src and, per mask m, mask_rank of m with
    each bit src[j] moved to bit j."""
    tab = build_tables(n, support_mask.bit_count())
    src = support_order(n, support_mask)
    img = [0]
    for i in range(n):
        img += [x | 1 << src.index(i) for x in img]
    return tab, src, tuple([tab.mask_rank[x] for x in img])


def functional_ranks(n: int, support_mask: int, lams):
    """Tables and reduced column ranks of the table with half-step
    functionals lams, its support moved onto {1..k}."""
    tab, src, ranks = _support_ranks(n, support_mask)
    return tab, tuple([tab.red[j][ranks[lams[i]]] for j, i in enumerate(src)])


def generator_functionals(n: int, gens):
    """The support mask sigma and half-step functionals lams of a table
    given by n - 1 (flips, halves) generator pairs, as (sigma, lams), or
    the index of the first generator whose flips lie in the span of its
    predecessors.

    sigma is the unique nonzero functional vanishing on the span H of the
    flips; the parity of lams[c] against each m of H is bit c of the
    table's value at m. Elimination over F_2 brings the pairs to reduced
    echelon form on the flips, the halves riding along, leaving one free
    bit. Each row then holds its own pivot, no other, and perhaps the free
    bit, so sigma is the free bit and the pivot of every row that holds
    it, and a functional whose bits all lie on pivots is read off the rows:
    bit p of lams[c] is bit c of the halves of the row with pivot p.
    """
    rows: list[list[int]] = []  # [pivot, flips, halves], updated in place
    for i, (f, h) in enumerate(gens):
        for pivot, rf, rh in rows:
            if f & pivot:
                f ^= rf
                h ^= rh
        if not f:
            return i
        pivot = f & -f
        for row in rows:
            if row[1] & pivot:
                row[1] ^= f
                row[2] ^= h
        rows.append([pivot, f, h])
    assert len(rows) < n, "sign span is not proper"
    assert len(rows) == n - 1, "sign span has index greater than 2"
    free = ((1 << n) - 1) ^ sum([row[0] for row in rows])
    sigma = free | sum([pivot for pivot, rf, _ in rows if rf & free])
    lams = [0] * n
    for pivot, _, h in rows:
        while h:
            low = h & -h
            lams[low.bit_length() - 1] |= pivot
            h ^= low
    return sigma, lams


def torsion_free(tab, ranks) -> bool:
    """Whether a reduced rank tuple is torsion-free: every nonidentity
    element of H fixes a coordinate j whose column has a half step there,
    the census walk's test at once. A coordinate's coboundary vanishes on
    the elements that fix it, so reduced and raw columns agree."""
    sat = 0
    for j, r in enumerate(ranks):
        sat |= tab.codes[r] & tab.colfix[j]
    return sat == (1 << tab.T) - 2


def normalized_ranks(p):
    """functional_ranks of a presentation's own cocycle table."""
    return functional_ranks(p.n, p.support_mask, p.lams)


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
        leaf = depth == n - 1
        for r in tab.cands[depth]:
            s2 = sat | (tab.codes[r] & tab.colfix[depth])
            # Elements whose last fixed coordinate this is need a witness now.
            if tab.needcheck[depth] & ~s2:
                continue
            cur = prefix + (r,)
            hit = least(tab, depth, cur, cur)
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
