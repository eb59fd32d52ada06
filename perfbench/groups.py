"""A self-contained model of generalized Hantzsche-Wendt group literals.

The query generator builds its inputs here rather than through the
package under test, so a defect in the package cannot make its own
inputs look right. A group of dimension n is a list of n-1 generators,
each a pair of bitmasks (flips, halves); bit i-1 belongs to coordinate
i. Sign parts and translation classes both compose by XOR, so the
translation class of any element of the sign span is the XOR of the
classes of the generators that make it up.
"""

from __future__ import annotations

import random


def literal(n: int, gens) -> str:
    """The package's group literal format, e.g. 'dim=3; gens=+--:HH0,-+-:0HH'."""
    parts = []
    for flips, halves in gens:
        signs = "".join("-" if flips >> i & 1 else "+" for i in range(n))
        trans = "".join("H" if halves >> i & 1 else "0" for i in range(n))
        parts.append(f"{signs}:{trans}")
    return f"dim={n}; gens={','.join(parts)}"


def parse_literal(text: str):
    """Inverse of literal() for well-formed input; returns (n, gens)."""
    head, _, body = text.partition(";")
    n = int(head.split("=")[1])
    gens = []
    for item in body.split("=", 1)[1].split(","):
        signs, trans = item.strip().split(":")
        flips = sum(1 << i for i, ch in enumerate(signs) if ch == "-")
        halves = sum(1 << i for i, ch in enumerate(trans) if ch == "H")
        gens.append((flips, halves))
    return n, gens


def cocycle(gens) -> dict[int, int] | None:
    """Translation class of every element of the sign span, or None when
    the sign vectors are dependent."""
    table = {0: 0}
    for flips, halves in gens:
        if flips in table:
            return None
        table.update({m ^ flips: h ^ halves for m, h in list(table.items())})
    return table


def support_mask(n: int, gens) -> int:
    """The one nonzero coordinate set annihilating the sign span."""
    hits = [f for f in range(1, 1 << n)
            if all((f & flips).bit_count() % 2 == 0 for flips, _ in gens)]
    assert len(hits) == 1, "sign vectors do not span an index-two subgroup"
    return hits[0]


def torsion_element(n: int, gens) -> int | None:
    """First nonidentity element that fixes no coordinate carrying a half
    step (such an element has finite order), or None."""
    full = (1 << n) - 1
    table = cocycle(gens)
    for m in sorted(table):
        if m and not table[m] & ~m & full:
            return m
    return None


def is_valid(n: int, gens) -> bool:
    """n-1 independent sign vectors with odd support and no torsion."""
    if len(gens) != n - 1 or cocycle(gens) is None:
        return False
    return (support_mask(n, gens).bit_count() % 2 == 1
            and torsion_element(n, gens) is None)


def span_basis(n: int, sigma: int, rng: random.Random) -> list[int]:
    """A random basis of the masks meeting sigma in an even number of bits."""
    basis: list[int] = []
    span = {0}
    while len(basis) < n - 1:
        m = rng.randrange(1, 1 << n)
        if (m & sigma).bit_count() % 2 or m in span:
            continue
        basis.append(m)
        span |= {m ^ x for x in span}
    return basis


def random_group(n: int, k: int, rng: random.Random):
    """A random valid group of dimension n with a support of k coordinates.

    The coordinates are filled one at a time by a randomized depth-first
    search: column i of the cocycle is a linear functional on the
    generator basis, and an element is checked once its last fixed
    coordinate is filled, since from then on no coordinate can give it
    the half step it needs.
    """
    assert k % 2 == 1 and 1 <= k <= n
    coords = rng.sample(range(n), k)
    sigma = sum(1 << i for i in coords)
    basis = span_basis(n, sigma, rng)
    elems = []   # (coordinate bits of the element, basis-combination bits)
    for b in range(1, 1 << (n - 1)):
        m = 0
        for j in range(n - 1):
            if b >> j & 1:
                m ^= basis[j]
        elems.append((m, b))
    # An element must get a half step on some coordinate it fixes; it is
    # due at its last fixed coordinate, after which nothing can help it.
    due = [[] for _ in range(n)]
    for m, b in elems:
        due[max(i for i in range(n) if not m >> i & 1)].append(b)
    fixes = [[b for m, b in elems if not m >> i & 1] for i in range(n)]
    cols = [0] * n
    done: set[int] = set()

    def fill(i) -> bool:
        if i == n:
            return True
        need = [b for b in due[i] if b not in done]
        cands = [c for c in range(1 << (n - 1))
                 if all((c & b).bit_count() & 1 for b in need)]
        rng.shuffle(cands)
        # Most pending elements helped first, so backtracking stays rare.
        cands.sort(key=lambda c: -sum((c & b).bit_count() & 1
                                      for b in fixes[i] if b not in done))
        for c in cands:
            cols[i] = c
            newly = {b for b in fixes[i]
                     if b not in done and (c & b).bit_count() & 1}
            done.update(newly)
            if fill(i + 1):
                return True
            done.difference_update(newly)
        return False

    assert fill(0), "every odd support admits a torsion-free cocycle"
    gens = []
    for j, m in enumerate(basis):
        halves = sum(((cols[i] >> j) & 1) << i for i in range(n))
        gens.append((m, halves))
    return gens


def scramble(n: int, gens, rng: random.Random):
    """An isomorphic presentation: relabel coordinates, shift the cocycle
    by a coboundary and change the generator basis."""
    perm = rng.sample(range(n), n)

    def move(mask):
        return sum(1 << perm[i] for i in range(n) if mask >> i & 1)

    shift = rng.randrange(1 << n)
    cur = [(move(f), move(h) ^ (move(f) & shift)) for f, h in gens]
    out: list = []
    # Random invertible recombination: a unitriangular mix, then a shuffle.
    for j, (f, h) in enumerate(cur):
        for f2, h2 in cur[j + 1:]:
            if rng.random() < 0.5:
                f, h = f ^ f2, h ^ h2
        out.append((f, h))
    rng.shuffle(out)
    return out


def embed_up(n: int, gens, coordinate: int):
    """One dimension up with the same support: each old generator flips the
    new coordinate by its half-step parity at a support coordinate, and a
    new generator flips the new coordinate alone."""
    jbit = 1 << (coordinate - 1)
    up = [(f | (((h >> (coordinate - 1)) & 1) << n), h) for f, h in gens]
    up.append((1 << n, jbit | (1 << n)))
    return up


def out_bound(n: int, b1: int) -> int:
    """A-priori bound on the order of the outer automorphism group."""
    fact = 1
    for i in range(2, (n if b1 == 0 else n - 1) + 1):
        fact *= i
    return (1 << (n + 1)) * fact if b1 == 0 else (1 << n) * fact
