"""Independent oracles the test suite checks the package against.

Everything here is deliberately written from scratch: a group's cocycle
table and its columns by doubling the span of its generators, plain-int
affine arithmetic (translations doubled so halves stay exact), a bounded order
search over a lattice window, a from-first-principles enumerator with
orbit counting by breadth-first closure, a brute stabilizer search, the
plain minimum and the fixing permutations over relabelings of kernel
tables, the support-preserving permutation list, the least position-0
value per old coordinate and rank, the Betti character average term by
term, a scan of ker f for the blocked coordinates and normal witnesses of
a reduction, the half-step functionals read off a cocycle table at a basis
of its span, random generator tables, and a fraction-free determinant.
None of it imports the package, except ``brute_reduction_outcomes``,
which replays the public ``reduce`` on every (functional, coordinate)
pair as the slow reference for ``list_reductions``; ``brute_h1_order``,
which computes |H^1| through the package's integer Smith normal form
(itself checked by ``check_snf``) as the reference for the closed form;
``presentation_from_columns``, which rebuilds a census leaf's presentation
from its columns as the reference for the lean census entries;
``verify_didicosm_pair``, which checks a pair's subgroup through the
package's affine maps and integer Smith normal form, and
``brute_didicosm_witness``, its scan over pairs, as the references for
``didicosm_witness``; ``census_line``, the ``json.dumps`` rendering of
a census entry; and ``reference_edges_json``, the ``json.dumps``
rendering of a graph's edge list.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


# ---------------------------------------------------------------------------
# cocycle tables


def cocycle_table(n: int, gens) -> dict[int, int]:
    """{flips: halves} over the span of the generators in n coordinates.

    gens holds (flips, halves) pairs, as ints or as the package's
    (SignVector, TranslationClass). The span doubles with each generator,
    whose halves add to every value so far; a generator inside the span of
    its predecessors raises ValueError.
    """
    table = {0: 0}
    for f, h in gens:
        f = getattr(f, "flips", f)
        h = getattr(h, "halves", h)
        assert 0 <= f < 1 << n and 0 <= h < 1 << n
        if f in table:
            raise ValueError(f"flips {f:#x} are dependent")
        table.update({m ^ f: v ^ h for m, v in table.items()})
    return table


def cocycle_columns(n: int, table: dict[int, int]) -> tuple[int, ...]:
    """Per-coordinate columns of a cocycle_table: bit t of column i is bit
    i of the value at the t-th smallest mask of the span."""
    cols = [0] * n
    for t, m in enumerate(sorted(table)):
        for i in range(n):
            cols[i] |= (table[m] >> i & 1) << t
    return tuple(cols)


# ---------------------------------------------------------------------------
# exact affine maps; translations are twice their value, so ints suffice


def affine_mul(n: int, a, b):
    """(A, s)(B, t) = (AB, At + s) on doubled-int translations."""
    amask, at = a
    bmask, bt = b
    t = tuple((-x if amask >> i & 1 else x) + y
              for i, (x, y) in enumerate(zip(bt, at)))
    return (amask ^ bmask, t)


def affine_is_identity(a) -> bool:
    mask, t = a
    return mask == 0 and not any(t)


@lru_cache(maxsize=None)
def lift_has_finite_order(n: int, mask: int, halves: int) -> bool:
    """Bounded order search: does some lattice translate of (mask, halves/2)
    have finite order?

    Sign masks are involutions, so any finite order divides 4; the
    window {-1, 0, 1}^n of lattice shifts is exhaustive because a second
    power only sees each translation entry once.
    """
    base = tuple((halves >> i & 1) for i in range(n))
    for lam in itertools.product((0, -2, 2), repeat=n):
        g = (mask, tuple(b + l for b, l in zip(base, lam)))
        if affine_is_identity(g):
            continue
        cur = g
        for _ in range(4):
            cur = affine_mul(n, cur, g)
            if affine_is_identity(cur):
                return True
    return False


def table_is_torsion_free(n: int, table: dict[int, int]) -> bool:
    """No nontrivial table element admits a finite-order lattice lift."""
    return not any(lift_has_finite_order(n, m, v)
                   for m, v in table.items() if m)


# ---------------------------------------------------------------------------
# brute-force enumeration and orbit counting


def _scatter(mask: int, perm) -> int:
    """Move bit i to bit perm[i]."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[i]
        mask >>= 1
        i += 1
    return out


def _kernel_tables(n: int, sigma: int):
    """All linear maps from ker(sigma-parity) to flip masks, as dicts."""
    members = [m for m in range(1 << n)
               if bin(m & sigma).count("1") % 2 == 0]
    basis = []
    span = {0}
    for m in members:
        if m and m not in span:
            basis.append(m)
            span |= {m ^ x for x in span}
    k = len(basis)
    combos = []
    for bits in range(1 << k):
        m = 0
        for j in range(k):
            if bits >> j & 1:
                m ^= basis[j]
        combos.append(m)
    for assignment in itertools.product(range(1 << n), repeat=k):
        tab = {}
        for bits, m in enumerate(combos):
            v = 0
            for j in range(k):
                if bits >> j & 1:
                    v ^= assignment[j]
            tab[m] = v
        yield tab


@lru_cache(maxsize=8)
def brute_enumerate_supports(n: int):
    """Torsion-free tables per odd-weight support mask.

    Returns {sigma: [table dict, ...]} over every odd-weight sigma, each
    table a torsion-free linear cocycle on ker(sigma-parity).  Cached:
    the dimension-4 sweep costs about half a minute.  Treat the result
    as read-only.
    """
    out = {}
    for sigma in range(1, 1 << n):
        if bin(sigma).count("1") % 2 == 0:
            continue
        out[sigma] = [tab for tab in _kernel_tables(n, sigma)
                      if table_is_torsion_free(n, tab)]
    return out


def _freeze(sigma: int, tab: dict[int, int]):
    return (sigma, tuple(sorted(tab.items())))


def brute_census_counts(n: int) -> dict[int, int]:
    """Isomorphism class counts per support weight, by orbit closure.

    The moves are adjacent coordinate transpositions and one-coordinate
    coboundary shifts; orbits of (support, table) nodes under the group
    they generate are the diagonal isomorphism classes.
    """
    survivors = brute_enumerate_supports(n)
    nodes = set()
    for sigma, tabs in survivors.items():
        for tab in tabs:
            nodes.add(_freeze(sigma, tab))

    transpositions = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        transpositions.append(tuple(perm))

    def neighbors(node):
        sigma, items = node
        tab = dict(items)
        for perm in transpositions:
            moved = {_scatter(m, perm): _scatter(v, perm)
                     for m, v in tab.items()}
            yield _freeze(_scatter(sigma, perm), moved)
        for j in range(n):
            bit = 1 << j
            shifted = {m: v ^ (m & bit) for m, v in tab.items()}
            yield _freeze(sigma, shifted)

    counts: dict[int, int] = {}
    seen = set()
    for start in sorted(nodes):
        if start in seen:
            continue
        weight = bin(start[0]).count("1")
        counts[weight] = counts.get(weight, 0) + 1
        frontier = [start]
        seen.add(start)
        while frontier:
            nxt = []
            for node in frontier:
                for nb in neighbors(node):
                    assert nb in nodes, "orbit left the torsion-free set"
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
    return counts


# ---------------------------------------------------------------------------
# scrambles and stabilizer search


def scrambled_gens(n: int, gens, perm, shift: int):
    """Relabel coordinates by perm (bit i -> bit perm[i]), then shift by
    the coboundary of the lattice vector with mask ``shift``."""
    out = []
    for flips, halves in gens:
        f = _scatter(flips, perm)
        h = _scatter(halves, perm) ^ (f & shift)
        out.append((f, h))
    return out


def brute_stabilizer_order(n: int, elements, table: dict[int, int]) -> int:
    """Count coordinate permutations fixing the cocycle class.

    A permutation qualifies when it maps the element set onto itself and
    the relabeled table differs from the original by the coboundary of
    some lattice vector.
    """
    pool = set(elements)
    count = 0
    for perm in itertools.permutations(range(n)):
        if any(_scatter(m, perm) not in pool for m in pool):
            continue
        for b in range(1 << n):
            if all(_scatter(table[g], perm)
                   == (table[_scatter(g, perm)] ^ (_scatter(g, perm) & b))
                   for g in pool):
                count += 1
                break
    return count


def brute_perms(n: int, k: int) -> list:
    """Every support-preserving coordinate permutation as the kernel tables
    hold it, (inv, image): new coordinate j takes old coordinate inv[j],
    and image[r] (bytes) is the rank of character r relabeled. Each one is
    built on its own from itertools.permutations, with the characters of H
    and their ranks computed here."""
    smask = (1 << k) - 1
    H = [m for m in range(1 << n) if (m & smask).bit_count() % 2 == 0]
    char = [sum(((m & h).bit_count() & 1) << t for t, h in enumerate(H))
            for m in range(1 << n)]
    rank = {c: r for r, c in enumerate(sorted(set(char)))}
    rep = {rank[c]: m for m, c in enumerate(char)}
    out = []
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
            out.append((tuple(inv), bytes(rank[char[img[rep[r]]]]
                                          for r in range(len(rank)))))
    return out


def depth_perms(tab, d) -> list:
    """The perms of tab that map {0..d} onto itself, by the plain filter:
    each of inv[:d+1] is at most d."""
    return [p for p in tab.perms if all(i <= d for i in p[0][:d + 1])]


def brute_first_position(tab, d, i, r) -> tuple:
    """Least position-0 value of rank r over the perms of depth_perms(tab, d)
    that move old coordinate i to position 0, and the set of those reaching
    it."""
    vals = {p: tab.red[0][p[1][r]]
            for p in depth_perms(tab, d) if p[0][0] == i}
    low = min(vals.values())
    return low, {p for p, v in vals.items() if v == low}


def _relabelings(tab, perms, ranks):
    """Every relabeling of reduced ranks by perms (a relabeled position j is
    red[j][image[ranks[inv[j]]]]), each built in full, with no early exit."""
    red = tab.red
    for inv, image in perms:
        yield tuple(red[j][image[ranks[inv[j]]]] for j in range(len(ranks)))


def brute_least(tab, perms, ranks) -> tuple:
    """Least relabeling of reduced ranks over perms, and the number of
    perms that give it."""
    every = list(_relabelings(tab, perms, ranks))
    low = min(every)
    return low, every.count(low)


def brute_canonical(tab, ranks) -> tuple:
    """Least relabeling of reduced ranks over every support-preserving
    permutation of the kernel tables tab."""
    return brute_least(tab, tab.perms, ranks)[0]


def brute_table_stabilizer(tab, ranks) -> int:
    """Number of support-preserving permutations whose full relabeling of
    reduced ranks is ranks itself."""
    return sum(r == ranks for r in _relabelings(tab, tab.perms, ranks))


# ---------------------------------------------------------------------------
# rational homology


@lru_cache(maxsize=None)
def brute_betti_vector(n: int, support_mask: int) -> tuple[int, ...]:
    """Betti numbers as the character average over the holonomy: the
    elementary symmetric polynomials of each sign vector that meets the
    support evenly, summed term by term and divided by their number.
    Memoized per (n, support_mask)."""
    total = [0] * (n + 1)
    order = 0
    for m in range(1 << n):
        if bin(m & support_mask).count("1") % 2:
            continue
        order += 1
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
    assert all(t % order == 0 for t in total)
    return tuple(t // order for t in total)


# ---------------------------------------------------------------------------
# integer linear algebra checks


def det_bareiss(rows) -> int:
    """Fraction-free determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    size = len(m)
    assert all(len(r) == size for r in m)
    sign = 1
    prev = 1
    for col in range(size - 1):
        if m[col][col] == 0:
            for r in range(col + 1, size):
                if m[r][col]:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                m[r][c] = (m[r][c] * m[col][col]
                           - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[-1][-1]


def _matmul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    assert all(len(r) == inner for r in a)
    return [[sum(a[i][t] * b[t][j] for t in range(inner))
             for j in range(cols)] for i in range(rows)]


def check_snf(matrix, diagonal, left, right) -> None:
    """Assert the defining properties of a Smith normal form result."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    left = [list(r) for r in left]
    right = [list(r) for r in right]
    assert len(left) == rows and all(len(r) == rows for r in left)
    assert len(right) == cols and all(len(r) == cols for r in right)
    if rows:
        assert abs(det_bareiss(left)) == 1, "left transform not unimodular"
    if cols:
        assert abs(det_bareiss(right)) == 1, "right transform not unimodular"
    prod = _matmul(_matmul(left, [list(r) for r in matrix]), right)
    for i in range(rows):
        for j in range(cols):
            want = diagonal[i] if i == j and i < len(diagonal) else 0
            assert prod[i][j] == want, f"product mismatch at ({i},{j})"
    for i in range(len(diagonal) - 1):
        assert diagonal[i] >= 0
        if diagonal[i + 1]:
            assert diagonal[i] != 0 and diagonal[i + 1] % diagonal[i] == 0


@lru_cache(maxsize=None)
def brute_h1_order(n: int, masks: tuple[int, ...]) -> int:
    """|H^1(G, Z^n)| for the diagonal action with generator flip masks, by
    Smith reduction: crossed homomorphisms are the integer kernel of the
    squaring and commutation equations, principal ones the image of
    w -> ((I - R_j) w)_j, and the order is the product of the elementary
    divisors of that inclusion. Asserts that H^1 has no free part.

    Memoized: census entries of one support share their mask tuple.
    """
    from ghw.cohomology import kernel_basis, smith_normal_form, solve_integer

    g = len(masks)
    size = g * n

    def sgn(mask, i):
        return -1 if mask >> i & 1 else 1

    rows = []
    for j, mj in enumerate(masks):
        # (I + R_j) v_j = 0: the generator squares into the lattice.
        for i in range(n):
            row = [0] * size
            row[j * n + i] = 1 + sgn(mj, i)
            rows.append(row)
    for a in range(g):
        for b in range(a + 1, g):
            # commutation: (I - R_b) v_a = (I - R_a) v_b
            for i in range(n):
                row = [0] * size
                row[a * n + i] += 1 - sgn(masks[b], i)
                row[b * n + i] -= 1 - sgn(masks[a], i)
                rows.append(row)
    cocycles = kernel_basis(rows)
    z = len(cocycles)
    if z == 0:
        return 1
    # Principal crossed homomorphisms: w -> ((I - R_j) w)_j, w over unit vectors.
    boundary = [[0] * n for _ in range(size)]
    for j, mj in enumerate(masks):
        for i in range(n):
            boundary[j * n + i][i] = 1 - sgn(mj, i)
    basis_matrix = [[vec[r] for vec in cocycles] for r in range(size)]
    coords = solve_integer(basis_matrix, boundary)
    assert coords is not None, "principal cocycles left the cocycle lattice"
    res = smith_normal_form(coords)
    assert res.rank == z, "free part in H^1"
    order = 1
    for d in res.diagonal:
        order *= d
    return order


# ---------------------------------------------------------------------------
# support annihilators and reductions


def brute_annihilators(n: int, masks) -> list[int]:
    """Every nonzero functional vanishing on masks, by a scan of all 2^n."""
    masks = list(masks)
    return [sigma for sigma in range(1, 1 << n)
            if all(bin(sigma & m).count("1") % 2 == 0 for m in masks)]


def table_functionals(n: int, sigma: int, table: dict[int, int]) -> list[int]:
    """Per coordinate c, a mask lam[c] whose parity against each m of the
    span H (annihilated by sigma) is bit c of table[m], with its lowest
    support bit clear.

    The table is linear on H, so it is read on a basis of H: e_j off the
    support, and e_j + e_low for each other support coordinate j.
    """
    low = sigma & -sigma
    vals = [table[1 << j ^ (low if sigma >> j & 1 else 0)] for j in range(n)]
    return [sum((v >> c & 1) << j for j, v in enumerate(vals))
            for c in range(n)]


def kernel_cut(p, f: int) -> tuple[list[int], int]:
    """Members of ker f on H, by a scan of every element, and the mask of
    coordinates i + 1 where a member fixing i + 1 carries a half step:
    reduce's InvalidChoice test.
    """
    table = cocycle_table(p.n, p.gens)
    members = [m for m in sorted(table) if bin(m & f).count("1") % 2 == 0]
    blocked = 0
    for m in members:
        blocked |= table[m] & ~m
    return members, blocked


def brute_witness_is_normal(p, f: int, c: int) -> bool:
    """No member of ker f on H flips coordinate c (from 1), by a scan."""
    members, _ = kernel_cut(p, f)
    return not any(m >> (c - 1) & 1 for m in members)


def brute_reduction_outcomes(p) -> dict:
    """reduce(p, f, c) for every functional f < f ^ sigma and coordinate c.

    Maps (f, c) to the canonical key of the reduced group, or to the
    exception class (InvalidChoice or ReductionNotGhw) that reduce raised.
    """
    from ghw.constructions import InvalidChoice, ReductionNotGhw, reduce
    from ghw.enumerate import canonical_key

    out = {}
    sigma = p.support_mask
    for f in range(1, 1 << p.n):
        if f >= f ^ sigma:
            continue
        for c in range(1, p.n + 1):
            try:
                out[f, c] = canonical_key(reduce(p, f, c))
            except (InvalidChoice, ReductionNotGhw) as exc:
                out[f, c] = type(exc)
    return out


def brute_list_reductions(p) -> tuple:
    """The sorted ReductionChoice tuple list_reductions must return."""
    from ghw.constructions import ReductionChoice

    return tuple(sorted(
        ReductionChoice(f, c, key)
        for (f, c), key in brute_reduction_outcomes(p).items()
        if isinstance(key, bytes)
    ))


# ---------------------------------------------------------------------------
# didicosm witness


def verify_didicosm_pair(p, g1: int, g2: int):
    """Exact check that <g1 lift, g2 lift> is a didicosm group.

    Works with the doubled-integer affine model.  The subgroup meets the
    translations in the lattice spanned by the eight Schreier generators
    coming from the four-element quotient; the pair is accepted when
    that lattice has rank 3, the quotient acts faithfully with no fixed
    vectors in the rational span, and each nontrivial coset avoids the
    translations (no torsion).
    """
    from ghw.cohomology import smith_normal_form, solve_integer
    from ghw.constructions import (
        AffineMap, DidicosmWitness, _affine_of)
    from ghw.core import SignVector

    n = p.n
    x = _affine_of(n, g1, p.s(g1).halves)
    y = _affine_of(n, g2, p.s(g2).halves)
    one = AffineMap(n, 0, (0,) * n)
    reps = {0: one, g1: x, g2: y, g1 ^ g2: x * y}
    if len(reps) != 4:
        return None

    rows = []
    for t in reps.values():
        for z in (x, y):
            w = t * z
            u = w * reps[w.mask].inverse()
            assert u.mask == 0
            rows.append(list(u.trans2))
    lattice = [r for r in rows if any(r)]
    if not lattice:
        return None
    if smith_normal_form(lattice).rank != 3:
        return None

    # Faithful on the lattice: each nontrivial quotient element must move
    # some lattice vector, i.e. flip a coordinate where the lattice is
    # nonzero.
    for h in (g1, g2, g1 ^ g2):
        moved = any(
            r[i] for r in lattice for i in range(n) if h >> i & 1
        )
        if not moved:
            return None

    # No fixed vectors: restricting the lattice to the coordinates moved
    # by at least one of g1, g2 must keep rank 3.
    moved_cols = [i for i in range(n) if (g1 | g2) >> i & 1]
    restricted = [[r[i] for i in moved_cols] for r in lattice]
    if smith_normal_form(restricted).rank != 3:
        return None

    # Torsion-free: for each nontrivial coset rep w, a torsion element
    # exists iff the projection of w's translation to the coordinates w
    # fixes lies in the projected lattice.
    for w in (x, y, x * y):
        fixed = [i for i in range(n) if not w.mask >> i & 1]
        if not fixed:
            continue
        cols = [[r[i] for r in lattice] for i in fixed]
        rhs = [[-w.trans2[i]] for i in fixed]
        if solve_integer(cols, rhs) is not None:
            return None

    return DidicosmWitness(
        first=(SignVector(n, g1), p.s(g1)),
        second=(SignVector(n, g2), p.s(g2)),
        lattice_rank=3,
        schreier_rows=tuple(tuple(r) for r in lattice),
    )


def brute_didicosm_witness(p):
    """The first pair (g1, g2) that verify_didicosm_pair accepts, g1 the
    co-flip of a support coordinate in increasing order and g2 a nonzero
    element other than g1 moving that coordinate: the generator masks
    first, then the rest of H increasing. None when no pair passes."""
    n = p.n
    full = (1 << n) - 1
    pool = [sv.flips for sv, _ in p.gens]
    pool += sorted(set(p.elements) - set(pool))
    for coord in p.support:
        g1 = full ^ (1 << (coord - 1))
        for g2 in pool:
            if g2 == 0 or g2 == g1 or not g2 >> (coord - 1) & 1:
                continue
            witness = verify_didicosm_pair(p, g1, g2)
            if witness is not None:
                return witness
    return None


# ---------------------------------------------------------------------------
# census leaves


def random_generators(rng, n: int, odd_span: bool = True):
    """n - 1 random (flips, halves) mask pairs. With odd_span the flips
    are a basis of the kernel of a random odd-weight functional, the span
    of a valid group; otherwise they are any nonzero masks, so their span
    may be dependent or hold the all-flip element. The halves are random,
    so most tables have torsion."""
    sigma = rng.choice([s for s in range(1, 1 << n) if bin(s).count("1") % 2])
    pool = [m for m in range(1, 1 << n)
            if not odd_span or bin(m & sigma).count("1") % 2 == 0]
    gens = []
    span = {0}
    while len(gens) < n - 1:
        m = rng.choice(pool)
        if odd_span and m in span:
            continue
        span |= {m ^ x for x in span}
        gens.append((m, rng.randrange(1 << n)))
    return gens


def presentation_from_columns(n: int, elements, cols):
    """The GhwPresentation of sorted H masks and cocycle columns: one
    generator per element of the greedy basis of the span (elements
    scanned in sorted order), its halves bit i read from column i at that
    element's index."""
    from ghw.core import GhwPresentation, SignVector, TranslationClass

    elements = sorted(elements)
    span = {0}
    gens = []
    for t, m in enumerate(elements):
        if m in span:
            continue
        span |= {m ^ x for x in span}
        halves = sum((cols[i] >> t & 1) << i for i in range(n))
        gens.append((SignVector(n, m), TranslationClass(n, halves)))
    assert len(gens) == n - 1
    return GhwPresentation(n, gens)


# ---------------------------------------------------------------------------
# census JSONL


def census_line(entry) -> str:
    """An entry as json.dumps of its own fields in order, with its newline:
    the bytes census_to_jsonl must write for it."""
    import json

    def coordinates(mask):
        return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]

    return json.dumps({
        "dim": entry.n,
        "support": entry.support,
        "generators": [{"flips": coordinates(f), "halves": coordinates(h)}
                       for f, h in entry.gens],
        "canonical_key": entry.key.hex(),
        "beta1": entry.beta1,
        "orientable": entry.orientable,
        "betti": entry.betti,
        "h1_order": entry.h1_order,
        "out_order": entry.out_order,
    }) + "\n"


# ---------------------------------------------------------------------------
# graph export


def reference_edges_json(graph) -> str:
    """The edge list as json.dumps(rows, indent=2), the bytes edges_json
    must write."""
    import json

    rows = []
    for e in sorted(graph.edges, key=lambda e: (e.upper, e.lower)):
        rows.append({
            "from": e.upper.hex(),
            "to": e.lower.hex(),
            "witness": {
                "functional": e.witness.functional,
                "coordinate": e.witness.coordinate,
                "normal": e.normal,
            },
        })
    return json.dumps(rows, indent=2) + "\n"
