"""Constructions: named families, reductions, extensions, and witnesses.

Everything here moves between dimensions.  Reductions delete a coordinate
and hand back a group one dimension down; the three extension operations
go the other way.  All translation arithmetic is exact: translations are
stored as integers after doubling, so a half becomes 1 and a unit step
becomes 2.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from . import _kernels
from .core import (
    DependentGenerators,
    GhwError,
    GhwPresentation,
    SignVector,
    TranslationClass,
    expand_cocycle,
    find_torsion_element,
    first_betti,
    orientable,
    permute_coordinates,
    _basis_of,
    _check_coords,
    _flip_mask,
    _group,
    _require_valid,
    _support_alignment,
)
from .enumerate import _canonical_bytes


class InvalidSpec(GhwError):
    """Sign data fails the representation preconditions."""


class NoExtension(GhwError):
    """No admissible sign vector extends the representation."""


class InvalidChoice(GhwError):
    """The chosen subgroup or coordinate violates a reduction precondition."""


class ReductionNotGhw(GhwError):
    """The reduced group exists but leaves the class under study."""


class NotGammaFamily(GhwError):
    """The monomorphism construction only applies to the gamma family."""


class NotOriented(GhwError):
    """The semidirect extension needs an orientable input."""


class NoWitness(GhwError):
    """The didicosm witness does not cover the group (b1 = 1)."""


# ---------------------------------------------------------------------------
# exact affine arithmetic


class AffineMap:
    """Diagonal affine isometry: sign mask plus a doubled translation.

    ``trans2[i]`` is twice the i-th translation entry, so all group
    arithmetic stays in plain integers.
    """

    __slots__ = ("n", "mask", "trans2")

    def __init__(self, n: int, mask: int, trans2: Sequence[int]):
        self.n = n
        self.mask = mask
        self.trans2 = tuple(trans2)
        assert len(self.trans2) == n

    def __mul__(self, other: "AffineMap") -> "AffineMap":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        t = tuple(
            (-c if self.mask >> i & 1 else c) + b
            for i, (c, b) in enumerate(zip(other.trans2, self.trans2))
        )
        return AffineMap(self.n, self.mask ^ other.mask, t)

    def inverse(self) -> "AffineMap":
        # (B, b)^-1 = (B, -B b) since B is an involution.
        t = tuple(
            b if self.mask >> i & 1 else -b for i, b in enumerate(self.trans2)
        )
        return AffineMap(self.n, self.mask, t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineMap):
            return NotImplemented
        return (self.n, self.mask, self.trans2) == (other.n, other.mask, other.trans2)

    def __hash__(self) -> int:
        return hash((self.n, self.mask, self.trans2))

    def __repr__(self) -> str:
        return f"AffineMap(n={self.n}, mask={self.mask:b}, trans2={self.trans2})"


def _affine_of(n: int, mask: int, halves: int) -> AffineMap:
    return AffineMap(n, mask, tuple(halves >> i & 1 for i in range(n)))


# ---------------------------------------------------------------------------
# named families


def klein_group(n: int) -> GhwPresentation:
    """Generalized Klein bottle group: generator j flips coordinate j only.

    The support is the single coordinate n; the first Betti number is 1
    in every dimension.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    p = _group(n, [(1 << (j - 1), 1 << j) for j in range(1, n)])
    assert p.valid
    return p


def gamma_group(n: int) -> GhwPresentation:
    """Full-support family: generator j fixes coordinate j alone.

    Orientable exactly when n is odd; dimension 3 gives the classical
    didicosm.  The first Betti number vanishes for every n >= 3.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    full = (1 << n) - 1
    p = _group(n, [(full ^ (1 << (j - 1)), 3 << (j - 1)) for j in range(1, n)])
    assert p.valid
    return p


# ---------------------------------------------------------------------------
# representation extension and realization


class _SpecFields(NamedTuple):
    n: int
    flip_masks: tuple[int, ...]


class RepresentationSpec(_SpecFields):
    """Diagonal integral representation given by independent sign vectors.

    The span must not contain the total flip, otherwise no torsion-free
    lift can exist over any lattice containing Z^n; so the rank is at
    most n - 1, as n independent masks span every mask.
    """

    __slots__ = ()

    def __new__(cls, n: int, flip_masks):
        if n < 2:
            raise InvalidSpec("dimension must be at least 2")
        masks = tuple(_flip_mask(n, m) for m in flip_masks)
        self = super().__new__(cls, n, masks)
        full = (1 << n) - 1
        for m in masks:
            if not 0 < m <= full:
                raise InvalidSpec(f"mask {m} out of range for dimension {n}")
        span = self.span()
        if len(span) != 1 << len(masks):
            raise InvalidSpec("sign vectors are not independent")
        if full in span:
            raise InvalidSpec("the total flip lies in the span")
        return self

    @classmethod
    def _make(cls, iterable):
        # tuple.__new__ would skip the checks; _replace comes through here.
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return len(self.flip_masks)

    def span(self) -> set[int]:
        out = {0}
        for m in self.flip_masks:
            out |= {m ^ x for x in out}
        return out


def extend_representation(spec: RepresentationSpec) -> RepresentationSpec:
    """Adjoin the smallest sign vector keeping the span total-flip free.

    A mask B works iff neither B nor B times the total flip lies in the
    current span; a counting argument guarantees one exists whenever the
    rank is below n - 1.
    """
    n = spec.n
    if spec.rank >= n - 1:
        raise InvalidSpec("representation already has maximal rank")
    full = (1 << n) - 1
    span = spec.span()
    banned = span | {full ^ m for m in span}
    for b in range(1, full + 1):
        if b not in banned:
            return RepresentationSpec(n, spec.flip_masks + (b,))
    raise NoExtension("no admissible sign vector remains")  # pragma: no cover


class DiagonalPresentation:
    """Torsion-free diagonal group whose holonomy rank is below n - 1.

    A thin sibling of GhwPresentation produced by realizing a low-rank
    representation. It keeps only its dimension and generators, which is
    all find_torsion_element and format_group read.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n, gens):
        self.n = n
        self.gens = tuple((SignVector(n, s.flips), TranslationClass(n, t.halves))
                          for s, t in gens)

    def __repr__(self) -> str:
        return f"DiagonalPresentation(n={self.n}, rank={len(self.gens)})"


def realize_representation(
    spec: RepresentationSpec,
) -> Union[GhwPresentation, DiagonalPresentation]:
    """Build a torsion-free diagonal group realizing the given signs.

    The representation is first extended to full rank, the full-rank
    group is built from the named families, and low-rank input is then
    restricted back to the requested span.  The result is always
    torsion-free; full-rank input yields a member of the class under
    study directly.
    """
    full_spec = spec
    while full_spec.rank < spec.n - 1:
        full_spec = extend_representation(full_spec)
    n = spec.n
    sigma, _ = _kernels.generator_functionals(
        n, [(b, 0) for b in full_spec.flip_masks])
    m = sigma.bit_count()
    assert m % 2 == 1
    if m == 1:
        base = klein_group(n)
    else:
        base = gamma_group(m)
        for _ in range(n - m):
            base = embed_up_exist(base)
    perm = _support_alignment(n, base.support_mask, sigma)
    p = permute_coordinates(base, perm)
    assert p.support_mask == sigma
    assert set(p.elements) == full_spec.span()
    if spec.rank == n - 1:
        return p
    gens = [(SignVector(n, b), p.s(b)) for b in spec.flip_masks]
    restricted = DiagonalPresentation(n, gens)
    assert find_torsion_element(restricted) is None
    return restricted


# ---------------------------------------------------------------------------
# reduction


def reduce(
    p: GhwPresentation,
    subgroup: Union[None, int, Iterable] = None,
    coordinate: Optional[int] = None,
) -> GhwPresentation:
    """Delete one coordinate along an index-two holonomy subgroup.

    ``subgroup`` selects the surviving half of the holonomy: None takes
    the kernel of the chosen coordinate of the cocycle, an int in
    0..2^n - 1 is read as a linear functional on flip masks (any other
    int raises ValueError), and an iterable lists the member elements
    outright.  The restriction is sound only when every
    member that fixes the coordinate carries no half step there; any
    violation raises InvalidChoice.  The quotient can still degenerate
    (dependent images or a central total flip), which raises
    ReductionNotGhw.
    """
    _require_valid(p)
    n = p.n
    if n < 3:
        raise ValueError("cannot reduce below dimension 2")
    if coordinate is None:
        raise ValueError("a coordinate to delete is required")
    if not 1 <= coordinate <= n:
        raise ValueError(f"coordinate {coordinate} out of range")
    bit = 1 << (coordinate - 1)
    table = expand_cocycle(p.gens)

    if subgroup is None:
        members = [m for m, v in table.items() if not v & bit]
        if len(members) == len(table):
            raise InvalidChoice(
                f"cocycle coordinate {coordinate} vanishes identically; "
                "no canonical index-two subgroup"
            )
    elif isinstance(subgroup, int):
        _check_coords(n, subgroup)
        members = [m for m in table if (m & subgroup).bit_count() % 2 == 0]
        if len(members) == len(table):
            raise InvalidChoice("functional vanishes on the holonomy")
    else:
        members = sorted({_flip_mask(n, g) for g in subgroup})
        if not all(m in table for m in members):
            raise InvalidChoice("subgroup contains foreign elements")
        mset = set(members)
        if any(a ^ b not in mset for a in members for b in members):
            raise InvalidChoice("subgroup is not closed")
        if len(members) * 2 != len(table):
            raise InvalidChoice("subgroup does not have index two")

    assert len(members) * 2 == len(table)
    for m in members:
        if not m & bit and table[m] & bit:
            raise InvalidChoice(
                f"a member fixing coordinate {coordinate} carries a half "
                "step there; deleting it would not stay injective"
            )
    low = bit - 1
    try:
        q = _group(n - 1, [(_drop(m, low), _drop(table[m], low))
                           for m in _basis_of(members)])
    except DependentGenerators as exc:
        raise ReductionNotGhw(
            "deleted coordinate collapses the holonomy"
        ) from exc
    if not q.valid:
        raise ReductionNotGhw(q.report.reason)
    return q


def _drop(mask: int, low: int) -> int:
    """Delete the bit just above low = 2^(c-1) - 1 (coordinate c) from mask."""
    return (mask & low) | (mask >> 1 & ~low)


class ReductionChoice(NamedTuple):
    """One admissible reduction: functional, coordinate, resulting key."""

    functional: int
    coordinate: int
    key: bytes


def _unblocked(n: int, sigma: int, lams):
    """Per coordinate c (from 0), the functionals f < f ^ sigma that
    list_reductions keys at c, as (c, fs); see _reductions."""
    for c in range(n):
        bit = 1 << c
        lam = lams[c]
        if lam in (0, sigma) or lam ^ bit in (0, sigma):
            fs = range(1, 1 << n)
        else:
            fs = {min(g, g ^ sigma) for g in (lam, lam ^ bit)}
        yield c, [f for f in fs if f < f ^ sigma and (sigma | f) & bit]


def list_reductions(p: GhwPresentation) -> tuple[ReductionChoice, ...]:
    """Enumerate every admissible one-step reduction of p: _reductions of
    its support and cocycle functionals."""
    _require_valid(p)
    if p.n < 3:
        raise ValueError("cannot reduce below dimension 2")
    return _reductions(p.n, p.support_mask, p.lams)


@lru_cache(maxsize=None)
def _reduction_rows(n: int, c: int, support: int):
    """The tables of the dimension n - 1 cell that deleting coordinate c
    (from 0) lands in with this reduced support mask, and per reduced
    position j the pair (i, row): the old coordinate i that j reads, and
    the 2^n-byte row x -> red[j][rank of _drop(x) on that cell, the
    support moved onto {1..k}]. So a reduced table's rank tuple is one
    row lookup per position, at the adjusted functional of coordinate i.
    """
    tab, src, ranks = _kernels._support_ranks(n - 1, support)
    low = (1 << c) - 1
    dropped = [ranks[_drop(x, low)] for x in range(1 << n)]
    return tab, tuple((i + (i >= c), bytes([red[r] for r in dropped]))
                      for i, red in zip(src, tab.red))


def _reductions(n: int, sigma: int, lams,
                keys: Optional[dict] = None) -> tuple[ReductionChoice, ...]:
    """Every admissible one-step reduction of the valid group of dimension
    n >= 3 with support mask sigma and half-step functionals lams.

    Functionals f are taken modulo the support annihilator sigma (it acts
    trivially on the holonomy), using the smaller of f and f ^ sigma. The
    map m -> bit c of s[m] is linear on H: lam_c (generator_functionals).
    Coordinate c is skipped when e_c lies in ker f, where dropping c
    collapses the holonomy (reduce raises ReductionNotGhw), or when it is
    blocked (reduce raises InvalidChoice): some m in K = ker f on H has
    lam_c(m) = 1 and m_c = 0. Two linear forms on K take the values (1, 0)
    somewhere unless the first is 0 or equals the second, so c is unblocked
    iff lam_c on H is 0 or e_c (every f), or f is lam_c or lam_c ^ e_c
    modulo sigma (the f whose kernel is that form's); only those are tried.

    Each tried pair gives a GHW group. Dropping c is injective on K, since
    only e_c could collapse, so the dropped members form an index-two
    subgroup one dimension down. A member fixing c carries no half step
    there, so each member's fixed coordinate with a half step survives the
    drop: the result is torsion-free, its span misses the all-flip element
    and its support has odd size. That support is the drop of g, the one
    element of {sigma, f, f ^ sigma} whose bit c is clear. All three vanish
    on K, so lam_i plus one with bit c set, h, when lam_i has bit c, drops
    to the reduced table's functional. When c lies in sigma, h is sigma
    for every f, so the adjusted functionals are fixed per c and only the
    support moves with f; otherwise g is sigma and only h = f moves. The
    rank tuple is read through _reduction_rows.

    keys memoizes the key of each normalized reduced table by (support
    size, ranks), the ranks as bytes, whose length is the dimension;
    build_graph passes one dict per build.
    """
    keys = {} if keys is None else keys
    out = []
    for c, fs in _unblocked(n, sigma, lams):
        bit = 1 << c
        low = bit - 1
        if sigma & bit:
            adjusted = [lam ^ sigma if lam & bit else lam for lam in lams]
            cells = [(f, adjusted, _reduction_rows(
                n, c, _drop(f ^ sigma if f & bit else f, low))) for f in fs]
        else:
            rows = _reduction_rows(n, c, _drop(sigma, low))
            cells = [(f, [lam ^ f if lam & bit else lam for lam in lams], rows)
                     for f in fs]
        for f, adjusted, (tab, rows) in cells:
            ranks = bytes([row[adjusted[i]] for i, row in rows])
            memo = (tab.k, ranks)
            key = keys.get(memo)
            if key is None:
                assert tab.k & 1, "reduced support is even"
                assert _kernels.torsion_free(tab, ranks), (
                    "unblocked reduction has torsion")
                key = keys[memo] = _canonical_bytes(tab, ranks)
            out.append(ReductionChoice(f, c + 1, key))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# extensions


def embed_up_exist(
    p: GhwPresentation, coordinate: Optional[int] = None
) -> GhwPresentation:
    """Extend by one dimension so that p reappears as a reduction.

    Each old generator acquires a new sign equal to its half-step parity
    at the chosen support coordinate, and one new generator flips only
    the new coordinate.  Reducing the result at the new coordinate along
    the kernel of the new cocycle entry restores p's table exactly.
    """
    _require_valid(p)
    n = p.n
    if coordinate is None:
        coordinate = min(p.support)
    if coordinate not in p.support:
        raise ValueError(f"coordinate {coordinate} is not in the support")
    j = coordinate - 1
    q = _group(n + 1, [(sv.flips | (tc.halves >> j & 1) << n, tc.halves)
                       for sv, tc in p.gens] + [(1 << n, 1 << j | 1 << n)])
    assert q.valid
    assert q.support == p.support
    return q


def semidirect_minus_id(p: GhwPresentation) -> GhwPresentation:
    """Adjoin a total flip of the old coordinates in one dimension up.

    Requires an orientable input: the new generator restricts to minus
    the identity on the old block, which is only torsion-free alongside
    full support.  The result has full support one dimension up, and
    reducing at the new coordinate restores p's table.
    """
    _require_valid(p)
    if not orientable(p):
        raise NotOriented("input must be orientable")
    n = p.n
    q = _group(n + 1, [(sv.flips, tc.halves) for sv, tc in p.gens]
               + [((1 << n) - 1, 1 << n)])
    assert q.valid
    # The old support functional picks up the flip of every old coordinate,
    # which kills it (odd weight), leaving only the new coordinate.
    assert q.support == (n + 1,)
    return q


class MonoEmbedding(NamedTuple):
    """A non-normal copy of one gamma family group inside the next.

    ``images`` are the generator images; ``escaped`` is an explicit
    conjugate of the first image that leaves the copy, exhibited by a
    nonzero final translation entry (every element of the copy has that
    entry equal to zero).
    """

    source: GhwPresentation
    target: GhwPresentation
    images: tuple[tuple[SignVector, TranslationClass], ...]
    escaped: AffineMap
    normal: bool


def embed_up_mono(p: GhwPresentation) -> MonoEmbedding:
    """Embed a gamma family group into the next one as a non-normal copy.

    Only the gamma family admits this map: each generator picks up a
    flip of the new coordinate and keeps its translation, which lands
    exactly on the generators of the family one dimension up.  The
    conjugate of the first image by a unit step along the new coordinate
    gains a translation entry of 1 there, while the copy keeps that
    entry at 0, so the copy is not normal.
    """
    _require_valid(p)
    n = p.n
    if p != gamma_group(n):
        raise NotGammaFamily(
            "the monomorphism is defined on the gamma family presentations"
        )
    target = gamma_group(n + 1)
    images = tuple(
        (SignVector(n + 1, sv.flips | (1 << n)),
         TranslationClass(n + 1, tc.halves))
        for sv, tc in p.gens
    )
    for sv, tc in images:
        assert target.s(sv) == tc

    x = _affine_of(n + 1, images[0][0].flips, images[0][1].halves)
    step = AffineMap(n + 1, 0, tuple([0] * n + [2]))
    y = step * x * step.inverse()
    # The copy is generated by the images together with Z^n x {0}; every
    # element has final translation entry exactly 0, and y has 2 (doubled).
    assert all(tc.halves >> n & 1 == 0 for _, tc in images)
    assert y.trans2[n] != 0
    return MonoEmbedding(
        source=p, target=target, images=images, escaped=y, normal=False
    )


# ---------------------------------------------------------------------------
# didicosm witness


class DidicosmWitness(NamedTuple):
    """Two holonomy elements generating a didicosm subgroup.

    ``first`` is the co-flip of the least support coordinate and
    ``second`` the first generator that flips it, each with its standard
    lift's half steps. ``schreier_rows`` are the doubled translations of
    the nonzero Schreier generators of the subgroup's intersection with
    the translations; they span its rank-3 lattice (``lattice_rank``).
    didicosm_witness proves the subgroup is the 3-dimensional member of
    the gamma family.
    """

    first: tuple[SignVector, TranslationClass]
    second: tuple[SignVector, TranslationClass]
    lattice_rank: int
    schreier_rows: tuple[tuple[int, ...], ...]


def didicosm_witness(p: GhwPresentation) -> DidicosmWitness:
    """Two elements of p generating a didicosm subgroup, for b1(p) = 0.

    Let c be the least support coordinate. A valid group's support is odd,
    and b1 = 0 makes it hold at least three coordinates. So a = full ^ e_c,
    even on the support, lies in H, as do the co-flips of the other support
    coordinates, which flip c; the generators span H, so one of them, b,
    flips c. a fixes only c, so a and b fix no coordinate in common, and
    the lifts x of a and y of b generate the didicosm:

    - Conjugating by a real translation clears x's translation outside c
      and y's on c. Then x translates by t e_c and y by u + w, with u on
      the coordinates b fixes and w on those both flip. Every word's
      translation lies in the span of e_c, u and w, so the lattice has
      rank at most 3.
    - The group is torsion-free, so x^2, y^2 and (xy)^2 translate by
      nonzero vectors on the coordinates fixed by a, by b and by ab: c,
      the fixed set of b, and the flips of b other than c. These sets
      are disjoint, so the lattice has rank 3. b and ab move x^2 and a
      moves y^2, so the holonomy acts faithfully on the lattice.
    - No coordinate is fixed by both a and b, so no lattice vector is
      fixed by the holonomy, and <x, y> is torsion-free with the group.

    A torsion-free crystallographic group of rank 3 with holonomy Z_2^2
    and b1 = 0 is the didicosm. A scan of every co-flip and every element
    moving its coordinate, in that order, each pair checked by Smith
    normal forms, finds this pair first.

    Raises NoWitness when b1 = 1. The support is then one coordinate,
    which no element of H flips, so there is no co-flip pair. Such a
    group may still contain a didicosm subgroup; this search does not
    cover it.
    """
    _require_valid(p)
    n = p.n
    if first_betti(p):
        raise NoWitness(
            "a singleton support gives no co-flip pair; this search "
            "covers only groups with b1 = 0")
    c = p.support_mask & -p.support_mask
    g1 = ((1 << n) - 1) ^ c
    g2 = next(sv.flips for sv, _ in p.gens if sv.flips & c)
    x = _affine_of(n, g1, p.s(g1).halves)
    y = _affine_of(n, g2, p.s(g2).halves)
    one = AffineMap(n, 0, (0,) * n)
    reps = {0: one, g1: x, g2: y, g1 ^ g2: x * y}
    rows = []
    for t in reps.values():
        for z in (x, y):
            w = t * z
            u = w * reps[w.mask].inverse()
            rows.append(u.trans2)
    return DidicosmWitness(
        first=(SignVector(n, g1), p.s(g1)),
        second=(SignVector(n, g2), p.s(g2)),
        lattice_rank=3,
        schreier_rows=tuple(r for r in rows if any(r)),
    )
