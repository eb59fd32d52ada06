"""Exact model of diagonal Bieberbach presentations with holonomy Z_2^(n-1).

An element of such a group is an affine isometry x -> Bx + b where B is a
diagonal +-1 matrix and b is determined modulo the standard lattice Z^n by a
vector with entries in {0, 1/2}. Composition is (B, b)(C, c) = (BC, Bc + b).
Because a sign change fixes every translation class modulo Z^n, both the sign
parts and the translation classes compose by XOR on bitmasks, and everything
here is integer arithmetic on such masks.

Coordinates are 1-based in every public interface. Bit i-1 of a mask belongs
to coordinate i.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ._kernels import generator_functionals, support_order

__all__ = [
    "GhwError",
    "DependentGenerators",
    "InvalidPresentation",
    "DimensionMismatch",
    "ParseError",
    "SignVector",
    "TranslationClass",
    "GhwPresentation",
    "ValidationReport",
    "expand_cocycle",
    "validate_ghw",
    "is_torsion_free",
    "find_torsion_element",
    "characters",
    "first_betti",
    "orientable",
    "has_nontrivial_center",
    "find_distinguished_elements",
    "parse_group",
    "format_group",
    "permute_coordinates",
    "apply_coboundary",
    "MAX_DIM",
]

# The largest dimension a group literal or a dimension flag may name (a
# census stops at enumerate.CENSUS_MAX_DIM). A key builds the k!(n-k)!
# support-preserving permutations of a 2^(n-1)-entry table once per (n, k)
# (5,040 at n = 8) and then filters only those that reach its first
# position's minimum (_kernels.least); one dimension above the cap, a rank
# still fits the byte an image holds.
MAX_DIM = 8


class GhwError(Exception):
    """Base class for every error raised by this package."""


class DependentGenerators(GhwError):
    """The generator sign vectors are linearly dependent over F_2."""


class InvalidPresentation(GhwError):
    """The operation requires a presentation that passes validation."""


class DimensionMismatch(GhwError):
    """Two presentations of different dimensions were compared."""


class ParseError(GhwError):
    """Group literal rejected; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _check_coords(n: int, mask: int) -> None:
    if n < 1 or n > 64:
        raise ValueError(f"dimension {n} out of range 1..64")
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} does not fit in {n} coordinates")


class _CoordinateMask:
    """n coordinates and the mask of those marked, composed by XOR. A
    subclass names its LETTERS (unmarked, marked), the KIND of string its
    errors name, its field (an alias of _mask) and its operator (_compose)."""

    __slots__ = ("n", "_mask")

    def __init_subclass__(cls):
        # Text to bits, lowest first, and back. _BITS sends a 0 or 1 that is
        # not a letter to x, so every 0 and 1 it gives comes from a letter.
        cls._BITS = str.maketrans("01" + cls.LETTERS, "xx01")
        cls._TEXT = str.maketrans("01", cls.LETTERS)

    def __init__(self, n: int, mask: int):
        _check_coords(n, mask)
        self.n = n
        self._mask = mask

    @classmethod
    def from_string(cls, text: str):
        """The value whose text is one letter per coordinate."""
        bits = text.translate(cls._BITS)
        bad = len(bits) - len(bits.lstrip("01"))  # the first non-letter
        if bad < len(text):
            raise ValueError(f"bad {cls.KIND} character {text[bad]!r}")
        return cls(len(text), int(bits[::-1] or "0", 2))

    def to_string(self) -> str:
        return format(self._mask, f"0{self.n}b")[::-1].translate(self._TEXT)

    def _compose(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} != {other.n}")
        return type(self)(self.n, self._mask ^ other._mask)

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and self.n == other.n
                and self._mask == other._mask)

    def __hash__(self) -> int:
        return hash((type(self), self.n, self._mask))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {self.to_string()!r})"


class SignVector(_CoordinateMask):
    """Diagonal orthogonal matrix with +-1 entries, stored as a flip mask.

    Bit i-1 set means the entry at coordinate i is -1. The group law is
    XOR, written *.
    """

    __slots__ = ()
    LETTERS = "+-"
    KIND = "sign"
    flips = _CoordinateMask._mask
    __mul__ = _CoordinateMask._compose

    @property
    def parity(self) -> int:
        """Determinant exponent: 0 for det +1, 1 for det -1."""
        return self.flips.bit_count() & 1


def _flip_mask(n: int, element) -> int:
    """The flips of a SignVector, which must have n coordinates, as in
    SignVector composition, or element itself if it is not one."""
    if isinstance(element, SignVector) and element.n != n:
        raise DimensionMismatch(f"{element.n} != {n}")
    return element.flips if isinstance(element, SignVector) else element


class TranslationClass(_CoordinateMask):
    """Translation vector modulo Z^n with entries in {0, 1/2}, as a bitmask.

    Bit i-1 set means coordinate i carries 1/2. Under the group law the sign
    action on these classes is trivial, so they add by XOR, written +.
    """

    __slots__ = ()
    LETTERS = "0H"
    KIND = "translation"
    halves = _CoordinateMask._mask
    __add__ = _CoordinateMask._compose


def expand_cocycle(gens) -> dict[int, int]:
    """Extend generator translation classes linearly to the full sign span.

    `gens` is a sequence of (SignVector, TranslationClass) pairs with
    independent sign masks. Returns {sign mask: halves mask} over the whole
    span, 2^k entries. Raises DependentGenerators when the span is smaller.
    The one walk of the span; no presentation keeps the table.

    Linearity is forced by the group law: signs act trivially on translation
    classes, so s(gh) = s(g) XOR s(h).
    """
    table = {0: 0}
    for sv, tc in gens:
        if sv.flips in table:
            raise DependentGenerators(
                f"sign vector {sv.to_string()} lies in the span of its predecessors"
            )
        for mask, val in list(table.items()):
            table[mask ^ sv.flips] = val ^ tc.halves
    return table


def _coordinates(mask: int) -> tuple[int, ...]:
    """The 1-based coordinates of a mask's set bits, increasing."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _basis_of(masks) -> list[int]:
    """Greedy basis of the span of masks, scanning them in sorted order."""
    basis: list[int] = []
    span = {0}
    for m in sorted(masks):
        if m and m not in span:
            basis.append(m)
            span |= {m ^ x for x in span}
    return basis


class GhwPresentation:
    """Dimension-n group given by n-1 generators (sign vector, translation class).

    The sign vectors must be independent over F_2; they then span an index-2
    subgroup H of the diagonal group, and the translation classes extend to a
    linear cocycle on H. One elimination (_kernels.generator_functionals)
    reads off both, and nothing else is stored: H as its support_mask, the
    unique nonzero functional vanishing on H, and the cocycle as its
    half-step functionals lams, the parity of lams[c] against each m of H
    being bit c of s(m). Geometric soundness (torsion-freeness and friends)
    is reported by validate_ghw, never enforced here, so defective tables
    can still be inspected.
    """

    __slots__ = ("n", "gens", "support_mask", "lams", "_report")

    def __init__(self, n: int, gens):
        gens = tuple(gens)
        if n < 2:
            raise ValueError("dimension must be at least 2")
        if len(gens) != n - 1:
            raise ValueError(f"expected {n - 1} generators, got {len(gens)}")
        for sv, tc in gens:
            if sv.n != n or tc.n != n:
                raise DimensionMismatch("generator entries disagree with dimension")
        found = generator_functionals(
            n, [(sv.flips, tc.halves) for sv, tc in gens])
        if isinstance(found, int):
            raise DependentGenerators(f"sign vector {gens[found][0].to_string()}"
                                      " lies in the span of its predecessors")
        self.n = n
        self.gens = gens
        self.support_mask, self.lams = found
        self._report = None

    @property
    def support(self) -> tuple[int, ...]:
        return _coordinates(self.support_mask)

    @property
    def elements(self) -> tuple[int, ...]:
        """The masks of H, those even on the support, increasing."""
        sigma = self.support_mask
        return tuple(m for m in range(1 << self.n)
                     if not (m & sigma).bit_count() & 1)

    def s(self, element) -> TranslationClass:
        """Cocycle value on an element of H, given as a mask or SignVector."""
        mask = _flip_mask(self.n, element)
        if mask < 0 or mask >> self.n or (mask & self.support_mask).bit_count() & 1:
            raise KeyError(f"mask {mask:#x} is not in the sign span")
        return TranslationClass(self.n, sum(
            ((lam & mask).bit_count() & 1) << c for c, lam in enumerate(self.lams)))

    @property
    def report(self) -> "ValidationReport":
        if self._report is None:
            self._report = validate_ghw(self)
        return self._report

    @property
    def valid(self) -> bool:
        return self.report.verdict

    def to_literal(self) -> str:
        return format_group(self)

    @classmethod
    def from_literal(cls, text: str) -> "GhwPresentation":
        return parse_group(text)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GhwPresentation)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __repr__(self) -> str:
        return f"GhwPresentation.from_literal({self.to_literal()!r})"


def _group(n: int, masks) -> GhwPresentation:
    """The presentation whose generators have these (flips, halves) masks."""
    return GhwPresentation(n, [(SignVector(n, f), TranslationClass(n, h))
                               for f, h in masks])


class ValidationReport(NamedTuple):
    """Outcome of validate_ghw.

    normalizing_permutation sends old coordinate i (1-based) to position
    perm[i-1], moving the support onto an initial segment while preserving
    relative order inside and outside the support.
    """

    faithful: bool
    minus_id_free: bool
    torsion_free: bool
    torsion_offender: SignVector | None
    lattice_maximal: bool
    support: tuple[int, ...]
    normalizing_permutation: tuple[int, ...]
    verdict: bool
    reason: str | None


def find_torsion_element(p) -> SignVector | None:
    """The least element (as a mask) with no fixed half coordinate.

    An element g != Id has finite order in the group iff every coordinate it
    fixes carries translation 0; it is then an involution up to conjugacy.
    Works on anything with .n and .gens, walking their span once.
    """
    full = (1 << p.n) - 1
    offender = min((m for m, v in expand_cocycle(p.gens).items()
                    if m and not ~m & full & v), default=None)
    return None if offender is None else SignVector(p.n, offender)


def is_torsion_free(p) -> bool:
    return find_torsion_element(p) is None


def _support_alignment(n: int, src_mask: int, dst_mask: int) -> tuple[int, ...]:
    """Order-preserving relabeling taking one support onto another.

    Old coordinate i (1-based) goes to position perm[i-1]; coordinates keep
    their relative order inside and outside the support. With the low k
    bits as dst_mask this is the normalizing permutation.
    """
    assert src_mask.bit_count() == dst_mask.bit_count()
    perm = [0] * n
    for i, j in zip(support_order(n, src_mask), support_order(n, dst_mask)):
        perm[i] = j + 1
    return tuple(perm)


def validate_ghw(p: GhwPresentation) -> ValidationReport:
    """Check the geometric requirements and report every verdict at once.

    faithful: the sign vectors span a group of order 2^(n-1) (true by
    construction, which refuses dependent generators). minus_id_free: the
    all-flip element is outside the span, equivalently the support has odd
    size. torsion_free: no element violates the fixed-half witness
    condition. lattice_maximal: the standard lattice is the unique maximal
    abelian normal subgroup, which for this diagonal family holds exactly
    when the coordinate characters are pairwise distinct, i.e. the support
    is not a 2-element set.
    """
    n = p.n
    sigma = p.support_mask
    minus_id_free = sigma.bit_count() % 2 == 1
    offender = find_torsion_element(p)
    torsion_free = offender is None
    verdict = minus_id_free and torsion_free
    reason = None
    if not minus_id_free:
        reason = "the all-flip sign vector lies in the span (even support)"
    elif not torsion_free:
        reason = f"torsion at {offender.to_string()}"
    return ValidationReport(
        faithful=True,
        minus_id_free=minus_id_free,
        torsion_free=torsion_free,
        torsion_offender=offender,
        lattice_maximal=sigma.bit_count() != 2,
        support=p.support,
        normalizing_permutation=_support_alignment(
            n, sigma, (1 << sigma.bit_count()) - 1),
        verdict=verdict,
        reason=reason,
    )


def _require_valid(p: GhwPresentation) -> None:
    if not p.valid:
        raise InvalidPresentation(p.report.reason or "invalid presentation")


@lru_cache(maxsize=None)
def _fields(n: int, sigma: int) -> dict:
    """The invariants of a valid group of dimension n with support mask
    sigma, in closed form: support, b1 (1 for a singleton support),
    orientable (full support), Betti numbers (derived in homology) and
    |H^1| = 2^(n - b1) (derived in cohomology). Shared; do not mutate."""
    k = sigma.bit_count()
    beta1 = 1 if k == 1 else 0
    return {
        "support": _coordinates(sigma),
        "beta1": beta1,
        "orientable": k == n,
        "betti": tuple(int(j in (0, k)) for j in range(n + 1)),
        "h1_order": 1 << (n - beta1),
    }


def characters(p: GhwPresentation) -> tuple[tuple[int, ...], ...]:
    """The n coordinate characters on H, as +-1 rows over sorted elements."""
    _require_valid(p)
    elements = p.elements
    return tuple(
        tuple(-1 if m >> i & 1 else 1 for m in elements) for i in range(p.n)
    )


def first_betti(p: GhwPresentation) -> int:
    """Number of trivial coordinate characters: 1 for singleton support, else 0."""
    _require_valid(p)
    return _fields(p.n, p.support_mask)["beta1"]


def orientable(p: GhwPresentation) -> bool:
    """True when every element has an even flip count (full support, odd n)."""
    _require_valid(p)
    return _fields(p.n, p.support_mask)["orientable"]


def has_nontrivial_center(p: GhwPresentation) -> bool:
    """The center is Z^beta1; it is nontrivial exactly when beta1 = 1."""
    return first_betti(p) == 1


def find_distinguished_elements(p):
    """Split off the structurally forced elements of H.

    Returns (fixers, single_flips): fixers are the weight n-1 elements, one
    for each support coordinate, each fixing exactly that coordinate and
    forced to carry 1/2 there; single_flips are the weight-1 elements, one for
    each non-support coordinate, present exactly when the group is
    non-orientable. fixers is never empty.
    """
    _require_valid(p)
    full = (1 << p.n) - 1
    fixers = []
    single = []
    for i in range(p.n):
        if p.support_mask >> i & 1:
            fixers.append(SignVector(p.n, full ^ (1 << i)))
        else:
            single.append(SignVector(p.n, 1 << i))
    assert {v.flips for v in fixers + single} <= set(p.elements)
    return tuple(fixers), tuple(single)


def permute_coordinates(p: GhwPresentation, perm) -> GhwPresentation:
    """Relabel coordinates: old coordinate i moves to position perm[i-1]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, p.n + 1)):
        raise ValueError(f"not a permutation of 1..{p.n}: {perm}")
    def move(mask: int) -> int:
        out = 0
        for i in range(p.n):
            if mask >> i & 1:
                out |= 1 << (perm[i] - 1)
        return out
    return _group(p.n, [(move(sv.flips), move(tc.halves)) for sv, tc in p.gens])


def apply_coboundary(p: GhwPresentation, shift_mask: int) -> GhwPresentation:
    """Shift the cocycle by the coboundary of shift_mask.

    Conjugating the whole group by the quarter translation with support
    shift_mask sends s(g)_i to s(g)_i + g_i * shift_i, leaving the
    isomorphism class untouched.
    """
    _check_coords(p.n, shift_mask)
    return _group(p.n, [(sv.flips, tc.halves ^ (sv.flips & shift_mask))
                        for sv, tc in p.gens])


# Group literal format: dim=N; gens=+--:HH0,-+-:0HH
# One sign and one translation string of length N per generator, in the
# LETTERS of SignVector and TranslationClass, comma separated.

_DIGITS = "0123456789"
# Far above any dimension, and far below the length at which int() of a
# digit string raises ValueError.
_INT_DIGITS = 18


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def fail(self, message: str, pos: int | None = None):
        line, col = self.location(pos)
        raise ParseError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.fail(f"expected {token!r}")
        self.pos += len(token)

    def read_int(self) -> int:
        """A run of ASCII digits with at most _INT_DIGITS significant ones."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        digits = self.text[start:self.pos].lstrip("0")
        if len(digits) > _INT_DIGITS:
            self.fail(f"integer has more than {_INT_DIGITS} digits", start)
        return int(digits or "0")

    def read_mask(self, cls, n: int):
        """A run of cls's letters of length n, as a cls."""
        self.skip_ws()
        start = self.pos
        letters = cls.LETTERS
        while self.pos < len(self.text) and self.text[self.pos] in letters:
            self.pos += 1
        if self.pos == start:
            self.fail(f"expected a {cls.KIND} string over {letters}")
        if self.pos - start != n:
            self.fail(f"{cls.KIND} string has length {self.pos - start}, "
                      f"expected {n}", start)
        return cls.from_string(self.text[start:self.pos])


def parse_group(text: str) -> GhwPresentation:
    """Parse the group literal format, e.g. 'dim=3; gens=+--:HH0,-+-:0HH'.

    Errors carry the 1-based line and column of the offending token. The
    dimension must lie in 2..MAX_DIM; it is checked before any generator
    is read.
    """
    cur = _Cursor(text)
    cur.expect("dim")
    cur.expect("=")
    cur.skip_ws()
    at = cur.pos
    n = cur.read_int()
    if n < 2:
        cur.fail("dimension must be at least 2", at)
    if n > MAX_DIM:
        cur.fail(f"dimension {n} exceeds the cap {MAX_DIM}", at)
    cur.expect(";")
    cur.expect("gens")
    cur.expect("=")
    gens = []
    while True:
        sv = cur.read_mask(SignVector, n)
        cur.expect(":")
        gens.append((sv, cur.read_mask(TranslationClass, n)))
        cur.skip_ws()
        if not cur.text.startswith(",", cur.pos):
            break
        cur.pos += 1
    cur.skip_ws()
    if cur.pos != len(cur.text):
        cur.fail("trailing input after generator list")
    if len(gens) != n - 1:
        cur.fail(f"expected {n - 1} generators for dimension {n}, got {len(gens)}")
    return GhwPresentation(n, gens)


def _generator_text(gen) -> str:
    """One (SignVector, TranslationClass) pair of a group literal."""
    sv, tc = gen
    return f"{sv.to_string()}:{tc.to_string()}"


def format_group(p: GhwPresentation) -> str:
    return f"dim={p.n}; gens={','.join(map(_generator_text, p.gens))}"
