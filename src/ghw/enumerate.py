"""Census of isomorphism classes by dimension, with canonical keys.

A class is keyed by the lexicographically least coboundary-reduced column
tuple over all support-preserving coordinate relabelings, computed after the
support is moved onto an initial segment. The key is complete: two valid
presentations are isomorphic exactly when their keys agree, because an
abstract isomorphism must carry lattice to lattice, the normalizer of a
distinct-character diagonal image consists of signed permutations, and sign
changes act trivially on translation classes.
"""

from __future__ import annotations

import json
import reprlib
import time
from contextlib import nullcontext
from functools import cached_property, lru_cache
from itertools import repeat
from math import factorial
from typing import NamedTuple

from . import _kernels
from .core import (
    MAX_DIM,
    DimensionMismatch,
    GhwError,
    GhwPresentation,
    SignVector,
    TranslationClass,
    _basis_of,
    _coordinates,
    _fields,
    _require_valid,
)

__all__ = [
    "DimensionTooLarge",
    "BudgetExhausted",
    "CensusEntry",
    "Census",
    "hyperplane_classes",
    "canonical_key",
    "are_isomorphic",
    "enumerate_census",
    "cached_census",
    "censuses",
    "census_table",
    "census_to_jsonl",
    "census_from_jsonl",
]

LONG_MODE_DIM = 6
DEFAULT_BUDGET = 1800.0
# The largest dimension a census may be built for, checked before any
# dimension is built. Dimension 7 (100,012 classes) takes about 6 s and
# 97 MB to write as JSONL with `ghw enumerate --dim 7 --long --out`, and
# about 2.3 s to read back checked (BENCH_graph_tables.json, 2 cores); a
# dimension-8 census, an estimated 3.5 million classes held in memory at
# once, does not fit.
CENSUS_MAX_DIM = 7


class DimensionTooLarge(GhwError):
    """Requested dimension is beyond the cap or needs long-running mode."""


class BudgetExhausted(GhwError):
    """The enumeration ran past its time budget."""


def hyperplane_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """Support classes in dimension n, as 1-based initial segments.

    Torsion-freeness keeps the all-flip element out of the span, which makes
    the support size odd; every odd size up to n occurs.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return tuple(tuple(range(1, k + 1)) for k in range(1, n + 1, 2))


def _key_width(n: int) -> int:
    """The bytes a key holds each dim-n column code in."""
    return ((1 << (n - 1)) + 7) // 8


def _key_bytes(n: int, k: int, cols) -> bytes:
    """The key of column codes on the (n, k) cell: n, k, then each code
    big-endian in _key_width(n) bytes."""
    width = _key_width(n)
    return bytes([n, k]) + b"".join(c.to_bytes(width, "big") for c in cols)


@lru_cache(maxsize=None)
def _code_masks(n: int, k: int) -> dict[bytes, int]:
    """Per column code of the (n, k) cell, as a key holds it, the mask
    whose character it is (the tables' rep)."""
    tab = _kernels.build_tables(n, k)
    width = _key_width(n)
    return {c.to_bytes(width, "big"): m for c, m in zip(tab.codes, tab.rep)}


def _key_functionals(key: bytes) -> tuple[int, list[int]]:
    """(sigma, lams) of the table a key spells: support {1..k}, so sigma
    is 2^k - 1, and lams[c] the mask whose character is column c's code.
    A mask and its sum with sigma have one character, so each may differ
    from generator_functionals' by sigma."""
    n, k = key[0], key[1]
    width = _key_width(n)
    masks = _code_masks(n, k)
    return (1 << k) - 1, [masks[key[i:i + width]]
                          for i in range(2, len(key), width)]


def _canonical_bytes(tab, ranks) -> bytes:
    """The key of normalized reduced ranks on tab's cell."""
    canon = _kernels.canonical(tab, ranks)
    return _key_bytes(tab.n, tab.k, _kernels.to_codes(tab, canon))


def canonical_key(p: GhwPresentation) -> bytes:
    """Complete isomorphism invariant; compare as raw bytes, render as hex."""
    _require_valid(p)
    return _canonical_bytes(*_kernels.normalized_ranks(p))


def are_isomorphic(p: GhwPresentation, q: GhwPresentation) -> bool:
    if p.n != q.n:
        raise DimensionMismatch(f"dimensions {p.n} and {q.n} differ")
    return canonical_key(p) == canonical_key(q)


class _EntryFields(NamedTuple):
    n: int
    gens: tuple[tuple[int, int], ...]
    key: bytes
    support: tuple[int, ...]
    beta1: int
    orientable: bool
    betti: tuple[int, ...]
    h1_order: int
    out_order: int


class CensusEntry(_EntryFields):
    """One class: its generators as (flips, halves) mask pairs, its key,
    the invariants its dimension and support fix, and out_order.

    The presentation is built on first access, and cached in the
    instance dict that this subclass keeps by declaring no __slots__.
    """

    @property
    def key_hex(self) -> str:
        return self.key.hex()

    @cached_property
    def presentation(self) -> GhwPresentation:
        return GhwPresentation(self.n, [
            (SignVector(self.n, f), TranslationClass(self.n, h))
            for f, h in self.gens])


class Census:
    """Sorted, keyed collection of the classes of one dimension."""

    def __init__(self, n: int, entries):
        entries = tuple(sorted(entries, key=lambda e: e.key))
        assert len({e.key for e in entries}) == len(entries), "duplicate keys"
        self.n = n
        self.entries = entries
        self._by_key = {e.key: e for e in entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def entry(self, key: bytes) -> CensusEntry:
        return self._by_key[key]

    def __contains__(self, key: bytes) -> bool:
        return key in self._by_key

    @property
    def beta1_zero(self) -> int:
        return sum(1 for e in self.entries if e.beta1 == 0)

    @property
    def beta1_one(self) -> int:
        return sum(1 for e in self.entries if e.beta1 == 1)

    @property
    def orientable_count(self) -> int:
        return sum(1 for e in self.entries if e.orientable)


@lru_cache(maxsize=None)
def _leaf_halves(n: int, k: int):
    """The basis of H (core._basis_of of its sorted elements) that a leaf's
    generators are read at, and per column i a dict from each code to its
    bits at those elements, one byte per element, each bit at place i."""
    tab = _kernels.build_tables(n, k)
    basis = _basis_of(tab.H)
    spread = {c: sum([(c >> tab.H.index(m) & 1) << 8 * b
                      for b, m in enumerate(basis)])
              for c in tab.codes}
    return tuple(basis), tuple({c: s << i for c, s in spread.items()}
                               for i in range(n))


def _entry_from_cols(n: int, k: int, cols, stab: int) -> CensusEntry:
    """The entry of one census leaf and its stabilizer order.

    The walk has proved the leaf valid, so nothing is checked again. Each
    generator is a basis element of H whose halves bit i is column i's bit
    at that element, read from _leaf_halves: byte b of the sum of the
    columns' entries is generator b's halves. out_order is
    2 * stab * h1_order, the formula of automorphisms.out_order, with the
    stabilizer the walk counted.
    """
    fields = _fields(n, (1 << k) - 1)
    basis, columns = _leaf_halves(n, k)
    halves = sum([col[c] for col, c in zip(columns, cols)])
    gens = tuple(zip(basis, halves.to_bytes(n - 1, "little")))
    return CensusEntry(n=n, gens=gens, key=_key_bytes(n, k, cols),
                       out_order=2 * stab * fields["h1_order"], **fields)


def _deadline(budget: float | None, long_mode: bool) -> float | None:
    """The time.monotonic deadline of a call that starts now."""
    if budget is None and long_mode:
        budget = DEFAULT_BUDGET
    return None if budget is None else time.monotonic() + budget


def _support_entries(n: int, k: int, deadline: float | None):
    try:
        leaves = _kernels.census_leaves(n, k, deadline)
    except TimeoutError as exc:
        raise BudgetExhausted(str(exc)) from None
    out = []
    for i, (cols, stab) in enumerate(leaves):
        if deadline is not None and i % 256 == 0 and time.monotonic() > deadline:
            raise BudgetExhausted(f"invariant pass for dim {n} support size {k}")
        out.append(_entry_from_cols(n, k, cols, stab))
    return out


def enumerate_census(
    n: int,
    *,
    long_mode: bool = False,
    budget: float | None = None,
    workers: int = 1,
    progress=None,
) -> Census:
    """All isomorphism classes of dimension n.

    Dimensions below LONG_MODE_DIM run unconditionally. From dimension 6 on
    the call must opt into long mode and runs under a time budget (default
    1800 s), raising BudgetExhausted when it trips. Worker counts above one
    spread support classes over processes; results are merged in sorted key
    order, so output does not depend on the worker count.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    _check_cap(n)
    if n >= LONG_MODE_DIM and not long_mode:
        raise DimensionTooLarge(
            f"dimension {n} is enumerable only in long mode"
        )
    _check_run_limits(budget, workers)
    deadline = _deadline(budget, long_mode)
    sizes = [len(s) for s in hyperplane_classes(n)]
    procs = min(workers, len(sizes))
    entries = []
    if procs > 1:
        # Only a run with workers loads the process pool machinery.
        from concurrent.futures import ProcessPoolExecutor
        workers_context = ProcessPoolExecutor(procs)
    else:
        workers_context = nullcontext()
    with workers_context as pool:
        run = map if pool is None else pool.map
        batches = run(_support_entries, repeat(n), sizes, repeat(deadline))
        for k, batch in zip(sizes, batches):
            entries.extend(batch)
            if progress is not None:
                progress(f"dim {n} support size {k}: {len(batch)} classes")
    return Census(n, entries)


@lru_cache(maxsize=32)
def cached_census(n: int) -> Census:
    """Memoized default-budget census; the workhorse for graphs and tests."""
    return enumerate_census(n, long_mode=n >= LONG_MODE_DIM)


def _check_cap(n: int) -> None:
    if n > CENSUS_MAX_DIM:
        raise DimensionTooLarge(
            f"dimension {n} exceeds the census cap {CENSUS_MAX_DIM}")


def _check_run_limits(budget: float | None, workers: int) -> None:
    if budget is not None and not budget > 0:
        raise ValueError("budget must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")


def censuses(
    max_dim: int,
    *,
    long_mode: bool = False,
    budget: float | None = None,
    workers: int = 1,
) -> dict[int, Census]:
    """The census of every dimension 2..max_dim, keyed by dimension.

    Dimensions below LONG_MODE_DIM come from cached_census; from there on
    each is enumerated under the given long mode and workers, in the time
    left of the budget, which bounds the whole call: it is read before
    every dimension, cached ones included, and after the last. The
    dimension cap, budget and worker count are checked before any
    dimension is built.
    """
    return _censuses(max_dim, long_mode, budget, workers)[0]


def _censuses(max_dim: int, long_mode: bool, budget: float | None,
              workers: int) -> tuple[dict[int, Census], float | None]:
    """censuses, and the deadline it set for the rest of its caller."""
    _check_cap(max_dim)
    _check_run_limits(budget, workers)
    deadline = _deadline(budget, long_mode)
    out = {}
    for n in range(2, max_dim + 1):
        left = _time_left(deadline, f"no time left for dim {n}")
        if n >= LONG_MODE_DIM:
            out[n] = enumerate_census(n, long_mode=long_mode, budget=left,
                                      workers=workers)
        else:
            out[n] = cached_census(n)
    _time_left(deadline, f"no time left after dim {max_dim}")
    return out, deadline


def _time_left(deadline: float | None, what: str) -> float | None:
    """Seconds to the deadline (None without one); BudgetExhausted(what)
    when none are left."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise BudgetExhausted(what)
    return left


def census_table(
    max_dim: int,
    *,
    long_mode: bool = False,
    budget: float | None = None,
    workers: int = 1,
) -> list[dict]:
    """Per-dimension summary rows for dims 2..max_dim, from censuses."""
    found = censuses(max_dim, long_mode=long_mode, budget=budget,
                     workers=workers)
    return [
        {
            "dim": n,
            "total": len(c),
            "beta1_zero": c.beta1_zero,
            "beta1_one": c.beta1_one,
            "orientable": c.orientable_count,
            "supports": len(hyperplane_classes(n)),
        }
        for n, c in found.items()
    ]


@lru_cache(maxsize=None)
def _coordinates_text(mask: int) -> str:
    """The JSON text of a mask's coordinates, such as [1, 2, 3]."""
    return json.dumps(_coordinates(mask))


@lru_cache(maxsize=None)
def _line_frame(n: int, support: tuple[int, ...]) -> tuple[str, str]:
    """The text of a dim-n census line with this support before its
    generators, and between its key and its out_order, each field rendered
    by json.dumps from core._fields. Keyed by the support itself: a line
    read back may hold any odd support, not only an initial segment."""
    fields = _fields(n, sum(1 << (i - 1) for i in support))
    head = (f'{{"dim": {n}, "support": {json.dumps(fields["support"])}, '
            '"generators": [')
    middle = "".join(f', "{name}": {json.dumps(fields[name])}'
                     for name in ("beta1", "orientable", "betti", "h1_order"))
    return head, f'"{middle}, "out_order": '


def _entry_json(e: CensusEntry) -> str:
    """One census_to_jsonl line, with its newline: the bytes json.dumps
    gives for the entry's fields in order, joined from text cached per
    mask and per support."""
    head, middle = _line_frame(e.n, e.support)
    gens = ", ".join([
        f'{{"flips": {_coordinates_text(f)}, "halves": {_coordinates_text(h)}}}'
        for f, h in e.gens])
    return (f'{head}{gens}], "canonical_key": "{e.key.hex()}{middle}'
            f'{e.out_order}}}\n')


def census_to_jsonl(census: Census) -> str:
    """One JSON object per class, sorted by key; byte-stable across runs."""
    return "".join(map(_entry_json, census.entries))


# Echoes a value read from a census line, cut past MAX_DIM + 1 list items.
_echo = reprlib.Repr()
_echo.maxlist = _echo.maxtuple = MAX_DIM + 1


def _coordinates_mask(coords, n: int) -> int:
    """The mask of a list of strictly increasing coordinates, each an int
    in 1..n, in one pass. Coordinates out of order (or that do not
    compare) are reported before one outside 1..n, wherever each stands."""
    if type(coords) is not list:
        raise ValueError(f"coordinates {_echo.repr(coords)} are not a list")
    mask = 0
    last = 0  # the previous coordinate; 0 bounds the first one below
    outside = ()
    try:
        for i in coords:
            if type(i) is int and last < i <= n:
                mask |= 1 << (i - 1)
            elif (mask or outside) and not last < i:
                raise ValueError(
                    f"coordinates {_echo.repr(coords)} are not increasing")
            else:
                outside = outside or (i,)
            last = i
    except TypeError:
        raise ValueError(
            f"coordinates {_echo.repr(coords)} are not increasing") from None
    if outside:
        raise ValueError(
            f"coordinate {_echo.repr(outside[0])} is outside 1..{n}")
    return mask


def _checked_masks(n: int, gens):
    """(sigma, tab, key) of (flips, halves) mask pairs when they give a
    valid group, else None: n - 1 pairs inside n coordinates, independent
    flips, sigma (their annihilator) odd and the reduced ranks of the
    table torsion-free. key is that of the table's own reduced columns,
    the form the census writes."""
    if len(gens) != n - 1:
        return None
    found = _kernels.generator_functionals(n, gens)
    if isinstance(found, int):
        return None
    sigma, lams = found
    if not sigma.bit_count() & 1:
        return None
    tab, ranks = _kernels.functional_ranks(n, sigma, lams)
    if not _kernels.torsion_free(tab, ranks):
        return None
    return sigma, tab, _key_bytes(n, tab.k, _kernels.to_codes(tab, ranks))


def _out_order_fits(out, n: int, k: int, h1_order: int) -> bool:
    """Whether out is an int 2 * h1_order times a divisor of k!(n-k)!."""
    twice_h1 = 2 * h1_order
    return (type(out) is int and out > 0 and out % twice_h1 == 0
            and factorial(k) * factorial(n - k) % (out // twice_h1) == 0)


def _refusal(n: int, obj: dict) -> ValueError:
    """The error of a line whose generators fail _checked_masks, in the
    words of the presentation they build."""
    try:
        p = GhwPresentation(n, [
            (SignVector(n, _coordinates_mask(g["flips"], n)),
             TranslationClass(n, _coordinates_mask(g["halves"], n)))
            for g in obj["generators"]
        ])
    except (GhwError, LookupError, TypeError, ValueError) as exc:
        return ValueError(f"generators: {exc}")
    assert not p.valid, "a valid presentation failed the generator checks"
    return ValueError(f"generators: {p.report.reason}")


@lru_cache(maxsize=None)
def _field_reprs(n: int, sigma: int) -> tuple[tuple[str, str], ...]:
    """(name, repr) of each field core._fields gives, a tuple as a list.
    For what json.loads returns, reprs agree exactly when types and values
    do, inside lists too, so 1, 1.0, true and "1" stay distinct."""
    return tuple((name, repr(list(v) if isinstance(v, tuple) else v))
                 for name, v in _fields(n, sigma).items())


def _entry_from_json(obj: dict) -> CensusEntry:
    """One census entry, checked against every field its generators fix.

    Raises ValueError naming the first bad field. The key must be that of
    the generators' own reduced columns, the form the census writes;
    its minimality and the stabilizer inside out_order are not recomputed,
    but out_order must be 2 * h1_order times a divisor of k!(n-k)!.
    A presentation is built only to word the error of bad generators.
    """
    n = obj["dim"]
    if type(n) is not int or not 2 <= n <= MAX_DIM:
        raise ValueError(f"dim {_echo.repr(n)} is outside 2..{MAX_DIM}")
    try:
        gens = tuple([(_coordinates_mask(g["flips"], n),
                       _coordinates_mask(g["halves"], n))
                      for g in obj["generators"]])
    except (LookupError, TypeError, ValueError):
        gens = None
    checked = None if gens is None else _checked_masks(n, gens)
    if checked is None:
        raise _refusal(n, obj)
    sigma, tab, key = checked
    if obj["canonical_key"] != key.hex():
        raise ValueError("canonical_key is not the key of the generators")
    fields = _fields(n, sigma)
    for name, text in _field_reprs(n, sigma):
        if repr(obj[name]) != text:
            raise ValueError(f"{name} {_echo.repr(obj[name])} differs from "
                             f"{fields[name]!r}, which the generators give")
    out = obj["out_order"]
    if not _out_order_fits(out, n, tab.k, fields["h1_order"]):
        twice_h1 = 2 * fields["h1_order"]
        raise ValueError(f"out_order {_echo.repr(out)} is not {twice_h1} "
                         f"times a divisor of {tab.k}! * {n - tab.k}!")
    return CensusEntry(n=n, gens=gens, key=key, out_order=out, **fields)


@lru_cache(maxsize=None)
def _coordinates_masks(n: int) -> dict[str, int]:
    """The inverse of _coordinates_text on the masks below 2^n."""
    return {_coordinates_text(m): m for m in range(1 << n)}


def _entry_from_text(line: str) -> CensusEntry | None:
    """The entry of a line in the exact form census_to_jsonl writes, else
    None.

    The line is split at the writer's separators, each coordinate list is
    read back through _coordinates_masks, and the masks pass the checks of
    _entry_from_json (_checked_masks, the key, _out_order_fits). The entry
    is returned only if _entry_json gives the line back: json.loads reads
    the writer's text as exactly the entry's typed fields, so that stands
    in for the field checks. Each split is one scan of the line.
    """
    if not line.startswith('{"dim": '):
        return None
    head, _, rest = line.partition(', "generators": [{"flips": ')
    gens_text, _, rest = rest.partition('}], "canonical_key": "')
    key_hex, _, rest = rest.partition('"')
    _, _, out_text = rest.rpartition(', "out_order": ')
    try:
        n = int(head[8:head.find(",")])
        out = int(out_text[:-1])
    except ValueError:
        return None
    if not 2 <= n <= MAX_DIM:
        return None
    masks = _coordinates_masks(n)
    try:
        gens = tuple([
            (masks[flips], masks[halves])
            for flips, _, halves in (
                g.partition(', "halves": ')
                for g in gens_text.split('}, {"flips": '))])
    except KeyError:
        return None
    checked = _checked_masks(n, gens)
    if checked is None:
        return None
    sigma, tab, key = checked
    fields = _fields(n, sigma)
    if (key.hex() != key_hex
            or not _out_order_fits(out, n, tab.k, fields["h1_order"])):
        return None
    e = CensusEntry(n=n, gens=gens, key=key, out_order=out, **fields)
    return e if _entry_json(e) == line + "\n" else None


def census_from_jsonl(text: str) -> Census:
    """Read what census_to_jsonl wrote, checking every line on the way.

    A line in the writer's exact form is read by _entry_from_text; any
    other line goes through json.loads and _entry_from_json, which apply
    the same checks and word every refusal. A bad line raises ValueError
    naming its 1-based number and the field, or that it nests too deeply
    for json.loads; lines of different dimensions raise DimensionMismatch.
    """
    entries = []
    seen = set()
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        e = _entry_from_text(line)
        try:
            if e is None:
                e = _entry_from_json(json.loads(line))
        except KeyError as exc:
            raise ValueError(f"census line {number}: no field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"census line {number}: {exc}") from None
        except RecursionError:
            raise ValueError(
                f"census line {number}: nested too deeply to read") from None
        if entries and e.n != entries[0].n:
            raise DimensionMismatch("mixed dimensions in census stream")
        if e.key in seen:
            raise ValueError(f"census line {number}: canonical_key repeats "
                             "an earlier line")
        seen.add(e.key)
        entries.append(e)
    if not entries:
        raise ValueError("empty census stream")
    return Census(entries[0].n, entries)
