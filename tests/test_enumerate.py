import hashlib
import itertools
import json
import random
import time

import pytest

import ghw.enumerate as census_mod
from ghw._kernels import build_tables, census_leaves, normalized_ranks, to_codes
from ghw.automorphisms import normalizer_stabilizer_order
from ghw.cohomology import h1_order
from ghw.core import (
    MAX_DIM,
    GhwError,
    GhwPresentation,
    SignVector,
    TranslationClass,
    apply_coboundary,
    first_betti,
    orientable,
    parse_group,
    permute_coordinates,
    validate_ghw,
)
from ghw.enumerate import (
    BudgetExhausted,
    Census,
    DimensionMismatch,
    DimensionTooLarge,
    are_isomorphic,
    cached_census,
    canonical_key,
    census_from_jsonl,
    census_table,
    census_to_jsonl,
    censuses,
    enumerate_census,
    hyperplane_classes,
    _entry_from_cols,
    _entry_from_json,
    _entry_from_text,
    _entry_json,
    _key_bytes,
)
from ghw.constructions import gamma_group, klein_group
from ghw.homology import betti_vector

from oracles import (
    brute_betti_vector,
    brute_h1_order,
    census_line,
    cocycle_table,
    presentation_from_columns,
    random_generators,
)

DIDICOSM_KEY = bytes.fromhex("03030a0606")

# dimension -> (total, beta1 zero, beta1 one, orientable)
FROZEN_TOTALS = {
    2: (1, 0, 1, 0),
    3: (3, 1, 2, 1),
    4: (12, 2, 10, 0),
    5: (123, 23, 100, 2),
}

# (dimension, support size) -> class count
FROZEN_SUPPORTS = {
    (2, 1): 1,
    (3, 1): 2, (3, 3): 1,
    (4, 1): 10, (4, 3): 2,
    (5, 1): 100, (5, 3): 21, (5, 5): 2,
}


@pytest.mark.parametrize("n", sorted(FROZEN_TOTALS))
def test_census_counts(n):
    c = cached_census(n)
    total, zero, one, ori = FROZEN_TOTALS[n]
    assert len(c.entries) == total
    assert c.beta1_zero == zero
    assert c.beta1_one == one
    assert c.orientable_count == ori


@pytest.mark.parametrize("n", sorted(FROZEN_TOTALS))
def test_per_support_counts(n):
    c = cached_census(n)
    for size in range(1, n + 1, 2):
        want = FROZEN_SUPPORTS.get((n, size), 0)
        got = sum(1 for e in c.entries if len(e.support) == size)
        assert got == want


def test_census_table_rows():
    rows = census_table(4)
    assert [r["dim"] for r in rows] == [2, 3, 4]
    assert [r["total"] for r in rows] == [1, 3, 12]
    assert [r["orientable"] for r in rows] == [0, 1, 0]


def test_didicosm_entry():
    c = cached_census(3)
    e = c.entry(DIDICOSM_KEY)
    assert e.beta1 == 0
    assert e.orientable
    assert e.support == (1, 2, 3)
    assert e.betti == (1, 0, 0, 1)
    assert e.h1_order == 8


def test_keys_match_recomputation():
    for n in (2, 3, 4):
        for e in cached_census(n).entries:
            assert canonical_key(e.presentation) == e.key


def test_keys_scramble_invariant_sample():
    rng = random.Random(2024)
    for e in cached_census(4).entries:
        p = e.presentation
        for _ in range(25):
            perm = list(range(1, 5))
            rng.shuffle(perm)
            q = apply_coboundary(
                permute_coordinates(p, tuple(perm)), rng.randrange(16))
            assert canonical_key(q) == e.key


@pytest.mark.parametrize("n", range(2, 7))
def test_lean_fields_match_presentation(n):
    # Entries are built from the leaf columns without a presentation; each
    # field against what the presentation gives and against an oracle that
    # shares no code with core._fields, and the presentation against the
    # one a leaf's columns rebuild.
    c = cached_census(n)
    seen = 0
    for k in range(1, n + 1, 2):
        tab = build_tables(n, k)
        for cols, _ in census_leaves(n, k):
            q = presentation_from_columns(n, tab.H, cols)
            e = c.entry(canonical_key(q))
            p = e.presentation
            assert p == q
            assert validate_ghw(p).verdict
            assert canonical_key(p) == e.key
            assert e.support == p.support
            assert e.beta1 == first_betti(p)
            assert e.orientable == orientable(p)
            assert e.betti == betti_vector(p)
            assert e.h1_order == h1_order(p)
            assert 2 * normalizer_stabilizer_order(p) * h1_order(p) == (
                e.out_order)
            betti = brute_betti_vector(n, p.support_mask)
            assert e.betti == betti
            assert e.beta1 == betti[1]
            assert e.h1_order == brute_h1_order(
                n, tuple(sv.flips for sv, _ in p.gens))
            assert e.orientable == all(
                m.bit_count() % 2 == 0 for m in cocycle_table(n, p.gens))
            seen += 1
    assert seen == len(c)


def test_presentation_built_on_first_access():
    c = enumerate_census(4)
    assert not any("presentation" in vars(e) for e in c)
    e = c.entries[0]
    assert e.presentation is e.presentation
    back = census_from_jsonl(census_to_jsonl(c))
    assert not any("presentation" in vars(e) for e in back)


def test_entries_sorted_by_key():
    for n in (3, 4, 5):
        keys = [e.key for e in cached_census(n).entries]
        assert keys == sorted(keys)


class TestIsomorphism:
    def test_didicosm_is_gamma3(self):
        p = parse_group("dim=3; gens=+--:HH0,-+-:0HH")
        assert are_isomorphic(p, gamma_group(3))

    def test_didicosm_not_k3(self):
        p = parse_group("dim=3; gens=+--:HH0,-+-:0HH")
        assert not are_isomorphic(p, klein_group(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            are_isomorphic(klein_group(2), klein_group(3))

    def test_scrambled_copy(self):
        p = gamma_group(4)
        q = apply_coboundary(permute_coordinates(p, (3, 1, 4, 2)), 0b1011)
        assert are_isomorphic(p, q)


class TestJsonl:
    def test_round_trip_byte_identical(self):
        for n in (2, 3, 4, 5):
            text = census_to_jsonl(cached_census(n))
            again = census_from_jsonl(text)
            assert census_to_jsonl(again) == text

    def test_round_trip_preserves_fields(self):
        for n in (2, 3, 4, 5):
            c = cached_census(n)
            again = census_from_jsonl(census_to_jsonl(c))
            assert again.n == n
            assert again.entries == c.entries

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lines_match_oracle(self, n):
        # Each line joined from cached text is the json.dumps of the entry.
        for e in cached_census(n):
            assert _entry_json(e) == census_line(e)

    def test_support_off_initial_segment_round_trip(self):
        # A line may hold any odd support. Its text is cached by the support
        # itself, so after a line with support {1, 2, 3} one with support
        # {2, 3, 4} (and the key of its own aligned columns) is read and
        # written back byte for byte.
        e = next(e for e in cached_census(4) if len(e.support) == 3)
        assert census_to_jsonl(Census(4, [e])) == census_line(e)
        q = permute_coordinates(e.presentation, (2, 3, 4, 1))
        assert q.support == (2, 3, 4)
        moved = e._replace(
            gens=tuple((sv.flips, tc.halves) for sv, tc in q.gens),
            key=_key_bytes(4, 3, to_codes(*normalized_ranks(q))),
            support=q.support)
        text = census_line(moved)
        back = census_from_jsonl(text)
        assert back.entries == (moved,)
        assert back.entries[0].presentation == q
        assert census_to_jsonl(back) == text

    def test_mixed_dimensions_rejected(self):
        lines = (census_to_jsonl(cached_census(2)).rstrip("\n")
                 + "\n"
                 + census_to_jsonl(cached_census(3)))
        with pytest.raises(DimensionMismatch):
            census_from_jsonl(lines)


def _edited(n: int, index: int, edit) -> str:
    """The dim-n census JSONL with edit applied to the object of one line."""
    lines = census_to_jsonl(cached_census(n)).splitlines()
    obj = json.loads(lines[index])
    edit(obj)
    lines[index] = json.dumps(obj)
    return "\n".join(lines) + "\n"


def _rejected(text: str, line: int, field: str):
    with pytest.raises(ValueError, match=f"census line {line}: {field}"):
        census_from_jsonl(text)


def _didicosm_line() -> int:
    keys = [e.key for e in cached_census(3).entries]
    return keys.index(DIDICOSM_KEY)


class TestJsonlChecks:
    """census_from_jsonl rejects a line that its own presentation refutes."""

    def test_invalid_presentation_and_bad_out_order(self):
        # Changed halves give the group torsion, so the line is refused at
        # its generators, before its impossible out_order of 7.
        i = _didicosm_line()

        def edit(obj):
            obj["generators"][0]["halves"] = []
            obj["out_order"] = 7

        _rejected(_edited(3, i, edit), i + 1, "generators")

    def test_valid_halves_with_another_key(self):
        # The first two classes of dimension 3 share their flips; giving the
        # second the first one's halves leaves a valid group of another
        # class, whose reduced columns do not give the stored key.
        first, second = cached_census(3).entries[:2]
        assert [sv for sv, _ in first.presentation.gens] == \
            [sv for sv, _ in second.presentation.gens]

        def edit(obj):
            for g, (_, h) in zip(obj["generators"], first.gens):
                g["halves"] = [i + 1 for i in range(3) if h >> i & 1]

        _rejected(_edited(3, 1, edit), 2, "canonical_key is not the key")

    def test_coboundary_shift_is_the_same_entry(self):
        # Reduced columns ignore coboundaries, so shifted halves still give
        # the stored key; the entry loads as an isomorphic presentation.
        i = _didicosm_line()
        moved = apply_coboundary(cached_census(3).entries[i].presentation, 1)
        assert moved != cached_census(3).entries[i].presentation

        def edit(obj):
            for g, (_, tc) in zip(obj["generators"], moved.gens):
                g["halves"] = [i + 1 for i in range(3) if tc.halves >> i & 1]

        back = census_from_jsonl(_edited(3, i, edit))
        assert back.entry(DIDICOSM_KEY).presentation == moved

    @pytest.mark.parametrize("field, value", [
        ("support", [1, 2]),
        ("beta1", 1),
        ("orientable", False),
        ("betti", [1, 0, 1, 1]),
        ("h1_order", 4),
        ("out_order", 95),
        ("out_order", 8 * 2 * 5),
        ("out_order", 0),
        ("out_order", "96"),
    ])
    def test_wrong_derived_field(self, field, value):
        i = _didicosm_line()
        _rejected(_edited(3, i, lambda obj: obj.update({field: value})),
                  i + 1, field)

    @pytest.mark.parametrize("field, value", [
        ("beta1", True),
        ("h1_order", 4.0),
        ("orientable", 0),
        ("betti", [1.0, 1.0, 0.0, 0.0]),
        ("support", [1.0]),
    ])
    def test_derived_field_of_another_type(self, field, value):
        # Each value equals the field under == but is another JSON type, so
        # writing the census back would not give the bytes that were read.
        e = cached_census(3).entries[0]
        assert (e.support, e.beta1, e.betti, e.h1_order) == (
            (1,), 1, (1, 1, 0, 0), 4) and not e.orientable
        with pytest.raises(ValueError) as info:
            census_from_jsonl(
                _edited(3, 0, lambda obj: obj.update({field: value})))
        assert str(info.value) == (
            f"census line 1: {field} {value!r} differs from "
            f"{getattr(e, field)!r}, which the generators give")

    def test_out_order_multiple_accepted(self):
        # out_order is checked for its shape only: 2 * h1_order times a
        # divisor of k!(n-k)!, here 16 * 1 for the didicosm's 96 = 16 * 6.
        i = _didicosm_line()
        back = census_from_jsonl(
            _edited(3, i, lambda obj: obj.update(out_order=16)))
        assert back.entry(DIDICOSM_KEY).out_order == 16

    @pytest.mark.parametrize("edit, field", [
        (lambda obj: obj.update(dim=MAX_DIM + 1), "dim"),
        (lambda obj: obj.update(dim=1), "dim"),
        (lambda obj: obj["generators"][0].update(flips=[1, 1]), "generators"),
        (lambda obj: obj["generators"][0].update(flips=[5]), "generators"),
        (lambda obj: obj["generators"][0].update(halves=[0]), "generators"),
        (lambda obj: obj["generators"].pop(), "generators"),
        (lambda obj: obj.pop("betti"), "no field 'betti'"),
    ])
    def test_malformed_line(self, edit, field):
        _rejected(_edited(4, 2, edit), 3, field)

    def test_not_json(self):
        text = census_to_jsonl(cached_census(2)) + "{\n"
        _rejected(text, 2, "")

    @pytest.mark.parametrize("n, line, gens, reason", [
        (3, 2, [([2, 3], [1, 2]), ([1, 3], [])], "torsion at --+"),
        (4, 3, [([2], []), ([3], []), ([4], [])], "torsion at +-++"),
        (5, 8, [([1, 2], [1, 2]), ([2, 3], [2]), ([4], [5]), ([5], [4])],
         "torsion at --+++"),
        (4, 3, [([1, 2], [1]), ([2, 3], [2]), ([3, 4], [3])],
         "the all-flip sign vector lies in the span (even support)"),
        (4, 3, [([2], [1]), ([2], [3]), ([1, 3], [4])],
         "sign vector +-++ lies in the span of its predecessors"),
        (4, 3, [([5], [1]), ([2], [3]), ([1, 3], [4])],
         "coordinate 5 is outside 1..4"),
        (4, 3, [([2], [7]), ([3], [1]), ([1, 3], [4])],
         "coordinate 7 is outside 1..4"),
        (4, 3, [([2], [1]), ([3], [1])], "expected 3 generators, got 2"),
    ])
    def test_refused_generators_text(self, n, line, gens, reason):
        # The error text is the one a presentation of the line words.
        text = _edited(n, line - 1, lambda obj: obj.update(generators=[
            {"flips": f, "halves": h} for f, h in gens]))
        with pytest.raises(ValueError) as info:
            census_from_jsonl(text)
        assert str(info.value) == f"census line {line}: generators: {reason}"

    @pytest.mark.parametrize("flips, reason", [
        ([5, 2], "coordinates [5, 2] are not increasing"),
        ([2, 2], "coordinates [2, 2] are not increasing"),
        ([True, 1], "coordinates [True, 1] are not increasing"),
        ([1, 1.0], "coordinates [1, 1.0] are not increasing"),
        ([0, 5, 2], "coordinates [0, 5, 2] are not increasing"),
        (["1"], "coordinate '1' is outside 1..4"),
        ([1, 1.5], "coordinate 1.5 is outside 1..4"),
        ([3, 5, 6], "coordinate 5 is outside 1..4"),
        ([[1]], "coordinate [1] is outside 1..4"),
        ([1, "2"], "coordinates [1, '2'] are not increasing"),
        (None, "coordinates None are not a list"),
        ("12", "coordinates '12' are not a list"),
    ])
    def test_refused_coordinates_text(self, flips, reason):
        # Coordinates out of order are named before one outside 1..n,
        # wherever each stands; values that are no list, or do not compare,
        # get a one-line text too.
        text = _edited(4, 2, lambda obj: obj["generators"][0].update(
            flips=flips))
        with pytest.raises(ValueError) as info:
            census_from_jsonl(text)
        assert str(info.value) == f"census line 3: generators: {reason}"

    @pytest.mark.parametrize("field", ["flips", "halves"])
    @pytest.mark.parametrize("coordinate", [10 ** 8, 0, -3, True, 1.5])
    def test_coordinate_outside_range(self, field, coordinate):
        # A coordinate that is not an int in 1..n is refused before it is
        # shifted into a mask, in a short text.
        text = _edited(4, 2, lambda obj: obj["generators"][0].update(
            {field: [coordinate]}))
        with pytest.raises(ValueError) as info:
            census_from_jsonl(text)
        assert str(info.value) == ("census line 3: generators: coordinate "
                                   f"{coordinate!r} is outside 1..4")
        assert len(str(info.value)) < 100

    @pytest.mark.parametrize("edit, start", [
        (lambda obj: obj["generators"][0].update(
            flips=list(range(100_000, 0, -1))),
         "generators: coordinates [100000, 99999, "),
        (lambda obj: obj["generators"][0].update(flips="1" * 100_000),
         "generators: coordinates '1111"),
        (lambda obj: obj["generators"][0].update(flips=[[1] * 100_000]),
         "generators: coordinate [1, 1, "),
        (lambda obj: obj.update(betti=[0] * 100_000), "betti [0, 0, "),
        (lambda obj: obj.update(dim="3" * 100_000), "dim '3333"),
    ])
    def test_long_values_give_short_texts(self, edit, start):
        # A value read from the line is echoed cut short, however long.
        with pytest.raises(ValueError) as info:
            census_from_jsonl(_edited(4, 2, edit))
        assert str(info.value).startswith(f"census line 3: {start}")
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("odd_span", [True, False])
    def test_random_generators_text(self, n, odd_span):
        # Random tables, most with torsion and, without odd_span, some with
        # dependent flips or an even support: the read refuses exactly the
        # invalid ones, with the text their presentation gives, and reads
        # on past the generators of the valid ones.
        rng = random.Random(900 + n)
        for _ in range(100):
            gens = random_generators(rng, n, odd_span)
            line = json.dumps({"dim": n, "generators": [
                {"flips": [i + 1 for i in range(n) if f >> i & 1],
                 "halves": [i + 1 for i in range(n) if h >> i & 1]}
                for f, h in gens]})
            try:
                p = GhwPresentation(n, [
                    (SignVector(n, f), TranslationClass(n, h))
                    for f, h in gens])
                want = (f"generators: {p.report.reason}" if not p.valid
                        else "no field 'canonical_key'")
            except GhwError as exc:
                want = f"generators: {exc}"
            with pytest.raises(ValueError) as info:
                census_from_jsonl(line)
            assert str(info.value) == f"census line 1: {want}"

    def test_repeated_line(self):
        text = census_to_jsonl(cached_census(3))
        first = text.splitlines()[0]
        _rejected(text + first + "\n", 4, "canonical_key repeats")

    def test_deep_nesting(self):
        # json.loads runs out of stack on this line; the read still names it
        line = '{"dim": 3, "support": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(ValueError) as info:
            census_from_jsonl(line)
        assert str(info.value) == "census line 1: nested too deeply to read"


# Edits of one writer-form line (dim 4, line 3) that leave the writer's
# exact form, each read by the json path.
WRITER_LINE_EDITS = {
    "reordered": lambda line: json.dumps(
        dict(reversed(json.loads(line).items()))),
    "extra spaces": lambda line: line.replace(", ", ",  "),
    "beta1 true": lambda line: line.replace('"beta1": 1', '"beta1": true'),
    "h1_order float": lambda line: line.replace('"h1_order": 8',
                                                '"h1_order": 8.0'),
    "escaped name": lambda line: line.replace('"canonical_key"',
                                              '"\\u0063anonical_key"'),
    "same field twice": lambda line: line[:-1] + ', "out_order": 16}',
    "other value twice": lambda line: line[:-1] + ', "beta1": 0}',
    "out_order 1e3": lambda line: line.replace('"out_order": 16',
                                               '"out_order": 1e3'),
    "uppercase key": lambda line: line.replace("0401aa5a003c", "0401AA5A003C"),
    "leading zero": lambda line: line.replace('"flips": [2]', '"flips": [01]'),
    "mask above 2^n": lambda line: line.replace('"flips": [4]',
                                                '"flips": [5]'),
    "1 MB of separators": lambda line: line.replace(
        '], "canonical_key": "', '], "canonical_key": "' * 50_000, 1),
}


def _verdict(text: str):
    """What census_from_jsonl makes of text: its entries and their JSONL,
    or the type and text of its refusal."""
    try:
        census = census_from_jsonl(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return census.entries, census_to_jsonl(census)


class TestWriterForm:
    """A line in the writer's exact form is read without json.loads, and
    gives what the json path gives; every other line takes the json path."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_same_entries_as_the_json_path(self, n):
        for line in census_to_jsonl(cached_census(n)).splitlines():
            e = _entry_from_text(line)
            assert e is not None
            # repr tells 1 from True and 8 from 8.0, which == does not
            assert repr(e) == repr(_entry_from_json(json.loads(line)))

    @pytest.mark.parametrize("name", ["unchanged", *WRITER_LINE_EDITS])
    def test_edited_line_reads_as_on_the_json_path(self, name, monkeypatch):
        lines = census_to_jsonl(cached_census(4)).splitlines()
        assert lines[2].endswith('"canonical_key": "0401aa5a003c", '
                                 '"beta1": 1, "orientable": false, "betti": '
                                 '[1, 1, 0, 0, 0], "h1_order": 8, '
                                 '"out_order": 16}')
        if name != "unchanged":
            edited = WRITER_LINE_EDITS[name](lines[2])
            assert edited != lines[2]
            assert _entry_from_text(edited) is None
            lines[2] = edited
        text = "\n".join(lines) + "\n"
        got = _verdict(text)
        monkeypatch.setattr(census_mod, "_entry_from_text", lambda line: None)
        assert got == _verdict(text)


# sha256 of the census JSONL of each fast dim-7 cell, as written when each
# entry held a presentation built and validated from the leaf's columns.
DIM7_CELL_SHA256 = {
    3: "c0eafb127e00c90ff1fbbc9449f322038a28c7ead3fee3404d33276eeadc42ed",
    5: "6d731af37ba6fd699284f8fc94129fb3448173f35164458f0ca10fe85ead6ece",
    7: "24180181d41b46e3cc687c931fc16e6f071161aa4d9cc7e7cb40c54e8785f9b5",
}


@pytest.mark.parametrize("k", sorted(DIM7_CELL_SHA256))
def test_dimension_7_cell_round_trip(k):
    c = Census(7, [_entry_from_cols(7, k, cols, stab)
                   for cols, stab in census_leaves(7, k)])
    text = census_to_jsonl(c)
    assert hashlib.sha256(text.encode()).hexdigest() == DIM7_CELL_SHA256[k]
    back = census_from_jsonl(text)
    assert back.entries == c.entries
    assert census_to_jsonl(back) == text


class TestHyperplaneClasses:
    def test_counts(self):
        assert [len(hyperplane_classes(n)) for n in range(2, 7)] == [
            1, 2, 2, 3, 3]

    def test_members_are_odd_supports(self):
        for n in range(2, 7):
            for sup in hyperplane_classes(n):
                assert len(sup) % 2 == 1
                assert all(1 <= i <= n for i in sup)


class TestGuards:
    def test_long_mode_required(self):
        with pytest.raises(DimensionTooLarge):
            enumerate_census(6)

    def test_cap_enforced(self):
        with pytest.raises(DimensionTooLarge):
            enumerate_census(9, long_mode=True)

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhausted):
            enumerate_census(7, long_mode=True, budget=0.2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_progress_reports_each_support_size_in_order(n):
    messages = []
    census = enumerate_census(n, long_mode=n >= 6, progress=messages.append)
    sizes = list(range(1, n + 1, 2))
    assert len(messages) == len(sizes)
    counts = []
    for k, message in zip(sizes, messages):
        head, _, tail = message.partition(f"dim {n} support size {k}: ")
        assert head == "" and tail.endswith(" classes"), message
        counts.append(int(tail.removesuffix(" classes")))
    assert sum(counts) == len(census)


class TestCensuses:
    def test_below_long_mode_dim_is_cached(self):
        found = censuses(5)
        assert sorted(found) == [2, 3, 4, 5]
        assert all(c is cached_census(n) for n, c in found.items())

    @pytest.mark.parametrize("limits", [{"budget": -1.0}, {"budget": 0},
                                        {"budget": float("nan")}])
    def test_limits_checked_before_any_dimension(self, monkeypatch, limits):
        import ghw.enumerate as enum_mod

        def boom(n):
            raise AssertionError(f"dimension {n} was built")

        monkeypatch.setattr(enum_mod, "cached_census", boom)
        with pytest.raises(ValueError):
            censuses(3, **limits)

    def test_cap_checked_before_any_dimension(self, monkeypatch):
        import ghw.enumerate as enum_mod

        def boom(n, **kwargs):
            raise AssertionError(f"dimension {n} was built")

        monkeypatch.setattr(enum_mod, "cached_census", boom)
        monkeypatch.setattr(enum_mod, "enumerate_census", boom)
        with pytest.raises(DimensionTooLarge):
            censuses(MAX_DIM + 1, long_mode=True)

    def test_one_budget_for_every_dimension(self, monkeypatch):
        # The call's one deadline is set when it starts (tick 0) and read
        # before every dimension. Each read of the clock advances it by a
        # second, so dims 2-5 (ticks 1-4) start in time, and dim 6 (tick 5)
        # is refused before it is walked.
        import ghw.enumerate as enum_mod

        censuses(5)
        ticks = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))

        def boom(*args, **kwargs):
            raise AssertionError("dimension 6 was walked")

        monkeypatch.setattr(enum_mod._kernels, "census_leaves", boom)
        with pytest.raises(BudgetExhausted, match="no time left for dim 6"):
            censuses(6, long_mode=True, budget=4.5)
