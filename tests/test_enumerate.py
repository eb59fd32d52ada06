import json
import random

import pytest

from ghw.core import MAX_DIM, parse_group, permute_coordinates, apply_coboundary
from ghw.enumerate import (
    BudgetExhausted,
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
)
from ghw.constructions import gamma_group, klein_group

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
            for g, (_, tc) in zip(obj["generators"], first.presentation.gens):
                g["halves"] = list(tc.half_coordinates())

        _rejected(_edited(3, 1, edit), 2, "canonical_key is not the key")

    def test_coboundary_shift_is_the_same_entry(self):
        # Reduced columns ignore coboundaries, so shifted halves still give
        # the stored key; the entry loads as an isomorphic presentation.
        i = _didicosm_line()
        moved = apply_coboundary(cached_census(3).entries[i].presentation, 1)
        assert moved != cached_census(3).entries[i].presentation

        def edit(obj):
            for g, (_, tc) in zip(obj["generators"], moved.gens):
                g["halves"] = list(tc.half_coordinates())

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

    def test_repeated_line(self):
        text = census_to_jsonl(cached_census(3))
        first = text.splitlines()[0]
        _rejected(text + first + "\n", 4, "canonical_key repeats")


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


def test_workers_deterministic():
    solo = enumerate_census(5, workers=1)
    multi = enumerate_census(5, workers=2)
    assert [e.key for e in solo.entries] == [e.key for e in multi.entries]
    assert solo.entries == multi.entries


class TestCensuses:
    def test_below_long_mode_dim_is_cached(self):
        found = censuses(5)
        assert sorted(found) == [2, 3, 4, 5]
        assert all(c is cached_census(n) for n, c in found.items())

    @pytest.mark.parametrize("limits", [{"workers": 0}, {"budget": 0}])
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

    def test_workers_checked_by_enumerate_census(self):
        with pytest.raises(ValueError):
            enumerate_census(3, workers=0)
