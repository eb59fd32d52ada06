import random

import pytest

from ghw.core import parse_group, permute_coordinates, apply_coboundary
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
        c = cached_census(4)
        text = census_to_jsonl(c)
        again = census_from_jsonl(text)
        assert census_to_jsonl(again) == text

    def test_round_trip_preserves_fields(self):
        c = cached_census(3)
        again = census_from_jsonl(census_to_jsonl(c))
        assert again.n == 3
        for a, b in zip(c.entries, again.entries):
            assert a == b

    def test_mixed_dimensions_rejected(self):
        lines = (census_to_jsonl(cached_census(2)).rstrip("\n")
                 + "\n"
                 + census_to_jsonl(cached_census(3)))
        with pytest.raises(DimensionMismatch):
            census_from_jsonl(lines)


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

    def test_workers_checked_by_enumerate_census(self):
        with pytest.raises(ValueError):
            enumerate_census(3, workers=0)
