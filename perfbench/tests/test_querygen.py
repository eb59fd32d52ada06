import collections
import random

import pytest

import groups
import querygen
from stats import percentile


SEEDS = (11, 12, 13, 14)


@pytest.fixture(scope="module")
def streams():
    return {seed: querygen.generate(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def stream(streams):
    return streams[11]


def _groups_in(q):
    argv = q["argv"]
    return [argv[i + 1] for i, a in enumerate(argv)
            if a in ("--group", "--other") and argv[i + 1] is not None]


def test_same_seed_same_stream(stream):
    assert querygen.generate(11) == stream


def test_other_seed_other_literals_same_composition(streams, stream):
    other = streams[12]
    assert other != stream

    def shape(s):
        # The order of a non-isomorphic pair is random; its cost is not.
        return collections.Counter(
            (q["argv"][0], q.get("n"), frozenset((q.get("k"), q.get("other_k"))),
             "repeat_of" in q)
            for q in s if q["kind"] != "invalid")

    assert shape(other) == shape(stream)


def test_length_and_stated_shares(stream):
    blocks = querygen.BLOCKS
    assert len(stream) == blocks * querygen.BLOCK_SIZE
    # One stream leaves at least ten of its own latencies beyond p99.
    assert percentile(range(len(stream)), 99).beyond >= 10
    assert len({q["id"] for q in stream}) == len(stream)
    repeats = sum("repeat_of" in q for q in stream)
    invalid = sum(q["kind"] == "invalid" and "repeat_of" not in q
                  for q in stream)
    assert repeats == blocks * 15
    assert invalid == blocks * 3


def test_a_block_stands_alone(stream):
    first = {q["id"] for q in stream[:querygen.BLOCK_SIZE]}
    for q in stream[:querygen.BLOCK_SIZE]:
        assert all(q[ref] in first for ref in querygen.REFS if ref in q)


def test_literals_are_valid_by_own_torsion_check(streams):
    seen = 0
    queries = sum(len(stream) for stream in streams.values())
    for stream in streams.values():
        for q in stream:
            if q["kind"] == "invalid":
                continue
            for text in _groups_in(q):
                n, gens = groups.parse_literal(text)
                assert groups.literal(n, gens) == text
                assert groups.is_valid(n, gens), (q, text)
                seen += 1
    assert seen > queries


def _well_formed(text):
    """(n, gens) when text is exactly what literal() writes, else None."""
    try:
        n, gens = groups.parse_literal(text)
    except (ValueError, IndexError):
        return None
    return (n, gens) if groups.literal(n, gens) == text else None


def test_invalid_literals_are_refused_by_own_model(streams):
    hows = collections.Counter()
    for stream in streams.values():
        for q in stream:
            if q["kind"] != "invalid":
                continue
            hows[q["how"]] += 1
            parsed = _well_formed(_groups_in(q)[0])
            if q["how"] in ("truncated", "bad_char"):
                # Malformed text; a cut at a comma drops whole generators.
                assert parsed is None or not groups.is_valid(*parsed), q
            else:
                assert parsed is not None, q
                assert not groups.is_valid(*parsed), q
    assert set(hows) == {"truncated", "bad_char", "short_gens", "torsion",
                         "even_support"}


def test_dimension_rules(stream):
    for q in stream:
        n = q.get("n")
        if n is None:
            continue
        assert 4 <= n <= 8 or q["kind"] == "reduce_back" and n == 7
        if q["kind"] in ("isomorphic", "out", "embed", "realize"):
            assert n <= 7 if q["kind"] != "embed" else n <= 6
        if q["kind"] == "semidirect":
            assert q["k"] == n and n + 1 < 8


def test_references_point_backward(stream):
    earlier = {}
    for q in stream:
        for ref in querygen.REFS:
            if ref in q:
                assert q[ref] in earlier
        if "repeat_of" in q:
            assert q["argv"] == earlier[q["repeat_of"]]["argv"]
        if q["kind"] == "reduce_back" and "repeat_of" not in q:
            assert earlier[q["source"]]["kind"] == "embed"
            assert earlier[q["key_from"]]["kind"] == "isomorphic"
        earlier[q["id"]] = q


@pytest.mark.parametrize("n,k", [(n, k) for n in range(4, 8)
                                 for k in range(1, n + 1, 2)])
def test_random_group_and_scramble(n, k):
    rng = random.Random(n * 10 + k)
    gens = groups.random_group(n, k, rng)
    assert groups.is_valid(n, gens)
    assert groups.support_mask(n, gens).bit_count() == k
    mixed = groups.scramble(n, gens, rng)
    assert groups.is_valid(n, mixed)
    assert groups.support_mask(n, mixed).bit_count() == k
    sigma = groups.support_mask(n, gens)
    at = next(i + 1 for i in range(n) if sigma >> i & 1)
    up = groups.embed_up(n, gens, at)
    assert groups.is_valid(n + 1, up)


def test_torsion_check_on_known_groups():
    didicosm = "dim=3; gens=+--:HH0,-+-:0HH"
    n, gens = groups.parse_literal(didicosm)
    assert groups.literal(n, gens) == didicosm
    assert groups.is_valid(n, gens)
    # Dropping the translations makes every element an involution.
    flat = [(f, 0) for f, _ in gens]
    assert groups.torsion_element(n, flat) is not None
    assert not groups.is_valid(n, flat)
