"""A presentation stores only its support and half-step functionals; its
cocycle values, its elements and its refusals are read from them. Each is
checked here against the table that tests/oracles.py builds by doubling the
span of the generators."""

import random

import pytest

from ghw import _kernels
from ghw.constructions import gamma_group, klein_group
from ghw.core import (
    DependentGenerators,
    GhwPresentation,
    SignVector,
    TranslationClass,
    parse_group,
    validate_ghw,
)
from ghw.enumerate import cached_census

from oracles import cocycle_table, lift_has_finite_order, random_generators


def _span_refusal(n: int, gens) -> str | None:
    """The DependentGenerators text for the first generator inside the span
    of its predecessors, or None when the flips are independent."""
    span = {0}
    for f, _ in gens:
        if f in span:
            signs = "".join("-" if f >> i & 1 else "+" for i in range(n))
            return f"sign vector {signs} lies in the span of its predecessors"
        span |= {f ^ x for x in span}
    return None


def _check_against_table(n: int, gens) -> GhwPresentation | None:
    """Build the presentation of (flips, halves) mask pairs and compare
    every value it reads with the oracle table; None when it refuses."""
    want = _span_refusal(n, gens)
    pairs = [(SignVector(n, f), TranslationClass(n, h)) for f, h in gens]
    if want is not None:
        with pytest.raises(DependentGenerators) as info:
            GhwPresentation(n, pairs)
        assert str(info.value) == want
        return None
    p = GhwPresentation(n, pairs)
    table = cocycle_table(n, gens)
    for m, v in table.items():
        assert p.s(m) == TranslationClass(n, v)
        assert p.s(SignVector(n, m)).halves == v
    assert p.elements == tuple(sorted(table))
    outside = [min(set(range(1 << n)) - table.keys()), 1 << n,
               (1 << n) | max(table), -1]
    for m in outside:
        with pytest.raises(KeyError) as info:
            p.s(m)
        assert info.value.args == (f"mask {m:#x} is not in the sign span",)
    return p


@pytest.mark.parametrize("n", range(2, 7))
def test_census_values_match_the_table(n):
    for e in cached_census(n).entries:
        p = _check_against_table(n, e.gens)
        assert p == e.presentation
        assert p.valid


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("odd_span", [True, False])
def test_random_values_and_refusals_match_the_table(n, odd_span):
    rng = random.Random(900 + 10 * n + odd_span)
    refused = built = 0
    for _ in range(40):
        gens = random_generators(rng, n, odd_span)
        p = _check_against_table(n, gens)
        if p is None:
            refused += 1
            continue
        built += 1
        r = validate_ghw(p)
        assert r.faithful
        if n <= 4:
            # The reported offender is the least element with a
            # finite-order lift, by the bounded order search.
            table = cocycle_table(n, gens)
            torsion = [m for m in sorted(table)
                       if m and lift_has_finite_order(n, m, table[m])]
            first = torsion[0] if torsion else None
            assert getattr(r.torsion_offender, "flips", None) == first
            if r.minus_id_free and first is not None:
                assert r.reason == (
                    f"torsion at {SignVector(n, first).to_string()}")
    assert built
    assert refused or odd_span


@pytest.mark.parametrize("literal,signs", [
    ("dim=3; gens=+++:000,-+-:0HH", "+++"),
    ("dim=3; gens=+--:HH0,+--:0HH", "+--"),
    ("dim=4; gens=--++:H000,+--+:0H00,-+-+:00H0", "-+-+"),
])
def test_dependent_generators_text(literal, signs):
    # a zero first flip, a repeated flip, and g3 = g1 ^ g2
    with pytest.raises(DependentGenerators) as info:
        parse_group(literal)
    assert str(info.value) == (
        f"sign vector {signs} lies in the span of its predecessors")


def test_validation_builds_no_permutation_tables():
    # build_tables holds all k!(n-k)! support-preserving permutations and
    # refuses n > 9; validation walks the span instead.
    before = _kernels.build_tables.cache_info().misses
    for p in (gamma_group(9), klein_group(10), klein_group(12)):
        r = validate_ghw(p)
        assert r.verdict and r.faithful and r.reason is None
    assert _kernels.build_tables.cache_info().misses == before
