"""Shipping gate: one test per release criterion.

Run with -v to get one pass/fail line per criterion. Criterion 2 may
skip with a report when its half-hour budget runs out on a slow
machine; everything else either passes exactly or fails hard.
"""

import random
import time

import pytest

from ghw import _kernels
from ghw.automorphisms import out_order
from ghw.cohomology import h1_closed_form, h1_order, smith_normal_form
from ghw.constructions import (
    didicosm_witness,
    embed_up_exist,
    gamma_group,
    klein_group,
    reduce,
)
from ghw.core import (
    GhwPresentation,
    SignVector,
    TranslationClass,
    format_group,
    is_torsion_free,
)
from ghw.enumerate import (
    BudgetExhausted,
    cached_census,
    canonical_key,
    enumerate_census,
    hyperplane_classes,
)
from ghw.graph import build_graph
from ghw.homology import betti_vector, is_rational_homology_sphere

from oracles import (
    brute_census_counts,
    brute_h1_order,
    check_snf,
    cocycle_columns,
    cocycle_table,
    scrambled_gens,
    table_is_torsion_free,
)

FROZEN = {
    2: (1, 0, 1, 0),
    3: (3, 1, 2, 1),
    4: (12, 2, 10, 0),
    5: (123, 23, 100, 2),
}


def test_criterion_1_census_counts_dims_2_to_5():
    start = time.perf_counter()
    censuses = {n: enumerate_census(n) for n in range(2, 6)}
    elapsed = time.perf_counter() - start
    for n, (total, zero, one, ori) in FROZEN.items():
        c = censuses[n]
        assert len(c.entries) == total, f"dim {n} total"
        assert c.beta1_zero == zero, f"dim {n} beta1=0 split"
        assert c.beta1_one == one, f"dim {n} beta1=1 split"
        assert c.orientable_count == ori, f"dim {n} orientable"
    assert elapsed < 60.0, f"census dims 2-5 took {elapsed:.1f} s"


def test_criterion_2_dim6_census_within_budget():
    try:
        c = enumerate_census(6, long_mode=True, budget=1800.0)
    except BudgetExhausted as exc:
        pytest.skip(f"dim-6 enumeration hit the 1800 s budget: {exc}")
    assert len(c.entries) == 2536
    assert c.beta1_zero == 352
    assert c.beta1_one == 2184
    assert c.orientable_count == 0


def test_criterion_3_holonomy_representation_counts():
    assert [len(hyperplane_classes(n)) for n in range(2, 7)] == [
        1, 2, 2, 3, 3]
    for n in range(2, 6):
        found = {e.support for e in cached_census(n).entries}
        assert found == set(hyperplane_classes(n))


def test_criterion_4_out_orders_and_bounds():
    from math import factorial

    for n in range(2, 7):
        assert out_order(klein_group(n)).out_order == 1 << n, f"K_{n}"
    for n in range(2, 6):
        for e in cached_census(n).entries:
            r = out_order(e.presentation)
            if e.beta1 == 0:
                bound = (1 << (n + 1)) * factorial(n)
            else:
                bound = (1 << n) * factorial(n - 1)
            assert r.out_order <= bound, e.key_hex
            assert r.bound == bound, e.key_hex


def test_criterion_5_h1_snf_equals_closed_form():
    # |H^1| = 2^(n - b1) from h1_order, checked against the Smith-reduction
    # oracle on every entry of dims 2-6, on one random scramble of every
    # entry of dims 2-5 and of every 10th of dim 6, on embed_up_exist lifts
    # of 20 dim-6 entries into dim 7, and on the dim-7 Klein and gamma groups
    rng = random.Random(20260815)
    groups = []
    for n in range(2, 7):
        for i, e in enumerate(cached_census(n).entries):
            assert e.h1_order == 1 << (n - e.beta1), e.key_hex
            groups.append(e.presentation)
            if n < 6 or i % 10 == 0:
                groups.append(_scramble(rng, n, e.gens))
    dim6 = cached_census(6).entries
    groups += [embed_up_exist(e.presentation)
               for e in dim6[::len(dim6) // 20][:20]]
    groups += [klein_group(7), gamma_group(7)]
    for p in groups:
        want = brute_h1_order(p.n, tuple(sv.flips for sv, _ in p.gens))
        assert h1_order(p) == want, format_group(p)
        assert h1_closed_form(p) == want, format_group(p)
    assert sum(p.n == 7 for p in groups) == 22


def test_criterion_6_betti_vectors():
    for n in range(2, 7):
        assert betti_vector(klein_group(n)) == (1, 1) + (0,) * (n - 1)
    for n in range(3, 8, 2):
        assert betti_vector(gamma_group(n)) == (1,) + (0,) * (n - 1) + (1,)
    for n in range(4, 8, 2):
        assert betti_vector(gamma_group(n)) == (
            (1,) + (0,) * (n - 2) + (1, 0))
    for n in (3, 5):
        for e in cached_census(n).entries:
            if e.orientable:
                assert is_rational_homology_sphere(e.presentation), e.key_hex


def test_criterion_7_graph_claims():
    g = build_graph(5)
    klein = g.by_name("K")
    dim3 = {v.key for v in g.vertices if v.dim == 3}
    assert dim3 <= set(g.neighbors(klein))
    assert g.is_connected()
    g4 = build_graph(4)
    assert len(g4.edges) >= len(g4.vertices), "dim-4 slice should have cycles"
    hw5 = canonical_key(gamma_group(5))
    k5 = canonical_key(klein_group(5))
    assert g.distance(hw5, k5) == 2
    for v in g.vertices:
        if v.dim > 2:
            assert g.degree_down(v) >= 1, v.name
    for n in (3, 4, 5):
        for e in cached_census(n).entries:
            if e.beta1 == 0:
                w = didicosm_witness(e.presentation)
                assert w.lattice_rank == 3, e.key_hex


def _scramble(rng, n, gens):
    """One presentation of (flips, halves) masks relabeled by a shuffled
    coordinate order, then shifted by a random coboundary."""
    perm = list(range(n))
    rng.shuffle(perm)
    return GhwPresentation(n, [
        (SignVector(n, f), TranslationClass(n, h))
        for f, h in scrambled_gens(n, gens, perm, rng.randrange(1 << n))])


def test_criterion_8_property_suites():
    rng = random.Random(20260814)

    # canonical keys survive 1000 random scrambles per entry; the dim-5
    # bulk rides the batch canonicalizer on support-preserving
    # scrambles, topped up with full rescrambles through canonical_key
    for n in (2, 3, 4):
        for e in cached_census(n).entries:
            for _ in range(1000):
                assert canonical_key(_scramble(rng, n, e.gens)) == e.key
    for e in cached_census(5).entries:
        n, k = 5, len(e.support)
        tab = _kernels.build_tables(n, k)
        rows = []
        for _ in range(900):
            head = list(range(k))
            tail = list(range(k, n))
            rng.shuffle(head)
            rng.shuffle(tail)
            table = cocycle_table(n, scrambled_gens(
                n, e.gens, head + tail, rng.randrange(1 << n)))
            assert tuple(sorted(table)) == tab.H
            rows.append(cocycle_columns(n, table))
        rows.append(cocycle_columns(n, cocycle_table(n, e.gens)))
        canon = _kernels.canonicalize_batch(n, k, rows)
        assert all(c == canon[-1] for c in canon), e.key_hex
        for _ in range(100):
            assert canonical_key(_scramble(rng, n, e.gens)) == e.key

    # census equality against the independent brute-force enumerator
    for n in (2, 3, 4):
        counts = brute_census_counts(n)
        census = cached_census(n)
        for size in range(1, n + 1, 2):
            got = sum(1 for e in census.entries if len(e.support) == size)
            assert counts.get(size, 0) == got, (n, size)

    # torsion-freeness agrees with the bounded order oracle
    for n in (2, 3, 4):
        for e in cached_census(n).entries:
            p = e.presentation
            assert is_torsion_free(p)
            assert table_is_torsion_free(n, cocycle_table(n, p.gens))

    # embedding then deleting the new coordinate is the identity
    for n in (2, 3, 4):
        for e in cached_census(n).entries:
            q = embed_up_exist(e.presentation)
            back = reduce(q, None, n + 1)
            assert cocycle_table(n, back.gens) == cocycle_table(
                n, e.presentation.gens)

    # unimodularity, divisibility chain, exact product on random input
    for _ in range(1000):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(cols)]
             for _ in range(rows)]
        r = smith_normal_form(m)
        check_snf(m, r.diagonal, r.left, r.right)
