import ast
import os
import random
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

import ghw
from ghw import _kernels
from ghw._kernels import (
    build_tables,
    canonicalize_batch,
    census_leaves,
    normalized_ranks,
    reduced,
)
from ghw.automorphisms import normalizer_stabilizer_order
from ghw.constructions import embed_up_exist, gamma_group, klein_group
from ghw.core import (
    GhwPresentation,
    SignVector,
    TranslationClass,
    apply_coboundary,
    is_torsion_free,
    permute_coordinates,
)
from ghw.enumerate import cached_census, canonical_key

from oracles import (
    brute_annihilators,
    brute_canonical,
    brute_first_position,
    brute_least,
    brute_perms,
    brute_stabilizer_order,
    brute_table_stabilizer,
    cocycle_columns,
    cocycle_table,
    depth_perms,
    presentation_from_columns,
    random_generators,
    table_functionals,
)

CELLS = [(n, k) for n in range(2, 7) for k in range(1, n + 1, 2)]

# Torsion-free reduced column tuples in the dim-6 cells.
TUPLES = {(6, 1): 261_248, (6, 3): 10_470, (6, 5): 6_000}

# Classes and torsion-free reduced tuples (the orbit sum) of the three
# fast dim-7 cells. The tuple counts come from a memoized count-only walk;
# the brute count-only walk below reproduces those of (7,5) and (7,7) in
# about 20 s a cell.
DIM7 = {(7, 3): (6_702, 951_336), (7, 5): (1_720, 412_800),
        (7, 7): (62, 296_400)}


def count_torsion_free_tuples(n, k):
    """Leaves of the census walk with the torsion filter alone, counted."""
    tab = build_tables(n, k)

    def walk(depth, sat):
        if depth == n:
            return 1
        total = 0
        for r in tab.cands[depth]:
            s2 = sat | (tab.codes[r] & tab.colfix[depth])
            if not tab.needcheck[depth] & ~s2:
                total += walk(depth + 1, s2)
        return total

    return walk(0, 0)


@pytest.mark.parametrize("n,k", CELLS)
def test_orbit_stabilizer_checksum(n, k):
    # The support-preserving permutations P act on the torsion-free reduced
    # tuples of support {1..k}; a class is an orbit of size |P| / |Stab|.
    order = factorial(k) * factorial(n - k)
    tab = build_tables(n, k)
    orbits = 0
    for cols, stab in census_leaves(n, k):
        p = presentation_from_columns(n, tab.H, cols)
        assert stab == normalizer_stabilizer_order(p)
        if n <= 4:
            table = cocycle_table(n, p.gens)
            assert stab == brute_stabilizer_order(n, sorted(table), table)
        assert order % stab == 0
        orbits += order // stab
    tuples = count_torsion_free_tuples(n, k)
    assert orbits == tuples
    assert TUPLES.get((n, k), tuples) == tuples


@pytest.mark.parametrize("n,k", [(n, k) for n, k in CELLS if n <= 5])
def test_canonicalize_fixes_leaves(n, k):
    leaves = [cols for cols, _ in census_leaves(n, k)]
    assert canonicalize_batch(n, k, leaves) == leaves


def test_leaves_sorted_unique():
    rows = [cols for cols, _ in census_leaves(4, 1)]
    assert rows == sorted(set(rows))


def test_dimension_guard():
    with pytest.raises(ValueError):
        census_leaves(1, 1)
    with pytest.raises(ValueError):
        census_leaves(4, 2)
    with pytest.raises(ValueError):
        canonicalize_batch(1, 1, [])
    with pytest.raises(ValueError):
        build_tables(10, 1)


def test_import_loads_no_numpy():
    code = ("import sys, ghw; "
            "print(sorted({'numpy', 'numba'} & set(sys.modules)))")
    env = dict(os.environ)
    src = str(Path(ghw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _permuted_route(p):
    """normalized_ranks the long way: build the relabeled presentation and
    read its columns."""
    q = permute_coordinates(p, p.report.normalizing_permutation)
    tab = build_tables(p.n, p.support_mask.bit_count())
    table = cocycle_table(p.n, q.gens)
    assert tuple(sorted(table)) == tab.H
    return tab, reduced(tab, cocycle_columns(p.n, table))


def _full_scramble(rng, p):
    perm = list(range(1, p.n + 1))
    rng.shuffle(perm)
    return apply_coboundary(permute_coordinates(p, tuple(perm)),
                            rng.randrange(1 << p.n))


@pytest.mark.parametrize("n", range(2, 7))
def test_normalized_ranks_matches_permuted_presentation(n):
    rng = random.Random(4000 + n)
    entries = cached_census(n).entries
    if n == 6:
        entries = entries[::25]
    for e in entries:
        for p in (e.presentation, _full_scramble(rng, e.presentation)):
            tab, ranks = normalized_ranks(p)
            want_tab, want = _permuted_route(p)
            assert tab is want_tab
            assert ranks == want, (e.key_hex, p)


def _key_inputs(n):
    """(group, census key or None) pairs the key tests run on: census
    entries of dims 2-6 (every 25th of dim 6); in dim 7, embed_up_exist
    lifts of 7 dim-6 entries of each support size, in dim 8 lifts of every
    third of those (a lift keeps the support size), and the Klein and
    gamma groups of dims 7-8."""
    if n <= 6:
        entries = cached_census(n).entries
        return [(e.presentation, e.key)
                for e in entries[::25 if n == 6 else 1]]
    groups = []
    for k in (1, 3, 5):
        cell = [e.presentation for e in cached_census(6).entries
                if len(e.support) == k]
        groups += [embed_up_exist(p) for p in cell[::len(cell) // 7][:7]]
    if n == 8:
        groups = [embed_up_exist(p) for p in groups[::3]]
    return [(p, None) for p in groups + [klein_group(n), gamma_group(n)]]


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_matches_brute_minimum(n):
    # least's key and stabilizer against the plain minimum over every
    # relabeling and the count of relabelings that fix the tuple, on each
    # input and on one scramble of it.
    rng = random.Random(5000 + n)
    for p, key in _key_inputs(n):
        q = _full_scramble(rng, p)
        for g in (p, q):
            tab, ranks = normalized_ranks(g)
            assert _kernels.canonical(tab, ranks) == brute_canonical(
                tab, ranks), g
            assert _kernels.stabilizer_order(
                tab, ranks) == brute_table_stabilizer(tab, ranks), g
            assert _kernels.least(tab, n - 1, ranks) == brute_least(
                tab, tab.perms, ranks), g
        assert canonical_key(q) == (canonical_key(p) if key is None else key)


@pytest.mark.parametrize("n", range(2, 9))
def test_least_cuts_exactly_below_ref(n):
    # At each depth d, least over the permutations mapping {0..d} onto
    # itself returns None exactly when the brute minimum of the prefix is
    # below ref; otherwise it returns that minimum and the number of
    # permutations that reach it. ref is the prefix itself (the census
    # walk's test), the canonical prefix and a random rank tuple.
    rng = random.Random(6000 + n)
    for p, _ in _key_inputs(n)[::3]:
        tab, ranks = normalized_ranks(p)
        canon = _kernels.canonical(tab, ranks)
        for d in range(n):
            prefix = ranks[:d + 1]
            want, hits = brute_least(tab, depth_perms(tab, d), prefix)
            refs = (prefix, canon[:d + 1],
                    tuple(rng.choice(tab.cands[j]) for j in range(d + 1)))
            for ref in refs:
                got = _kernels.least(tab, d, prefix, ref)
                if want < ref:
                    assert got is None, (p, d, ref)
                else:
                    assert got == (want, hits), (p, d, ref)
            assert _kernels.least(tab, d, prefix) == (want, hits)


@pytest.mark.parametrize("n,k", sorted(DIM7))
def test_dimension_7_cells_pinned(n, k):
    classes, tuples = DIM7[n, k]
    leaves = census_leaves(n, k)
    assert len(leaves) == classes
    order = factorial(k) * factorial(n - k)
    assert sum(order // stab for _, stab in leaves) == tuples


@pytest.mark.parametrize("n", range(2, 9))
def test_stab_lists_match_filtered_perms(n):
    # The stabilizer lists of each depth d, the perms that map {0..d} onto
    # itself, as first_position holds them: row i holds, over its ranks,
    # exactly the perms that the plain filter keeps at that depth and that
    # move old coordinate i to position 0.
    for k in range(1, n + 1, 2):
        tab = build_tables(n, k)
        for d in range(n):
            kept = depth_perms(tab, d)
            rows = _kernels.first_position(n, k, d)
            assert len(rows) == min(d, k - 1) + 1
            for i, row in enumerate(rows):
                want = tuple(p for p in kept if p[0][0] == i)
                # Every perm fixes rank 0, the least value, so the cell of
                # rank 0 holds them all, in the order of perms.
                assert row[0] == (0, want), (k, d, i)
                assert {p for _, perms in row for p in perms} == set(want)


@pytest.mark.parametrize("n", range(2, 9))
def test_perms_match_brute_list(n):
    # The coset-built permutation list holds every support-preserving
    # permutation once, whatever its order.
    for k in range(1, n + 1, 2):
        perms = build_tables(n, k).perms
        want = brute_perms(n, k)
        assert len(perms) == len(want)
        assert set(perms) == set(want)


@pytest.mark.parametrize("n", range(2, 8))
def test_first_position_matches_brute(n):
    # Every cell of every depth's table against the minimum and the
    # minimizers recomputed over the perms of depth d with inv[0] = i.
    for k in range(1, n + 1, 2):
        tab = build_tables(n, k)
        for d in range(n):
            rows = _kernels.first_position(n, k, d)
            assert {p[0][0] for p in depth_perms(tab, d)} == set(
                range(len(rows)))
            for i, row in enumerate(rows):
                assert len(row) == tab.T
                for r, (low, perms) in enumerate(row):
                    want, hits = brute_first_position(tab, d, i, r)
                    assert low == want, (k, d, i, r)
                    assert len(perms) == len(hits)
                    assert set(perms) == hits, (k, d, i, r)


def _assert_functionals_match_table(p, sigma, lams):
    """The one elimination's support and functionals against a scan for
    the annihilator of the flips and the table reading of the cocycle: each
    functional is the table's modulo sigma, both rank alike, and the
    presentation holds the same pair."""
    n = p.n
    assert brute_annihilators(n, [sv.flips for sv, _ in p.gens]) == [sigma]
    want = table_functionals(n, sigma, cocycle_table(n, p.gens))
    assert all(lam ^ w in (0, sigma) for lam, w in zip(lams, want)), p
    assert (p.support_mask, p.lams) == (sigma, lams)
    assert normalized_ranks(p) == _kernels.functional_ranks(n, sigma, want)


@pytest.mark.parametrize("n", range(2, 7))
def test_lean_ranks_match_presentation_on_census(n):
    # Census entries reduce and read through generator_functionals and the
    # rank torsion test; both against the table reading.
    for e in cached_census(n).entries:
        p = e.presentation
        _assert_functionals_match_table(
            p, *_kernels.generator_functionals(n, e.gens))
        assert _kernels.torsion_free(*normalized_ranks(p))
        assert is_torsion_free(p)


@pytest.mark.parametrize("n", range(3, 8))
def test_torsion_free_matches_core_on_random_tables(n):
    rng = random.Random(700 + n)
    outcomes = set()
    for _ in range(300):
        gens = random_generators(rng, n)
        p = GhwPresentation(n, [(SignVector(n, f), TranslationClass(n, h))
                                for f, h in gens])
        _assert_functionals_match_table(
            p, *_kernels.generator_functionals(n, gens))
        free = is_torsion_free(p)
        assert _kernels.torsion_free(*normalized_ranks(p)) == free
        outcomes.add(free)
    assert False in outcomes


def test_generator_functionals_refuse_dependent_flips():
    # The index of the first generator inside its predecessors' span.
    assert _kernels.generator_functionals(3, [(0b011, 1), (0b011, 2)]) == 1
    assert _kernels.generator_functionals(
        4, [(0b0011, 0), (0b0110, 0), (0b0101, 0)]) == 2
    assert _kernels.generator_functionals(3, [(0, 1), (0b011, 2)]) == 0


def test_kernel_imports_no_package_module():
    tree = ast.parse(Path(_kernels.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.dump(node)
            assert not node.module.startswith("ghw"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("ghw") for a in node.names)
