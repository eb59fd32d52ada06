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
from ghw.core import GhwPresentation, apply_coboundary, permute_coordinates
from ghw.enumerate import cached_census, canonical_key

from oracles import brute_canonical, brute_stabilizer_order

CELLS = [(n, k) for n in range(2, 7) for k in range(1, n + 1, 2)]

# Torsion-free reduced column tuples in the dim-6 cells.
TUPLES = {(6, 1): 261_248, (6, 3): 10_470, (6, 5): 6_000}


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
        p = GhwPresentation.from_columns(n, tab.H, cols)
        assert stab == normalizer_stabilizer_order(p)
        if n <= 4:
            assert stab == brute_stabilizer_order(n, p.elements, p.s_by_mask)
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
    assert q.elements == tab.H
    return tab, reduced(tab, q.columns())


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


@pytest.mark.parametrize("n", range(2, 7))
def test_canonical_matches_brute_minimum(n):
    # The early-exit canonical against the plain minimum over every
    # relabeling, on census entries and on one scramble of each.
    rng = random.Random(5000 + n)
    entries = cached_census(n).entries
    if n == 6:
        entries = entries[::25]
    for e in entries:
        q = _full_scramble(rng, e.presentation)
        for p in (e.presentation, q):
            tab, ranks = normalized_ranks(p)
            assert _kernels.canonical(tab, ranks) == brute_canonical(
                tab, ranks), (e.key_hex, p)
        assert canonical_key(q) == e.key


def test_kernel_imports_no_package_module():
    tree = ast.parse(Path(_kernels.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.dump(node)
            assert not node.module.startswith("ghw"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("ghw") for a in node.names)
