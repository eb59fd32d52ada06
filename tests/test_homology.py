import pytest

from ghw.core import parse_group
from ghw.enumerate import cached_census
from ghw.homology import (
    betti_vector,
    exterior_invariant_dim,
    is_rational_homology_sphere,
)
from ghw.constructions import embed_up_exist, gamma_group, klein_group

from oracles import brute_betti_vector


def test_didicosm_betti():
    p = parse_group("dim=3; gens=+--:HH0,-+-:0HH")
    assert betti_vector(p) == (1, 0, 0, 1)
    assert is_rational_homology_sphere(p)


@pytest.mark.parametrize("n", range(2, 7))
def test_klein_family_betti(n):
    want = (1, 1) + (0,) * (n - 1)
    assert betti_vector(klein_group(n)) == want
    assert not is_rational_homology_sphere(klein_group(n))


@pytest.mark.parametrize("n", range(3, 8, 2))
def test_gamma_family_betti_odd(n):
    want = (1,) + (0,) * (n - 1) + (1,)
    assert betti_vector(gamma_group(n)) == want
    assert is_rational_homology_sphere(gamma_group(n))


@pytest.mark.parametrize("n", range(4, 8, 2))
def test_gamma_family_betti_even(n):
    # the top class dies for even dimension: not orientable
    want = (1,) + (0,) * (n - 2) + (1, 0)
    assert betti_vector(gamma_group(n)) == want
    assert not is_rational_homology_sphere(gamma_group(n))


def test_exterior_invariants_didicosm():
    p = parse_group("dim=3; gens=+--:HH0,-+-:0HH")
    assert [exterior_invariant_dim(p, j) for j in range(4)] == [1, 0, 0, 1]


def test_trivial_degree_always_one():
    for e in cached_census(4).entries:
        assert exterior_invariant_dim(e.presentation, 0) == 1


def test_betti_starts_and_sums():
    # b0 is 1, b1 equals the abelianization rank, total length is n + 1
    for n in (2, 3, 4):
        for e in cached_census(n).entries:
            b = betti_vector(e.presentation)
            assert len(b) == n + 1
            assert b[0] == 1
            assert b[1] == e.beta1
            assert b == e.betti


def test_census_entries_match_sphere_predicate():
    for n in (3, 4, 5):
        for e in cached_census(n).entries:
            want = e.beta1 == 0 and e.orientable
            got = is_rational_homology_sphere(e.presentation)
            # orientable with no middle homology: only odd dims qualify
            assert got == (want and sum(e.betti) == 2)


def test_orientable_entries_dims_3_5_are_spheres():
    for n in (3, 5):
        for e in cached_census(n).entries:
            if e.orientable:
                assert is_rational_homology_sphere(e.presentation)


@pytest.mark.parametrize("n", range(2, 9))
def test_betti_matches_character_average(n):
    # The closed form (1 in degrees 0 and k) against the character average
    # summed term by term: every census entry of dims 2-6, and in dims 7-8
    # lifts of one dim-6 entry per support size and both families.
    if n <= 6:
        groups = [e.presentation for e in cached_census(n).entries]
    else:
        groups = [klein_group(n), gamma_group(n)]
        for k in (1, 3, 5):
            q = next(e.presentation for e in cached_census(6).entries
                     if len(e.support) == k)
            for _ in range(n - 6):
                q = embed_up_exist(q)
            groups.append(q)
    for p in groups:
        want = brute_betti_vector(p.n, p.support_mask)
        assert betti_vector(p) == want
        assert tuple(exterior_invariant_dim(p, j)
                     for j in range(n + 1)) == want


@pytest.mark.parametrize("n", range(2, 10))
def test_character_average_closed_form(n):
    # Sum_H Prod_i (1 + d_i x) = 2^(n-1) (1 + x^k) for every support of
    # odd size k, not only initial segments, one dimension past the cap.
    for sigma in range(1, 1 << n):
        k = sigma.bit_count()
        if k % 2:
            want = tuple(int(j in (0, k)) for j in range(n + 1))
            assert brute_betti_vector(n, sigma) == want, sigma


def test_exterior_degree_out_of_range():
    p = parse_group("dim=3; gens=+--:HH0,-+-:0HH")
    for j in (-1, 4):
        with pytest.raises(ValueError):
            exterior_invariant_dim(p, j)
