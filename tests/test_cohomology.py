import random

import pytest

from ghw.cohomology import (
    h1_closed_form,
    h1_order,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from ghw.core import (
    InvalidPresentation,
    apply_coboundary,
    parse_group,
    permute_coordinates,
)
from ghw.enumerate import cached_census
from ghw.constructions import klein_group

from oracles import brute_h1_order, check_snf, det_bareiss


class TestSmithNormalForm:
    def test_worked_example(self):
        r = smith_normal_form([[2, 4], [6, 8]])
        assert r.diagonal == (2, 4)
        assert r.rank == 2
        check_snf([[2, 4], [6, 8]], r.diagonal, r.left, r.right)

    def test_rank_deficient(self):
        # diagonal lists only the nonzero invariant factors
        m = [[1, 2], [2, 4]]
        r = smith_normal_form(m)
        assert r.diagonal == (1,)
        assert r.rank == 1
        check_snf(m, r.diagonal, r.left, r.right)

    def test_zero_matrix(self):
        r = smith_normal_form([[0, 0], [0, 0]])
        assert r.diagonal == ()
        assert r.rank == 0

    def test_rectangular(self):
        m = [[2, 0, 4], [0, 6, 0]]
        r = smith_normal_form(m)
        assert r.rank == 2
        check_snf(m, r.diagonal, r.left, r.right)

    def test_random_postconditions(self):
        rng = random.Random(11)
        for _ in range(300):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            m = [[rng.randrange(-9, 10) for _ in range(cols)]
                 for _ in range(rows)]
            r = smith_normal_form(m)
            check_snf(m, r.diagonal, r.left, r.right)

    def test_determinant_preserved_up_to_sign(self):
        rng = random.Random(13)
        for _ in range(100):
            m = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(3)]
            r = smith_normal_form(m)
            prod = 1
            for d in r.diagonal:
                prod *= d
            if r.rank < 3:
                prod = 0
            assert prod == abs(det_bareiss(m))


class TestSolveInteger:
    def test_solvable(self):
        assert solve_integer([[2, 0], [0, 3]], [[4], [9]]) == [[2], [3]]

    def test_unsolvable_divisibility(self):
        assert solve_integer([[2]], [[3]]) is None

    def test_unsolvable_inconsistent(self):
        assert solve_integer([[1], [1]], [[1], [2]]) is None

    def test_solution_verifies(self):
        rng = random.Random(5)
        for _ in range(100):
            a = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
            x = [[rng.randrange(-3, 4)] for _ in range(3)]
            b = [[sum(a[i][k] * x[k][0] for k in range(3))] for i in range(3)]
            got = solve_integer(a, b)
            assert got is not None
            back = [[sum(a[i][k] * got[k][0] for k in range(3))]
                    for i in range(3)]
            assert back == b


class TestKernelBasis:
    def test_hyperplane(self):
        basis = kernel_basis([[1, 1, 1]])
        assert len(basis) == 2
        for v in basis:
            assert sum(v) == 0

    def test_trivial_kernel(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []

    def test_members_annihilated(self):
        m = [[2, -1, 3], [0, 4, 4]]
        for v in kernel_basis(m):
            for row in m:
                assert sum(r * x for r, x in zip(row, v)) == 0


class TestH1:
    def test_didicosm(self):
        p = parse_group("dim=3; gens=+--:HH0,-+-:0HH")
        assert h1_order(p) == 8

    def test_klein(self):
        assert h1_order(klein_group(2)) == 2

    def test_k3(self):
        assert h1_order(klein_group(3)) == 4

    def test_invalid_rejected(self):
        p = parse_group("dim=2; gens=-+:H0")
        with pytest.raises(InvalidPresentation):
            h1_order(p)
        with pytest.raises(InvalidPresentation):
            h1_closed_form(p)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_snf_matches_closed_form(self, n):
        # the closed form against the Smith-reduction oracle, on every
        # census entry and on one random scramble of it
        rng = random.Random(n)
        for e in cached_census(n).entries:
            p = e.presentation
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            q = apply_coboundary(permute_coordinates(p, tuple(perm)),
                                 rng.randrange(1 << n))
            for x in (p, q):
                want = brute_h1_order(n, tuple(sv.flips for sv, _ in x.gens))
                assert h1_order(x) == want, e.key_hex
                assert h1_closed_form(x) == want, e.key_hex
            assert e.h1_order == h1_order(p)
