from math import factorial

import pytest

from ghw.automorphisms import normalizer_stabilizer_order, out_order
from ghw.core import parse_group
from ghw.enumerate import cached_census
from ghw.constructions import klein_group

from oracles import brute_stabilizer_order, cocycle_table


@pytest.mark.parametrize("n", range(2, 7))
def test_klein_family_out_order(n):
    assert out_order(klein_group(n)).out_order == 1 << n


def test_didicosm_report():
    p = parse_group("dim=3; gens=+--:HH0,-+-:0HH")
    r = out_order(p)
    assert r.h1_order == 8
    assert r.perm_stabilizer_order == 6
    assert r.n_alpha_quotient_order == 12
    assert r.out_order == 96
    assert r.bound == 96


def test_out_order_is_multiplicative_in_parts():
    # The census takes its stabilizer from the walk; out_order counts it
    # again. Every entry up to dim 5, every 25th of dim 6.
    for n in (2, 3, 4, 5, 6):
        for e in cached_census(n).entries[::25 if n == 6 else 1]:
            r = out_order(e.presentation)
            assert r.out_order == r.h1_order * r.n_alpha_quotient_order
            assert r.n_alpha_quotient_order % r.perm_stabilizer_order == 0
            assert e.out_order == r.out_order


@pytest.mark.parametrize("n", (2, 3, 4))
def test_bounds_hold_across_census(n):
    for e in cached_census(n).entries:
        r = out_order(e.presentation)
        if e.beta1 == 0:
            bound = (1 << (n + 1)) * factorial(n)
        else:
            bound = (1 << n) * factorial(n - 1)
        assert r.bound == bound
        assert r.out_order <= bound
        assert bound % r.out_order == 0


@pytest.mark.parametrize("n", (2, 3, 4))
def test_stabilizer_matches_brute_force(n):
    for e in cached_census(n).entries:
        p = e.presentation
        table = cocycle_table(n, p.gens)
        elements = sorted(table)
        assert normalizer_stabilizer_order(p) == brute_stabilizer_order(
            n, elements, table)


def test_stabilizer_divides_symmetric_group_order():
    for n in (2, 3, 4, 5):
        for e in cached_census(n).entries:
            assert factorial(n) % normalizer_stabilizer_order(
                e.presentation) == 0
