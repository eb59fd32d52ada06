import hashlib
import itertools
import random
import re

import pytest

from ghw import core
from ghw.core import (
    DimensionMismatch,
    GhwError,
    GhwPresentation,
    SignVector,
    TranslationClass,
    apply_coboundary,
    format_group,
    orientable,
    parse_group,
    permute_coordinates,
    validate_ghw,
)
from ghw._kernels import generator_functionals
from ghw.enumerate import (
    cached_census,
    canonical_key,
    censuses,
    _key_functionals,
)
from ghw.constructions import (
    DiagonalPresentation,
    InvalidChoice,
    InvalidSpec,
    NotGammaFamily,
    NotOriented,
    NoWitness,
    ReductionNotGhw,
    RepresentationSpec,
    didicosm_witness,
    embed_up_exist,
    embed_up_mono,
    extend_representation,
    gamma_group,
    klein_group,
    list_reductions,
    realize_representation,
    reduce,
    semidirect_minus_id,
    _reductions,
    _unblocked,
)
from oracles import (
    brute_didicosm_witness,
    brute_list_reductions,
    brute_reduction_outcomes,
    cocycle_table,
    kernel_cut,
    scrambled_gens,
    table_functionals,
    verify_didicosm_pair,
)

DIDICOSM = "dim=3; gens=+--:HH0,-+-:0HH"
KLEIN_KEY = bytes.fromhex("02010200")
DIDICOSM_KEY = bytes.fromhex("03030a0606")
K3_KEY = bytes.fromhex("03010a0600")
NO_WITNESS = ("a singleton support gives no co-flip pair; this search "
              "covers only groups with b1 = 0")


def didicosm():
    return parse_group(DIDICOSM)


class TestFamilies:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_klein_valid(self, n):
        assert validate_ghw(klein_group(n)).verdict

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gamma_valid(self, n):
        assert validate_ghw(gamma_group(n)).verdict

    def test_gamma3_is_didicosm(self):
        assert gamma_group(3) == didicosm()

    def test_klein_keys(self):
        assert canonical_key(klein_group(2)) == KLEIN_KEY
        assert canonical_key(klein_group(3)) == K3_KEY


class TestReduce:
    def test_k3_drops_to_klein(self):
        q = reduce(klein_group(3), None, 3)
        assert canonical_key(q) == KLEIN_KEY

    def test_k3_coordinate_1_vanishes(self):
        with pytest.raises(InvalidChoice):
            reduce(klein_group(3), None, 1)

    def test_k3_coordinate_2_collapses(self):
        with pytest.raises(ReductionNotGhw):
            reduce(klein_group(3), None, 2)

    def test_didicosm_drops_to_klein(self):
        q = reduce(didicosm(), None, 1)
        assert canonical_key(q) == KLEIN_KEY

    def test_coordinate_is_required(self):
        with pytest.raises(ValueError):
            reduce(didicosm(), 2)

    def test_functional_subgroup(self):
        # parity functional 1 keeps the elements even on coordinate 1
        q = reduce(didicosm(), 1, 2)
        assert canonical_key(q) == KLEIN_KEY

    @pytest.mark.parametrize("functional", [-2, -1, 8, 9, 1025])
    def test_functional_must_fit_the_coordinates(self, functional):
        with pytest.raises(ValueError, match=re.escape(
                f"mask {functional:#x} does not fit in 3 coordinates")):
            reduce(didicosm(), functional, 2)

    def test_iterable_subgroup(self):
        p = didicosm()
        members = [m for m in cocycle_table(3, p.gens)
                   if bin(m & 0b001).count("1") % 2 == 0]
        q = reduce(p, members, 2)
        assert canonical_key(q) == KLEIN_KEY

    def test_iterable_must_be_subgroup(self):
        p = didicosm()
        with pytest.raises(InvalidChoice):
            reduce(p, [0b000, 0b011, 0b101], 1)

    def test_iterable_must_have_index_two(self):
        p = didicosm()
        with pytest.raises(InvalidChoice):
            reduce(p, [0b000], 1)

    def test_leak_rejected(self):
        # the surviving generator fixes coordinate 1 yet carries a half
        # step there, so deleting that coordinate would lose injectivity
        p = parse_group("dim=3; gens=+-+:HH0,++-:0H0")
        with pytest.raises(InvalidChoice):
            reduce(p, 0b100, 1)

    def test_dim2_refuses(self):
        with pytest.raises(ValueError):
            reduce(klein_group(2), None, 1)


class TestListReductions:
    def test_didicosm_choices(self):
        choices = list_reductions(didicosm())
        assert len(choices) == 6
        assert {c.key for c in choices} == {KLEIN_KEY}
        assert list(choices) == sorted(choices)

    def test_k4_reaches_k3(self):
        keys = {c.key for c in list_reductions(klein_group(4))}
        assert K3_KEY in keys

    def test_every_dim4_entry_reduces(self):
        for e in cached_census(4).entries:
            assert list_reductions(e.presentation)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_reduce_oracle(self, n):
        # every entry up to dim 5, every 25th of dim 6; above the census,
        # the two named families and a lift of every 150th dim-6 entry; one
        # key memo shared across the dimension, as build_graph shares it
        if n == 7:
            groups = [klein_group(7), gamma_group(7)] + [
                embed_up_exist(e.presentation)
                for e in cached_census(6).entries[::150]]
        else:
            groups = [e.presentation
                      for e in cached_census(n).entries[::25 if n == 6 else 1]]
        keys = {}
        for p in groups:
            want = brute_list_reductions(p)
            assert list_reductions(p) == want
            assert _reductions(p.n, p.support_mask, p.lams, keys) == want
        assert keys

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_blocked_is_invalid_choice(self, n):
        # list_reductions skips exactly the coordinates where reduce
        # raises InvalidChoice
        for e in cached_census(n).entries[::25 if n == 6 else 1]:
            p = e.presentation
            skipped = set()
            for f in range(1, 1 << n):
                if f < f ^ p.support_mask:
                    _, blocked = kernel_cut(p, f)
                    skipped |= {(f, c) for c in range(1, n + 1)
                                if blocked >> (c - 1) & 1}
            outcomes = brute_reduction_outcomes(p)
            assert skipped == {fc for fc, out in outcomes.items()
                               if out is InvalidChoice}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_collapse_is_not_ghw(self, n):
        # the unblocked pairs list_reductions skips because e_c lies in
        # ker f are exactly those where reduce raises ReductionNotGhw
        for e in cached_census(n).entries[::25 if n == 6 else 1]:
            p = e.presentation
            skipped = set()
            for f in range(1, 1 << n):
                if f < f ^ p.support_mask:
                    members, blocked = kernel_cut(p, f)
                    skipped |= {(f, c) for c in range(1, n + 1)
                                if not blocked >> (c - 1) & 1
                                and 1 << (c - 1) in members}
            outcomes = brute_reduction_outcomes(p)
            assert skipped == {fc for fc, out in outcomes.items()
                               if out is ReductionNotGhw}

    @pytest.mark.parametrize("n,every_f", [(3, 1), (4, 2), (5, 8), (6, 3)])
    def test_tried_pairs_are_the_successes(self, n, every_f):
        # the pairs read off the half-step functionals are exactly those
        # where reduce succeeds, and those the table's own functionals give,
        # on each entry and on its shift by the full coboundary (which
        # swaps a column 0 on H with e_c); every_f counts the entries'
        # coordinates whose column is 0 or e_c on H (found by a scan),
        # where every functional is tried
        reached = 0
        for e in cached_census(n).entries[::25 if n == 6 else 1]:
            for p in (e.presentation,
                      apply_coboundary(e.presentation, (1 << n) - 1)):
                s, sigma = cocycle_table(n, p.gens), p.support_mask
                tried = {(f, c + 1)
                         for c, fs in _unblocked(n, sigma, p.lams) for f in fs}
                assert tried == {(f, c + 1) for c, fs in _unblocked(
                    n, sigma, table_functionals(n, sigma, s)) for f in fs}
                outcomes = brute_reduction_outcomes(p)
                assert tried == {fc for fc, out in outcomes.items()
                                 if isinstance(out, bytes)}
                reached += sum(
                    all(not s[m] >> c & 1 for m in s)
                    or all(not (s[m] ^ m) >> c & 1 for m in s)
                    for c in range(n))
        assert reached == 2 * every_f

    def test_functionals_read_off_the_key(self):
        # build_graph reduces each entry from the functionals its key
        # spells; they may differ from the generators' own by sigma, which
        # leaves every reduction unchanged, also one column at a time
        keys = {}
        differ = 0
        for n, census in censuses(6, long_mode=True).items():
            if n < 3:
                continue
            for i, e in enumerate(census.entries):
                sigma, lams = _key_functionals(e.key)
                assert (sigma, len(lams)) == ((1 << len(e.support)) - 1, n)
                want = _reductions(n, *generator_functionals(n, e.gens), keys)
                assert _reductions(n, sigma, lams, keys) == want
                assert list_reductions(e.presentation) == want
                differ += lams != list(e.presentation.lams)
                if i % 10:
                    continue
                for c in range(n):
                    moved = list(lams)
                    moved[c] ^= sigma
                    assert _reductions(n, sigma, moved, keys) == want
        assert differ

    def test_dim2_refuses(self):
        with pytest.raises(ValueError):
            list_reductions(klein_group(2))

    def test_iterated_reduction_reaches_klein(self):
        for e in cached_census(4).entries:
            p = e.presentation
            while p.n > 2:
                c = list_reductions(p)[0]
                p = reduce(p, c.functional, c.coordinate)
            assert canonical_key(p) == KLEIN_KEY


class TestEmbedExist:
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_round_trip_census(self, n):
        for e in cached_census(n).entries:
            p = e.presentation
            q = embed_up_exist(p)
            assert q.n == n + 1
            assert validate_ghw(q).verdict
            assert q.support == p.support
            back = reduce(q, None, n + 1)
            assert cocycle_table(n, back.gens) == cocycle_table(n, p.gens)

    def test_images_land_in_census(self):
        keys = {e.key for e in cached_census(5).entries}
        for e in cached_census(4).entries:
            assert canonical_key(embed_up_exist(e.presentation)) in keys


class TestEmbedMono:
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_images_and_escape(self, n):
        emb = embed_up_mono(gamma_group(n))
        target = emb.target
        assert target == gamma_group(n + 1)
        table = cocycle_table(n + 1, target.gens)
        for s, t in emb.images:
            assert table[s.flips] == t.halves
            assert not t.halves >> n & 1
        # conjugating by the unit step along the new coordinate walks
        # the first image out of the embedded copy: two unit steps,
        # doubled representation
        assert emb.escaped.trans2[n] == 4
        assert not emb.normal

    def test_requires_gamma_presentation(self):
        with pytest.raises(NotGammaFamily):
            embed_up_mono(klein_group(3))

    def test_requires_literal_generators(self):
        scrambled = permute_coordinates(gamma_group(3), (2, 3, 1))
        with pytest.raises(NotGammaFamily):
            embed_up_mono(scrambled)


class TestSemidirect:
    def test_didicosm_lifts(self):
        q = semidirect_minus_id(didicosm())
        assert q.n == 4
        assert validate_ghw(q).verdict
        assert q.support == (4,)
        from ghw.core import first_betti
        assert first_betti(q) == 1

    def test_round_trip(self):
        p = didicosm()
        q = semidirect_minus_id(p)
        back = reduce(q, None, 4)
        assert cocycle_table(3, back.gens) == cocycle_table(3, p.gens)

    def test_rejects_nonorientable(self):
        with pytest.raises(NotOriented):
            semidirect_minus_id(klein_group(2))

    def test_dim5_orientable_entries_lift(self):
        for e in cached_census(5).entries:
            if not e.orientable:
                continue
            q = semidirect_minus_id(e.presentation)
            assert q.n == 6
            assert validate_ghw(q).verdict
            from ghw.core import first_betti
            assert first_betti(q) == 1
            back = reduce(q, None, 6)
            assert cocycle_table(5, back.gens) == cocycle_table(
                5, e.presentation.gens)


class TestDidicosmWitness:
    def test_identity_witness(self):
        p = didicosm()
        w = didicosm_witness(p)
        assert (w.first, w.second) == p.gens
        assert w.lattice_rank == 3

    def test_frozen_schreier_rows(self):
        w = didicosm_witness(didicosm())
        assert w.schreier_rows == (
            (2, 0, 0), (-2, 2, 2), (0, 2, 0), (0, -2, -2), (0, -2, 0))

    def test_single_support_has_none(self):
        with pytest.raises(NoWitness, match=re.escape(NO_WITNESS)):
            didicosm_witness(klein_group(4))

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_every_beta1_zero_entry_has_witness(self, n):
        # The closed-form pair is the one the verified scan returns, on
        # each entry and on two scrambles of it (a coordinate relabeling
        # plus a coboundary).
        rng = random.Random(n)
        for e in cached_census(n).entries:
            if e.beta1 != 0:
                continue
            w = didicosm_witness(e.presentation)
            assert w.lattice_rank == 3
            assert len(w.schreier_rows) >= 3
            assert w == brute_didicosm_witness(e.presentation), e.key.hex()
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                q = GhwPresentation(n, [
                    (SignVector(n, f), TranslationClass(n, h))
                    for f, h in scrambled_gens(n, e.gens, perm,
                                               rng.randrange(1 << n))])
                assert didicosm_witness(q) == brute_didicosm_witness(q)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_verifier_accepts_exactly_the_bit_test(self, n):
        # A pair of distinct nonzero holonomy elements generates a
        # didicosm subgroup iff no coordinate fixed by both carries a
        # half step of either.
        full = (1 << n) - 1
        for e in cached_census(n).entries:
            p = e.presentation
            s = {m: p.s(m).halves for m in p.elements}
            for a, b in itertools.combinations(p.elements[1:], 2):
                closed = (s[a] | s[b]) & ~(a | b) & full == 0
                assert (verify_didicosm_pair(p, a, b) is not None) == closed


class TestSignVectorsOfAnotherDimension:
    """A SignVector must have the dimension of the group it is read in, as
    in SignVector composition; an int mask is read as it stands."""

    def test_cocycle_value(self):
        with pytest.raises(DimensionMismatch):
            didicosm().s(SignVector(8, 0b110))
        assert didicosm().s(SignVector(3, 0b110)) == didicosm().s(0b110)

    def test_representation_spec(self):
        with pytest.raises(DimensionMismatch):
            RepresentationSpec(3, [SignVector(8, 0b110)])
        assert RepresentationSpec(3, [0b110]).flip_masks == (0b110,)

    def test_reduce_subgroup(self):
        with pytest.raises(DimensionMismatch):
            reduce(didicosm(), [SignVector(8, 0), SignVector(8, 0b110)], 2)
        assert format_group(reduce(didicosm(), [0, 0b110], 2)) == (
            "dim=2; gens=+-:H0")


class TestRepresentationSpec:
    def test_accepts_sign_vectors(self):
        spec = RepresentationSpec(3, tuple(s for s, _ in didicosm().gens))
        assert spec.flip_masks == (0b110, 0b101)

    def test_rejects_dependent_masks(self):
        with pytest.raises(InvalidSpec):
            RepresentationSpec(3, (0b110, 0b101, 0b011))

    def test_rejects_full_flip_in_span(self):
        with pytest.raises(InvalidSpec):
            RepresentationSpec(2, (0b11,))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidSpec):
            RepresentationSpec(2, (0b100,))

    def test_accepts_exactly_the_admissible_triples(self):
        # Admissible: three masks of full rank whose span misses the total
        # flip, both decided by elimination over F_2.
        n, full = 4, 0b1111
        for masks in itertools.product(range(1, 16), repeat=3):
            rows = {}

            def residue(m):
                for pivot, row in rows.items():
                    if m & pivot:
                        m ^= row
                return m

            for m in masks:
                m = residue(m)
                if m:
                    rows[m & -m] = m
            ok = len(rows) == 3 and residue(full) != 0
            try:
                RepresentationSpec(n, masks)
            except InvalidSpec:
                assert not ok, masks
            else:
                assert ok, masks


class TestExtend:
    def test_extends_by_one(self):
        spec = RepresentationSpec(3, (0b110,))
        bigger = extend_representation(spec)
        assert len(bigger.flip_masks) == 2
        assert bigger.flip_masks[:1] == spec.flip_masks

    def test_full_rank_rejected(self):
        spec = RepresentationSpec(3, (0b110, 0b101))
        with pytest.raises(InvalidSpec):
            extend_representation(spec)


class TestRealize:
    def test_didicosm_masks(self):
        spec = RepresentationSpec(3, (0b110, 0b101))
        p = realize_representation(spec)
        assert isinstance(p, GhwPresentation)
        assert canonical_key(p) == DIDICOSM_KEY

    def test_klein_masks(self):
        spec = RepresentationSpec(2, (0b01,))
        p = realize_representation(spec)
        assert canonical_key(p) == KLEIN_KEY

    def test_low_rank_gives_torsion_free_diagonal_group(self):
        spec = RepresentationSpec(4, (0b0110, 0b0011))
        p = realize_representation(spec)
        assert isinstance(p, DiagonalPresentation)
        assert p.n == 4
        assert {s.flips for s, _ in p.gens} == {0b0110, 0b0011}
        from ghw.core import find_torsion_element
        assert find_torsion_element(p) is None

    def test_hits_every_hyperplane_class(self):
        from ghw.enumerate import hyperplane_classes
        for n in range(2, 6):
            c = cached_census(n)
            for support in hyperplane_classes(n):
                entry = next(e for e in c.entries if e.support == support)
                masks = tuple(s.flips for s, _ in entry.presentation.gens)
                p = realize_representation(RepresentationSpec(n, masks))
                assert validate_ghw(p).verdict
                assert p.support == support


# sha256 of the rows of _construction_rows, one per line: 3,879 rows.
CONSTRUCTION_ROWS_SHA256 = (
    "0f05268bf855c15d7469d433780895e9257046243d3ef018fcd771821e55aec7")


def _construction_rows():
    """The literal of every construction on the families of dims 2-8 and on
    the census entries of dims 2-5 and every 25th of dim 6, relabelings
    and coboundaries drawn from one seeded stream."""
    for n in range(2, 9):
        yield format_group(klein_group(n))
        yield format_group(gamma_group(n))
    rng = random.Random(7)
    for n in range(2, 7):
        for i, entry in enumerate(cached_census(n).entries):
            if n == 6 and i % 25:
                continue
            p = entry.presentation
            yield format_group(p)
            for c in p.support:
                yield format_group(embed_up_exist(p, c))
            if orientable(p):
                yield format_group(semidirect_minus_id(p))
            if n >= 3:
                for choice in list_reductions(p):
                    yield format_group(
                        reduce(p, choice.functional, choice.coordinate))
                for c in range(1, n + 1):
                    try:
                        yield format_group(reduce(p, None, c))
                    except GhwError as exc:
                        yield f"{type(exc).__name__}: {exc}"
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            yield format_group(permute_coordinates(p, perm))
            yield format_group(apply_coboundary(p, rng.randrange(1 << n)))
    for n in range(3, 9):
        images = embed_up_mono(gamma_group(n)).images
        yield ",".join(map(core._generator_text, images))


def test_construction_literals_are_pinned():
    rows = list(_construction_rows())
    assert len(rows) == 3879
    text = "".join(row + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCTION_ROWS_SHA256
