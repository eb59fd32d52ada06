import itertools
import pickle
import random

import pytest

import ghw.core as core
from ghw.core import (
    MAX_DIM,
    DependentGenerators,
    DimensionMismatch,
    GhwPresentation,
    InvalidPresentation,
    ParseError,
    SignVector,
    TranslationClass,
    apply_coboundary,
    expand_cocycle,
    find_distinguished_elements,
    find_torsion_element,
    first_betti,
    format_group,
    has_nontrivial_center,
    is_torsion_free,
    orientable,
    parse_group,
    permute_coordinates,
    validate_ghw,
    _support_alignment,
)
from ghw._kernels import generator_functionals
from ghw.enumerate import cached_census

from oracles import (
    brute_annihilators,
    cocycle_table,
    lift_has_finite_order,
    scrambled_gens,
    table_is_torsion_free,
)

DIDICOSM = "dim=3; gens=+--:HH0,-+-:0HH"
KLEIN = "dim=2; gens=-+:0H"


def didicosm():
    return parse_group(DIDICOSM)


class TestSignVector:
    def test_string_round_trip(self):
        v = SignVector.from_string("+--")
        assert v.n == 3 and v.flips == 0b110
        assert v.to_string() == "+--"

    def test_compose_is_xor(self):
        a = SignVector(3, 0b110)
        b = SignVector(3, 0b101)
        assert (a * b).flips == 0b011

    def test_identity(self):
        assert SignVector.from_string("+++").flips == 0

    def test_rejects_bad_char(self):
        with pytest.raises(ValueError):
            SignVector.from_string("+0-")

    def test_parity(self):
        assert SignVector(3, 0b110).parity == 0
        assert SignVector(3, 0b100).parity == 1


class TestTranslationClass:
    def test_string_round_trip(self):
        t = TranslationClass.from_string("HH0")
        assert t.halves == 0b011
        assert t.to_string() == "HH0"

    def test_compose_is_xor(self):
        a = TranslationClass(3, 0b011)
        b = TranslationClass(3, 0b110)
        assert (a + b).halves == 0b101


class TestCoordinateMasks:
    """What SignVector and TranslationClass share: text, repr, equality,
    the dimension check of the group law, slots and pickling."""

    @pytest.mark.parametrize("cls, letters", [
        (SignVector, "+-"), (TranslationClass, "0H")])
    def test_text_of_every_mask(self, cls, letters):
        for n in range(1, MAX_DIM + 1):
            for m in range(1 << n):
                text = "".join(letters[m >> i & 1] for i in range(n))
                v = cls(n, m)
                assert v.to_string() == text
                assert cls.from_string(text) == v
                assert hash(cls.from_string(text)) == hash(v)

    @pytest.mark.parametrize("cls, text, message", [
        (SignVector, "+0-", "bad sign character '0'"),
        (SignVector, "+-1", "bad sign character '1'"),
        (SignVector, "-H", "bad sign character 'H'"),
        (TranslationClass, "0+H", "bad translation character '+'"),
        (TranslationClass, "0H1", "bad translation character '1'"),
        (TranslationClass, "h", "bad translation character 'h'"),
        (SignVector, "", "dimension 0 out of range 1..64"),
        (TranslationClass, "", "dimension 0 out of range 1..64"),
    ])
    def test_refused_text(self, cls, text, message):
        with pytest.raises(ValueError) as info:
            cls.from_string(text)
        assert str(info.value) == message

    def test_reprs(self):
        assert repr(SignVector(3, 0b110)) == "SignVector(3, '+--')"
        assert repr(TranslationClass(3, 0b011)) == "TranslationClass(3, 'HH0')"

    def test_the_two_types_differ(self):
        assert SignVector(3, 1) != TranslationClass(3, 1)
        assert TranslationClass(3, 1) != SignVector(3, 1)
        assert SignVector(3, 1) != SignVector(4, 1)
        # At least one of the two texts names the type it cannot take.
        with pytest.raises((AttributeError, TypeError)):
            SignVector(3, 1) * TranslationClass(3, 1)
        with pytest.raises((AttributeError, TypeError)):
            TranslationClass(3, 1) + SignVector(3, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch) as info:
            SignVector(3, 1) * SignVector(4, 1)
        assert str(info.value) == "3 != 4"
        with pytest.raises(DimensionMismatch) as info:
            TranslationClass(3, 1) + TranslationClass(4, 1)
        assert str(info.value) == "3 != 4"

    def test_slots_and_pickle(self):
        for v in (SignVector(3, 0b110), TranslationClass(3, 0b011)):
            assert not hasattr(v, "__dict__")
            back = pickle.loads(pickle.dumps(v))
            assert back == v and type(back) is type(v)
            assert repr(back) == repr(v)


class TestExpandCocycle:
    def test_didicosm_product_value(self):
        # product of the two generators: flips {1,2}, halves {1,3}
        table = expand_cocycle(didicosm().gens)
        assert table[0b011] == 0b101

    def test_nontrivial_identity_value(self):
        table = expand_cocycle(didicosm().gens)
        assert table[0] == 0

    def test_dependent_generators_rejected(self):
        gens = (
            (SignVector(3, 0b110), TranslationClass(3, 0b011)),
            (SignVector(3, 0b110), TranslationClass(3, 0b101)),
        )
        with pytest.raises(DependentGenerators):
            expand_cocycle(gens)

    def test_size_is_power_of_two(self):
        assert len(expand_cocycle(didicosm().gens)) == 4


class TestParseFormat:
    def test_round_trip(self):
        p = didicosm()
        assert parse_group(format_group(p)) == p

    def test_klein_literal(self):
        p = parse_group(KLEIN)
        assert p.n == 2
        assert p.gens[0][0].flips == 0b01
        assert p.gens[0][1].halves == 0b10

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_group("dim=3; gens=+-X:HH0")
        assert info.value.line == 1
        assert info.value.column > 1

    def test_error_on_wrong_length(self):
        with pytest.raises(ParseError):
            parse_group("dim=3; gens=+-:HH0,-+-:0HH")

    @pytest.mark.parametrize("text, message", [
        ("dim=3; gens=x", "expected a sign string over +- (line 1, column 13)"),
        ("dim=3; gens=+-:HH0,-+-:0HH",
         "sign string has length 2, expected 3 (line 1, column 13)"),
        ("dim=3; gens=+--:X",
         "expected a translation string over 0H (line 1, column 17)"),
        ("dim=3; gens=+--:HH,-+-:0HH",
         "translation string has length 2, expected 3 (line 1, column 17)"),
    ])
    def test_generator_error_texts(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_group(text)
        assert str(info.value) == message

    def test_multiline_position(self):
        with pytest.raises(ParseError) as info:
            parse_group("dim=3;\ngens=+--:HH0,\n-+-:0HX")
        assert info.value.line == 3

    @pytest.mark.parametrize("n", [MAX_DIM + 1, 64])
    def test_dimension_cap_before_expansion(self, monkeypatch, n):
        def boom(*args):
            raise AssertionError("the generators were eliminated")

        monkeypatch.setattr(core, "generator_functionals", boom)
        gen = "-" + "+" * (n - 1) + ":" + "0" * n
        with pytest.raises(ParseError, match=f"cap {MAX_DIM}") as info:
            parse_group(f"\n  dim = {n}; gens=" + ",".join([gen] * (n - 1)))
        assert (info.value.line, info.value.column) == (2, 9)

    @pytest.mark.parametrize("dim, text", [
        ("\u00b2", "expected an integer (line 1, column 5)"),
        ("\u0663", "expected an integer (line 1, column 5)"),
        ("3\u0663", "expected ';' (line 1, column 6)"),
        ("9" * 5000, "integer has more than 18 digits (line 1, column 5)"),
        ("1" * 19, "integer has more than 18 digits (line 1, column 5)"),
    ])
    def test_dimension_reads_ascii_digits_only(self, dim, text):
        with pytest.raises(ParseError) as info:
            parse_group(f"dim={dim}; gens=+--:HH0,-+-:0HH")
        assert str(info.value) == text

    def test_leading_zeros_are_not_significant(self):
        assert parse_group("dim=" + "0" * 30 + "3; gens=+--:HH0,-+-:0HH") == didicosm()
        with pytest.raises(ParseError, match=f"dimension 1{'0' * 17} exceeds"):
            parse_group("dim=001" + "0" * 17 + "; gens=")

    def test_cap_holds_without_generators(self):
        with pytest.raises(ParseError, match="cap"):
            parse_group(f"dim={MAX_DIM + 1}; gens=")

    def test_dimension_at_cap_parses(self):
        from ghw.constructions import klein_group

        p = klein_group(MAX_DIM)
        assert parse_group(format_group(p)) == p


class TestValidation:
    def test_didicosm_valid(self):
        rep = validate_ghw(didicosm())
        assert rep.verdict
        assert rep.torsion_free and rep.faithful and rep.minus_id_free

    def test_klein_valid(self):
        assert validate_ghw(parse_group(KLEIN)).verdict

    def test_torsion_detected(self):
        # one generator with no half step on its fixed coordinate
        bad = "dim=2; gens=-+:H0"
        rep = validate_ghw(parse_group(bad))
        assert not rep.verdict
        assert rep.torsion_offender is not None

    def test_torsion_agrees_with_order_oracle_dim3(self):
        # every translation assignment on the didicosm sign vectors,
        # valid or not, must agree with the independent bounded
        # order search
        signs = tuple(s for s, _ in didicosm().gens)
        for h1 in range(8):
            for h2 in range(8):
                gens = (
                    (signs[0], TranslationClass(3, h1)),
                    (signs[1], TranslationClass(3, h2)),
                )
                p = GhwPresentation(3, gens)
                assert is_torsion_free(p) == table_is_torsion_free(
                    3, cocycle_table(3, p.gens))

    def test_offender_matches_oracle(self):
        p = parse_group("dim=3; gens=-++:000,+-+:00H")
        g = find_torsion_element(p)
        assert g is not None
        assert lift_has_finite_order(
            3, g.flips, cocycle_table(3, p.gens)[g.flips])


class TestInvariants:
    def test_didicosm_betti_support(self):
        p = didicosm()
        assert first_betti(p) == 0
        assert orientable(p)
        assert p.support == (1, 2, 3)
        assert not has_nontrivial_center(p)

    def test_klein_betti_support(self):
        p = parse_group(KLEIN)
        assert first_betti(p) == 1
        assert not orientable(p)
        assert p.support == (2,)
        assert has_nontrivial_center(p)

    def test_didicosm_distinguished_elements(self):
        # the three nontrivial elements each fix exactly one coordinate
        fixers, single = find_distinguished_elements(didicosm())
        assert sorted(v.flips for v in fixers) == [0b011, 0b101, 0b110]
        assert single == ()

    def test_klein_distinguished_elements(self):
        # the lone generator both fixes and flips exactly one coordinate
        fixers, single = find_distinguished_elements(parse_group(KLEIN))
        assert [v.flips for v in fixers] == [0b01]
        assert [v.flips for v in single] == [0b01]


class TestTransforms:
    def test_permute_preserves_validity(self):
        p = didicosm()
        for perm in itertools.permutations((1, 2, 3)):
            q = permute_coordinates(p, perm)
            assert q.valid

    def test_coboundary_preserves_validity(self):
        p = didicosm()
        for shift in range(8):
            assert apply_coboundary(p, shift).valid

    def test_permute_then_inverse_is_identity(self):
        p = didicosm()
        q = permute_coordinates(p, (2, 3, 1))
        r = permute_coordinates(q, (3, 1, 2))
        assert r == p

    def test_coboundary_involution(self):
        p = didicosm()
        q = apply_coboundary(apply_coboundary(p, 0b101), 0b101)
        assert q == p

    def test_scramble_changes_table_not_class(self):
        rng = random.Random(7)
        p = didicosm()
        seen_different = False
        for _ in range(20):
            perm = list(range(1, 4))
            rng.shuffle(perm)
            q = apply_coboundary(
                permute_coordinates(p, tuple(perm)), rng.randrange(8))
            assert q.valid
            if cocycle_table(3, q.gens) != cocycle_table(3, p.gens):
                seen_different = True
        assert seen_different

    def test_scrambled_gens_oracle_matches_transforms(self):
        # the oracle that criterion 8 scrambles with stays tied to the
        # library transforms it replaces there
        rng = random.Random(11)
        for n in (3, 4, 5):
            for e in cached_census(n).entries[::4]:
                perm = list(range(n))
                rng.shuffle(perm)
                shift = rng.randrange(1 << n)
                q = apply_coboundary(permute_coordinates(
                    e.presentation, tuple(c + 1 for c in perm)), shift)
                assert scrambled_gens(n, e.gens, perm, shift) == [
                    (sv.flips, tc.halves) for sv, tc in q.gens]


def _random_basis(rng, n: int, functionals):
    """A random basis of the masks killed by functionals."""
    basis, span = [], {0}
    while len(basis) < n - len(functionals):
        m = rng.randrange(1, 1 << n)
        if m not in span and not any(
                bin(m & f).count("1") % 2 for f in functionals):
            basis.append(m)
            span |= {m ^ x for x in span}
    return basis


def _support(n: int, flips) -> int:
    """The support the one elimination reads off flips with zero halves."""
    sigma, _ = generator_functionals(n, [(m, 0) for m in flips])
    return sigma


class TestAnnihilator:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_scan_on_random_spans(self, n):
        rng = random.Random(1000 + n)
        for _ in range(5):
            sigma = rng.randrange(1, 1 << n)
            basis = _random_basis(rng, n, [sigma])
            assert brute_annihilators(n, basis) == [sigma]
            assert _support(n, basis) == sigma

    @pytest.mark.parametrize("n", range(3, 9))
    def test_index_four_raises(self, n):
        rng = random.Random(2000 + n)
        f = rng.randrange(1, 1 << n)
        g = rng.choice([x for x in range(1, 1 << n) if x != f])
        basis = _random_basis(rng, n, [f, g])
        assert len(brute_annihilators(n, basis)) == 3
        with pytest.raises(AssertionError):
            _support(n, basis)

    def test_full_space_raises(self):
        with pytest.raises(AssertionError):
            _support(3, [0b001, 0b010, 0b100])

    @pytest.mark.parametrize("n", range(2, 6))
    def test_census_supports_match_scan(self, n):
        for e in cached_census(n).entries:
            p = e.presentation
            flips = [sv.flips for sv, _ in p.gens]
            assert brute_annihilators(n, flips) == [p.support_mask]
            assert brute_annihilators(
                n, cocycle_table(n, p.gens)) == [p.support_mask]


def _kernel_presentation(n: int, sigma: int) -> GhwPresentation:
    """A presentation with support sigma and zero translations."""
    basis, span = [], {0}
    for m in range(1, 1 << n):
        if m not in span and not bin(m & sigma).count("1") % 2:
            basis.append(m)
            span |= {m ^ x for x in span}
    return GhwPresentation(
        n, [(SignVector(n, m), TranslationClass(n, 0)) for m in basis])


def _assert_aligns(n: int, perm, src: int, dst: int) -> None:
    assert sorted(perm) == list(range(1, n + 1))
    inside = [perm[i] - 1 for i in range(n) if src >> i & 1]
    outside = [perm[i] - 1 for i in range(n) if not src >> i & 1]
    assert sum(1 << j for j in inside) == dst
    assert inside == sorted(inside)
    assert outside == sorted(outside)


class TestSupportAlignment:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_normalizing_permutation(self, n):
        for sigma in range(1, 1 << n):
            k = sigma.bit_count()
            if k % 2 == 0:
                continue
            p = _kernel_presentation(n, sigma)
            assert p.support_mask == sigma
            perm = validate_ghw(p).normalizing_permutation
            _assert_aligns(n, perm, sigma, (1 << k) - 1)
            assert permute_coordinates(p, perm).support_mask == (1 << k) - 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_any_target(self, n):
        for src in range(1 << n):
            for dst in range(1 << n):
                if src.bit_count() == dst.bit_count():
                    _assert_aligns(n, _support_alignment(n, src, dst),
                                   src, dst)


class TestFamiliesValid:
    def test_families_valid_to_cap(self):
        from ghw.constructions import gamma_group, klein_group

        for n in range(2, MAX_DIM + 1):
            assert validate_ghw(klein_group(n)).verdict
            assert validate_ghw(gamma_group(n)).verdict


class TestRequireValid:
    def test_invalid_input_rejected_downstream(self):
        p = parse_group("dim=2; gens=-+:H0")
        with pytest.raises(InvalidPresentation):
            first_betti(p)
