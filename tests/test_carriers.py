import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meadowkit.carriers import (
    PRIME_LIMIT,
    RATIONALS,
    CarrierMismatchError,
    FiniteProbeSet,
    PrimeField,
    format_element,
    _is_prime,
    parse_rational,
)

rationals = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6)


class TestNormalize:
    def test_sign_and_gcd(self):
        assert parse_rational("-2/4") == Fraction(-1, 2)

    def test_canonical_zero(self):
        z = parse_rational("0/7")
        assert z == 0 and z.denominator == 1

    def test_gcd_reduction(self):
        r = parse_rational("6/3")
        assert (r.numerator, r.denominator) == (2, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")


class TestTextForm:
    @pytest.mark.parametrize(
        "text,value",
        [("-1/2", Fraction(-1, 2)), ("3", Fraction(3)), ("0", Fraction(0)), ("6/4", Fraction(3, 2))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_format_omits_unit_denominator(self):
        assert format_element(Fraction(3)) == "3"
        assert format_element(Fraction(-1, 2)) == "-1/2"

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_element(q)) == q

    @pytest.mark.parametrize("text", ["", "1/0", "a", "1.5", "1/-2"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestRationalOps:
    def test_textbook_sum(self):
        assert RATIONALS.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_reciprocal_product(self):
        assert RATIONALS.mul(Fraction(2, 3), Fraction(3, 2)) == 1

    def test_inverse_of_zero_is_zero(self):
        assert RATIONALS.inv_total(Fraction(0)) == 0

    def test_fraction_flip(self):
        assert RATIONALS.inv_total(Fraction(2, 3)) == Fraction(3, 2)

    def test_division_by_zero_is_zero(self):
        assert RATIONALS.div_total(Fraction(1), Fraction(0)) == 0

    def test_fraction_division(self):
        assert RATIONALS.div_total(Fraction(1, 2), Fraction(1, 4)) == 2

    @given(rationals)
    def test_additive_unit_and_inverse(self, x):
        assert RATIONALS.add(x, Fraction(0)) == x
        assert RATIONALS.add(RATIONALS.neg(x), x) == 0

    @given(rationals, rationals, rationals)
    def test_ring_laws(self, x, y, z):
        c = RATIONALS
        assert c.add(x, y) == c.add(y, x)
        assert c.mul(x, y) == c.mul(y, x)
        assert c.add(c.add(x, y), z) == c.add(x, c.add(y, z))
        assert c.mul(c.mul(x, y), z) == c.mul(x, c.mul(y, z))
        assert c.mul(x, c.add(y, z)) == c.add(c.mul(x, y), c.mul(x, z))

    @given(rationals)
    def test_meadow_inverse_laws(self, x):
        c = RATIONALS
        assert c.inv_total(c.inv_total(x)) == x
        assert c.mul(x, c.mul(x, c.inv_total(x))) == x
        if x != 0:
            assert c.mul(x, c.inv_total(x)) == 1

    @given(rationals, rationals)
    def test_division_is_mul_inverse(self, x, y):
        assert RATIONALS.div_total(x, y) == RATIONALS.mul(x, RATIONALS.inv_total(y))

    @given(rationals, rationals)
    def test_results_canonical(self, x, y):
        r = RATIONALS.div_total(x, y)
        assert r.denominator >= 1
        assert math.gcd(abs(r.numerator), r.denominator) == 1

    def test_mixed_carrier_rejected(self):
        with pytest.raises(CarrierMismatchError):
            RATIONALS.add(Fraction(1), 1)


class TestPrimeField:
    def test_modular_sum(self):
        assert PrimeField(7).add(4, 4) == 1

    def test_modular_product(self):
        assert PrimeField(7).mul(3, 5) == 1

    def test_inverse_by_brute_force(self):
        gf7 = PrimeField(7)
        expected = next(z for z in range(7) if (3 * z) % 7 == 1)
        assert gf7.inv_total(3) == expected == 5

    def test_division_by_exhaustive_oracle(self):
        gf7 = PrimeField(7)
        inv4 = next(z for z in range(7) if (4 * z) % 7 == 1)
        assert gf7.div_total(6, 4) == (6 * inv4) % 7

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_general_inverse_law_exhaustive(self, p):
        gf = PrimeField(p)
        assert gf.inv_total(0) == 0
        for a in range(1, p):
            assert gf.mul(a, gf.inv_total(a)) == 1

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
    def test_composite_modulus_rejected(self, p):
        with pytest.raises(ValueError):
            PrimeField(p)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [p for p in range(3000) if _is_prime(p)] == [p for p in range(3000) if trial(p)]

    def test_huge_prime_modulus(self):
        gf = PrimeField(2**61 - 1)
        assert gf.div_total(1, 2) == 2**60

    @pytest.mark.parametrize(
        "p",
        [2**61 + 1, 561, 3215031751, 318665857834031151167461, PRIME_LIMIT, PRIME_LIMIT + 2],
    )
    def test_huge_or_pseudoprime_modulus_rejected(self, p):
        # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7;
        # 318665857834031151167461 = 399165290221 * 798330580441 is one
        # to every prime base up to 37
        with pytest.raises(ValueError):
            PrimeField(p)

    def test_out_of_range_rejected(self):
        with pytest.raises(CarrierMismatchError):
            PrimeField(5).add(5, 1)
        with pytest.raises(CarrierMismatchError):
            PrimeField(5).add(Fraction(1), 1)


class TestFiniteProbeSet:
    def test_enumerates_probe_values(self):
        probe = FiniteProbeSet(values=(Fraction(0), Fraction(1, 2)))
        assert list(probe.elements()) == [Fraction(0), Fraction(1, 2)]
        assert probe.enumerable

    def test_arithmetic_is_rational(self):
        probe = FiniteProbeSet(values=(Fraction(1, 2),))
        assert probe.add(Fraction(1, 2), Fraction(1, 2)) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FiniteProbeSet(values=())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            FiniteProbeSet(values=(Fraction(1), Fraction(1)))

    def test_rationals_not_enumerable(self):
        assert not RATIONALS.enumerable
        with pytest.raises(ValueError):
            RATIONALS.elements()
