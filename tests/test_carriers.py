import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meadowkit import carriers
from meadowkit.carriers import (
    PRIME_LIMIT,
    RATIONALS,
    CarrierMismatchError,
    FiniteProbeSet,
    PrimeField,
    format_element,
    format_env,
    _is_prime,
    parse_rational,
)
from meadowkit.semantics import StructureSpec, eval_total
from meadowkit.terms import Div, Var

rationals = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6)


def rational_power(xs, n):
    """RATIONALS.ops.power, raising the error of the first row it refuses."""
    errors = {}
    powers = RATIONALS.ops.power(xs, n, errors)
    if errors:
        raise errors[min(errors)]
    return powers


def divide(carrier, a, b):
    """a/b as the compiled Div closure of every command computes it."""
    return eval_total(Div(Var("a"), Var("b")), {"a": a, "b": b}, StructureSpec(carrier))


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

    def test_environment(self):
        assert format_env({"y": Fraction(-1, 2), "x": Fraction(0)}) == "x=0,y=-1/2"
        assert format_env({"x": 3}) == "x=3"
        assert format_env({}) == "{}"

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_element(q)) == q

    @pytest.mark.parametrize("text", ["", "1/0", "a", "1.5", "1/-2"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestRationalOps:
    # the operations take and give columns, one value per row of a block

    def test_textbook_sum(self):
        assert RATIONALS.ops.add([Fraction(1, 2), Fraction(1)], [Fraction(1, 3), Fraction(-1)]) == [
            Fraction(5, 6), 0,
        ]

    def test_reciprocal_product(self):
        assert RATIONALS.ops.mul([Fraction(2, 3)], [Fraction(3, 2)]) == [1]

    def test_inverse_of_zero_is_zero(self):
        assert RATIONALS.ops.inv_total([Fraction(0)]) == [0]

    def test_fraction_flip(self):
        assert RATIONALS.ops.inv_total([Fraction(2, 3), Fraction(0), Fraction(-5)]) == [
            Fraction(3, 2), 0, Fraction(-1, 5),
        ]

    def test_division_by_zero_is_zero(self):
        assert divide(RATIONALS, Fraction(1), Fraction(0)) == 0

    def test_fraction_division(self):
        assert divide(RATIONALS, Fraction(1, 2), Fraction(1, 4)) == 2

    @given(rationals)
    def test_additive_unit_and_inverse(self, x):
        c = RATIONALS.ops
        assert c.add([x], [Fraction(0)]) == [x]
        assert c.add(c.neg([x]), [x]) == [0]

    @given(rationals, rationals, rationals)
    def test_ring_laws(self, x, y, z):
        c = RATIONALS.ops
        # two rows: (x, y, z) and (z, x, y)
        x, y, z = [x, z], [y, x], [z, y]
        assert c.add(x, y) == c.add(y, x)
        assert c.mul(x, y) == c.mul(y, x)
        assert c.add(c.add(x, y), z) == c.add(x, c.add(y, z))
        assert c.mul(c.mul(x, y), z) == c.mul(x, c.mul(y, z))
        assert c.mul(x, c.add(y, z)) == c.add(c.mul(x, y), c.mul(x, z))

    @given(rationals)
    def test_meadow_inverse_laws(self, x):
        c = RATIONALS.ops
        xs = [x, Fraction(0)]
        assert c.inv_total(c.inv_total(xs)) == xs
        assert c.mul(xs, c.mul(xs, c.inv_total(xs))) == xs
        if x != 0:
            assert c.mul([x], c.inv_total([x])) == [1]

    @given(rationals, rationals)
    def test_division_is_mul_inverse(self, x, y):
        c = RATIONALS.ops
        assert [divide(RATIONALS, x, y)] == c.mul([x], c.inv_total([y]))

    @given(rationals, rationals)
    def test_results_canonical(self, x, y):
        r = divide(RATIONALS, x, y)
        assert r.denominator >= 1
        assert math.gcd(abs(r.numerator), r.denominator) == 1

    def test_mixed_carrier_rejected(self):
        with pytest.raises(CarrierMismatchError):
            RATIONALS.check(1)

    def test_power(self):
        power = rational_power
        assert power([Fraction(-2, 3), Fraction(2)], 3) == [Fraction(-8, 27), 8]
        assert power([Fraction(5)], 0) == [1]

    def test_power_size_bound(self, monkeypatch):
        # 7 is estimated at 3 + 1 bits, so 7^n at 4n bits
        monkeypatch.setattr(carriers, "MAX_POWER_BITS", 40)
        assert rational_power([Fraction(7)], 10) == [7**10]
        with pytest.raises(ValueError, match="over the bound of 40"):
            rational_power([Fraction(1), Fraction(7)], 11)
        with pytest.raises(carriers.PowerBoundError):
            rational_power([Fraction(1, 7)], 11)

    def test_power_bound_names_a_long_base_by_its_size(self):
        # a base too long to print (4300 digits at most) must not turn the
        # bound's error into a printing error
        base = Fraction(3) ** 20000
        with pytest.raises(carriers.PowerBoundError, match="^a base of 31701 bits to the power 200 "):
            rational_power([base], 200)

    def test_power_of_zero_and_units_is_never_refused(self):
        n = 10 * carriers.MAX_POWER_BITS
        assert rational_power([Fraction(b) for b in (0, 1, -1)], n) == [0, 1, 1]
        assert rational_power([Fraction(-1)], n + 1) == [-1]


def column_of(column_type, got) -> list:
    """The elements of a column, which must have the carrier's column type."""
    assert type(got) is column_type
    return list(got)


def pairs(p: int):
    """Every pair of GF(p) elements as two columns: (x, y) at row x*p + y."""
    return [x for x in range(p) for _ in range(p)], list(range(p)) * p


def per_row(p: int, xs, ys, n: int) -> dict:
    """Each GF(p) operation by its definition, row by row, by `Ops` name;
    power to the n-th."""
    return {
        "add": [(x + y) % p for x, y in zip(xs, ys)],
        "mul": [x * y % p for x, y in zip(xs, ys)],
        "neg": [-x % p for x in xs],
        "inv_total": [pow(x, -1, p) if x else 0 for x in xs],
        "power": [pow(x, n, p) for x in xs],
    }


def apply_ops(ops, xs, ys, n: int) -> dict:
    return {
        "add": ops.add(xs, ys),
        "mul": ops.mul(xs, ys),
        "neg": ops.neg(xs),
        "inv_total": ops.inv_total(xs),
        "power": ops.power(xs, n, {}),
    }


class TestPrimeField:
    def test_modular_sum(self):
        assert column_of(bytes, PrimeField(7).ops.add([4, 6], [4, 1])) == [1, 0]

    def test_modular_product(self):
        assert column_of(bytes, PrimeField(7).ops.mul([3, 6], [5, 6])) == [1, 1]

    def test_inverse_by_brute_force(self):
        gf7 = PrimeField(7).ops
        expected = next(z for z in range(7) if (3 * z) % 7 == 1)
        assert column_of(bytes, gf7.inv_total([3])) == [expected] == [5]

    @pytest.mark.parametrize("p", [61, 67, 251, 257])  # either side of LANE_LIMIT, and of a byte
    def test_inverse_by_table_and_by_pow(self, p):
        column_type = bytes if p < 256 else list
        inverses = column_of(column_type, PrimeField(p).ops.inv_total(range(p)))
        assert inverses[0] == 0
        assert all(x * y % p == 1 for x, y in zip(range(1, p), inverses[1:]))
        assert column_of(column_type, PrimeField(p).ops.neg(range(p))) == [-x % p for x in range(p)]

    @pytest.mark.parametrize("p", [p for p in range(256) if _is_prime(p)])
    def test_lane_ops_match_their_definitions_on_all_pairs(self, p):
        # byte lanes below LANE_LIMIT, then sums and products row by row
        ops = PrimeField(p).ops
        assert ops.column is bytes
        xs, ys = pairs(p)
        expected = per_row(p, xs, ys, 2)
        # every operand type, and a list with a byte string
        for operands in ((xs, ys), (bytes(xs), bytes(ys)), (xs, bytes(ys)), (bytes(xs), ys)):
            got = apply_ops(ops, *operands, 2)
            assert {name: column_of(bytes, column) for name, column in got.items()} == expected
        for n in (0, 1, p - 1, 2**40):  # every element to other powers
            assert column_of(bytes, ops.power(range(p), n, {})) == [pow(x, n, p) for x in range(p)]
        # a range operand, and columns shorter than p
        for xs in (range(p), range(p - 1), range(0)):
            ys = list(reversed(xs))
            got = apply_ops(ops, xs, ys, 3)
            assert {name: column_of(bytes, column) for name, column in got.items()} == per_row(p, xs, ys, 3)

    @pytest.mark.parametrize("p", [p for p in range(256) if _is_prime(p)])
    def test_byte_power_by_table_matches_its_row_by_row_definition(self, p):
        # more rows than p take the table of the p values x^n, up to p row by row
        ops = PrimeField(p).ops
        for xs in (bytes(range(p)) * 3 + bytes([0, p - 1]), range(p), [p - 1, 0, 1]):
            for n in (0, 1, 2, p - 1, p, 10**9 + 7):
                assert ops.power(xs, n, {}) == bytes(pow(x, n, p) for x in xs), (xs, n)

    @pytest.mark.parametrize("p", [257, 2**61 - 1])
    def test_ops_beyond_a_byte_return_lists(self, p):
        ops = PrimeField(p).ops
        assert ops.column is list
        xs, ys = [0, 1, 2, p - 1, p - 2], [p - 1, 0, 2, p - 1, 3]
        for operands in ((xs, ys), (range(5), ys), (tuple(xs), range(5))):
            got = apply_ops(ops, *operands, 5)
            expected = per_row(p, *map(list, operands), 5)
            assert {name: column_of(list, column) for name, column in got.items()} == expected

    def test_division_by_exhaustive_oracle(self):
        inv4 = next(z for z in range(7) if (4 * z) % 7 == 1)
        assert divide(PrimeField(7), 6, 4) == (6 * inv4) % 7

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_general_inverse_law_exhaustive(self, p):
        gf = PrimeField(p).ops
        assert column_of(bytes, gf.inv_total([0])) == [0]
        units = list(range(1, p))
        assert column_of(bytes, gf.mul(units, gf.inv_total(units))) == [1] * (p - 1)

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
    def test_composite_modulus_rejected(self, p):
        with pytest.raises(ValueError):
            PrimeField(p)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [p for p in range(3000) if _is_prime(p)] == [p for p in range(3000) if trial(p)]

    def test_huge_prime_modulus(self):
        assert divide(PrimeField(2**61 - 1), 1, 2) == 2**60

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

    def test_power_has_no_size_bound(self):
        n = 10 * carriers.MAX_POWER_BITS
        assert column_of(bytes, PrimeField(7).ops.power([3, 5], n, {})) == [pow(3, n, 7), pow(5, n, 7)]
        assert column_of(bytes, PrimeField(7).ops.power([0], 0, {})) == [1]

    def test_out_of_range_rejected(self):
        with pytest.raises(CarrierMismatchError):
            PrimeField(5).check(5)
        with pytest.raises(CarrierMismatchError):
            PrimeField(5).check(Fraction(1))


class TestFiniteProbeSet:
    def test_enumerates_probe_values(self):
        probe = FiniteProbeSet(values=(Fraction(0), Fraction(1, 2)))
        assert list(probe.elements()) == [Fraction(0), Fraction(1, 2)]
        assert probe.enumerable

    def test_arithmetic_is_rational(self):
        probe = FiniteProbeSet(values=(Fraction(1, 2),))
        assert probe.ops.add([Fraction(1, 2)], [Fraction(1, 2)]) == [1]

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
