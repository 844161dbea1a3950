"""Directed-rounding bracket tests against high-precision references."""

from fractions import Fraction

import pytest

from thinsets.errors import PrecisionExhausted
from thinsets.rounding import (_iroot_floor, bracket_to_decimal,
                               compare_with_bracket, ln2_bracket, ln_bracket,
                               pow_bracket, rigorous_ceil_div_ln2,
                               round_decimal)

# ln 2 to 60 digits, reference constant
LN2_REF = Fraction(
    "0.693147180559945309417232121458176568075500134360255254120680")


class TestLnBrackets:
    def test_ln2_contains_reference(self):
        lo, hi = ln2_bracket(128)
        assert lo < LN2_REF < hi
        assert hi - lo < Fraction(1, 1 << 100)

    def test_ln_identities(self):
        # ln(1/2) + ln(2) = 0 and ln(4) - 2 ln(2) = 0, bracket-certified
        l2 = ln_bracket(2, 128)
        lh = ln_bracket(Fraction(1, 2), 128)
        assert lh[0] + l2[0] <= 0 <= lh[1] + l2[1]
        l4 = ln_bracket(4, 128)
        assert l4[0] - 2 * l2[1] <= 0 <= l4[1] - 2 * l2[0]
        # ln(3/2) + ln(2/3) = 0
        a, b = ln_bracket(Fraction(3, 2), 128), ln_bracket(Fraction(2, 3),
                                                           128)
        assert a[0] + b[0] <= 0 <= a[1] + b[1]

    def test_precision_nesting(self):
        for v in (Fraction(3, 2), Fraction(10), Fraction(1, 7)):
            lo, hi = ln_bracket(v, 128)
            lo2, hi2 = ln_bracket(v, 256)
            assert lo <= lo2 < hi2 <= hi
            assert hi - lo < Fraction(1, 10 ** 20)

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_bracket(0)


class TestIroot:
    def test_small_cases(self):
        assert _iroot_floor(27, 3) == 3
        assert _iroot_floor(26, 3) == 2
        assert _iroot_floor(1, 5) == 1
        assert _iroot_floor(0, 4) == 0

    def test_large(self):
        n = 10 ** 60 + 12345
        r = _iroot_floor(n, 7)
        assert r ** 7 <= n < (r + 1) ** 7


class TestPowBracket:
    def test_integer_exponent(self):
        lo, hi = pow_bracket(Fraction(3, 2), Fraction(3, 2), 3)
        assert lo <= Fraction(27, 8) <= hi

    def test_rational_exponent_contains_sqrt(self):
        lo, hi = pow_bracket(2, 2, Fraction(1, 2), 128)
        assert lo ** 2 <= 2 <= hi ** 2
        assert hi - lo < Fraction(1, 1 << 100)

    def test_negative_exponent(self):
        lo, hi = pow_bracket(4, 4, Fraction(-1, 2), 128)
        assert lo <= Fraction(1, 2) <= hi

    def test_zero_exponent(self):
        assert pow_bracket(7, 9, 0) == (1, 1)


class TestCeilDivLn2:
    def test_known_values(self):
        # 1/ln2 = 1.4426...; 10/ln2 = 14.42...
        assert rigorous_ceil_div_ln2(1, 1) == 2
        assert rigorous_ceil_div_ln2(10, 1) == 15
        assert rigorous_ceil_div_ln2(10, 5) == 3

    def test_compare_with_bracket(self):
        verdict, _ = compare_with_bracket(
            Fraction(1, 2), lambda p: ln2_bracket(p))
        assert verdict is True
        verdict, _ = compare_with_bracket(
            Fraction(7, 10), lambda p: ln2_bracket(p))
        assert verdict is False

    def test_precision_exhausted(self):
        lo, hi = ln2_bracket(256)
        with pytest.raises(PrecisionExhausted):
            # a point inside the bracket can never be separated
            compare_with_bracket((lo + hi) / 2,
                                 lambda p: (lo, hi),
                                 prec=128, max_prec=256)


class TestDecimalRendering:
    def test_bracket_to_decimal(self):
        mid, err = bracket_to_decimal(Fraction(1, 3), Fraction(1, 3), 6)
        assert mid == "0.333333"
        assert err == "0e-6"
        mid, err = bracket_to_decimal(Fraction(1, 4), Fraction(3, 4), 2)
        assert mid == "0.50"
        assert err == "25e-2"

    def test_round_decimal_ties_away_from_zero(self):
        assert round_decimal(Fraction(1, 8), 2) == "0.13"
        assert round_decimal(Fraction(-1, 8), 2) == "-0.13"
        assert round_decimal(Fraction(5, 2), 1) == "2.5"
        assert round_decimal(Fraction(25, 1000), 1) == "0.0"
        assert round_decimal(Fraction(-5, 1000), 2) == "-0.01"
        assert round_decimal(Fraction(-4999, 1000000), 2) == "-0.00"
        assert round_decimal(Fraction(-7, 3), 3) == "-2.333"
        assert round_decimal(Fraction(0), 3) == "0.000"

    def test_negative_midpoint(self):
        mid, err = bracket_to_decimal(Fraction(-3, 8), Fraction(-1, 8), 2)
        assert (mid, err) == ("-0.25", "13e-2")
