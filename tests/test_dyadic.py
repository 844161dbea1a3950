"""Exact-rational oracle and property tests for SparseDyadic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinsets.dyadic import ONE, SparseDyadic
from thinsets.errors import OutOfUnitInterval, TermCapExceeded


def to_frac(x):
    return sum(Fraction(c, 1 << f) for f, c in x.terms) if x.terms \
        else Fraction(0)


def rand_value(rng, max_terms=8, max_exp=64, max_coeff=1 << 20):
    terms = [(rng.randrange(max_exp + 1),
              rng.choice([-1, 1]) * rng.randrange(1, max_coeff))
             for _ in range(rng.randrange(max_terms + 1))]
    return SparseDyadic(terms)


class TestConstruction:
    def test_zero(self):
        assert SparseDyadic.zero().is_zero()
        assert SparseDyadic.zero().sign() == 0

    def test_merge_and_cancel(self):
        x = SparseDyadic([(3, 1), (3, 1)])
        assert x.terms == ((3, 2),)
        assert SparseDyadic([(5, 4), (5, -4)]).is_zero()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            SparseDyadic([(-1, 1)])

    def test_term_cap(self):
        with pytest.raises(TermCapExceeded):
            SparseDyadic([(f, 1) for f in range(100)], term_cap=10)


class TestArithmetic:
    def test_add_sub_oracle(self):
        rng = random.Random(7)
        for _ in range(500):
            x, y = rand_value(rng), rand_value(rng)
            assert to_frac(x.add(y)) == to_frac(x) + to_frac(y)
            assert to_frac(x.sub(y)) == to_frac(x) - to_frac(y)

    def test_tower_exponents_stay_symbolic(self):
        huge = 1 << 40
        x = SparseDyadic([(huge, 1), (huge + 1, 1)])
        y = x.add(SparseDyadic.power(huge, -1))
        assert y.terms == ((huge + 1, 1),)
        with pytest.raises(OverflowError):
            x.to_fraction()


class TestSignCompare:
    def test_examples(self):
        assert SparseDyadic([(10, 1), (12, -3)]).sign() == 1
        assert SparseDyadic([(10, 1), (11, -2), (40, -1)]).sign() == -1
        three = SparseDyadic.power(12, 3)
        assert three.compare(SparseDyadic.power(10)) == -1

    def test_geometric_tail(self):
        # 2**-10 vs sum of 2**-11..2**-40: head wins by the final term
        tail = SparseDyadic([(f, 1) for f in range(11, 41)])
        assert SparseDyadic.power(10).compare(tail) == 1

    def test_sign_oracle_randomized(self):
        rng = random.Random(11)
        for _ in range(2000):
            x = rand_value(rng)
            f = to_frac(x)
            assert x.sign() == (f > 0) - (f < 0)

    def test_compare_oracle_randomized(self):
        rng = random.Random(13)
        for _ in range(2000):
            x, y = rand_value(rng), rand_value(rng)
            fx, fy = to_frac(x), to_frac(y)
            assert x.compare(y) == (fx > fy) - (fx < fy)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 80),
                              st.integers(-1000, 1000).filter(bool)),
                    max_size=10))
    def test_sign_property(self, terms):
        x = SparseDyadic(terms)
        f = to_frac(x)
        assert x.sign() == (f > 0) - (f < 0)

    def test_rich_comparisons(self):
        a, b = SparseDyadic.power(3), SparseDyadic.power(2)
        assert a < b and a <= b and b > a and b >= a
        assert SparseDyadic([(2, 1)]) == SparseDyadic([(2, 1)])


class TestDistToLattice:
    def test_examples(self):
        x = SparseDyadic([(3, 1), (10, 1)])  # 1/8 + 2**-10
        assert to_frac(x.dist_to_lattice(3)) == Fraction(1, 1024)
        y = SparseDyadic([(3, 1), (4, 1)])   # 3/16: nearest eighth is 1/4
        assert to_frac(y.dist_to_lattice(3)) == Fraction(1, 16)
        assert SparseDyadic.power(5).dist_to_lattice(5).is_zero()

    def test_oracle_randomized(self):
        rng = random.Random(17)
        checked = 0
        while checked < 2000:
            x = rand_value(rng, max_terms=6, max_exp=40, max_coeff=64)
            f = to_frac(x)
            if not 0 <= f <= 1:
                continue
            e = rng.randrange(0, 40)
            got = to_frac(x.dist_to_lattice(e))
            step = Fraction(1, 1 << e)
            frac = f % step
            assert got == min(frac, step - frac)
            checked += 1

    def test_out_of_unit_interval(self):
        with pytest.raises(OutOfUnitInterval):
            SparseDyadic([(0, 2)]).dist_to_lattice(3)
        with pytest.raises(OutOfUnitInterval):
            SparseDyadic([(3, -1)]).dist_to_lattice(3)

    def test_tower_scale(self):
        huge = 1 << 40
        x = SparseDyadic([(3, 1), (huge, 1)])
        d = x.dist_to_lattice(3)
        assert d.terms == ((huge, 1),)


class TestRendering:
    def test_json_roundtrip(self):
        x = SparseDyadic([(3, 1), (1 << 40, -7)])
        assert SparseDyadic.from_json(x.to_json()) == x

    def test_one_constant(self):
        assert to_frac(ONE) == 1
