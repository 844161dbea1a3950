"""Scale-chain construction, regimes, and exact branching counts."""

import random
from fractions import Fraction

import pytest

from thinsets.chain import (ExactCount, branching_count,
                            branching_lower_bound, build_custom_chain,
                            build_explicit_chain, classify_regime)
from thinsets.errors import (DepthTooLarge, ExponentTooLarge,
                             LevelOutOfRange, MonotonicityViolation,
                             NonIntegerRadiusExponent)

DESK = build_custom_chain([3, 4, 5, 6], [1, 2, 3, 4], 5)


def random_branching_chain(rng, depth=5):
    """phi_i = i with M_i >= i + 3 keeps every level branching."""
    m = []
    prev = 2
    for i in range(1, depth):
        prev = max(prev + 1, i + 3) + rng.randrange(0, 3)
        m.append(prev)
    return build_custom_chain(m, list(range(1, depth)), depth)


class TestBuildCustom:
    def test_desk_values(self):
        assert DESK.e == (1, 3, 12, 60, 360)
        assert DESK.rho == (1, 6, 36, 240)
        assert DESK.levels == 4

    def test_extra_schedule_entries_ignored(self):
        c = build_custom_chain([3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6], 5)
        assert c.e == DESK.e and c.rho == DESK.rho

    def test_non_integer_radius(self):
        with pytest.raises(NonIntegerRadiusExponent):
            build_custom_chain([3, 4], [Fraction(1, 2), 2], 3)

    def test_fractional_phi_with_integer_product(self):
        # e_2 = 3, phi_2 = 7/3 gives rho_2 = 7
        c = build_custom_chain([3, 4], [1, Fraction(7, 3)], 3)
        assert c.rho == (1, 7)

    def test_monotonicity(self):
        with pytest.raises(MonotonicityViolation):
            build_custom_chain([4, 3], [1, 2], 3)
        with pytest.raises(MonotonicityViolation):
            build_custom_chain([3, 4], [2, 2], 3)

    def test_accessors_and_ranges(self):
        assert DESK.radius_exponent(4) == 240
        assert DESK.lattice_exponent(5) == 360
        with pytest.raises(LevelOutOfRange):
            DESK.radius_exponent(5)
        with pytest.raises(LevelOutOfRange):
            DESK.lattice_exponent(6)

    def test_json_roundtrip(self):
        doc = DESK.to_json()
        assert doc["e"] == ["1", "3", "12", "60", "360"]
        assert build_custom_chain(doc["M"], doc["phi"], doc["depth"],
                                  doc["log_convention"]) == DESK


class TestExplicitChain:
    def test_first_multiplier(self):
        assert build_explicit_chain(1).M[0] == 17
        assert build_explicit_chain(1, log_convention="base2").M[0] == 12

    def test_second_multiplier_pinned(self):
        c = build_explicit_chain(2)
        assert c.M == (17, 14579595342)
        assert c.phi == (15, 14579595340)
        assert c.e[1] == 17

    def test_regime_is_branching(self):
        assert classify_regime(build_explicit_chain(2)).tag == "Branching"

    def test_depth_three_exceeds_budget(self):
        with pytest.raises(DepthTooLarge):
            build_explicit_chain(3)


class TestRegimes:
    def test_classification(self):
        assert classify_regime(DESK).tag == "Branching"
        coll = build_custom_chain([3, 4, 5], [4, 5, 6], 4)
        assert classify_regime(coll).tag == "Collapse"
        mixed = build_custom_chain([3, 4], [2, 5], 3)
        r = classify_regime(mixed)
        assert r.tag == "Indeterminate"
        assert r.witness_level == 1


class TestExactCount:
    def test_materializable(self):
        c = ExactCount(2, 4, 1)
        assert c.as_int() == 33
        assert c == 33 and c > 32 and c < 34

    def test_too_large_to_expand(self):
        # a ThinsetError that exits 2, not a bare OverflowError
        with pytest.raises(ExponentTooLarge) as ex:
            ExactCount(1, 10 ** 9, 0).as_int()
        assert ex.value.exit_code == 2
        assert str(ex.value) == "count 2**1000000000 too large to expand"
        assert ExactCount(0, 10 ** 9, 5).as_int() == 5

    def test_symbolic_comparison(self):
        big = ExactCount(2, 10 ** 9, -1)
        bigger = ExactCount(2, 10 ** 9, 1)
        assert big < bigger
        assert big > ExactCount(0, 0, 10 ** 18)
        assert ExactCount(2, 10 ** 9 + 100, 0) > bigger
        assert str(big) == "2*2^1000000000-1"

    def test_close_symbolic_exponents(self):
        a = ExactCount(2, 10 ** 9, 0)
        b = ExactCount(4, 10 ** 9 - 1, 0)
        assert a == b
        assert ExactCount(2, 10 ** 9, 1) > b

    def test_comparison_is_exact_at_any_gap(self):
        # the additive part can outweigh the power part at any exponent
        assert not ExactCount(-1, 5000, 0) > 0
        assert ExactCount(-1, 5000, 0) < 0
        assert ExactCount(1, 5000, -2 ** 5001) < ExactCount(1, 4999, 0)
        assert ExactCount(1, 10 ** 9, -1) > ExactCount(1, 10 ** 9 - 100, 0)
        assert ExactCount(0, 10 ** 9, 7) == 7

    def test_hash_by_value(self):
        assert hash(ExactCount(0, 0, 5)) == hash(5)
        assert hash(ExactCount(2, 10 ** 9, 0)) == \
            hash(ExactCount(4, 10 ** 9 - 1, 0))
        assert len({ExactCount(2, 4, 1), 33, ExactCount(1, 5, 1)}) == 1
        rng = random.Random(59)
        for _ in range(2000):
            mult = rng.randrange(-50, 51)
            exp = rng.randrange(-40, 200)
            add = rng.randrange(-2 ** 210, 2 ** 210)
            value = mult * Fraction(2) ** exp + add
            assert hash(ExactCount(mult, exp, add)) == hash(value)
            other = ExactCount(0, 0, rng.choice([0, 1, -1, add]))
            assert (ExactCount(mult, exp, add) < other) == \
                (value < other.add)

    def test_compares_with_fractions_and_foreign_types(self):
        assert ExactCount(0, 0, 5) == Fraction(5)
        assert Fraction(5) == ExactCount(0, 0, 5)
        assert ExactCount(1, -2, 0) == Fraction(1, 4)
        assert ExactCount(3, -2, 2) > Fraction(7, 4)
        assert ExactCount(1, 10 ** 9, 0) > Fraction(10 ** 30, 3)
        assert not ExactCount(1, -3, 0) < Fraction(1, 8)
        # foreign types: NotImplemented, so == is identity and < raises
        assert ExactCount(0, 0, 5) != None  # noqa: E711
        assert not ExactCount(0, 0, 5) == 5.0
        with pytest.raises(TypeError):
            ExactCount(0, 0, 5) < 5.0
        with pytest.raises(TypeError):
            ExactCount(0, 0, 5) >= "5"


class TestBranchingCounts:
    def brute_count(self, chain, i, g_num):
        """Direct rational enumeration; usable at desk exponents only."""
        ei, ej = chain.e[i - 1], chain.e[i]
        g = Fraction(g_num, 1 << ei)
        r = Fraction(1, 1 << chain.rho[i - 1])
        lo, hi = max(g - r, 0), min(g + r, 1)
        from math import ceil, floor
        m_lo = ceil(lo * (1 << ej))
        m_hi = floor(hi * (1 << ej))
        return m_hi - m_lo + 1

    def test_desk_oracle(self):
        for i in (1, 2, 3):
            for g_num in range(0, (1 << DESK.e[i - 1]) + 1):
                got = branching_count(DESK, i, g_num)
                assert got.as_int() == self.brute_count(DESK, i, g_num)

    def test_interior_vs_lower_bound(self):
        rng = random.Random(23)
        for _ in range(10):
            chain = random_branching_chain(rng)
            for i in range(1, chain.levels + 1):
                interior = branching_count(chain, i, 1)
                bound = branching_lower_bound(chain, i)
                assert interior >= bound
                boundary = branching_count(chain, i, 0)
                k = chain.e[i] - chain.rho[i - 1]
                assert boundary >= ExactCount(1, k, 1)

    def test_tower_scale_counts(self):
        chain = build_custom_chain([10 ** 9, 2 * 10 ** 9], [1, 2], 3)
        c = branching_count(chain, 1, 1)
        # e_2 - rho_1 is astronomically large; count stays symbolic
        assert not c.is_materializable()
        assert c > branching_lower_bound(chain, 1)
        assert c == ExactCount(2, 10 ** 9 - 1, 1)

    def test_invalid_numerator(self):
        with pytest.raises(ValueError):
            branching_count(DESK, 1, 3)
