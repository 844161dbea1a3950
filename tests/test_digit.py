"""Digit Cantor sets: separation, membership, sumsets, gauge decay."""

import random
from fractions import Fraction

import pytest

from thinsets.digit import (DigitSpec, _tail_exact,
                            beyond_table_bound_exponent,
                            dimension_zero_diagnostic, member_K,
                            separation_check, subset_sums, tau_bound,
                            verify_triple_sumset)
from thinsets.dyadic import SparseDyadic
from thinsets.errors import (GrowthPropertyMissing, PartitionOverlap,
                             UniverseExceeded)

STEP2 = "g(n+1)>=g(n)+2"


def pow2_spec(n_max=6):
    return DigitSpec(g=tuple(2 ** n for n in range(1, n_max + 1)),
                     N_max=n_max, growth=STEP2)


def tower_spec():
    # g(n) = 2**(n*n)
    return DigitSpec(g=(2, 16, 512, 65536), N_max=4, growth=STEP2)


class TestDigitSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DigitSpec(g=(2, 2, 3), N_max=3)
        with pytest.raises(ValueError):
            DigitSpec(g=(0, 1), N_max=2)
        with pytest.raises(ValueError):
            DigitSpec(g=(2, 4), N_max=3)

    def test_mod3_partition(self):
        spec = pow2_spec()
        assert [spec.class_of(n) for n in (1, 2, 3, 4, 5, 6)] == \
            [1, 2, 3, 1, 2, 3]
        assert spec.class_indices(1, 6) == [1, 4]
        assert spec.class_indices(3, 4) == [3]

    def test_explicit_partition(self):
        spec = DigitSpec(g=(2, 4, 8, 16), N_max=4,
                         partition=[[1, 4], [2], [3]])
        assert spec.class_of(4) == 1
        assert spec.class_indices(1, 4) == [1, 4]

    def test_partition_overlap(self):
        with pytest.raises(PartitionOverlap):
            DigitSpec(g=(2, 4, 8, 16), N_max=4,
                      partition=[[1, 2], [2, 3], [4]])

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            DigitSpec(g=(2, 4), N_max=2)  # mod3 class 3 empty

    def test_growth_increment(self):
        assert pow2_spec().growth_increment() == 2
        assert DigitSpec(g=(2, 4, 8), N_max=3,
                         growth="g(n+1) >= g(n) + 7").growth_increment() == 7
        assert DigitSpec(g=(2, 4, 8), N_max=3,
                         growth="doubling").growth_increment() is None

    def test_json_roundtrip(self):
        for spec in (pow2_spec(), DigitSpec(g=(2, 4, 8, 16), N_max=4,
                                            partition=[[1, 4], [2], [3]])):
            doc = spec.to_json()
            assert DigitSpec.from_json(doc) == spec


class TestSeparation:
    def test_pow2_separated(self):
        rep = separation_check(pow2_spec(4), 4)
        assert rep["ok"]
        assert all(r["holds"] for r in rep["rows"])

    def test_tower_separated(self):
        assert separation_check(tower_spec(), 4)["ok"]

    def test_linear_growth_fails(self):
        spec = DigitSpec(g=(1, 2, 3, 4, 5), N_max=5,
                         growth="g(n+1)>=g(n)+1")
        rep = separation_check(spec, 5)
        assert not rep["ok"]
        # a_1 = 1/2 exactly equals tail + beyond-table bound
        assert not rep["rows"][0]["holds"]

    def test_running_tail_matches_per_row_sum(self):
        rng = random.Random(24)
        seen = set()
        for _ in range(60):
            # random gaps, then gaps of 1 from index ones_from on, so that
            # a_n equals its tail plus the bound on some rows
            size = rng.randrange(3, 14)
            ones_from = rng.randrange(1, size + 1)
            g = [rng.randrange(1, 4)]
            for k in range(1, size):
                g.append(g[-1] + (1 if k >= ones_from
                                  else rng.choice((1, 2, 3, 40))))
            step = rng.choice((1, 2, 3))
            spec = DigitSpec(g=tuple(g), N_max=len(g),
                             growth=f"g(n+1)>=g(n)+{step}")
            N = rng.randrange(1, len(g) + 1)
            bound = SparseDyadic.power(beyond_table_bound_exponent(spec))
            want = [{"n": n, "holds": spec.a(n).compare(
                         _tail_exact(spec, n).add(bound)) > 0}
                    for n in range(1, N + 1)]
            rep = separation_check(spec, N)
            assert rep["rows"] == want
            assert rep["ok"] == all(r["holds"] for r in want)
            seen.update(r["holds"] for r in want)
        assert seen == {False, True}

    def test_growth_required(self):
        spec = DigitSpec(g=(2, 4, 8), N_max=3)
        with pytest.raises(GrowthPropertyMissing):
            separation_check(spec, 2)
        with pytest.raises(GrowthPropertyMissing):
            beyond_table_bound_exponent(spec)

    def test_bound_exponent(self):
        assert beyond_table_bound_exponent(pow2_spec(4)) == 17
        assert beyond_table_bound_exponent(tower_spec()) == 65537


class TestTauBound:
    def test_pow2_values(self):
        assert tau_bound(pow2_spec(4), 2) == (8, 7)

    def test_contains_truncated_tail(self):
        spec = pow2_spec(4)
        for n in (1, 2, 3):
            lo_exp, hi_exp = tau_bound(spec, n)
            tail = SparseDyadic([(spec.g_exponent(m), 1)
                                 for m in range(n + 1, spec.N_max + 1)])
            assert tail.compare(SparseDyadic.power(lo_exp)) >= 0
            assert tail.compare(SparseDyadic.power(hi_exp)) < 0

    def test_range_and_growth_guards(self):
        spec = pow2_spec(4)
        with pytest.raises(ValueError):
            tau_bound(spec, 4)
        with pytest.raises(GrowthPropertyMissing):
            tau_bound(DigitSpec(g=(2, 4, 8), N_max=3), 1)


class TestMembership:
    def test_digit_sum_members(self):
        spec = pow2_spec(4)
        x = spec.a(1).add(spec.a(3))
        assert member_K(spec, x) == {"member": True, "digits": [1, 3]}
        assert member_K(spec, SparseDyadic.zero()) == \
            {"member": True, "digits": []}

    def test_non_digit_exponent(self):
        spec = pow2_spec(4)
        assert not member_K(spec, SparseDyadic.power(3))["member"]
        assert not member_K(spec, SparseDyadic.power(1))["member"]

    def test_doubled_digit_carries_out(self):
        spec = pow2_spec(4)
        # 2 * a_2 = 2**-3, not a digit sum
        assert not member_K(spec, SparseDyadic([(4, 2)]))["member"]

    def test_universe_guard(self):
        with pytest.raises(UniverseExceeded):
            member_K(pow2_spec(4), SparseDyadic.power(20))
        with pytest.raises(ValueError):
            member_K(pow2_spec(4), SparseDyadic([(2, -1)]))

    def test_carry_budget_is_not_a_verdict(self):
        # a_16 = 2**-65536 written at the finest exponent as a
        # 196608-bit coefficient: the walk moves it past all its
        # trailing zeros in one step and gives the verdict
        spec = DigitSpec(g=tuple(2 ** k for k in range(1, 19)), N_max=18)
        top = spec.g_exponent(18)
        assert member_K(spec, SparseDyadic.power(65536)) == \
            {"member": True, "digits": [16]}
        assert member_K(spec, SparseDyadic([(top, 1 << (top - 65536))])) \
            == {"member": True, "digits": [16]}
        # even coefficients that meet finer carries, and one that lands
        # at exponent 0
        x = SparseDyadic([(top, (1 << (top - 4)) + (1 << (top - 9))),
                          (9, 1), (17, 2)])
        assert member_K(spec, x) == {"member": True, "digits": [2, 3, 4]}
        assert member_K(spec, SparseDyadic([(top, 1 << top)])) == \
            {"member": False, "digits": None}

    def test_digit_limit_ends_the_walk(self):
        # 2 - 2**-top has top + 1 binary digits; the walk stops after
        # N_max + 1 of them
        spec = DigitSpec(g=tuple(2 ** k for k in range(1, 18)), N_max=17)
        top = spec.g_exponent(17)
        x = SparseDyadic([(top, (1 << (top + 1)) - 1)])
        assert member_K(spec, x) == {"member": False, "digits": None}

    def test_uniqueness_of_subset_sums(self):
        # all 2**12 digit sums over a 12-entry table are distinct
        spec = DigitSpec(g=tuple(range(2, 26, 2)), N_max=12, growth=STEP2)
        seen = set()
        for mask in range(1 << 12):
            x = SparseDyadic([(spec.g_exponent(n + 1), 1)
                              for n in range(12) if mask >> n & 1])
            seen.add(x.terms)
            rep = member_K(spec, x)
            assert rep["member"]
        assert len(seen) == 1 << 12


class TestSumsets:
    def test_subset_sums_bitmask_order(self):
        spec = pow2_spec(6)
        sums = subset_sums(spec, 1, 6)  # indices [1, 4]
        assert [s.terms for s in sums] == \
            [(), ((2, 1),), ((16, 1),), ((2, 1), (16, 1))]

    def test_triple_sumset_64(self):
        rep = verify_triple_sumset(pow2_spec(6), 6)
        assert rep["ok"]
        assert rep["total"] == 64
        assert rep["set_sizes"] == [4, 4, 4]
        assert rep["failures"] == []

    def test_triple_sumset_8(self):
        rep = verify_triple_sumset(pow2_spec(6), 3)
        assert rep["ok"] and rep["total"] == 8

    def test_tower_sumset(self):
        rep = verify_triple_sumset(tower_spec(), 4)
        assert rep["ok"]
        assert rep["set_sizes"] == [4, 2, 2]


class TestDimensionZero:
    def test_costs_strictly_decrease(self):
        rep = dimension_zero_diagnostic(tower_spec(),
                                        [Fraction(1, 2), Fraction(1),
                                         Fraction(2)], [1, 2, 3])
        assert len(rep["rows"]) == 3
        assert all(rep["decreasing"].values())
        assert rep["rows"][0]["tau_exponents"] == [16, 15]

    def test_slow_growth_not_decreasing(self):
        spec = DigitSpec(g=(1, 2, 3, 4, 5, 6), N_max=6,
                         growth="g(n+1)>=g(n)+1")
        rep = dimension_zero_diagnostic(spec, [Fraction(1)], [2, 3, 4])
        assert not rep["decreasing"]["1"]
