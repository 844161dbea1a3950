"""Finite-depth realization: membership, sumsets, trees, windows."""

import random
from fractions import Fraction

import pytest

from thinsets import falconer
from thinsets.chain import build_custom_chain
from thinsets.dyadic import SparseDyadic
from thinsets.errors import (CapExceeded, ChainTooShallow, ConditionFailure,
                             ExponentTooLarge, InvariantViolation,
                             LevelOutOfRange, OutOfUnitInterval,
                             PreconditionFailure, RegimeViolation,
                             ThinsetError)
from thinsets.falconer import (binary_tree_point, dichotomy_probe,
                               localization_check,
                               localization_ratio_exponents, member_depth,
                               rapid_sequence, select_triple_indices,
                               survivor_numerators, verify_triple_sum)

from test_dimension import clipped

DESK = build_custom_chain([3, 4, 5, 6], [1, 2, 3, 4], 5)
COLLAPSE = build_custom_chain([3, 4, 5], [4, 5, 6], 4)
FULL = (Fraction(0), Fraction(1))


def brute_window_centers(chain, n, window):
    """Independent oracle: level-n lattice points whose constraint system
    admits a point, found by direct rational interval intersection."""
    lo, hi = window
    survivors = []
    for m in range(0, (1 << chain.e[n - 1]) + 1):
        h = Fraction(m, 1 << chain.e[n - 1])
        a, b = max(lo, h - Fraction(1, 1 << chain.rho[n - 1])), \
            min(hi, h + Fraction(1, 1 << chain.rho[n - 1]))
        if a > b:
            continue
        if _feasible(chain, n - 1, a, b):
            survivors.append(h)
    return survivors


def _feasible(chain, j, a, b):
    """Is there a point of [a, b] within r_i of G_i for all i <= j?"""
    if j == 0:
        return True
    from math import ceil, floor
    r = Fraction(1, 1 << chain.rho[j - 1])
    scale = 1 << chain.e[j - 1]
    m_lo = max(0, ceil((a - r) * scale))
    m_hi = min(scale, floor((b + r) * scale))
    for m in range(m_lo, m_hi + 1):
        h = Fraction(m, scale)
        na, nb = max(a, h - r), min(b, h + r)
        if na <= nb and _feasible(chain, j - 1, na, nb):
            return True
    return False


class TestMemberDepth:
    def test_lattice_point_member(self):
        rep = member_depth(DESK, SparseDyadic.power(12), 4)
        assert rep.member and rep.failed_level is None
        assert len(rep.trace) == 4

    def test_off_lattice_fails_deep(self):
        x = SparseDyadic([(3, 1), (100, 1)])
        rep = member_depth(DESK, x, 4)
        assert not rep.member
        assert rep.failed_level == 4

    def test_range_checks(self):
        with pytest.raises(LevelOutOfRange):
            member_depth(DESK, SparseDyadic.zero(), 5)
        with pytest.raises(OutOfUnitInterval):
            member_depth(DESK, SparseDyadic([(0, 2)]), 1)

    def test_survivor_centers_are_members(self):
        # membership coherence: every enumerated center passes member_depth
        for n in (1, 2, 3):
            for m in survivor_numerators(DESK, n, FULL, 10000):
                x = SparseDyadic([(DESK.e[n - 1], m)])
                assert member_depth(DESK, x, n).member


class TestRapidSequence:
    def test_trace_and_value(self):
        v, trace = rapid_sequence(DESK, 3)
        assert v == SparseDyadic.power(12)
        assert [t["exact_lattice_point"] for t in trace] == \
            [False, False, True, True]

    def test_ratio_exponents(self):
        # consecutive ratios a_{i+1}/a_i = 2**-(e_i (M_i - 1))
        for i in range(1, DESK.depth):
            gap = DESK.e[i] - DESK.e[i - 1]
            assert gap == DESK.e[i - 1] * (DESK.M[i - 1] - 1)

    def test_regime_guard(self):
        with pytest.raises(RegimeViolation):
            rapid_sequence(COLLAPSE, 3)


class TestTripleSum:
    def test_desk_selection(self):
        fam = select_triple_indices(DESK, 3)
        assert fam.indices == (2, 3, 4)
        assert [a.terms for a in fam.elements] == \
            [((3, 1),), ((12, 1),), ((60, 1),)]
        assert fam.check_invariants(DESK) is None

    def test_desk_all_27_sums(self):
        fam = select_triple_indices(DESK, 3)
        rep = verify_triple_sum(DESK, fam, 3, 4)
        assert rep["all_pass"]
        assert len(rep["triples"]) == 27
        assert all(s["member"] for s in rep["singles"])

    def test_next_index_would_be_5(self):
        fam = select_triple_indices(DESK, 4)
        assert fam.indices == (2, 3, 4, 5)
        assert fam.elements[3] == SparseDyadic.power(360)

    def test_too_shallow(self):
        with pytest.raises(ChainTooShallow):
            select_triple_indices(DESK, 5)

    def test_regime_guard(self):
        with pytest.raises(RegimeViolation):
            select_triple_indices(COLLAPSE, 2)

    def test_broken_invariant_raises(self, monkeypatch):
        # a raise, not an assert, so the check survives python -O
        from thinsets.falconer import TripleSumFamily
        monkeypatch.setattr(TripleSumFamily, "check_invariants",
                            lambda self, chain: "forced violation")
        with pytest.raises(InvariantViolation):
            select_triple_indices(DESK, 3)

    def test_invariant_detects_bad_family(self):
        from thinsets.falconer import TripleSumFamily
        bad = TripleSumFamily((1, 2), (SparseDyadic.power(1),
                                       SparseDyadic.power(3)))
        assert bad.check_invariants(DESK) is not None

    def test_index_past_chain_depth(self):
        # the desk chain has depth 5, so e_9 does not exist
        from thinsets.falconer import TripleSumFamily
        fam = TripleSumFamily((2, 9), (SparseDyadic.power(3),
                                       SparseDyadic.power(400)))
        why = fam.check_invariants(DESK)
        assert why == "index 9 exceeds the chain depth 5"
        rep = verify_triple_sum(DESK, fam, 2, 4)
        assert rep["invariant_violation"] == why
        assert rep["all_pass"]
        assert len(rep["triples"]) == 8


class TestBinaryTree:
    def test_basic_word(self):
        path = binary_tree_point(DESK, "010")
        assert path.i0 == 1
        assert path.representative == SparseDyadic.power(12)
        assert [iv.level for iv in path.intervals] == [1, 2, 3, 4]

    def test_all_words_distinct(self):
        reps = {binary_tree_point(DESK, bits).representative.terms
                for bits in ["".join(b) for b in
                             __import__("itertools").product("01",
                                                             repeat=3)]}
        assert len(reps) == 8

    def test_nesting_and_membership(self):
        path = binary_tree_point(DESK, "110")
        prev = None
        for iv in path.intervals:
            lo, hi = clipped(DESK, iv.level, iv.center_numerator)
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1]
            prev = (lo, hi)
        deepest = path.intervals[-1]
        assert member_depth(DESK, path.representative,
                            deepest.level).member

    def test_word_too_long(self):
        with pytest.raises(ConditionFailure):
            binary_tree_point(DESK, "0101")

    def test_regime_guard(self):
        with pytest.raises(RegimeViolation):
            binary_tree_point(COLLAPSE, "01")

    def test_condition_failure_details(self):
        try:
            binary_tree_point(DESK, "0101")
        except ConditionFailure as ex:
            assert ex.condition is not None


class TestEnumerateWindow:
    def test_desk_counts(self):
        assert len(survivor_numerators(DESK, 1, FULL, 1000)) == 3
        assert len(survivor_numerators(DESK, 2, FULL, 1000)) == 9
        assert len(survivor_numerators(DESK, 3, FULL, 10000)) == 1033

    def test_matches_brute_oracle(self):
        small = build_custom_chain([2, 3], [1, 2], 3)
        windows = [FULL, (Fraction(1, 8), Fraction(5, 8)),
                   (Fraction(0), Fraction(1, 4))]
        for n in (1, 2):
            for w in windows:
                got = [Fraction(m, 1 << small.e[n - 1])
                       for m in survivor_numerators(small, n, w, 10000)]
                assert got == brute_window_centers(small, n, w)

    def test_matches_brute_oracle_desk_l2(self):
        got = [Fraction(m, 8)
               for m in survivor_numerators(DESK, 2, FULL, 10000)]
        assert got == brute_window_centers(DESK, 2, FULL)

    def test_cap(self):
        with pytest.raises(CapExceeded) as ex:
            survivor_numerators(DESK, 3, FULL, 100)
        assert ex.value.level == 3

    def test_work_budget_blowup(self):
        with pytest.raises(CapExceeded):
            survivor_numerators(DESK, 4, FULL, 100000)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            survivor_numerators(DESK, 1, (Fraction(1, 2), Fraction(1, 2)),
                                10)


class TestLocalization:
    def test_desk_admissible_levels(self):
        for i, n in ((2, 3), (3, 3), (4, 4)):
            rep = localization_check(DESK, i, 1, n)
            assert rep["ok"]

    def test_precondition(self):
        # level 1 has rho_1 = 1 < e_1 + 3
        with pytest.raises(PreconditionFailure):
            localization_check(DESK, 1, 0, 2)

    def test_tower_scale_level_is_refused(self):
        # e_3 = 1.2e12: the guard must fire before 2**e_3 is built
        chain = build_custom_chain([3, 4 * 10 ** 11, 4 * 10 ** 11 + 1],
                                   [1, 2, 3], 4)
        with pytest.raises(ExponentTooLarge) as ex:
            localization_check(chain, 3, 1, 3)
        assert isinstance(ex.value, ThinsetError)
        assert isinstance(ex.value, OverflowError)

    def test_ratio_exponents_strictly_decreasing(self):
        exps = localization_ratio_exponents(DESK)
        assert exps == [3, 0, -21, -177]
        assert all(a > b for a, b in zip(exps, exps[1:]))


class TestDichotomy:
    def test_collapse_counts(self):
        rep = dichotomy_probe(COLLAPSE, 3, FULL, 10000)
        assert rep["counts"] == [3, 3, 3]
        assert rep["non_increasing"]
        assert rep["stable_from"] == 1

    def test_branching_guard(self):
        with pytest.raises(RegimeViolation):
            dichotomy_probe(DESK, 3, FULL, 10000)

    def test_one_refine_pass(self, monkeypatch):
        calls = []
        refine = falconer._refine

        def counting(*args):
            calls.append(args)
            return refine(*args)

        monkeypatch.setattr(falconer, "_refine", counting)
        rep = dichotomy_probe(COLLAPSE, 3, FULL, 10000)
        assert rep["counts"] == [3, 3, 3]
        assert len(calls) == 1

    def test_branching_counts_increase(self):
        counts = [len(survivor_numerators(DESK, n, FULL, 10000))
                  for n in (1, 2, 3)]
        assert counts[0] < counts[1] < counts[2]


class TestRandomizedChains:
    def test_windows_match_oracle(self):
        rng = random.Random(31)
        for _ in range(5):
            m1 = rng.randrange(2, 4)
            chain = build_custom_chain([m1, m1 + rng.randrange(1, 3)],
                                       [1, 2], 3)
            for n in (1, 2):
                got = [Fraction(m, 1 << chain.e[n - 1])
                       for m in survivor_numerators(chain, n, FULL, 100000)]
                assert got == brute_window_centers(chain, n, FULL)


class TestPieceFreeLastLevel:
    """survivor_numerators and dichotomy_probe skip the level-n pieces;
    the pieces-building _refine is their oracle."""

    @staticmethod
    def random_window(rng):
        if rng.random() < 0.3:
            return FULL
        q = rng.randrange(1, 25)
        lo = rng.randrange(0, q)
        return Fraction(lo, q), Fraction(rng.randrange(lo + 1, q + 1), q)

    def test_matches_pieces_on_random_chains(self):
        rng = random.Random(24)
        for _ in range(40):
            m1 = rng.randrange(2, 4)
            p1 = rng.randrange(1, 3)
            chain = build_custom_chain(
                [m1, m1 + rng.randrange(1, 3), m1 + 3],
                [p1, p1 + rng.randrange(1, 3), p1 + 3], 4)
            n = rng.randrange(1, 4)
            window = self.random_window(rng)
            nodes, _, counts = falconer._refine(chain, n, window, 200000)
            assert survivor_numerators(chain, n, window, 200000) == \
                sorted(nodes)
            assert falconer._refine(chain, n, window, 200000, False)[2] == \
                counts

    def test_dichotomy_counts_on_random_collapse_chains(self):
        from thinsets.chain import classify_regime
        rng = random.Random(7)
        probed = 0
        for _ in range(30):
            m1 = rng.randrange(2, 5)
            p1 = m1 + rng.randrange(0, 3)
            chain = build_custom_chain(
                [m1, m1 + 1, m1 + 2], [p1, p1 + 1, p1 + 2], 4)
            if classify_regime(chain).tag != "Collapse":
                continue
            window = self.random_window(rng)
            for n in (1, 2, 3):
                assert dichotomy_probe(chain, n, window, 10000)["counts"] \
                    == falconer._refine(chain, n, window, 10000)[2]
            probed += 1
        assert probed >= 10

    @pytest.mark.parametrize("n, cap", [(2, 5), (3, 100), (3, 1000),
                                        (4, 100000)])
    def test_cap_exceeded_alike(self, n, cap):
        # (2, 5) and (3, 1000) trip the cap at the last level, (3, 100)
        # and (4, 100000) the work budget
        with pytest.raises(CapExceeded) as built:
            falconer._refine(DESK, n, FULL, cap)
        with pytest.raises(CapExceeded) as free:
            survivor_numerators(DESK, n, FULL, cap)
        assert free.value.level == built.value.level == n
        assert str(free.value) == str(built.value)
