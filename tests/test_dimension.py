"""Covering/packing counters, gauge costs, and product-bound verdicts."""

import random
from fractions import Fraction

import pytest

from thinsets import dimension
from thinsets.chain import build_custom_chain, build_explicit_chain
from thinsets.dimension import (GaugeParams, box_estimate, covering_number,
                                dimension_report, hs_cover_cost,
                                packing_number, product_bound, report_to_csv)
from thinsets.falconer import survivor_numerators

DESK = build_custom_chain([3, 4, 5, 6], [1, 2, 3, 4], 5)
FULL = (Fraction(0), Fraction(1))


def clipped(chain, level, m):
    """[m * 2**-e - r, m * 2**-e + r] n [0, 1] for the level's radius r,
    clipped in integer units of 2**-u as dimension_report clips it."""
    e, rho = chain.e[level - 1], chain.rho[level - 1]
    u = max(e, rho)
    c, r = m << (u - e), 1 << (u - rho)
    return (Fraction(max(0, c - r), 1 << u),
            Fraction(min(1 << u, c + r), 1 << u))


def desk_intervals(n, cap=10000):
    return [clipped(DESK, n, m)
            for m in survivor_numerators(DESK, n, FULL, cap)]


def packing_vs_covering_check(intervals, d_grid):
    """P at scale 2**-d never exceeds N at scale 2**-(d-1); checked on
    every grid exponent.  A failure indicates a counter bug."""
    rows = []
    ok = True
    for d in d_grid:
        if d < 1:
            raise ValueError("grid exponents must be >= 1")
        p = dimension.packing_number(intervals, d)
        n = dimension.covering_number(intervals, d - 1)
        rows.append({"d": d, "packing": p, "covering_coarser": n,
                     "ok": p <= n})
        ok = ok and p <= n
    return {"ok": ok, "rows": rows}


def random_family(rng, max_count=12, max_exp=32):
    out = []
    for _ in range(rng.randrange(1, max_count + 1)):
        a = Fraction(rng.randrange(0, 1 << 16), 1 << 16)
        width = Fraction(1, 1 << rng.randrange(1, max_exp + 1))
        out.append((a, min(a + width, Fraction(1))))
    return out



def brute_min_cover(intervals, d, hard_cap=40):
    """Exhaustive minimum over all normalized alignments.

    An optimal cover can be normalized so every interval starts at a
    component left endpoint plus a multiple of delta; the search tries
    every such candidate (not just the greedy one) with memoization.
    Returns None when more than hard_cap intervals would be needed.
    """
    delta = Fraction(2) ** -d
    comps = dimension._merge(intervals)
    if not comps:
        return 0
    top = comps[-1][1]
    candidates = sorted({a + j * delta
                         for a, _ in comps
                         for j in range(hard_cap + 2)
                         if a + j * delta <= top})
    memo = {}

    def next_uncovered(c):
        for a, b in comps:
            if a > c:
                return (a, True)
            if b > c:
                return (c, False)
        return None

    def solve(frontier):
        if frontier in memo:
            return memo[frontier]
        memo[frontier] = None  # cycle guard; never hit
        x, inclusive = frontier
        best = None
        for s in candidates:
            if s > x:
                break
            reach = s + delta
            if (reach < x) if inclusive else (reach <= x):
                continue
            nf = next_uncovered(reach)
            sub = 0 if nf is None else solve(nf)
            if sub is not None and (best is None or 1 + sub < best):
                best = 1 + sub
        if best is not None and best > hard_cap:
            best = None
        memo[frontier] = best
        return best

    a0 = comps[0][0]
    return solve((a0, True))


class TestGaugeParams:
    def test_validation(self):
        GaugeParams(Fraction(1), Fraction(1), Fraction(1, 2))
        with pytest.raises(ValueError):
            GaugeParams(Fraction(0), Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            GaugeParams(Fraction(1), Fraction(2), Fraction(1))
        with pytest.raises(ValueError):
            GaugeParams(Fraction(1), Fraction(1), Fraction(0))


class TestCovering:
    def test_trivial_examples(self):
        two = [(Fraction(0), Fraction(1, 64)),
               (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 64))]
        assert covering_number(two, 6) == 2
        assert covering_number([(Fraction(0), Fraction(1, 16))], 6) == 4
        assert covering_number([], 4) == 0

    def test_desk_f2(self):
        assert covering_number(desk_intervals(2), 4) == 9

    def test_inexact_endpoints_refused(self):
        with pytest.raises(TypeError):
            covering_number([(0.0, 0.5)], 3)
        with pytest.raises(TypeError):
            packing_number([(Fraction(0), "1/2")], 3)

    def test_matches_duality_oracle(self):
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            fam = random_family(rng)
            d = rng.randrange(1, 20)
            cov = covering_number(fam, d)
            if cov > 40:
                continue  # mesh far below family scale; search infeasible
            assert cov == brute_min_cover(fam, d)
            checked += 1


class TestPacking:
    def test_trivial(self):
        assert packing_number([(Fraction(1, 3), Fraction(1, 3))], 5) == 1
        assert packing_number([], 5) == 0

    def test_strict_separation(self):
        # centers exactly 2*delta apart give overlapping closed balls
        d = 6
        pts = [(Fraction(0), Fraction(0)),
               (Fraction(2, 64), Fraction(2, 64))]
        assert packing_number(pts, d) == 1
        apart = [(Fraction(0), Fraction(0)),
                 (Fraction(2, 64) + Fraction(1, 128),
                  Fraction(2, 64) + Fraction(1, 128))]
        assert packing_number(apart, d) == 2

    def test_desk_f2_vs_cover(self):
        fam = desk_intervals(2)
        assert 1 <= packing_number(fam, 6) <= covering_number(fam, 5)


class TestPackingVsCovering:
    def test_desk_f3(self):
        rep = packing_vs_covering_check(desk_intervals(3), [10, 20, 30])
        assert rep["ok"]
        assert len(rep["rows"]) == 3

    def test_randomized_families(self):
        rng = random.Random(43)
        for _ in range(25):
            fam = random_family(rng)
            grid = sorted({rng.randrange(1, 30) for _ in range(4)})
            assert packing_vs_covering_check(fam, grid)["ok"]

    def test_mutation_detected(self, monkeypatch):
        fam = desk_intervals(2)
        real = dimension.covering_number

        def corrupted(intervals, d):
            return max(real(intervals, d) - 1, 0)

        monkeypatch.setattr(dimension, "covering_number", corrupted)
        rep = packing_vs_covering_check(fam, [5, 7])
        assert not rep["ok"]


class TestProductBound:
    def test_corollary_form_n2(self):
        chain = build_explicit_chain(2)
        gp = GaugeParams(Fraction(1), Fraction(1), Fraction(1, 2))
        rep = product_bound(chain, 2, gp, "packing2", prec=128,
                            max_prec=128)
        assert rep["holds"]
        assert rep["lhs"] == "5/1"
        assert rep["rhs"].startswith("5.19860")

    def test_corollary_form_n3(self):
        chain = build_explicit_chain(2)
        gp = GaugeParams(Fraction(1), Fraction(1), Fraction(1, 2))
        rep = product_bound(chain, 3, gp, "packing2", prec=128,
                            max_prec=128)
        assert rep["holds"]

    def test_hausdorff_mode_index(self):
        gp = GaugeParams(Fraction(1), Fraction(1, 2), Fraction(1))
        rep = product_bound(DESK, 3, gp, "hausdorff1")
        assert rep["index"] == 3
        rep2 = product_bound(DESK, 3, gp, "packing2")
        assert rep2["index"] == 2

    def test_desk_report_only(self):
        gp = GaugeParams(Fraction(1), Fraction(1, 2), Fraction(1))
        rep = product_bound(DESK, 3, gp, "packing2")
        assert rep["holds"] in (True, False)

    def test_bad_mode(self):
        gp = GaugeParams(Fraction(1), Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            product_bound(DESK, 2, gp, "other")


class TestGaugeCosts:
    def test_example_value(self):
        c = hs_cover_cost(4, 16, Fraction(1))
        assert c["decimal"].startswith("0.36067")

    def test_monotonicity_grid(self):
        s_vals = [Fraction(1, 2), Fraction(1), Fraction(3, 2),
                  Fraction(2), Fraction(3)]
        d_vals = [4, 8, 16, 32, 64]
        for d in d_vals:
            # strictly decreasing in s (d*ln2 > 1 for d >= 2)
            costs = [hs_cover_cost(7, d, s) for s in s_vals]
            for a, b in zip(costs, costs[1:]):
                assert b["hi"] < a["lo"]
        for s in s_vals:
            costs = [hs_cover_cost(7, d, s) for d in d_vals]
            for a, b in zip(costs, costs[1:]):
                assert b["hi"] < a["lo"]
        # strictly increasing in count
        assert hs_cover_cost(8, 16, 1)["lo"] > hs_cover_cost(7, 16,
                                                             1)["hi"]

    def test_box_estimate(self):
        b = box_estimate(1033, 34)
        assert b["lo"] < Fraction(22, 10) < b["hi"] + 1
        assert box_estimate(1, 10)["decimal"] == "0"


class TestReport:
    def test_desk_table(self):
        rep = dimension_report(DESK, [Fraction(1, 2), Fraction(1),
                                      Fraction(2)], [1, 2, 3])
        assert len(rep["rows"]) == 3
        csv_text = report_to_csv(rep)
        assert csv_text.splitlines()[0].startswith("n,delta_exponent")
        assert rep["fitted_C1"] is not None

    def test_chain_rows_follow_log_convention(self):
        base2 = build_custom_chain([3, 4, 5, 6], [1, 2, 3, 4], 5,
                                   log_convention="base2")
        reports = {}
        for chain in (DESK, base2):
            conv = chain.log_convention
            rep = dimension_report(chain, [Fraction(1)], [1, 2, 3])
            for row in rep["rows"]:
                cov, d = row["covering"], row["delta_exponent"]
                assert row["box_estimate"] == \
                    box_estimate(cov, d, convention=conv)["decimal"]
                assert row["hs_cost(s=1)"] == \
                    hs_cover_cost(cov, d, 1, convention=conv)["decimal"]
            reports[conv] = rep
        nat, b2 = reports["natural"]["rows"], reports["base2"]["rows"]
        assert [r["covering"] for r in nat] == [r["covering"] for r in b2]
        assert nat[2]["box_estimate"] != b2[2]["box_estimate"]
        assert reports["natural"]["fitted_C1"] != \
            reports["base2"]["fitted_C1"]

    def test_empty_range(self):
        rep = dimension_report(DESK, [Fraction(1)], [])
        assert rep["rows"] == []
        assert report_to_csv(rep) == ""


def greedy_counts(chain, n, cap=200000):
    """covering_number and packing_number of the clipped level-n survivor
    intervals at delta = 4 r_n.  The intervals are those of clipped(),
    scaled to integers in units of 2**-rho_n: the reference chain's
    131089 Fractions would take seconds."""
    e, rho = chain.e[n - 1], chain.rho[n - 1]
    d = max(rho - 2, 2)
    u = max(rho, d)
    r, top = 1 << (u - rho), 1 << u
    ivs = [(max(0, c - r), min(top, c + r))
           for c in (m << (u - e)
                     for m in survivor_numerators(chain, n, FULL, cap))]
    return covering_number(ivs, d - u), packing_number(ivs, d - u)


def certified(chain, n):
    return chain.rho[n - 1] >= chain.e[n - 1] + 4


class TestSeparationCertificate:
    def check_rows(self, chain, levels):
        rows = dimension_report(chain, [Fraction(1)], levels)["rows"]
        for row in rows:
            n = row["n"]
            assert (row["covering"], row["packing"]) == \
                greedy_counts(chain, n)
            if certified(chain, n):
                assert row["covering"] == row["packing"] == \
                    len(survivor_numerators(chain, n, FULL, 200000))
        return [certified(chain, row["n"]) for row in rows]

    def test_desk_chain(self):
        assert self.check_rows(DESK, [1, 2, 3]) == [False, False, True]

    def test_reference_chain(self):
        ref = build_custom_chain([4, 5, 6, 7], [1, 2, 3, 4], 5)
        assert self.check_rows(ref, [1, 2, 3]) == [False, True, True]

    def test_random_chains(self):
        rng = random.Random(24)
        seen = set()
        for _ in range(12):
            m1 = rng.randrange(2, 4)
            p1 = rng.randrange(1, 3)
            chain = build_custom_chain(
                [m1, m1 + rng.randrange(1, 3), m1 + 3],
                [p1, p1 + rng.randrange(1, 3), p1 + 3], 4)
            seen.update(self.check_rows(chain, [1, 2, 3]))
        assert seen == {False, True}

    def test_weakened_premise_is_caught(self):
        # desk level 1: rho_1 = e_1 = 1, three survivors whose
        # neighbourhoods overlap, so covering and packing both differ
        # from the survivor count; a certificate at rho_n >= e_n would
        # report 3 for both
        row = dimension_report(DESK, [Fraction(1)], [1])["rows"][0]
        assert DESK.rho[0] == DESK.e[0]
        assert len(survivor_numerators(DESK, 1, FULL, 1000)) == 3
        assert (row["covering"], row["packing"]) == (4, 2)
