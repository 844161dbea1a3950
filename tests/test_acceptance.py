"""Acceptance gate: one test per headline property, one printed
pass/fail line each."""

import functools
import itertools
import random
import time
from fractions import Fraction

from thinsets.chain import (ExactCount, branching_count,
                            branching_lower_bound, build_custom_chain,
                            build_explicit_chain, classify_regime)
from thinsets.dimension import (GaugeParams, covering_number, hs_cover_cost,
                                packing_number, product_bound)
from thinsets.digit import (DigitSpec, dimension_zero_diagnostic,
                            separation_check, verify_triple_sumset)
from thinsets.dyadic import SparseDyadic
from thinsets.falconer import (binary_tree_point, dichotomy_probe,
                               localization_check,
                               localization_ratio_exponents, member_depth,
                               rapid_sequence, select_triple_indices,
                               survivor_numerators, verify_triple_sum)
from thinsets.independent import (build_independent_tree, enumerate_forms,
                                  quadruple_scan, relation_scan)

import test_dimension as dim_helpers

DESK = build_custom_chain([3, 4, 5, 6], [1, 2, 3, 4], 5)
FULL = (Fraction(0), Fraction(1))


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL: {desc}")
                raise
            print(f"[criterion {num:2d}] PASS: {desc}")
        return run
    return wrap


def random_branching_chain(rng, depth=5):
    m = []
    prev = 2
    for i in range(1, depth):
        prev = max(prev + 1, i + 3) + rng.randrange(0, 3)
        m.append(prev)
    return build_custom_chain(m, list(range(1, depth)), depth)


@criterion(1, "triple sumsets verify on the desk chain and randomized "
              "branching chains")
def test_triple_sumsets():
    t0 = time.monotonic()
    fam = select_triple_indices(DESK, 3)
    assert fam.indices == (2, 3, 4)
    rep = verify_triple_sum(DESK, fam, 3, 4)
    assert rep["all_pass"] and len(rep["triples"]) == 27
    assert time.monotonic() - t0 < 1.0
    rng = random.Random(101)
    for _ in range(3):
        chain = random_branching_chain(rng)
        assert classify_regime(chain).tag == "Branching"
        fam = select_triple_indices(chain, 3)
        rep = verify_triple_sum(chain, fam, 3, 4)
        assert rep["all_pass"]
        assert all(s["member"] for s in rep["singles"])


@criterion(2, "exact branching counts meet the interior and boundary "
              "lower bounds on 10 randomized chains")
def test_branching_counts():
    rng = random.Random(103)
    for _ in range(10):
        chain = random_branching_chain(rng)
        for i in range(1, chain.levels + 1):
            k = chain.e[i] - chain.rho[i - 1]
            interior = branching_count(chain, i, 1)
            assert interior == ExactCount(2, k, 1)
            assert interior >= branching_lower_bound(chain, i)
            boundary = branching_count(chain, i, 0)
            assert boundary >= ExactCount(1, k, 1)


@criterion(3, "window counts stabilize under collapse and strictly "
              "increase under branching")
def test_dichotomy():
    t0 = time.monotonic()
    collapse = build_custom_chain([3, 4, 5], [4, 5, 6], 4)
    probe = dichotomy_probe(collapse, 3, FULL, 10000)
    assert probe["non_increasing"]
    tail = probe["counts"][probe["stable_from"] - 1:]
    assert len(set(tail)) == 1
    counts = [len(survivor_numerators(DESK, n, FULL, 10000))
              for n in (1, 2, 3)]
    assert counts[0] < counts[1] < counts[2]
    assert time.monotonic() - t0 < 5.0


@criterion(4, "rapid-decay ratios are exact and localization holds at "
              "every admissible level")
def test_rapid_and_localization():
    _, trace = rapid_sequence(DESK, 3)
    for i in range(1, DESK.depth):
        assert DESK.e[i] - DESK.e[i - 1] == DESK.e[i - 1] * (DESK.M[i - 1]
                                                             - 1)
    assert [t["exact_lattice_point"] for t in trace] == \
        [False, False, True, True]
    for i, n in ((2, 3), (3, 3), (4, 4)):
        assert localization_check(DESK, i, 1, n)["ok"]
    exps = localization_ratio_exponents(DESK)
    assert all(a > b for a, b in zip(exps, exps[1:]))


@criterion(5, "all 16 length-4 tree words give nested disjoint intervals "
              "with member representatives")
def test_uncountability_skeleton():
    deep = build_custom_chain([3, 4, 5, 6, 7], [1, 2, 3, 4, 5], 6)
    deepest = []
    for bits in itertools.product("01", repeat=4):
        path = binary_tree_point(deep, "".join(bits))
        assert len(path.intervals) == 5
        prev = None
        for iv in path.intervals:
            lo, hi = dim_helpers.clipped(deep, iv.level,
                                         iv.center_numerator)
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1]
            prev = (lo, hi)
        leaf = path.intervals[-1]
        assert member_depth(deep, path.representative, leaf.level).member
        deepest.append(dim_helpers.clipped(deep, leaf.level,
                                           leaf.center_numerator))
    assert len(deepest) == 16
    for (a1, b1), (a2, b2) in itertools.combinations(deepest, 2):
        assert b1 < a2 or b2 < a1


@criterion(6, "explicit chain starts at M_1 = 17 and the half-product "
              "bound certifies at n = 2, 3 without precision escalation")
def test_explicit_chain_bound():
    assert build_explicit_chain(1).M[0] == 17
    assert build_explicit_chain(1, log_convention="base2").M[0] == 12
    chain = build_explicit_chain(2)
    gp = GaugeParams(Fraction(1), Fraction(1), Fraction(1, 2))
    for n in (2, 3):
        rep = product_bound(chain, n, gp, "packing2", prec=128,
                            max_prec=128)
        assert rep["holds"]


@criterion(7, "covering and packing counters pass duality, brute-force, "
              "and gauge-monotonicity checks")
def test_dimension_mechanics():
    rng = random.Random(107)
    fams = [dim_helpers.random_family(rng) for _ in range(20)]
    fams += [dim_helpers.desk_intervals(n) for n in (1, 2, 3)]
    for fam in fams:
        grid = sorted({rng.randrange(1, 25) for _ in range(4)})
        assert dim_helpers.packing_vs_covering_check(fam, grid)["ok"]
    checked = 0
    while checked < 30:
        fam = dim_helpers.random_family(rng)
        d = rng.randrange(1, 20)
        cov = covering_number(fam, d)
        if cov > 40:
            continue
        assert cov == dim_helpers.brute_min_cover(fam, d)
        assert packing_number(fam, d) >= 1
        checked += 1
    s_vals = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
              Fraction(3)]
    d_vals = [4, 8, 16, 32, 64]
    for d in d_vals:
        costs = [hs_cover_cost(7, d, s) for s in s_vals]
        assert all(b["hi"] < a["lo"] for a, b in zip(costs, costs[1:]))
    for s in s_vals:
        costs = [hs_cover_cost(7, d, s) for d in d_vals]
        assert all(b["hi"] < a["lo"] for a, b in zip(costs, costs[1:]))


@criterion(8, "the form-avoiding tree is exhaustively nonvanishing and "
              "the quadruple scanner has no false negatives")
def test_independent_tree():
    forms = enumerate_forms(2, 3, 258)  # every form with height <= 2
    rho = (Fraction(1, 10), Fraction(1, 128))
    tree = build_independent_tree(2, rho, forms)
    for n in (1, 2):
        eps = tree.epsilons[n - 1]
        cs = tree.level_centers(n)
        for form in tree.forms:
            if form.arity > len(cs):
                continue
            for tup in itertools.permutations(cs, form.arity):
                assert abs(form.evaluate(tup)) > eps * form.coefficient_l1()
    leaves = tree.level_centers(2)
    assert quadruple_scan(leaves)["quadruple"] is None
    assert relation_scan(leaves, 2, 3)["relation"] is None
    rng = random.Random(109)
    for _ in range(100):
        a1 = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        a2 = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        if a1 == a2:
            continue
        expected = tuple(sorted([Fraction(0), a1, a2, a1 + a2]))
        got = quadruple_scan([0, a1, a2, a1 + a2])["quadruple"]
        assert got == expected


@criterion(9, "digit Cantor sets separate and absorb triple sums under "
              "fast growth, and fail separation under slow growth")
def test_digit_cantor():
    fast = DigitSpec(g=tuple(2 ** (n * n) for n in range(1, 7)), N_max=6,
                     growth="g(n+1)>=g(n)+2")
    assert separation_check(fast, 6)["ok"]
    rep = verify_triple_sumset(fast, 6)
    assert rep["ok"] and rep["total"] <= 9 ** 3
    diag = dimension_zero_diagnostic(fast, [Fraction(1, 2), Fraction(1),
                                            Fraction(2)], [1, 2, 3, 4, 5])
    assert all(diag["decreasing"].values())
    slow = DigitSpec(g=tuple(range(1, 7)), N_max=6,
                     growth="g(n+1)>=g(n)+1")
    assert not separation_check(slow, 6)["ok"]


@criterion(10, "sparse dyadic sign, compare, and lattice distance agree "
               "with the exact-rational oracle on 10000 cases")
def test_arithmetic_core():
    rng = random.Random(113)

    def to_frac(x):
        return sum(Fraction(c, 1 << f) for f, c in x.terms) if x.terms \
            else Fraction(0)

    def rand_value():
        return SparseDyadic([(rng.randrange(41),
                              rng.choice([-1, 1]) * rng.randrange(1, 64))
                             for _ in range(rng.randrange(7))])

    checked = 0
    while checked < 10000:
        x, y = rand_value(), rand_value()
        fx, fy = to_frac(x), to_frac(y)
        assert x.sign() == (fx > 0) - (fx < 0)
        assert x.compare(y) == (fx > fy) - (fx < fy)
        if 0 <= fx <= 1:
            e = rng.randrange(0, 40)
            step = Fraction(1, 1 << e)
            frac = fx % step
            assert to_frac(x.dist_to_lattice(e)) == min(frac, step - frac)
        checked += 1
