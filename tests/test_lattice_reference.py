"""Differential test of the integer lattice pipeline against a Fraction
reference.

The reference below is the Fraction implementation of window
enumeration and of the covering/packing counters that the integer
pipeline replaced, kept verbatim as the oracle: survivors, feasible
pieces, covering and packing counts and localization distances must
agree exactly, including the CapExceeded outcomes.
"""

import random
from fractions import Fraction

import pytest

from thinsets.chain import build_custom_chain, classify_regime
from thinsets.dimension import (covering_number, dimension_report,
                                packing_number)
from thinsets.errors import CapExceeded
from thinsets.falconer import (_refine, localization_check,
                               survivor_numerators)

FULL = (Fraction(0), Fraction(1))
CAP = 3000


# --- Fraction reference ----------------------------------------------------

def ref_refine(chain, n, window, cap):
    lo, hi = Fraction(window[0]), Fraction(window[1])
    pieces = [(lo, hi)]
    nodes = {Fraction(0): pieces}
    for j in range(1, n + 1):
        ej = chain.e[j - 1]
        r = Fraction(2) ** -chain.rho[j - 1]
        scale = 1 << ej
        top = scale
        new_nodes = {}
        budget = 8 * cap
        for feas in nodes.values():
            for a, b in feas:
                m_lo = max(0, _ceil_frac((a - r) * scale))
                m_hi = min(top, _floor_frac((b + r) * scale))
                budget -= max(0, m_hi - m_lo + 1)
                if budget < 0:
                    raise CapExceeded(
                        f"candidate enumeration at level {j} exceeds "
                        f"work budget 8*{cap}", level=j)
                for m in range(m_lo, m_hi + 1):
                    h = Fraction(m, scale)
                    na, nb = max(a, h - r), min(b, h + r)
                    if na > nb:
                        continue
                    _add_piece(new_nodes.setdefault(h, []), (na, nb))
        if len(new_nodes) > cap:
            raise CapExceeded(
                f"{len(new_nodes)} intervals at level {j} exceeds cap {cap}",
                level=j)
        if not new_nodes:
            return {}
        nodes = new_nodes
    return nodes


def _ceil_frac(x):
    return -((-x.numerator) // x.denominator)


def _floor_frac(x):
    return x.numerator // x.denominator


def _add_piece(pieces, new):
    a, b = new
    out = []
    for pa, pb in pieces:
        if pb < a or b < pa:
            out.append((pa, pb))
        else:
            a, b = min(a, pa), max(b, pb)
    out.append((a, b))
    out.sort()
    pieces[:] = out


def ref_bounds(chain, n, center):
    r = Fraction(2) ** -chain.rho[n - 1]
    return max(Fraction(0), center - r), min(Fraction(1), center + r)


def ref_merge(intervals):
    items = sorted((Fraction(a), Fraction(b)) for a, b in intervals)
    out = []
    for a, b in items:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _ceil_div_frac(x, y):
    num = x.numerator * y.denominator
    den = x.denominator * y.numerator
    return -((-num) // den)


def ref_covering(intervals, d):
    delta = Fraction(2) ** -d
    count = 0
    covered = None
    for a, b in ref_merge(intervals):
        frontier = a if covered is None or covered < a else covered
        if frontier > b or (frontier == b and covered is not None
                            and covered >= b):
            continue
        k = max(1, _ceil_div_frac(b - frontier, delta))
        count += k
        covered = frontier + k * delta
    return count


def ref_packing(intervals, d):
    step = 2 * Fraction(2) ** -d
    count = 0
    nx, nk = None, 0
    for a, b in ref_merge(intervals):
        if nx is None or (nx, nk) < (a, 0):
            cx, ck = a, 0
        else:
            cx, ck = nx, nk
        q = (b - cx) / step
        m = max(0, _ceil_div_frac(b - cx, step))
        if q.denominator == 1 and q >= 0 and ck + q <= 0:
            m += 1
        if m > 0:
            count += m
            nx, nk = cx + m * step, ck + m
        else:
            nx, nk = cx, ck
    return count


def ref_max_distance(chain, i, g_numerator, n, cap):
    ei = chain.e[i - 1]
    g = Fraction(g_numerator, 1 << ei)
    half = Fraction(2) ** -(ei + 1)
    lo, hi = max(Fraction(0), g - half), min(Fraction(1), g + half)
    max_dist = Fraction(0)
    for feas in ref_refine(chain, n, (lo, hi), cap).values():
        for a, b in feas:
            max_dist = max(max_dist, abs(a - g), abs(b - g))
    return f"{max_dist.numerator}/{max_dist.denominator}"


# --- inputs ----------------------------------------------------------------

def random_chains(rng, regime, count):
    """Depth-4 chains of the regime with small lattice exponents.  Radius
    exponents are drawn through k_i = e_{i+1} - rho_i, the log2 of the
    branching per interval, so survivor counts stay near the cap."""
    out = []
    while len(out) < count:
        m = sorted(rng.sample(range(2, 8), 3))
        e = [1, m[0], m[0] * m[1], m[0] * m[1] * m[2]]
        if regime == "Branching":  # needs e_i < k_i
            k = [rng.randrange(2, 4), e[1] + rng.randrange(1, 3),
                 e[2] + rng.randrange(1, 3)]
            rho = [e[i + 1] - k[i] for i in range(3)]
        else:  # needs k_i < 0
            rho = [e[i + 1] + rng.randrange(1, 4) for i in range(3)]
        try:
            chain = build_custom_chain(
                m, [Fraction(r, ei) for r, ei in zip(rho, e)], 4)
        except Exception:
            continue
        if classify_regime(chain).tag == regime:
            out.append(chain)
    return out


def windows(rng, chain):
    """The full window, a non-dyadic one, windows ending exactly on
    h + r or h - r of some lattice point (one-point pieces), gap windows
    strictly between the radius-r neighbourhoods of adjacent lattice
    points (empty from that level on), and a random dyadic window."""
    out = [FULL, (Fraction(1, 3), Fraction(5, 7))]
    j = rng.randrange(1, chain.levels + 1)
    h = Fraction(rng.randrange(0, (1 << chain.e[j - 1]) + 1),
                 1 << chain.e[j - 1])
    r = Fraction(1, 1 << chain.rho[j - 1])
    if h + r < 1:
        out.append((h + r, min(Fraction(1), h + r + Fraction(1, 5))))
    if h - r > 0:
        out.append((max(Fraction(0), h - r - Fraction(1, 7)), h - r))
    for j in range(1, chain.levels + 1):
        step = Fraction(1, 1 << chain.e[j - 1])
        r = Fraction(1, 1 << chain.rho[j - 1])
        h = step * rng.randrange(0, 1 << chain.e[j - 1])
        quarter = (step - 2 * r) / 4
        if quarter > 0:
            out.append((h + r + quarter, h + step - r - quarter))
    a, b = sorted(rng.sample(range(0, 257), 2))
    out.append((Fraction(a, 256), Fraction(b, 256)))
    return out


def outcome(fn):
    try:
        return fn()
    except CapExceeded as ex:
        return ("CapExceeded", str(ex), ex.level)


def as_fractions(chain, n, nodes, den):
    """(center, pieces) items in the order the nodes were found."""
    return [(Fraction(m, 1 << chain.e[n - 1]),
             [(Fraction(a, den), Fraction(b, den)) for a, b in pieces])
            for m, pieces in nodes.items()]


CHAINS = [pytest.param(ch, id=f"{regime}-{k}")
          for regime, seed in (("Branching", 5), ("Collapse", 6))
          for k, ch in enumerate(random_chains(random.Random(seed), regime,
                                               6))]


# --- tests -----------------------------------------------------------------

@pytest.mark.parametrize("chain", CHAINS)
def test_refine_matches_reference(chain):
    rng = random.Random(repr(chain.rho))
    for window in windows(rng, chain):
        # a tight cap puts the 8*cap work budget just below the level-3
        # candidate count, so it must fire at the same candidate
        full = ref_refine(chain, 3, window, CAP)
        tight = max(1, (len(full) - 1) // 8)
        for n, cap in ((1, CAP), (2, CAP), (3, CAP), (3, 40), (3, tight)):
            want = outcome(lambda: (
                list(ref_refine(chain, n, window, cap).items()),
                [len(ref_refine(chain, j, window, cap))
                 for j in range(1, n + 1)]))

            def got():
                nodes, den, counts = _refine(chain, n, window, cap)
                return as_fractions(chain, n, nodes, den), counts

            assert outcome(got) == want, (window, n, cap)
            if want[0] != "CapExceeded":
                centers = [Fraction(m, 1 << chain.e[n - 1])
                           for m in survivor_numerators(chain, n, window,
                                                        cap)]
                assert centers == sorted(h for h, _ in want[0])


@pytest.mark.parametrize("chain", CHAINS)
def test_dim_rows_match_reference(chain):
    n_range = list(range(1, chain.levels + 1))
    want = []
    for n in n_range:
        nodes = outcome(lambda: ref_refine(chain, n, FULL, CAP))
        if not isinstance(nodes, dict):
            want = nodes  # the report raises at the same level
            break
        d = max(chain.rho[n - 1] - 2, 2)
        ivs = [ref_bounds(chain, n, h) for h in sorted(nodes)]
        want.append((d, ref_covering(ivs, d), ref_packing(ivs, d)))
    got = outcome(lambda: [
        (row["delta_exponent"], row["covering"], row["packing"])
        for row in dimension_report(chain, [Fraction(1)], n_range,
                                    cap=CAP)["rows"]])
    assert got == want


def test_dim_row_with_delta_finer_than_radius():
    # rho_1 = 1 gives d = 2 > rho_1: the unit must follow d, not rho
    chain = build_custom_chain([3, 4, 5], [1, 2, 3], 4)
    row = dimension_report(chain, [Fraction(1)], [1])["rows"][0]
    ivs = [ref_bounds(chain, 1, Fraction(m, 2)) for m in range(3)]
    assert (row["delta_exponent"], row["covering"], row["packing"]) == \
        (2, ref_covering(ivs, 2), ref_packing(ivs, 2))


def test_localization_matches_reference():
    rng = random.Random(7)
    chains = [ch for ch in random_chains(rng, "Branching", 30)
              if ch.rho[1] >= ch.e[1] + 3]
    assert chains
    for chain in chains:
        top = 1 << chain.e[1]
        for g in (0, 1, top // 2 - 1, top - 1, top):
            for n in (2, 3):
                want = outcome(lambda: ref_max_distance(chain, 2, g, n, CAP))
                got = outcome(lambda: localization_check(
                    chain, 2, g, n, CAP)["max_distance"])
                assert got == want, (chain.rho, g, n)


def test_counters_match_reference_on_fractions():
    rng = random.Random(11)
    third = [(Fraction(1, 3), Fraction(1, 3)),
             (Fraction(1, 3), Fraction(2, 3))]
    families = [third, [(Fraction(1, 3), Fraction(1, 3))], []]
    for _ in range(60):
        fam = []
        for _ in range(rng.randrange(1, 8)):
            a = Fraction(rng.randrange(0, 60), rng.choice([7, 16, 48, 60]))
            w = Fraction(rng.randrange(0, 5), rng.choice([3, 32, 64]))
            fam.append((min(a, Fraction(1)), min(a + w, Fraction(1))))
        families.append(fam)
    for fam in families:
        for d in range(0, 9):
            assert covering_number(fam, d) == ref_covering(fam, d)
            assert packing_number(fam, d) == ref_packing(fam, d)
