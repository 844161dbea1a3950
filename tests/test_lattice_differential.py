"""Differential test of the two exact realizations of F_n: member_depth
(sparse dyadic distances) against _refine (integer pieces).

The union of the level-n pieces that _refine keeps is F_n met with the
window, as disjoint closed components with integer endpoints in units of
2**-U.  So the endpoints and the midpoint of every component must be
members at depth n, and a point half a unit outside a component, still
inside the window, must not be: distinct components are at least one
unit apart.
"""

import random
from fractions import Fraction

from thinsets.chain import build_custom_chain
from thinsets.dimension import _merge
from thinsets.dyadic import SparseDyadic
from thinsets.errors import CapExceeded, ThinsetError
from thinsets.falconer import _refine, member_depth


def random_case(rng):
    """A chain with M in 2..8 and phi in halves, a depth n <= 3 and a
    dyadic window, or None when the draw is not a valid chain."""
    depth = rng.randrange(2, 5)
    M = sorted(rng.sample(range(2, 9), depth - 1))
    phi = [Fraction(k, 2) for k in sorted(rng.sample(range(1, 17),
                                                     depth - 1))]
    try:
        chain = build_custom_chain(M, phi, depth)
    except ThinsetError:
        return None
    k = rng.randrange(0, 7)
    a, b = sorted(rng.sample(range((1 << k) + 1), 2))
    window = (Fraction(a, 1 << k), Fraction(b, 1 << k))
    return chain, rng.randrange(1, depth), window


def check_case(chain, n, window, cap):
    """Points checked for one case; None when _refine hits the cap."""
    try:
        nodes, den, _ = _refine(chain, n, window, cap)
    except CapExceeded:
        return None
    u = den.bit_length() - 1
    assert den == 1 << u  # a dyadic window keeps the units dyadic
    lo, hi = (int(w * den) * 2 for w in window)
    members, outside = [], []
    comps = _merge(p for pieces in nodes.values() for p in pieces)
    for a, b in comps:
        members += [2 * a, a + b, 2 * b]
        outside += [p for p in (2 * a - 1, 2 * b + 1) if lo <= p <= hi]
    if not comps:
        outside += [lo, (lo + hi) // 2, hi]
    # points in units of 2**-(U+1), each one term
    for p in members:
        x = SparseDyadic([(u + 1, p)])
        assert member_depth(chain, x, n).member, (chain, n, window, p)
    for p in outside:
        x = SparseDyadic([(u + 1, p)])
        assert not member_depth(chain, x, n).member, (chain, n, window, p)
    return len(members) + len(outside)


def run_cases(seed, count, cap):
    """(cases, points) over the first `count` cases of a seeded stream
    that build and stay within the cap."""
    rng = random.Random(seed)
    cases = points = 0
    while cases < count:
        case = random_case(rng)
        checked = case and check_case(*case, cap)
        if checked is not None:
            cases += 1
            points += checked
    return cases, points


def test_member_depth_agrees_with_refine():
    # a sample for every run; run_cases(0, 150, 2000) is the full check
    cases, points = run_cases(seed=0, count=40, cap=2000)
    assert cases == 40 and points > 500
