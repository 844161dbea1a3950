"""Differential oracle for digit membership and the triple-sumset loop.

ref_member decides membership from the exact Fraction value: its binary
expansion, then the subset of tabulated g exponents.  ref_verify is the
plain triple loop (two chained adds per sum) judged by ref_member.
member_K and verify_triple_sumset must agree with them exactly.
"""

import random

import pytest

from thinsets.digit import DigitSpec, member_K, verify_triple_sumset
from thinsets.dyadic import SparseDyadic
from thinsets.errors import UniverseExceeded


def ref_member(spec, x):
    value = x.to_fraction()
    if value < 0:
        raise ValueError("membership requires x >= 0")
    top = spec.g[spec.N_max - 1]
    if any(f > top for f, _ in x.terms):
        raise UniverseExceeded(f"beyond 2**-{top}")
    scaled = value * 2 ** top           # an integer: every f <= top
    assert scaled.denominator == 1
    bits = scaled.numerator
    digits = {top - k for k in range(bits.bit_length()) if bits >> k & 1}
    index = {spec.g[n - 1]: n for n in range(1, spec.N_max + 1)}
    if not digits <= set(index):
        return {"member": False, "digits": None}
    return {"member": True, "digits": sorted(index[f] for f in digits)}


def ref_verify(spec, index_cap):
    sets = []
    for i in (1, 2, 3):
        indices = spec.class_indices(i, index_cap)
        sets.append([SparseDyadic([(spec.g[indices[j] - 1], 1)
                                   for j in range(len(indices))
                                   if mask >> j & 1])
                     for mask in range(1 << len(indices))])
    total = passed = 0
    failures = []
    for x1 in sets[0]:
        for x2 in sets[1]:
            for x3 in sets[2]:
                total += 1
                if ref_member(spec, x1.add(x2).add(x3))["member"]:
                    passed += 1
                elif len(failures) < 10:
                    failures.append({"sum": x1.add(x2).add(x3).to_json()})
    return {"ok": passed == total, "total": total, "passed": passed,
            "set_sizes": [len(s) for s in sets], "failures": failures,
            "growth": spec.growth}


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, UniverseExceeded) as ex:
        return type(ex)


def schedules(rng):
    """(kind, g) with strictly increasing positive g of length 3..12."""
    for n in range(3, 13):
        yield "pow2", tuple(2 ** k for k in range(1, n + 1))
        yield "quadratic", tuple(k * k for k in range(1, n + 1))
        g, f = [], 0
        for _ in range(n):
            f += rng.randint(1, 4)
            g.append(f)
        yield "gap", tuple(g)


def random_specs(rng):
    for kind, g in schedules(rng):
        # N_max below len(g) keeps tabulated exponents past the universe
        for n_max in {len(g), max(3, len(g) - rng.randint(1, 2))}:
            yield kind, DigitSpec(g=g, N_max=n_max)


def random_inputs(rng, spec):
    g = spec.g[:spec.N_max]
    top = g[-1]
    pool = list(range(0, top + 1))

    def ones(exponents):
        return [(f, 1) for f in exponents]

    for _ in range(12):
        digits = rng.sample(g, rng.randint(0, len(g)))
        f = rng.choice(g)
        rest = ones(e for e in digits if e != f)
        e = rng.choice(pool)
        # all ones: tabulated digits, then arbitrary exponents
        yield SparseDyadic(ones(digits))
        yield SparseDyadic(ones(rng.sample(pool, rng.randint(1, 6))))
        # coefficients in -3..3 with duplicate exponents
        yield SparseDyadic([(rng.choice(pool), rng.randint(-3, 3))
                            for _ in range(rng.randint(1, 6))])
        # carries that land on a digit, through a negative term, on an
        # arbitrary exponent, and out of [0, 1]
        if f < top:
            yield SparseDyadic(rest + [(f + 1, 2)])
        yield SparseDyadic(rest + [(f, 2), (f + 1, -2)])
        yield SparseDyadic(ones(digits) + [(e, 1)])
        yield SparseDyadic(ones(digits) + [(0, rng.randint(1, 3))])
        # negative values, exponents beyond the universe, and a carry
        # from beyond the universe onto its last digit
        yield SparseDyadic(ones(digits) + [(0, -1)])
        yield SparseDyadic(ones(digits) + [(top + rng.randint(1, 3), 1)])
        yield SparseDyadic(rest + [(top + 1, 2)])


def test_member_matches_reference():
    rng = random.Random(20260518)
    kinds = set()
    seen = {"member": 0, "non-member": 0, ValueError: 0,
            UniverseExceeded: 0, "carry": 0}
    for kind, spec in random_specs(rng):
        kinds.add(kind)
        for x in random_inputs(rng, spec):
            want = outcome(ref_member, spec, x)
            got = outcome(member_K, spec, x)
            assert got == want, (spec, x)
            if isinstance(want, dict):
                seen["member" if want["member"] else "non-member"] += 1
                if want["member"] and any(c != 1 for _, c in x.terms):
                    seen["carry"] += 1
            else:
                seen[want] += 1
    assert kinds == {"pow2", "quadratic", "gap"}
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("x, expected", [
    # the same digit sum a_1 + a_3, written three ways
    ([(2, 1), (8, 1)], [1, 3]),
    ([(3, 2), (8, 1)], [1, 3]),
    ([(1, 1), (2, -1), (9, 2)], [1, 3]),
    # coefficients 2 and 3 that do not carry onto digits
    ([(4, 2)], None),
    ([(8, 3)], None),
    # all ones but not tabulated exponents, and the value 1
    ([(3, 1)], None),
    ([(0, 1)], None),
    ([(1, 1), (2, 1)], None),
])
def test_member_by_value(x, expected):
    spec = DigitSpec(g=(2, 4, 8, 16), N_max=4)
    rep = member_K(spec, SparseDyadic(x))
    assert rep == ref_member(spec, SparseDyadic(x))
    assert rep == ({"member": False, "digits": None} if expected is None
                   else {"member": True, "digits": expected})


def test_universe_is_bounded_by_n_max():
    # g(5) = 32 is tabulated but beyond N_max = 4
    spec = DigitSpec(g=(2, 4, 8, 16, 32), N_max=4)
    with pytest.raises(UniverseExceeded):
        member_K(spec, SparseDyadic([(2, 1), (32, 1)]))
    with pytest.raises(UniverseExceeded):
        member_K(spec, SparseDyadic([(2, 1), (17, 2)]))
    with pytest.raises(ValueError):
        member_K(spec, SparseDyadic([(2, -1), (32, 1)]))


@pytest.mark.parametrize("spec", [
    DigitSpec(g=tuple(2 ** k for k in range(1, 8)), N_max=7),
    DigitSpec(g=tuple(k * k for k in range(1, 10)), N_max=8),
    DigitSpec(g=(1, 3, 4, 8, 9, 11, 14), N_max=7,
              partition=[[1, 5], [2, 3, 7], [4, 6]]),
    DigitSpec(g=(2, 4, 8, 16, 32, 64), N_max=6,
              partition=[[6], [1, 2, 3], [5]]),
])
def test_triple_sumset_matches_reference(spec):
    for cap in range(1, spec.N_max + 1):
        if all(spec.class_indices(i, cap) for i in (1, 2, 3)):
            assert verify_triple_sumset(spec, cap) == ref_verify(spec, cap)


def test_overlapping_classes_still_carry():
    # Classes forced to share index 2, past DigitSpec's overlap check:
    # a sum holding a_2 twice carries to 2**-(g(2)-1), a member only
    # where that lands on a tabulated digit not already in the sum.
    classes = {1: [1, 2], 2: [2, 4], 3: [3, 5, 6]}
    for g in ((1, 2, 3, 4, 5, 6), (2, 4, 8, 16, 32, 64)):
        spec = DigitSpec(g=g, N_max=6)
        object.__setattr__(spec, "class_indices", lambda i, cap: classes[i])
        got = verify_triple_sumset(spec, 6)
        assert got == ref_verify(spec, 6)
        assert got["passed"] < got["total"] and got["failures"]
