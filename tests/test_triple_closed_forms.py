"""Both A+A+A verdicts come from their lemmas, with the enumerators as
oracle and as the fallback for inputs that break a lemma's premise.

Digit sets: verify_triple_sumset on disjoint classes must equal
ref_verify (the Fraction oracle of test_digit_oracle) without judging a
single sum; classes forced to overlap, to repeat an index or to leave
1..N_max must be enumerated.  Lattice sets: verify_triple_sum on a
selected family must equal _enumerate_triple_sum, called directly,
without calling member_depth; a hand-built family that breaks the
premise must be enumerated and agree with it.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import thinsets
from thinsets import digit, falconer
from thinsets.chain import build_custom_chain
from thinsets.digit import DigitSpec, verify_triple_sumset
from thinsets.dyadic import SparseDyadic
from thinsets.errors import ChainTooShallow, ThinsetError, UniverseExceeded
from thinsets.falconer import (TripleSumFamily, _enumerate_triple_sum,
                               select_triple_indices, verify_triple_sum)

from test_digit_oracle import ref_verify


@pytest.fixture
def calls(monkeypatch):
    """Counts member_K and member_depth calls made through the modules."""
    seen = {"member_K": 0, "member_depth": 0}
    for mod, name in ((digit, "member_K"), (falconer, "member_depth")):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            seen[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    return seen


def force_classes(spec, classes):
    """Bypass DigitSpec's overlap check by replacing class_indices."""
    object.__setattr__(spec, "class_indices", lambda i, cap: classes[i])
    return spec


def random_digit_specs(rng):
    for n in range(3, 9):
        for style in ("pow2", "quadratic", "gaps"):
            # desk exponents: ref_verify expands every sum as a Fraction
            if style == "pow2":
                s = rng.randint(0, 2)
                g = [2 ** (k + s) for k in range(1, n + 1)]
            elif style == "quadratic":
                a = rng.randint(0, 3)
                g = [k * k + a * k for k in range(1, n + 1)]
            else:
                g = [rng.randint(1, 3)]
                for _ in range(n - 1):
                    g.append(g[-1] + rng.randint(1, 9))
            if rng.random() < 0.5:
                partition = "mod3"
            else:
                idx = list(range(1, n + 1))
                rng.shuffle(idx)
                a, b = sorted(rng.sample(range(1, n), 2))
                partition = [idx[:a], idx[a:b], idx[b:]]
            yield DigitSpec(g=tuple(g), N_max=n, partition=partition)


def test_digit_closed_form_matches_reference(calls):
    rng = random.Random(2323)
    specs = 0
    for spec in random_digit_specs(rng):
        specs += 1
        for cap in range(1, spec.N_max + 2):
            assert verify_triple_sumset(spec, cap) == ref_verify(spec, cap)
    assert specs == 18
    assert calls["member_K"] == 0


@pytest.mark.parametrize("classes", [
    {1: [1, 2], 2: [2, 4], 3: [3, 5, 6]},   # index 2 in two classes
    {1: [1, 1], 2: [2, 4], 3: [3, 5, 6]},   # index 1 twice in one class
])
def test_digit_premise_failure_is_enumerated(calls, classes):
    for g in ((1, 2, 3, 4, 5, 6), (2, 4, 8, 16, 32, 64)):
        spec = force_classes(DigitSpec(g=g, N_max=6), classes)
        got = verify_triple_sumset(spec, 6)
        assert got == ref_verify(spec, 6)
        assert got["passed"] < got["total"]
    assert calls["member_K"] > 0


def test_digit_index_past_n_max_is_enumerated(calls):
    # a_7 is tabulated but beyond N_max, so its sums leave the universe
    spec = force_classes(DigitSpec(g=(1, 3, 5, 7, 9, 11, 13), N_max=6),
                         {1: [1, 4], 2: [2, 5], 3: [3, 7]})
    with pytest.raises(UniverseExceeded):
        verify_triple_sumset(spec, 6)
    with pytest.raises(UniverseExceeded):
        ref_verify(spec, 6)
    assert calls["member_K"] > 0


def random_branching_chain(rng):
    """A branching chain (phi_n < M_n - 1) with 2 to 5 radius levels."""
    while True:
        levels = rng.randint(2, 5)
        M = [rng.randint(3, 5)]
        for _ in range(levels - 1):
            M.append(M[-1] + rng.randint(1, 2))
        phi = [Fraction(rng.randint(1, M[0] - 2))]
        for m in M[1:]:
            phi.append(phi[-1] + Fraction(rng.randint(1, 4), 2))
        if any(p >= m - 1 for p, m in zip(phi, M)):
            continue
        try:
            return build_custom_chain(M, phi, levels + 1)
        except ThinsetError:
            continue  # a half-integer phi on an odd e_n


def test_lattice_closed_form_matches_enumerator(calls):
    rng = random.Random(2324)
    checked = 0
    while checked < 40:
        chain = random_branching_chain(rng)
        for k_max in (4, 3, 2, 1):
            try:
                family = select_triple_indices(chain, k_max)
                break
            except ChainTooShallow:
                continue
        else:
            continue
        K = rng.randint(1, len(family.indices))
        depth = rng.randint(1, chain.levels)
        got = verify_triple_sum(chain, family, K, depth)
        assert calls["member_depth"] == 0
        want = _enumerate_triple_sum(chain, family, K, depth, None)
        assert got == want, (chain, family, K, depth)
        assert got["all_pass"] and len(got["triples"]) == K ** 3
        calls["member_depth"] = 0
        checked += 1


# e = 1, 3, 12, 60, 360 and rho = 1, 6, 36, 240
DESK = build_custom_chain([3, 4, 5, 6], [1, 2, 3, 4], 5)


@pytest.mark.parametrize("second, passes", [
    # 2**-12 spelled as 2 * 2**-13: the same value, not the same terms
    (SparseDyadic([(13, 2)]), True),
    # 3 * 2**-7 lies farther than r_2 = 2**-6 from the level-2 lattice
    (SparseDyadic.power(7), False),
])
def test_mismatched_element_is_enumerated(calls, second, passes):
    family = TripleSumFamily((2, 3, 4), (SparseDyadic.power(3), second,
                                         SparseDyadic.power(60)))
    assert family.check_invariants(DESK) is None
    got = verify_triple_sum(DESK, family, 3, 4)
    assert calls["member_depth"] > 0
    assert got == _enumerate_triple_sum(DESK, family, 3, 4, None)
    assert got["all_pass"] is passes


def test_gap_violating_index_is_enumerated(calls):
    # e = 1, 3, 12 and rho = 1, 12: e_3 - rho_2 = 0 < 3
    chain = build_custom_chain([3, 4], [1, 4], 3)
    family = TripleSumFamily((2, 3), (SparseDyadic.power(3),
                                      SparseDyadic.power(12)))
    violation = family.check_invariants(chain)
    assert violation is not None
    got = verify_triple_sum(chain, family, 2, 2)
    assert calls["member_depth"] > 0
    assert got == _enumerate_triple_sum(chain, family, 2, 2, violation)
    assert not got["all_pass"]


_OPTIMIZED = """
import sys
from thinsets import digit, falconer
from thinsets.chain import build_custom_chain
from thinsets.dyadic import SparseDyadic
from thinsets.falconer import TripleSumFamily

calls = {"member_K": 0, "member_depth": 0}
for mod, name in ((digit, "member_K"), (falconer, "member_depth")):
    def counted(*args, _fn=getattr(mod, name), _name=name):
        calls[_name] += 1
        return _fn(*args)
    setattr(mod, name, counted)

classes = {1: [1, 2], 2: [2, 4], 3: [3, 5, 6]}
spec = digit.DigitSpec(g=(1, 2, 3, 4, 5, 6), N_max=6)
object.__setattr__(spec, "class_indices", lambda i, cap: classes[i])
rep = digit.verify_triple_sumset(spec, 6)
chain = build_custom_chain([3, 4], [1, 4], 3)
family = TripleSumFamily((2, 3), (SparseDyadic.power(3),
                                  SparseDyadic.power(12)))
tri = falconer.verify_triple_sum(chain, family, 2, 2)
print(sys.flags.optimize, calls["member_K"], rep["passed"] < rep["total"],
      calls["member_depth"], tri["all_pass"])
"""


def test_premise_checks_hold_under_optimize():
    src = os.path.dirname(os.path.dirname(thinsets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED], env=env,
                         capture_output=True, text=True, check=True).stdout
    optimize, member_k, digit_fails, member_depth, all_pass = out.split()
    assert optimize == "1"
    assert int(member_k) == 2 ** 7  # every sum was judged
    assert digit_fails == "True"
    assert int(member_depth) > 0
    assert all_pass == "False"
