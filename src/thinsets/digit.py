"""Digit Cantor sets: K = {sums of 2**-g(n) over digit sets}.

The exponent schedule g replaces super-exponential decay constants with
integers so separation, tail bounds and membership are decided exactly
in sparse dyadic arithmetic.

Triple sumsets follow from a lemma.  If the three class index lists
are pairwise disjoint and lie in 1..N_max, a sum x_1 + x_2 + x_3 with
x_i a digit-subset sum over class i uses each tabulated a_n at most
once, so it is a sum of distinct a_n over tabulated indices: a member
of K by definition.  DigitSpec rejects overlapping explicit classes, so
every spec it builds meets the premise and its 2**k sums (k indices up
to index_cap) are counted, not built.  Lists that break the premise
are enumerated and each sum is judged by member_K.

Membership reads the canonical binary form of x.  A sum whose
coefficients are all 1 is a sum of distinct powers 2**-f, which is
non-negative and already canonical, so it is decided by looking its
exponents up in the table with no sign test and no carry walk.  Every
other value goes through the exact sign test and the carry walk, whose
length is bounded by its term count and N_max, not by its exponents.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import SparseDyadic
from .errors import (GrowthPropertyMissing, PartitionOverlap,
                     UniverseExceeded)
from .rounding import DEFAULT_PREC, bracket_to_decimal
from . import dimension

_GROWTH_RE = re.compile(r"^g\(n\+1\)\s*>=\s*g\(n\)\s*\+\s*(\d+)$")


@dataclass(frozen=True)
class DigitSpec:
    """Tabulated exponent schedule with a declared growth property and a
    3-class index partition."""

    g: tuple
    N_max: int
    growth: str | None = None
    partition: object = "mod3"  # "mod3" or three explicit index lists

    def __post_init__(self):
        g = tuple(int(v) for v in self.g)
        object.__setattr__(self, "g", g)
        if len(g) < self.N_max or self.N_max < 1:
            raise ValueError("N_max must lie in 1..len(g)")
        if g[0] < 1 or any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("g must be strictly increasing and positive")
        if self.partition != "mod3":
            classes = [set(map(int, c)) for c in self.partition]
            if len(classes) != 3:
                raise ValueError("explicit partition needs three classes")
            for i in range(3):
                for j in range(i + 1, 3):
                    common = classes[i] & classes[j]
                    if common:
                        raise PartitionOverlap(
                            f"index {min(common)} in classes "
                            f"{i + 1} and {j + 1}")
            object.__setattr__(self, "partition",
                               tuple(tuple(sorted(c)) for c in classes))
        for i in (1, 2, 3):
            if not self.class_indices(i, self.N_max):
                raise ValueError(f"class {i} empty up to N_max")

    def growth_increment(self):
        """Declared minimal step of g beyond the table, or None."""
        if not self.growth:
            return None
        m = _GROWTH_RE.match(self.growth.strip())
        return int(m.group(1)) if m else None

    def g_exponent(self, n):
        if not 1 <= n <= len(self.g):
            raise ValueError(f"index {n} outside tabulated range")
        return self.g[n - 1]

    def a(self, n):
        return SparseDyadic.power(self.g_exponent(n))

    def class_of(self, n):
        if self.partition == "mod3":
            return (n - 1) % 3 + 1
        for i, cls in enumerate(self.partition, start=1):
            if n in cls:
                return i
        return None

    def class_indices(self, i, index_cap):
        return [n for n in range(1, min(index_cap, self.N_max) + 1)
                if self.class_of(n) == i]

    def to_json(self):
        part = self.partition if self.partition == "mod3" \
            else [list(c) for c in self.partition]
        return {"g": list(self.g), "N_max": self.N_max,
                "growth": self.growth, "partition": part}

    @classmethod
    def from_json(cls, doc):
        return cls(g=tuple(doc["g"]), N_max=doc["N_max"],
                   growth=doc.get("growth"),
                   partition=doc.get("partition", "mod3"))


def _tail_exact(spec, n):
    """Sum of a_m over the tabulated range n < m <= N_max."""
    return SparseDyadic([(spec.g_exponent(m), 1)
                         for m in range(n + 1, spec.N_max + 1)])


def beyond_table_bound_exponent(spec):
    """The tail beyond the table is below 2**-(g(N_max) + delta - 1)
    whenever g keeps growing by at least delta."""
    delta = spec.growth_increment()
    if delta is None or delta < 1:
        raise GrowthPropertyMissing(
            "separation beyond the table needs a declared growth step "
            "'g(n+1)>=g(n)+d' with d >= 1")
    return spec.g_exponent(spec.N_max) + delta - 1


def separation_check(spec, N):
    """a_n strictly exceeds the full tail for every n <= N.

    The tabulated part of the tail is summed exactly; the rest is
    replaced by the rigorous beyond-table bound.  The sum is built once,
    for n = 1, and each later row subtracts one term from it.
    """
    if not 1 <= N <= spec.N_max:
        raise ValueError(f"N must lie in 1..{spec.N_max}")
    rhs = _tail_exact(spec, 1).add(
        SparseDyadic.power(beyond_table_bound_exponent(spec)))
    rows = []
    for n in range(1, N + 1):  # rhs is the tail past n plus the bound
        rows.append({"n": n, "holds": spec.a(n).compare(rhs) > 0})
        if n < N:
            rhs = rhs.sub(spec.a(n + 1))
    return {"ok": all(r["holds"] for r in rows), "rows": rows,
            "growth": spec.growth}


def tau_bound(spec, n):
    """Exponent bracket for the tail tau_n: it lies in
    [2**-g(n+1), 2**-(g(n+1)-1))."""
    if not 1 <= n < spec.N_max:
        raise ValueError(f"n must lie in 1..{spec.N_max - 1}")
    if spec.growth_increment() is None:
        raise GrowthPropertyMissing(
            "the upper tail bound needs the declared growth property")
    lead = spec.g_exponent(n + 1)
    return lead, lead - 1


def _canonical_digits(x, digit_limit):
    """Exponents of the canonical all-ones binary form of x >= 0.

    Returns None when the expansion needs more than digit_limit digits
    or x >= 2 (either way x cannot be a digit-set sum).  Carries
    propagate sparsely: an odd coefficient leaves its digit and carries
    one bit up, an even one moves past all its trailing zeros at once
    (never below exponent -1).  Each step pops one entry and pushes at
    most one, an even step leaves an odd coefficient unless it merges,
    and every odd step emits a digit, so the walk ends within about
    2 * (terms + digit_limit + 1) steps, whatever the exponents.
    """
    coeffs = dict(x.terms)
    heap = [-f for f in coeffs]
    heapq.heapify(heap)
    out = []
    while heap:
        f = -heapq.heappop(heap)
        c = coeffs.pop(f, 0)
        if c == 0:
            continue
        if f < 0:
            return None  # magnitude escaped [0, 1]; not a digit sum
        if c & 1:
            out.append(f)
            if len(out) > digit_limit:
                return None
        # odd: one bit up; even: past all trailing zeros, but at least one
        t = max(min((c & -c).bit_length() - 1, f), 1)
        c >>= t
        if c:
            if f - t in coeffs:
                coeffs[f - t] += c
            else:
                coeffs[f - t] = c
                heapq.heappush(heap, t - f)
    return sorted(out)


def _universe(spec):
    """(top, exponent -> index) over the tabulated indices 1..N_max."""
    g = spec.g[:spec.N_max]
    return g[-1], {f: n for n, f in enumerate(g, start=1)}


def member_K(spec, x, universe=None):
    """Is x a sum of distinct a_n over tabulated indices?  Returns the
    digit index set when it is.  universe is _universe(spec), passed in
    by callers that test many values against one spec.

    An all-ones x is its own canonical form (see the module docstring).
    More than N_max such digits cannot all be tabulated, so the index
    lookup rejects them without a count.  Digits ascend and g increases,
    so the indices come out sorted.
    """
    top, exp_to_index = universe or _universe(spec)
    terms = x.terms
    all_ones = all(c == 1 for _, c in terms)
    if not all_ones and x.sign() < 0:
        raise ValueError("membership requires x >= 0")
    if terms and terms[-1][0] > top:
        raise UniverseExceeded(
            f"exponent beyond the tabulated universe 2**-{top}")
    digits = ([f for f, _ in terms] if all_ones
              else _canonical_digits(x, spec.N_max))
    if digits is None:
        return {"member": False, "digits": None}
    indices = [exp_to_index.get(f) for f in digits]
    if None in indices:
        return {"member": False, "digits": None}
    return {"member": True, "digits": indices}


def subset_sums(spec, class_index, index_cap):
    """All digit-subset sums over one partition class, in bitmask order."""
    indices = spec.class_indices(class_index, index_cap)
    out = []
    for mask in range(1 << len(indices)):
        terms = [(spec.g_exponent(indices[j]), 1)
                 for j in range(len(indices)) if mask >> j & 1]
        out.append(SparseDyadic(terms))
    return out


def verify_triple_sumset(spec, index_cap):
    """Every sum from S_1 x S_2 x S_3 is a member of K.

    When the class lists are pairwise disjoint and lie in 1..N_max, all
    |S_1| |S_2| |S_3| sums pass by the lemma in the module docstring.
    Otherwise (lists forced past DigitSpec's overlap check) every sum is
    built and judged by member_K, and up to ten failures are kept.
    """
    classes = [spec.class_indices(i, index_cap) for i in (1, 2, 3)]
    flat = [n for c in classes for n in c]
    if len(set(flat)) == len(flat) and \
            all(1 <= n <= spec.N_max for n in flat):
        sizes = [1 << len(c) for c in classes]
        total = sizes[0] * sizes[1] * sizes[2]
        return {"ok": True, "total": total, "passed": total,
                "set_sizes": sizes, "failures": [], "growth": spec.growth}
    sets = [subset_sums(spec, i, index_cap) for i in (1, 2, 3)]
    total = 0
    passed = 0
    failures = []
    universe = _universe(spec)
    for x1 in sets[0]:
        for x2 in sets[1]:
            t12 = x1.terms + x2.terms
            for x3 in sets[2]:
                total += 1
                x = SparseDyadic(t12 + x3.terms)
                if member_K(spec, x, universe)["member"]:
                    passed += 1
                elif len(failures) < 10:
                    failures.append({"sum": x.to_json()})
    return {"ok": passed == total, "total": total, "passed": passed,
            "set_sizes": [len(s) for s in sets], "failures": failures,
            "growth": spec.growth}


def dimension_zero_diagnostic(spec, s_grid, n_range, prec=DEFAULT_PREC):
    """Bracketed gauge costs 2**n * (log(1/tau_n))**-s per level, with a
    certified strict-decrease flag per s."""
    n_range = list(n_range)
    rows = []
    brackets = {Fraction(s): [] for s in s_grid}
    for n in n_range:
        lo_exp, hi_exp = tau_bound(spec, n)
        row = {"n": n, "tau_exponents": [lo_exp, hi_exp]}
        for s in s_grid:
            s = Fraction(s)
            lo = dimension.hs_cover_cost(1 << n, lo_exp, s, prec)["lo"]
            hi = dimension.hs_cover_cost(1 << n, hi_exp, s, prec)["hi"]
            mid, err = bracket_to_decimal(lo, hi)
            row[f"cost(s={s})"] = mid
            row[f"cost_err(s={s})"] = err
            brackets[s].append((lo, hi))
        rows.append(row)
    decreasing = {}
    for s, seq in brackets.items():
        ok = all(seq[i + 1][1] < seq[i][0] for i in range(len(seq) - 1))
        decreasing[str(s)] = ok
    return {"rows": rows, "decreasing": decreasing}
