"""Exact arithmetic on finite signed sums of negative powers of two.

A value is stored as a sorted mapping {f: c} meaning sum of c * 2**-f,
with arbitrary-precision exponents f >= 0 and nonzero integer
coefficients c.  Full binary expansions are never materialized, so
tower-scale exponents (say 2**40) cost nothing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (InvariantViolation, OutOfUnitInterval, TermCapExceeded,
                     check_exponent)

DEFAULT_TERM_CAP = 4096


class SparseDyadic:
    """Immutable exact number of the form sum(c_j * 2**-f_j)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=(), term_cap=DEFAULT_TERM_CAP):
        merged = {}
        for f, c in (terms.items() if isinstance(terms, dict) else terms):
            f = int(f)
            c = int(c)
            if f < 0:
                raise ValueError("exponents must be non-negative")
            c = merged.get(f, 0) + c
            if c:
                merged[f] = c
            else:
                merged.pop(f, None)
        if len(merged) > term_cap:
            raise TermCapExceeded(
                f"{len(merged)} terms exceeds cap {term_cap}")
        self._terms = tuple(sorted(merged.items()))

    # --- constructors ---

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def power(cls, f, coeff=1):
        """coeff * 2**-f."""
        return cls([(f, coeff)])

    # --- accessors ---

    @property
    def terms(self):
        """Sorted tuple of (exponent, coefficient) pairs."""
        return self._terms

    def is_zero(self):
        return not self._terms

    def to_fraction(self):
        """Exact Fraction value.  Refuses tower-scale exponents."""
        total = Fraction(0)
        for f, c in self._terms:
            total += Fraction(c, 1 << check_exponent(f))
        return total

    # --- arithmetic ---

    def add(self, other):
        return SparseDyadic(list(self._terms) + list(other._terms))

    def __add__(self, other):
        return self.add(other)

    def neg(self):
        out = SparseDyadic()
        out._terms = tuple((f, -c) for f, c in self._terms)
        return out

    def __neg__(self):
        return self.neg()

    def sub(self, other):
        return self.add(other.neg())

    def __sub__(self, other):
        return self.sub(other)

    # --- sign and comparison ---

    def sign(self):
        """Sign of the real value, decided exactly.

        Repeatedly examines the coarsest term c1 * 2**-f1.  The rest is
        bounded in magnitude by R * 2**-(f2-1) with R the largest
        remaining |coefficient| and f2 the next exponent, so whenever
        |c1| * 2**(f2-f1) > 2R the sign is sign(c1).  Otherwise c1 is
        folded into scale f2 and the scan continues.  The folded
        coefficient stays below 3 * n * max|c|, checked below.
        """
        if not self._terms:
            return 0
        terms = list(self._terms)
        n = len(terms)
        max_c0 = max(abs(c) for _, c in terms)
        bound = 3 * n * max_c0
        while True:
            f1, c1 = terms[0]
            if len(terms) == 1:
                return 1 if c1 > 0 else -1 if c1 < 0 else 0
            f2, c2 = terms[1]
            rest = terms[1:]
            r_max = max(abs(c) for _, c in rest)
            gap = f2 - f1
            # |c1| * 2**gap > 2 * r_max, without a tower-scale shift
            if gap >= (2 * r_max).bit_length() or (abs(c1) << gap) > 2 * r_max:
                return 1 if c1 > 0 else -1
            merged = (c1 << gap) + c2
            if abs(merged) > bound:
                raise InvariantViolation("sign() coefficient growth bound")
            if merged:
                terms = [(f2, merged)] + rest[1:]
            else:
                terms = rest[1:]
            if not terms:
                return 0

    def compare(self, other):
        """-1, 0, or +1 for less, equal, greater; exact trichotomy."""
        return self.sub(other).sign()

    def __eq__(self, other):
        if not isinstance(other, SparseDyadic):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # --- lattice distance ---

    def dist_to_lattice(self, e):
        """Exact distance to the nearest multiple of 2**-e in [0, 1].

        Requires 0 <= value <= 1.  Terms with f <= e are exact
        multiples of 2**-e and drop out; the tail is reduced modulo
        2**-e by locating its integer quotient with exact comparisons.
        """
        e = int(e)
        if e < 0:
            raise ValueError("lattice exponent must be non-negative")
        if self.sign() < 0 or self.compare(ONE) > 0:
            raise OutOfUnitInterval("value outside [0, 1]")
        # for f <= e, 2**-f = 2**(e-f) * 2**-e is a lattice multiple
        tail = [(f, c) for f, c in self._terms if f > e]
        t = SparseDyadic(tail)
        if t.is_zero():
            return SparseDyadic.zero()
        # |t * 2**e| <= sum|c| / 2, so the floor lives in a small range
        s = sum(abs(c) for _, c in tail)
        lo, hi = -(s // 2 + 1), s // 2 + 1
        # binary search for k = floor(t * 2**e): largest k with k*2**-e <= t
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if t.compare(SparseDyadic.power(e, mid)) >= 0:
                lo = mid
            else:
                hi = mid - 1
        k = lo
        frac = t.sub(SparseDyadic.power(e, k))          # in [0, 2**-e)
        comp = SparseDyadic.power(e).sub(frac)          # 2**-e - frac
        return frac if frac.compare(comp) <= 0 else comp

    # --- serialization ---

    def to_json(self):
        return {"terms": [[str(f), str(c)] for f, c in self._terms]}

    @classmethod
    def from_json(cls, doc):
        return cls([(int(f), int(c)) for f, c in doc["terms"]])

    def __repr__(self):
        if not self._terms:
            return "SparseDyadic(0)"
        parts = "+".join(
            (f"{c}*2^-{f}" if abs(c) != 1 else f"{'-' if c < 0 else ''}2^-{f}")
            for f, c in self._terms)
        return f"SparseDyadic({parts})"


ONE = SparseDyadic.power(0)
