"""Nested-lattice scale chains: q_i = 2**e_i, q_{i+1} = q_i**M_i.

A chain of depth d carries d lattice levels (exponents e_1..e_d) and
d-1 neighborhood radii r_i = 2**-rho_i with rho_i = e_i * phi_i.  All
radius exponents are required to be integers so that every comparison
in the package stays exact.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import SparseDyadic
from .errors import (DepthTooLarge, ExponentTooLarge, LevelOutOfRange,
                     MonotonicityViolation, NonIntegerRadiusExponent)
from .rounding import ceil_div, rigorous_ceil_div_ln2

DEFAULT_BIT_BUDGET = 1 << 20
LOG_CONVENTIONS = ("natural", "base2")

# Shifts up to this many bits may be materialized as plain integers.
# Tighter than errors.EXPONENT_LIMIT (2**16 bits) because ExactCount.__str__
# renders as_int() in decimal, and Python refuses int-to-str conversion
# above 4300 digits, about 2**14284.
_MATERIALIZE_LIMIT = 4096
_HASH_P = sys.hash_info.modulus


def le_pow2(c, k):
    """c <= 2**k for non-negative ints, without a tower-scale shift."""
    if c <= 0:
        return True
    bl = c.bit_length()
    if k >= bl:
        return True
    if k == bl - 1:
        return c == 1 << k
    return False


def _sign_test(test):
    """A rich comparison that applies test to self._cmp(other) and 0."""
    def compare(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else test(s, 0)
    return compare


@dataclass(frozen=True)
class ExactCount:
    """A count of the form mult * 2**exp + add, kept symbolic when the
    exponent is too large to materialize."""

    mult: int
    exp: int
    add: int

    def is_materializable(self):
        return self.mult == 0 or self.exp <= _MATERIALIZE_LIMIT

    def as_int(self):
        if not self.is_materializable():
            raise ExponentTooLarge(f"count 2**{self.exp} too large to expand")
        return self.mult * (1 << self.exp) + self.add if self.mult else self.add

    def _cmp(self, other):
        """Exact sign of self - other, or NotImplemented for a type other
        than ExactCount, int or Fraction.  A Fraction p/d scales both
        sides by d: the sign of (d * self - p) * 2**-k, a three-term
        sparse dyadic, for k = max(both exponents, 0)."""
        if isinstance(other, ExactCount):
            d, b = 1, other
        elif isinstance(other, (int, Fraction)):
            d, b = other.denominator, ExactCount(0, 0, other.numerator)
        else:
            return NotImplemented
        k = max(self.exp, b.exp, 0)
        return SparseDyadic([(k - self.exp, d * self.mult),
                             (k - b.exp, -b.mult),
                             (k, d * self.add - b.add)]).sign()

    def __hash__(self):
        """The hash of the int (or Fraction) of the same value."""
        s = self._cmp(0)
        h = s * (s * (self.mult * pow(2, self.exp, _HASH_P) + self.add)
                 % _HASH_P)
        return -2 if h == -1 else h

    __eq__ = _sign_test(operator.eq)
    __lt__ = _sign_test(operator.lt)
    __le__ = _sign_test(operator.le)
    __gt__ = _sign_test(operator.gt)
    __ge__ = _sign_test(operator.ge)

    def __str__(self):
        if self.mult == 0:
            return str(self.add)
        if self.is_materializable():
            return str(self.as_int())
        sign = "+" if self.add >= 0 else "-"
        return f"{self.mult}*2^{self.exp}{sign}{abs(self.add)}"


@dataclass(frozen=True)
class ScaleChain:
    """Validated tower q_1=2, q_{i+1}=q_i**M_i with radii 2**-rho_i."""

    depth: int
    M: tuple
    phi: tuple
    e: tuple
    rho: tuple
    log_convention: str = "natural"

    @property
    def levels(self):
        """Number of levels that carry a radius (depth - 1)."""
        return len(self.rho)

    def radius_exponent(self, i):
        if not 1 <= i <= self.levels:
            raise LevelOutOfRange(f"level {i} outside 1..{self.levels}")
        return self.rho[i - 1]

    def lattice_exponent(self, i):
        if not 1 <= i <= self.depth:
            raise LevelOutOfRange(f"level {i} outside 1..{self.depth}")
        return self.e[i - 1]

    def to_json(self):
        return {
            "depth": self.depth,
            "M": list(self.M),
            "phi": [f"{p.numerator}/{p.denominator}" for p in self.phi],
            "e": [str(v) for v in self.e],
            "rho": [str(v) for v in self.rho],
            "log_convention": self.log_convention,
        }


@dataclass(frozen=True)
class Regime:
    tag: str  # Branching | Collapse | Indeterminate
    witness_level: int | None = None


def _check_log_convention(name):
    if name not in LOG_CONVENTIONS:
        raise ValueError(f"log_convention must be 'natural' or 'base2', "
                         f"not {name!r}")


def build_custom_chain(M, phi, depth, log_convention="natural"):
    """Validate multipliers and exponent schedule and derive e, rho.

    M and phi must cover at least depth-1 levels; extra entries are
    ignored.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    _check_log_convention(log_convention)
    n = depth - 1
    if len(M) < n or len(phi) < n:
        raise ValueError(f"need at least {n} multipliers and phi values")
    M = tuple(int(m) for m in M[:n])
    phi = tuple(Fraction(p) for p in phi[:n])
    if any(m <= 0 for m in M):
        raise ValueError("multipliers must be positive")
    if any(p <= 0 for p in phi):
        raise ValueError("phi values must be positive")
    if any(M[i + 1] <= M[i] for i in range(n - 1)):
        raise MonotonicityViolation("multipliers must be strictly increasing")
    if any(phi[i + 1] <= phi[i] for i in range(n - 1)):
        raise MonotonicityViolation("phi must be strictly increasing")
    e = [1]
    for i in range(n):
        e.append(M[i] * e[i])
    rho = []
    for i in range(n):
        r = e[i] * phi[i]
        if r.denominator != 1:
            raise NonIntegerRadiusExponent(
                f"e_{i + 1} * phi_{i + 1} = {r} is not an integer")
        rho.append(int(r))
    if any(rho[i + 1] <= rho[i] for i in range(n - 1)):
        raise MonotonicityViolation("radius exponents must be "
                                    "strictly increasing")
    return ScaleChain(depth=depth, M=M, phi=phi, e=tuple(e), rho=tuple(rho),
                      log_convention=log_convention)


def build_explicit_chain(depth, log_convention="natural",
                         bit_budget=DEFAULT_BIT_BUDGET, prec=128):
    """Chain whose multipliers grow fast enough that the level-j cover
    product stays below half of phi * log q at every level.

    depth counts multipliers: the returned chain has depth+1 lattice
    levels.  Ceilings of the irrational targets are resolved with
    directed-rounding interval arithmetic.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    _check_log_convention(log_convention)
    M = []
    e = [1]
    product = Fraction(1)  # prod of (1 + q_j**2) over built levels
    for n in range(1, depth + 1):
        if 2 * e[-1] + 1 > bit_budget:
            raise DepthTooLarge(
                f"level {n}: q_{n}**2 needs {2 * e[-1]} bits "
                f"(budget {bit_budget})")
        product *= 1 + Fraction(2) ** (2 * e[-1])
        if log_convention == "natural":
            c = rigorous_ceil_div_ln2(2 * product, e[-1], prec=prec)
        else:
            q = 2 * product / e[-1]
            c = ceil_div(q.numerator, q.denominator)
        target = c + 2
        floor_m = 4 if n == 1 else M[-1] + 1
        M.append(max(floor_m, target))
        e.append(M[-1] * e[-1])
    phi = [m - 2 for m in M]
    return build_custom_chain(M, phi, depth + 1,
                              log_convention=log_convention)


def classify_regime(chain):
    """Branching iff phi_i < M_i - 1 at every level, Collapse iff
    phi_i > M_i at every level, else Indeterminate with the first
    level at which neither strict condition holds."""
    branch_fail = None
    collapse_fail = None
    for i in range(chain.levels):
        if not chain.phi[i] < chain.M[i] - 1 and branch_fail is None:
            branch_fail = i + 1
        if not chain.phi[i] > chain.M[i] and collapse_fail is None:
            collapse_fail = i + 1
    if branch_fail is None:
        return Regime("Branching")
    if collapse_fail is None:
        return Regime("Collapse")
    return Regime("Indeterminate", min(branch_fail, collapse_fail))


def branching_count(chain, i, g_numerator):
    """Exact number of next-lattice points in [g - r_i, g + r_i] n [0,1]
    for g = g_numerator * 2**-e_i.

    Interior windows come back in exponent form 2 * 2**(e_{i+1}-rho_i) + 1;
    windows clipped at 0 or 1 are counted exactly.
    """
    rho = chain.radius_exponent(i)
    ei = chain.e[i - 1]
    ej = chain.e[i]
    if g_numerator < 0 or not le_pow2(g_numerator, ei):
        raise ValueError(f"lattice numerator {g_numerator} outside [0, 2^e_i]")
    k = ej - rho  # log2 of r_i * q_{i+1}
    left_clipped = g_numerator == 0
    right_clipped = _is_top(g_numerator, ei)
    if not left_clipped and not right_clipped:
        if k >= 0:
            return ExactCount(2, k, 1)
        return ExactCount(0, 0, 1)  # radius below next spacing: center only
    if left_clipped and right_clipped:
        # degenerate chain with e_i = 0 cannot occur (e_1 = 1)
        raise ValueError("window clipped on both sides")
    # one-sided clip: [0, r_i] or [1 - r_i, 1]
    if k >= 0:
        return ExactCount(1, k, 1)
    return ExactCount(0, 0, 1)


def _is_top(g_numerator, ei):
    """g_numerator == 2**ei without a tower-scale shift."""
    return (g_numerator.bit_length() == ei + 1
            and g_numerator & (g_numerator - 1) == 0)


def branching_lower_bound(chain, i):
    """2 * 2**(e_i * (M_i - phi_i)) - 1, in exponent form.

    The exponent e_i*(M_i - phi_i) equals e_{i+1} - rho_i exactly.
    """
    return ExactCount(2, chain.e[i] - chain.radius_exponent(i), -1)
