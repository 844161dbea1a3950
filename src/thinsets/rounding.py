"""Directed-rounding evaluation of logarithms and rational powers.

All transcendental quantities are produced as certified Fraction
brackets [lo, hi].  Verdicts about inequalities are made only when a
bracket separates the two sides; callers widen precision until it does
or raise PrecisionExhausted.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import iv

from .errors import PrecisionExhausted

DEFAULT_PREC = 128
MAX_PREC = 1 << 14


def ceil_div(x, y):
    """Exact ceil(x / y) for ints or Fractions, y > 0."""
    return -(-x // y)


def _raw_to_fraction(raw):
    sign, man, exp, _ = raw
    f = Fraction(int(man)) * Fraction(2) ** exp
    return -f if sign else f


def _interval_endpoints(x):
    lo, hi = x._mpi_
    return _raw_to_fraction(lo), _raw_to_fraction(hi)


def ln_bracket(value, prec=DEFAULT_PREC):
    """Certified [lo, hi] Fractions enclosing ln(value) for rational value > 0."""
    value = Fraction(value)
    if value <= 0:
        raise ValueError("ln requires a positive argument")
    old = iv.prec
    try:
        iv.prec = prec
        x = iv.mpf(value.numerator) / iv.mpf(value.denominator)
        return _interval_endpoints(iv.log(x))
    finally:
        iv.prec = old


def ln2_bracket(prec=DEFAULT_PREC):
    return ln_bracket(2, prec)


def _iroot_floor(n, k):
    """floor(n ** (1/k)) for integers n >= 0, k >= 1 (Newton on ints)."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def pow_bracket(base_lo, base_hi, exponent, prec=DEFAULT_PREC):
    """Certified bracket of x**exponent over x in [base_lo, base_hi].

    base bounds are positive Fractions; exponent is any Fraction.
    """
    base_lo, base_hi = Fraction(base_lo), Fraction(base_hi)
    exponent = Fraction(exponent)
    if base_lo <= 0:
        raise ValueError("base bracket must be positive")
    if exponent == 0:
        return Fraction(1), Fraction(1)
    if exponent < 0:
        lo, hi = pow_bracket(base_lo, base_hi, -exponent, prec)
        return 1 / hi, 1 / lo
    p, q = exponent.numerator, exponent.denominator

    def root_lo(y):
        scaled = (y.numerator << (q * prec)) // y.denominator
        return Fraction(_iroot_floor(scaled, q), 1 << prec)

    def root_hi(y):
        num = y.numerator << (q * prec)
        scaled = ceil_div(num, y.denominator)
        r = _iroot_floor(scaled, q)
        if r ** q < scaled:
            r += 1
        return Fraction(r, 1 << prec)

    return root_lo(base_lo ** p), root_hi(base_hi ** p)


def rigorous_ceil_div_ln2(numerator, scale, prec=DEFAULT_PREC,
                          max_prec=MAX_PREC):
    """ceil(numerator / (scale * ln 2)) decided rigorously.

    numerator and scale are positive rationals; the quotient is
    irrational, so widening the ln 2 bracket always resolves the ceiling.
    """
    numerator = Fraction(numerator)
    scale = Fraction(scale)
    while prec <= max_prec:
        lo2, hi2 = ln2_bracket(prec)
        q_lo = numerator / (scale * hi2)
        q_hi = numerator / (scale * lo2)
        c_lo = ceil_div(q_lo.numerator, q_lo.denominator)
        c_hi = ceil_div(q_hi.numerator, q_hi.denominator)
        if c_lo == c_hi:
            return c_lo
        prec *= 2
    raise PrecisionExhausted(
        f"could not resolve ceiling of {float(numerator)}/{float(scale)}/ln2")


def compare_with_bracket(lhs, rhs_fn, prec=DEFAULT_PREC, max_prec=MAX_PREC):
    """Decide lhs <= rhs where rhs_fn(prec) -> (lo, hi) bracket.

    Returns (verdict, (rhs_lo, rhs_hi)) at the precision that decided it.
    """
    lhs = Fraction(lhs)
    while prec <= max_prec:
        lo, hi = rhs_fn(prec)
        if lhs <= lo:
            return True, (lo, hi)
        if lhs > hi:
            return False, (lo, hi)
        prec *= 2
    raise PrecisionExhausted("bracket never separated the comparison")


def round_decimal(x, digits):
    """x rounded to `digits` >= 1 places, ties away from zero, as a
    string; the sign is x's, so a tiny negative x reads -0.00..."""
    x = Fraction(x)
    q, r = divmod(abs(x.numerator) * 10 ** digits, x.denominator)
    if 2 * r >= x.denominator:
        q += 1
    text = str(q).rjust(digits + 1, "0")
    return f"{'-' if x < 0 else ''}{text[:-digits]}.{text[-digits:]}"


def bracket_to_decimal(lo, hi, digits=12):
    """Midpoint decimal with half-width error bound, both as strings."""
    lo, hi = Fraction(lo), Fraction(hi)
    err = (hi - lo) / 2
    err_num = ceil_div(err.numerator * 10 ** digits, err.denominator)
    return round_decimal((lo + hi) / 2, digits), f"{err_num}e-{digits}"
