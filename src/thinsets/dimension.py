"""Covering and packing counters with logarithmic-gauge diagnostics.

Counts are exact, on any exact ordered numbers: Fractions at the API,
integers in units of 2**-U inside dimension_report, which clips each
survivor interval straight from its center numerator.  A chain row with
rho_n >= e_n + 4 builds no intervals: a separation certificate makes
both counts its survivor count (see dimension_report).  Every transcendental
quantity (ln 2, rational powers) is a certified bracket, and inequality
verdicts are made only when a bracket separates the two sides.  The
bracket of log q = log 2**d is built only in _log_q_bracket, under the
chain's log convention, and that of (phi * log q)**alpha only in _rhs_core.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from fractions import Fraction

from .errors import LevelOutOfRange, check_exponent
from .falconer import survivor_numerators
from .rounding import (DEFAULT_PREC, MAX_PREC, bracket_to_decimal,
                       ceil_div, compare_with_bracket, ln2_bracket,
                       ln_bracket, pow_bracket)


@dataclass(frozen=True)
class GaugeParams:
    """Gauge h_s(r) = (log(1/r))**-s with dimension gap epsilon and
    hypothesis constant C."""

    s: Fraction
    epsilon: Fraction
    C: Fraction

    def __post_init__(self):
        object.__setattr__(self, "s", Fraction(self.s))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "C", Fraction(self.C))
        if self.s <= 0:
            raise ValueError("gauge exponent s must be positive")
        if not 0 < self.epsilon < 2:
            raise ValueError("epsilon must lie in (0, 2)")
        if self.C <= 0:
            raise ValueError("constant C must be positive")


def _pow2(k):
    """Exact 2**k: an int for k >= 0, else a Fraction."""
    check_exponent(k)
    return 1 << k if k >= 0 else Fraction(1, 1 << -k)


def _merge(intervals):
    """Sorted disjoint closed components of the union of exact intervals."""
    out = []
    for a, b in sorted((a, b) for a, b in intervals):
        if not (isinstance(a, (int, Fraction))
                and isinstance(b, (int, Fraction))):
            raise TypeError("interval endpoints must be ints or Fractions")
        if a > b:
            raise ValueError("interval with lo > hi")
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def covering_number(intervals, delta_exponent):
    """Minimal number of closed length-2**-d intervals covering the
    union of (lo, hi) pairs of ints or Fractions.  Left-to-right greedy
    placement, optimal in one dimension."""
    delta = _pow2(-delta_exponent)
    count = 0
    covered = None  # rightmost covered point so far
    for a, b in _merge(intervals):
        frontier = a if covered is None or covered < a else covered
        if frontier > b or (frontier == b and covered is not None
                            and covered >= b):
            continue
        # greedy tiling from the frontier, counted in closed form
        k = max(1, ceil_div(b - frontier, delta))
        count += k
        covered = frontier + k * delta
    return count


def packing_number(intervals, delta_exponent):
    """Maximal number of disjoint closed radius-2**-d balls with
    centers in the union of (lo, hi) pairs of ints or Fractions.

    Disjointness of closed balls needs strictly more than 2 * 2**-d
    between centers; the greedy frontier carries a symbolic +k*eps
    offset so the strict constraint is honored exactly.
    """
    step = 2 * _pow2(-delta_exponent)
    count = 0
    nx, nk = None, 0  # minimal admissible next center: nx + nk*eps
    for a, b in _merge(intervals):
        if nx is None or (nx, nk) < (a, 0):
            cx, ck = a, 0
        else:
            cx, ck = nx, nk
        # centers cx + j*step (+ symbolic offsets) while inside [a, b]:
        # valid iff cx + j*step < b, or == b with no pending offset
        diff = b - cx
        m = max(0, ceil_div(diff, step))  # j with j*step < b-cx
        if diff >= 0 and diff % step == 0 and ck + diff // step <= 0:
            m += 1
        if m > 0:
            count += m
            nx, nk = cx + m * step, ck + m
        else:
            nx, nk = cx, ck
    return count


def _product_lhs(chain, n):
    """prod_{j=1}^{n-1} (1 + 2**(e_{j+1} - rho_j)) as an exact Fraction."""
    lhs = Fraction(1)
    for j in range(1, n):
        lhs *= 1 + _pow2(chain.e[j] - chain.rho[j - 1])
    return lhs


def _log_q_bracket(d, convention, prec):
    """Certified bracket of log 2**d: d * ln 2 under the natural
    convention, exactly d under base2."""
    if convention == "natural":
        lo, hi = ln2_bracket(prec)
        return d * lo, d * hi
    return Fraction(d), Fraction(d)


def _rhs_core(chain, idx, alpha, prec):
    """Certified bracket of (phi_idx * log q_idx)**alpha."""
    lo, hi = _log_q_bracket(chain.e[idx - 1], chain.log_convention, prec)
    phi = chain.phi[idx - 1]
    return pow_bracket(phi * lo, phi * hi, alpha, prec)


def product_bound(chain, n, params, exponent_mode,
                  prec=DEFAULT_PREC, max_prec=MAX_PREC):
    """Compare the cover-product against C * (phi * log q)**alpha.

    packing2 uses level n-1 with alpha = 2 - epsilon; hausdorff1 uses
    level n with alpha = 1 - epsilon.  The left side is exact, the
    right side a widening interval bracket; the verdict is certified.
    """
    if exponent_mode == "packing2":
        idx, alpha = n - 1, 2 - params.epsilon
    elif exponent_mode == "hausdorff1":
        idx, alpha = n, 1 - params.epsilon
    else:
        raise ValueError("exponent_mode must be 'packing2' or 'hausdorff1'")
    if not 2 <= n <= chain.depth:
        raise LevelOutOfRange(f"level {n} outside 2..{chain.depth}")
    if not 1 <= idx <= chain.levels:
        raise LevelOutOfRange(f"mode {exponent_mode} needs radius level {idx}")
    if alpha <= 0:
        raise ValueError("epsilon leaves a non-positive exponent")
    lhs = _product_lhs(chain, n)

    def rhs_fn(p):
        lo, hi = _rhs_core(chain, idx, alpha, p)
        return params.C * lo, params.C * hi

    verdict, (rlo, rhi) = compare_with_bracket(lhs, rhs_fn, prec, max_prec)
    mid, err = bracket_to_decimal(rlo, rhi)
    margin_mid, margin_err = bracket_to_decimal(rlo - lhs, rhi - lhs)
    return {"mode": exponent_mode, "n": n, "index": idx,
            "alpha": str(alpha), "lhs": f"{lhs.numerator}/{lhs.denominator}",
            "rhs": mid, "rhs_err": err, "holds": verdict,
            "margin": margin_mid, "margin_err": margin_err}


def hs_cover_cost(count, diam_exponent, s, prec=DEFAULT_PREC,
                  convention="natural"):
    """count * (log(1/diam))**-s for diam = 2**-d, as a certified bracket.

    Requires d >= 2 so the logarithm exceeds 1 under either convention.
    """
    s = Fraction(s)
    d = int(diam_exponent)
    if d < 2:
        raise ValueError("diameter exponent must be >= 2")
    if count < 0:
        raise ValueError("count must be non-negative")
    if s <= 0:
        raise ValueError("s must be positive")
    lo, hi = pow_bracket(*_log_q_bracket(d, convention, prec), -s, prec)
    lo, hi = count * lo, count * hi
    mid, err = bracket_to_decimal(lo, hi)
    return {"lo": lo, "hi": hi, "decimal": mid, "err": err}


def box_estimate(count, delta_exponent, prec=DEFAULT_PREC,
                 convention="natural"):
    """log(count) / log(log(2**d)) as a certified bracket, the finite-
    scale logarithmic box-dimension estimator."""
    d = int(delta_exponent)
    if d < 2:
        raise ValueError("delta exponent must be >= 2")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        z = Fraction(0)
        return {"lo": z, "hi": z, "decimal": "0", "err": "0"}
    num_lo, num_hi = ln_bracket(count, prec)
    log_lo, log_hi = _log_q_bracket(d, convention, prec)
    den_lo = ln_bracket(log_lo, prec)[0]
    den_hi = ln_bracket(log_hi, prec)[1]
    if den_lo <= 0:
        raise ValueError("denominator log must be positive (d too small)")
    lo, hi = num_lo / den_hi, num_hi / den_lo
    mid, err = bracket_to_decimal(lo, hi)
    return {"lo": lo, "hi": hi, "decimal": mid, "err": err}


def dimension_report(source, s_grid, n_range, params=None, cap=200000,
                     prec=DEFAULT_PREC):
    """Per-level diagnostic table for a scale chain or a digit spec.

    Chain rows enumerate the full-window realization at each depth with
    delta = 4 r_n; digit rows use the closed-form count 2**n with the
    level separation scale.  Chain rows take logarithms under the chain's
    log convention, digit rows under the natural one.  Returns a list of
    row dicts plus fitted_C1, the smallest observed constant for the
    packing-mode product bound.

    Separation certificate.  If rho_n >= e_n + 4, a chain row's covering
    and packing numbers both equal its survivor count, and no interval
    is built.  Then d = rho_n - 2, so delta = 4 r_n, and each clipped
    survivor interval is at most 2 r_n long.  Neighbouring centers lie
    2**-e_n >= 16 r_n apart, so the gaps exceed 8 r_n = 2 delta.  Hence
    each interval needs its own cover and holds exactly one packing
    center.  The condition is one exact integer comparison.  Other rows,
    low levels with overlapping neighbourhoods, run the greedy counters.
    """
    params = params or GaugeParams(Fraction(1), Fraction(1), Fraction(1, 2))
    rows = []
    c1_lo, c1_hi = Fraction(0), Fraction(0)
    convention = getattr(source, "log_convention", "natural")
    for n in n_range:
        if hasattr(source, "rho"):
            # delta = 4 * r_n, clamped to the finest gauge-admissible mesh;
            # bounds are ints in units of 2**-u, so delta is 2**-(d-u) units.
            # Survivor m is [m * 2**-e_n - r_n, m * 2**-e_n + r_n] n [0, 1];
            # the shifts come after _refine has checked u = max(rho_n, 2).
            rho = source.rho[n - 1]
            d = max(rho - 2, 2)
            u = max(rho, d)
            nums = survivor_numerators(source, n, (Fraction(0), Fraction(1)),
                                       cap)
            if rho >= source.e[n - 1] + 4:
                cov = pack = len(nums)  # separation certificate
            else:
                shift, r, top = u - source.e[n - 1], 1 << (u - rho), 1 << u
                ivs = [(max(0, c - r), min(top, c + r))
                       for c in (m << shift for m in nums)]
                cov = covering_number(ivs, d - u)
                pack = packing_number(ivs, d - u)
            try:
                pv = product_bound(source, n, params, "packing2", prec)
                verdict = pv["holds"]
                lhs = Fraction(pv["lhs"])
                rc_lo, rc_hi = _rhs_core(source, pv["index"],
                                         2 - params.epsilon, prec)
                c1_lo = max(c1_lo, lhs / rc_hi)
                c1_hi = max(c1_hi, lhs / rc_lo)
            except LevelOutOfRange:
                verdict = None
        else:
            d = source.g_exponent(n + 1) - 1  # separation scale per level
            cov = pack = 1 << n
            verdict = None
        row = {"n": n, "delta_exponent": d, "covering": cov,
               "packing": pack, "product_verdict": verdict}
        be = box_estimate(cov, d, prec, convention)
        row["box_estimate"] = be["decimal"]
        row["box_err"] = be["err"]
        for s in s_grid:
            cost = hs_cover_cost(cov, d, s, prec, convention)
            row[f"hs_cost(s={s})"] = cost["decimal"]
        rows.append(row)
    fitted = None
    if c1_hi > 0:
        mid, err = bracket_to_decimal(c1_lo, c1_hi)
        fitted = {"decimal": mid, "err": err}
    return {"rows": rows, "fitted_C1": fitted}


def report_to_csv(report):
    rows = report["rows"]
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
