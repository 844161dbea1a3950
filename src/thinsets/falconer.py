"""Finite-depth realization of the nested-lattice intersection set.

The depth-n realization F_n is the set of points within r_j of the
level-j lattice for every j <= n.  Everything here is exact: membership
uses sparse dyadic distances, window enumeration keeps every endpoint
(a window endpoint or m * 2**-e_j +- 2**-rho_j) as an integer in units
of the finest scale, and all inequality checks reduce to integer
exponent comparisons.

A level-n survivor is named by its center numerator m alone (center
m * 2**-e_n, radius 2**-rho_n).  survivor_numerators hands those ints
to the window report and the dimension table; only the tree path is
built from LatticeInterval records.  Window enumeration keeps the
feasible pieces of every level below n, which decide the next level's
survivors, but builds none at level n itself unless a caller reads
them: localization_check does, survivor_numerators and dichotomy_probe
read only numerators and counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .chain import classify_regime
from .dyadic import SparseDyadic
from .errors import (CapExceeded, ChainTooShallow, ConditionFailure,
                     InvariantViolation, LevelOutOfRange, OutOfUnitInterval,
                     PreconditionFailure, RegimeViolation, check_exponent)
from .rounding import ceil_div


@dataclass(frozen=True)
class LatticeInterval:
    """One surviving interval: [center - 2**-rho, center + 2**-rho] n [0,1]
    with center = center_numerator * 2**-e_level."""

    level: int
    center_numerator: int
    radius_exponent: int

    def to_json(self):
        return {"level": self.level,
                "numerator": str(self.center_numerator),
                "radius_exponent": str(self.radius_exponent)}


@dataclass(frozen=True)
class TripleSumFamily:
    """Indices N_1 < N_2 < ... with elements a_k = 2**-e_{N_k}."""

    indices: tuple
    elements: tuple

    def check_invariants(self, chain):
        """Exact check of the selection conditions; returns the first
        violated condition as a string, or None."""
        ns = self.indices
        if list(ns) != sorted(set(ns)) or (ns and ns[0] < 2):
            return "indices must be strictly increasing and start at >= 2"
        if ns and ns[-1] > chain.depth:
            return f"index {ns[-1]} exceeds the chain depth {chain.depth}"
        for k, big_n in enumerate(ns):
            need = 2 if k == 0 else 3  # 3a <= r vs 6a <= r, as exponent gaps
            for n in range(1, big_n):
                if chain.e[big_n - 1] - chain.rho[n - 1] < need:
                    return (f"{3 * (k > 0) + 3}a_{k + 1} <= r_{n} fails "
                            f"(exponent gap {chain.e[big_n - 1] - chain.rho[n - 1]})")
        for k in range(len(ns) - 1):
            if chain.e[ns[k + 1] - 1] < chain.e[ns[k] - 1] + 1:
                return f"a_{k + 2} <= a_{k + 1}/2 fails"
        return None

    def to_json(self):
        return {"indices": list(self.indices),
                "elements": [a.to_json() for a in self.elements]}


@dataclass(frozen=True)
class TreePath:
    i0: int
    bits: str
    intervals: tuple  # nested LatticeInterval list, coarse to fine
    representative: SparseDyadic

    def to_json(self):
        return {"i0": self.i0, "bits": self.bits,
                "intervals": [j.to_json() for j in self.intervals],
                "representative": self.representative.to_json()}


@dataclass
class MembershipReport:
    member: bool
    trace: list = field(default_factory=list)
    failed_level: int | None = None

    def to_json(self):
        return {"member": self.member, "failed_level": self.failed_level,
                "trace": self.trace}


def member_depth(chain, x, n):
    """Is x within r_j of the level-j lattice for every j <= n?"""
    if not 1 <= n <= chain.levels:
        raise LevelOutOfRange(f"depth {n} outside 1..{chain.levels}")
    if x.sign() < 0 or x.compare(SparseDyadic.power(0)) > 0:
        raise OutOfUnitInterval("point outside [0, 1]")
    report = MembershipReport(member=True)
    for j in range(1, n + 1):
        d = x.dist_to_lattice(chain.e[j - 1])
        rho = chain.rho[j - 1]
        ok = d.compare(SparseDyadic.power(rho)) <= 0
        report.trace.append({"level": j,
                             "distance": d.to_json(),
                             "radius_exponent": str(rho),
                             "within": ok})
        if not ok and report.member:
            report.member = False
            report.failed_level = j
    return report


def rapid_sequence(chain, i):
    """The point 2**-e_i together with its per-level membership trace.

    Levels >= i hit the lattice exactly; levels n < i are certified by
    the exponent inequality e_i > rho_n, which the branching condition
    phi_n < M_n - 1 guarantees.
    """
    ei = chain.lattice_exponent(i)
    for n in range(1, i):
        if not chain.phi[n - 1] < chain.M[n - 1] - 1:
            raise RegimeViolation(
                f"level {n} fails phi < M - 1 "
                f"({chain.phi[n - 1]} vs {chain.M[n - 1] - 1})")
    trace = []
    for n in range(1, chain.levels + 1):
        if n >= i:
            trace.append({"level": n, "exact_lattice_point": True})
        else:
            if not ei > chain.rho[n - 1]:
                raise InvariantViolation("branching guard must imply "
                                         f"e_{i} > rho_{n}")
            trace.append({"level": n, "exact_lattice_point": False,
                          "gap_exponent": str(ei - chain.rho[n - 1])})
    return SparseDyadic.power(ei), trace


def select_triple_indices(chain, k_max):
    """Greedy-minimal indices realizing the sum-of-three containment.

    N_1 is the smallest index >= 2 with 3 * 2**-e_{N_1} <= r_n for all
    n < N_1; each later index additionally satisfies the factor-6 bound
    and at most halves the previous element.
    """
    if classify_regime(chain).tag != "Branching":
        raise RegimeViolation("triple-sum selection needs a branching chain")
    indices = []
    start = 2
    for k in range(k_max):
        need = 2 if k == 0 else 3  # exponent gap for 3a <= r resp. 6a <= r
        found = None
        for cand in range(start, chain.depth + 1):
            e_cand = chain.e[cand - 1]
            if all(e_cand - chain.rho[n - 1] >= need
                   for n in range(1, cand)) and \
                    (not indices or e_cand >= chain.e[indices[-1] - 1] + 1):
                found = cand
                break
        if found is None:
            raise ChainTooShallow(
                f"no admissible index for element {k + 1} within depth "
                f"{chain.depth}")
        indices.append(found)
        start = found + 1
    elements = tuple(SparseDyadic.power(chain.e[n - 1]) for n in indices)
    family = TripleSumFamily(tuple(indices), elements)
    violation = family.check_invariants(chain)
    if violation is not None:
        raise InvariantViolation(f"greedy selection broke: {violation}")
    return family


def verify_triple_sum(chain, family, K, depth):
    """All K**3 ordered sums a_i + a_j + a_k and the K singletons are
    members of the depth realization.

    Lemma.  Suppose family.check_invariants(chain) is None and each
    element a_k is 2**-e_{N_k} for its index N_k.  Take a level n <= depth
    and a single or a triple sum s.  A term with N_k <= n is a multiple
    of the level-n spacing 2**-e_n, because e is non-decreasing.  The
    other terms, at most three, have n < N_k, so the invariants give
    e_{N_k} - rho_n >= 2: each is at most r_n / 4.  Hence s lies within
    3 r_n / 4 < r_n of the level-n lattice.  The invariants also make
    a_1 the largest element and give e_{N_1} >= rho_1 + 2 >= 2, so s
    lies in [0, 3/4].  Thus every record is a member with no failed
    level, and no sum is built.

    A family that breaks the premise (one built by a caller) is checked
    exhaustively by member_depth instead.
    """
    if not 1 <= K <= len(family.elements):
        raise ValueError(f"K must lie in 1..{len(family.elements)}, "
                         f"not {K}")
    if not 1 <= depth <= chain.levels:
        raise LevelOutOfRange(f"depth {depth} outside 1..{chain.levels}")
    violation = family.check_invariants(chain)
    if violation is not None or \
            len(family.elements) != len(family.indices) or \
            any(a != SparseDyadic.power(chain.e[n - 1])
                for n, a in zip(family.indices, family.elements)):
        return _enumerate_triple_sum(chain, family, K, depth, violation)
    return {"K": K, "depth": depth,
            "singles": [{"index": n, "member": True, "failed_level": None}
                        for n in family.indices[:K]],
            "triples": [{"triple": [i, j, k], "member": True,
                         "failure": None}
                        for i in range(K) for j in range(K)
                        for k in range(K)],
            "invariant_violation": None, "all_pass": True}


def _enumerate_triple_sum(chain, family, K, depth, violation):
    """verify_triple_sum without the lemma: every single and triple sum
    goes through member_depth.  violation is check_invariants' result."""
    elems = family.elements[:K]
    singles = []
    for k, a in enumerate(elems):
        rep = member_depth(chain, a, depth)
        singles.append({"index": family.indices[k], "member": rep.member,
                        "failed_level": rep.failed_level})
    triples = []
    all_pass = all(s["member"] for s in singles)
    for i in range(K):
        for j in range(K):
            for k in range(K):
                s = elems[i].add(elems[j]).add(elems[k])
                try:
                    rep = member_depth(chain, s, depth)
                    ok, why = rep.member, rep.failed_level
                except OutOfUnitInterval:
                    ok, why = False, "outside unit interval"
                triples.append({"triple": [i, j, k], "member": ok,
                                "failure": why if not ok else None})
                all_pass = all_pass and ok
    return {"K": K, "depth": depth, "singles": singles, "triples": triples,
            "invariant_violation": violation, "all_pass": all_pass}


def _tree_conditions(chain, n):
    """The two refinement inequalities at level n, decided exactly.

    (r_n - r_{n+1}) * q_{n+1} > 3 reduces to a two-case exponent check
    on A = e_{n+1} - rho_n and B = e_{n+1} - rho_{n+1}; the sibling
    separation 2 r_{n+1} < 1/q_{n+1} is rho_{n+1} >= e_{n+1} + 2.
    """
    a = chain.e[n] - chain.rho[n - 1]
    b = chain.e[n] - chain.rho[n]
    gap_ok = a >= 3 or (a == 2 and b < 0)
    sep_ok = chain.rho[n] >= chain.e[n] + 2
    return gap_ok, sep_ok


def binary_tree_point(chain, bits, start_hint=None):
    """Follow a binary word through nested surviving intervals.

    The root sits at the origin lattice point; each refinement picks the
    two smallest next-lattice points that keep the child interval inside
    its parent, bit 0 the first and bit 1 the second.
    """
    if any(c not in "01" for c in bits):
        raise ValueError("bits must be a word over {0,1}")
    if classify_regime(chain).tag != "Branching":
        raise RegimeViolation("tree construction needs a branching chain")
    span = max(len(bits), 1)
    lo = start_hint or 1
    i0 = None
    last_failure = None
    for cand in range(lo, chain.levels - span + 1):
        ok = True
        for n in range(cand, cand + span):
            gap_ok, sep_ok = _tree_conditions(chain, n)
            if not (gap_ok and sep_ok):
                last_failure = (n, "interval gap" if not gap_ok
                                else "sibling separation")
                ok = False
                break
        if ok:
            i0 = cand
            break
    if i0 is None:
        level, cond = last_failure or (lo, "chain too shallow for word")
        raise ConditionFailure(
            f"no admissible start level: {cond} fails at level {level}",
            level=level, condition=cond)
    x = SparseDyadic.zero()
    intervals = [_interval_at(chain, i0, x)]
    for step, bit in enumerate(bits):
        n = i0 + step  # refining from level n to n+1
        ej1 = chain.e[n]
        # child fits: 2**-e_{n+1} + r_{n+1} <= r_n, checked exactly
        fit = SparseDyadic([(ej1, 1), (chain.rho[n], 1)])
        if fit.compare(SparseDyadic.power(chain.rho[n - 1])) > 0:
            raise ConditionFailure(
                f"child interval escapes its parent at level {n}",
                level=n, condition="containment")
        if not chain.rho[n] > ej1:
            raise InvariantViolation(f"sibling disjointness at level {n}")
        if bit == "1":
            x = x.add(SparseDyadic.power(ej1))
        intervals.append(_interval_at(chain, n + 1, x))
    return TreePath(i0=i0, bits=bits, intervals=tuple(intervals),
                    representative=x)


def _interval_at(chain, level, x):
    num = 0
    e_level = chain.e[level - 1]
    for f, c in x.terms:
        num += c << check_exponent(e_level - f)
    return LatticeInterval(level=level, center_numerator=num,
                           radius_exponent=chain.rho[level - 1])


def _refine(chain, n, window, cap, last_pieces=True):
    """Exact survivors of the depth-n realization meeting the window.

    Returns (nodes, den, counts): nodes maps the numerator m of each
    surviving level-n lattice center m * 2**-e_n to the disjoint
    feasible sub-intervals witnessing a point that satisfies every
    ancestor constraint, as integer pairs in units of 1/den; counts[j-1]
    is the number of level-j survivors, 0 past a level that empties.
    With last_pieces false, level n builds no sub-intervals and nodes
    is the set of its numerators: a candidate m survives as soon as
    some feasible level-(n-1) piece lies within r_n of m * 2**-e_n.

    The cap bounds distinct centers per level; candidate enumeration
    work is bounded by 8 * cap so a branching blow-up raises
    CapExceeded instead of grinding through millions of lattice points.
    """
    if not 1 <= n <= chain.levels:
        raise LevelOutOfRange(f"depth {n} outside 1..{chain.levels}")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if not 0 <= lo < hi <= 1:
        raise ValueError("window must satisfy 0 <= lo < hi <= 1")
    den = lcm(lo.denominator, hi.denominator)
    u = (den & -den).bit_length() - 1  # units are 1/(w * 2**u), w odd
    w = den >> u
    nodes = {0: [(lo.numerator * (den // lo.denominator),
                  hi.numerator * (den // hi.denominator))]}  # virtual root
    counts = []
    for j in range(1, n + 1):
        ej, rho = chain.e[j - 1], chain.rho[j - 1]
        uj = max(u, check_exponent(max(ej, rho)))
        shift, u = uj - u, uj
        step = w << (u - ej)  # lattice spacing 2**-e_j
        r = w << (u - rho)    # radius 2**-rho_j
        top = 1 << ej
        keep = last_pieces or j < n
        new_nodes = {} if keep else set()
        budget = 8 * cap
        for feas in nodes.values():
            for a, b in feas:
                a, b = a << shift, b << shift
                m_lo = max(0, ceil_div(a - r, step))
                m_hi = min(top, (b + r) // step)
                budget -= max(0, m_hi - m_lo + 1)
                if budget < 0:
                    raise CapExceeded(
                        f"candidate enumeration at level {j} exceeds "
                        f"work budget 8*{cap}", level=j)
                if not keep:
                    new_nodes.update(range(m_lo, m_hi + 1))
                    continue
                # a <= h + r and h - r <= b for each m: no piece is empty
                for m in range(m_lo, m_hi + 1):
                    h = m * step
                    piece = (max(a, h - r), min(b, h + r))
                    pieces = new_nodes.get(m)
                    if pieces is None:
                        new_nodes[m] = [piece]
                    else:
                        _add_piece(pieces, piece)
        if len(new_nodes) > cap:
            raise CapExceeded(
                f"{len(new_nodes)} intervals at level {j} exceeds cap {cap}",
                level=j)
        counts.append(len(new_nodes))
        if not new_nodes:
            return {}, w << u, counts + [0] * (n - j)
        nodes = new_nodes
    return nodes, w << u, counts


def _add_piece(pieces, new):
    """Insert a closed interval into a sorted disjoint union."""
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


def survivor_numerators(chain, n, window, cap):
    """Center numerators m of the surviving level-n intervals meeting the
    window (center m * 2**-e_n, radius 2**-rho_n), in increasing order."""
    return sorted(_refine(chain, n, window, cap, False)[0])


def localization_check(chain, i, g_numerator, n, cap=100000):
    """Does the realization near a level-i lattice point stay within the
    level-i radius of that point?

    Requires r_i < 1/(4 q_i), i.e. rho_i >= e_i + 3.  Checks that every
    feasible sub-interval of the depth-n realization inside the
    half-spacing window around g lies in [g - r_i, g + r_i].
    """
    ei = chain.e[i - 1]
    rho = chain.radius_exponent(i)
    if rho < ei + 3:
        raise PreconditionFailure(
            f"level {i} too coarse: rho_i = {rho} < e_i + 3 = {ei + 3}")
    if not i <= n <= chain.levels:
        raise LevelOutOfRange(f"need i <= n <= {chain.levels}")
    g = Fraction(g_numerator, 1 << check_exponent(ei))
    half = Fraction(1, 2 << ei)
    lo, hi = max(Fraction(0), g - half), min(Fraction(1), g + half)
    nodes, den, _ = _refine(chain, n, (lo, hi), cap)
    # den = w * 2**U with U >= rho_n > e_i once any level-n node survives
    g_units = g_numerator * (den >> ei)
    max_dist = 0
    for feas in nodes.values():
        for a, b in feas:
            max_dist = max(max_dist, abs(a - g_units), abs(b - g_units))
    dist = Fraction(max_dist, den)
    return {"ok": max_dist <= den >> rho, "level": i, "depth": n,
            "max_distance": f"{dist.numerator}/{dist.denominator}",
            "radius": f"1/{2 ** rho}" if rho <= 64 else f"2^-{rho}",
            "survivor_count": len(nodes)}


def localization_ratio_exponents(chain):
    """Exponents of 8 q_i r_i = 2**(3 + e_i - rho_i), per level."""
    return [3 + chain.e[i] - chain.rho[i] for i in range(chain.levels)]


def dichotomy_probe(chain, n, window, cap):
    """Per-level survivor counts for a collapse-regime chain.

    From the first level where the radius drops below the next lattice
    spacing, each interval holds exactly one descendant, so counts must
    be non-increasing; the report records whether they are.
    """
    if classify_regime(chain).tag != "Collapse":
        raise RegimeViolation("probe requires a collapse-regime chain")
    counts = _refine(chain, n, window, cap, False)[2]
    stable_from = next((i for i in range(1, chain.levels + 1)
                        if chain.rho[i - 1] > chain.e[i]), None)
    monotone = stable_from is None or all(
        counts[j] <= counts[j - 1] for j in range(stable_from, len(counts)))
    return {"counts": counts, "stable_from": stable_from,
            "non_increasing": monotone}
