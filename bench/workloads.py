"""Seeded job generators and the per-job oracle for the thinsets benchmark.

A job is one valid config of a documented CLI command together with what
its answer must be.  Generators only build configs; nothing here calls
the package, so the program under test receives nothing but the configs.

Each workload is a cycle of jobs whose type quotas are fixed.  Timed runs
make whole passes over it; the types are also spread evenly through the
cycle, so the prefix a traced run takes has nearly the cycle's mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("lattice", "digit", "tower")

CAP = 200000          # --cap for every job; every lattice chain stays below it
DEFAULT_PREC = 128    # --precision-bits unless a job draws another

# ROADMAP item-1 reference cases.
REF_CHAIN = {"kind": "falconer", "M": [4, 5, 6, 7], "phi": [1, 2, 3, 4],
             "depth": 4}
DESK_CHAIN = {"kind": "falconer", "M": [3, 4, 5, 6], "phi": [1, 2, 3, 4],
              "depth": 5}
# Over-budget tower-scale configs whose correct outcome is exit 2 with a
# report naming the limit.
OVERFLOW_TREE_CHAIN = {"kind": "falconer", "M": [6, 40, 300, 5000, 80000],
                       "phi": [1, 2, 3, 4, 5], "depth": 6}
EXPLICIT2 = {"kind": "explicit", "depth": 2}


def _job(kind, command, config, expect, prec=DEFAULT_PREC, props=None,
         log_convention="natural", reference=False):
    """One job; `reference` marks a ROADMAP item-1 reference case."""
    key = json.dumps([command, config, prec, CAP, log_convention],
                     sort_keys=True)
    return {"id": hashlib.sha256(key.encode()).hexdigest()[:16],
            "kind": kind, "command": command, "config": config,
            "prec": prec, "log_convention": log_convention,
            "expect": expect, "props": props or {}, "reference": reference}


def _frac(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _interleave(rng, groups):
    """Spread each group's jobs evenly through one cycle."""
    keyed = []
    for jobs in groups:
        u = rng.random()
        keyed += [((i + u) / len(jobs), rng.random(), j)
                  for i, j in enumerate(jobs)]
    keyed.sort(key=lambda t: t[:2])
    return [j for _, _, j in keyed]


# What sets a job's cost (cluster size, window share, N_max, term count,
# depth, K, precision) is fixed per slot of the cycle; the seed draws the
# rest (which chain of a cost class, which cluster, exponents, signs).
# That keeps the cycle's latency profile, and so p50 and p90, nearly the
# same for every seed.


# --- lattice ---------------------------------------------------------------

def lattice_family(lo=1000, hi=135000):
    """Depth-4 branching chains (M, phi strictly increasing, integral rho)
    whose full-window survivor count at n=3 is estimated in [lo, hi].

    Each level-2 lattice point carries a cluster of about 2*2^k+1 level-3
    survivors, k = e_3 - rho_2; clusters are separated (rho_2 >= e_2 + 2).
    """
    fam = []
    for m1 in range(3, 6):
        for m2 in range(m1 + 1, 9):
            e2, e3 = m1, m1 * m2
            for phi1 in range(1, m1 - 1):
                for rho2 in range(max(phi1 * e2 + 1, e2 + 2), (m2 - 1) * e2):
                    phi2 = Fraction(rho2, e2)
                    phi3 = int(phi2) + 1
                    if not phi3 < m2:  # phi3 < M3 - 1 with M3 = m2 + 1
                        continue
                    k = e3 - rho2
                    est = (2 ** e2 + 1) * (2 * 2 ** k + 1)
                    if lo <= est <= hi:
                        fam.append({"M": [m1, m2, m2 + 1],
                                    "phi": [phi1, phi2, phi3],
                                    "e2": e2, "rho2": rho2, "k": k,
                                    "phi1": phi1, "est": est})
    return fam


def _chain_doc(ch):
    return {"kind": "falconer", "M": ch["M"],
            "phi": [_frac(p) for p in ch["phi"]], "depth": 4}


def _by(fam, key):
    out = {}
    for ch in fam:
        out.setdefault(ch[key], []).append(ch)
    return out


def _lattice_jobs(rng):
    fam = lattice_family()
    by_k = _by(fam, "k")   # k = 5..12: 65..8193 intervals per cluster
    cluster, span, gap, dim = [], [], [], []

    def window(kind, ch, lo, hi, props=None, expect=None):
        return _job(kind, "window", {"chain": _chain_doc(ch), "n": 3,
                                     "window": [_frac(lo), _frac(hi)]},
                    expect or {"exit": 0}, props=props)

    # Cluster windows: 20 partial ones on small clusters (k = 5..7, 1/8
    # to all of the cluster), 40 whole k=8 clusters (513 intervals) and
    # 4 whole k=11/12 clusters (4097/8193 intervals).
    shapes = [(5 + i % 3, Fraction(1 + i * 8 // 20, 8)) for i in range(20)] \
        + [(8, Fraction(1))] * 40 + [(11, Fraction(1)), (12, Fraction(1))] * 2
    for k, share in shapes:
        ch = rng.choice(by_k[k])
        e2, r2 = ch["e2"], Fraction(1, 2 ** ch["rho2"])
        c = Fraction(rng.randrange(1, 2 ** e2), 2 ** e2)  # interior cluster
        cluster.append(window("window-cluster", ch, c - r2 * share,
                              c + r2 * share, {"cluster_k": k}))
    # Windows over 4 whole k=6 clusters or 2 whole k=7 clusters: about
    # 515 intervals, like a k=8 cluster, so p50 sits in a wide band of
    # near-equal latencies.
    for i in range(32):
        k, width = (6, 4) if i % 2 else (7, 2)
        ch = rng.choice(by_k[k])
        e2, r2 = ch["e2"], Fraction(1, 2 ** ch["rho2"])
        m = rng.randrange(1, 2 ** e2 - width + 1)
        span.append(window("window-span", ch, Fraction(m, 2 ** e2) - r2,
                           Fraction(m + width - 1, 2 ** e2) + r2,
                           {"clusters": width}))
    for i in range(32):
        ch = rng.choice(fam)
        e2, r2 = ch["e2"], Fraction(1, 2 ** ch["rho2"])
        m = rng.randrange(2 ** e2)
        # strictly between the r2-neighbourhoods of two adjacent level-2
        # lattice points, so no point of F_2 (and so of F_3) lies inside
        a = Fraction(m, 2 ** e2) + r2
        w = (Fraction(m + 1, 2 ** e2) - r2 - a) / 4
        lo = a + w * Fraction(1 + rng.randrange(8), 8)
        gap.append(window("window-gap", ch, lo, lo + 2 * w,
                          expect={"exit": 0, "count": 0}))
    # about 2200 survivors at n=3; these 24 jobs are the top 16% of the
    # cycle, so p90 falls inside a band of near-equal latencies
    mid = [ch for ch in fam if 2000 <= ch["est"] <= 2500]
    for i in range(24):
        ch = rng.choice(mid)
        dim.append(_job("dim", "dim",
                        {"chain": _chain_doc(ch), "n_range": [1, 2, 3],
                         "s_grid": ["1", "2"]},
                        {"exit": 0, "rows": 3}))
    return _interleave(rng, [cluster, span, gap, dim])


def lattice_reference():
    """The 131089-survivor full-window dim job (ROADMAP item 1)."""
    return _job("dim-reference", "dim",
                {"chain": REF_CHAIN, "n_range": [1, 2, 3], "s_grid": ["1"]},
                {"exit": 0, "rows": 3}, reference=True)


# --- digit -----------------------------------------------------------------

# N_max quotas per cycle (with the 4 dim jobs at the bottom): N=12 holds
# ranks 36-64%, so p50 falls in its middle; N=14 holds ranks 77-95%.
_DIGIT_N = {9: 4, 10: 4, 11: 4, 12: 12, 13: 6, 14: 8, 15: 1, 16: 1}


def _schedule(rng, style, n):
    if style == "pow2":
        s = rng.randint(0, 3)
        return [2 ** (i + s) for i in range(1, n + 1)]
    if style == "quadratic":
        a, b = rng.randint(1, 3), rng.randint(0, 5)
        return [a * i * i + b * i + 1 for i in range(1, n + 1)]
    # random gaps >= 2, reaching tower-scale values up to about 2^40
    g = [rng.randint(1, 4)]
    for _ in range(1, n):
        if rng.random() < 0.5:
            g.append(g[-1] + rng.randint(2, 9))
        else:
            g.append(g[-1] + rng.randint(2, 2 ** rng.randint(8, 36)))
    return g


def _partition(rng, n, explicit):
    """mod3, or three random non-empty classes covering 1..n."""
    if not explicit:
        return "mod3"
    idx = list(range(1, n + 1))
    rng.shuffle(idx)
    cut = sorted(rng.sample(range(1, n), 2))
    return [sorted(idx[:cut[0]]), sorted(idx[cut[0]:cut[1]]),
            sorted(idx[cut[1]:])]


_STYLES = ("pow2", "quadratic", "gaps")


def _digit_jobs(rng):
    sizes = [n for n, q in _DIGIT_N.items() for _ in range(q)]
    main = []
    for i, n in enumerate(sizes):
        spec = {"g": _schedule(rng, _STYLES[i % 3], n), "N_max": n,
                "growth": "g(n+1)>=g(n)+2",
                "partition": _partition(rng, n, i % 2)}
        cfg = {"spec": spec}
        if i % 4 == 1:
            cfg["s_grid"] = ["1", "1/2", "2"]
            cfg["n_range"] = list(range(1, n - 4))
        # every index lies in one class, so there are 2^n triple sums
        main.append(_job("cantor-digit", "cantor-digit", cfg,
                         {"exit": 0, "total": 2 ** n},
                         props={"triple_sums": 2 ** n}))
    dim = []
    for i in range(4):
        n = 10 + 2 * i
        spec = {"g": _schedule(rng, _STYLES[i % 3], n), "N_max": n,
                "growth": "g(n+1)>=g(n)+2"}
        dim.append(_job("dim-digit", "dim",
                        {"digit": spec, "n_range": list(range(1, n - 1)),
                         "s_grid": ["1", "2", "1/3"]},
                        {"exit": 0, "rows": n - 2, "digit_rows": True}))
    return _interleave(rng, [main, dim])


# --- tower -----------------------------------------------------------------

def _tower_chain(rng, levels, e_top):
    """Branching chain of `levels` radius levels whose top lattice
    exponent (the product of the multipliers) is about e_top, with
    integral phi."""
    t = max(4.0, e_top ** (1 / levels))
    ms = sorted(rng.randint(3, max(4, int(2 * t))) for _ in range(levels))
    for j in range(1, levels):
        ms[j] = max(ms[j], ms[j - 1] + 1)
    phi = [rng.randint(1, ms[0] - 2)]
    for m in ms[1:]:
        lo = phi[-1] + 1
        phi.append(rng.randint(lo, min(m - 2, lo + 6)))
    return {"kind": "falconer", "M": ms, "phi": phi, "depth": levels + 1}


def _exponents(ch):
    e, rho = [1], []
    for m, p in zip(ch["M"], ch["phi"]):
        rho.append(e[-1] * Fraction(p))
        e.append(e[-1] * m)
    return e, [int(r) for r in rho]


def _member_point(rng, ch, depth, terms, member):
    """A point within r_j of the level-j lattice for every j <= depth
    (member), or farther than r_depth from the level-depth lattice.

    The point is 1/2 plus, per level, offsets below r_j/4 that land on
    the next lattice, plus a final perturbation below r_n/2 (member) or
    about 2 r_n (non-member; needs rho_n >= e_n + 3).  Exponents are
    distinct, so the point has exactly `terms` terms when there is room.
    """
    e, rho = _exponents(ch)
    out = {1: 1}
    budget = terms - 1
    for j in range(1, depth):
        lo, hi = rho[j - 1] + 2, e[j]
        k = min(budget // 4, hi - lo + 1, 16)
        if k == 0 and budget > 0:
            k = 1
        for f in rng.sample(range(lo, hi + 1), k):
            out[f] = rng.choice((1, -1))
        budget -= k
    base = rho[depth - 1]
    sign = rng.choice((1, -1))
    if not member:
        out[base - 1] = sign
        budget -= 1
    if budget > 0:
        start = base + 2
        for f in rng.sample(range(start, start + 8 * budget), budget):
            out[f] = sign if not member else rng.choice((1, -1))
    return {"terms": [[str(f), str(c)] for f, c in sorted(out.items())]}


def _tree_admissible(ch, span):
    """The tree conditions hold on levels 1..span, so the path starts at
    level 1: gap (r_n - r_{n+1}) q_{n+1} > 3, sibling separation
    rho_{n+1} >= e_{n+1} + 2, and child containment
    2^-e_{n+1} + 2^-rho_{n+1} <= 2^-rho_n."""
    e, rho = _exponents(ch)
    for n in range(1, span + 1):
        a, b = e[n] - rho[n - 1], e[n] - rho[n]
        if not (a >= 3 or (a == 2 and b < 0)) or rho[n] < e[n] + 2:
            return False
        if Fraction(1, 2 ** e[n]) + Fraction(1, 2 ** rho[n]) > \
                Fraction(1, 2 ** rho[n - 1]):
            return False
    return True


_S_GRID = ["1", "1/2", "3/2", "2", "5/3", "7/4", "1/3", "5/2"]


def _tower_jobs(rng):
    groups = []

    member = []
    for i in range(40):
        terms = 2 ** (i % 10)                 # 1..256
        if i % 10 == 9:
            ch, depth = DESK_CHAIN, 4
            terms = 2 ** (6 + i // 10)        # 64..512
        else:
            levels = 3 + i % 3
            ch = _tower_chain(rng, levels, 10 ** (4 + 3 * (i % 4)))
            depth = levels
        e, rho = _exponents(ch)
        is_member = terms == 1 or rho[depth - 1] < e[depth - 1] + 3 \
            or i // 10 % 2 == 0
        pt = _member_point(rng, ch, depth, terms, is_member)
        member.append(_job("member", "member",
                           {"chain": ch, "point": pt, "depth": depth},
                           {"exit": 0 if is_member else 1,
                            "member": is_member},
                           props={"terms": len(pt["terms"])},
                           reference=ch is DESK_CHAIN))
    groups.append(member)

    triple = []
    for i in range(8):
        K = 3 + i % 4
        ms = [3 + j + (j > 0) * rng.randint(0, 1) for j in range(8)]
        for j in range(1, 8):
            ms[j] = max(ms[j], ms[j - 1] + 1)
        ch = {"kind": "falconer", "M": ms, "phi": list(range(1, 9)),
              "depth": 9}
        triple.append(_job("triple", "triple",
                           {"chain": ch, "K": K, "k_max": K, "depth": 7},
                           {"exit": 0, "all_pass": True}))
    groups.append(triple)

    tree = []
    for i in range(7):
        bits = "".join(rng.choice("01") for _ in range(1 + i % 5))
        while True:
            ms = [3 + j + rng.randint(0, 2) for j in range(7)]
            for j in range(1, 7):
                ms[j] = max(ms[j], ms[j - 1] + 1)
            ch = {"kind": "falconer", "M": ms, "phi": list(range(1, 8)),
                  "depth": 8}
            if _tree_admissible(ch, len(bits)) and \
                    _exponents(ch)[0][len(bits)] <= 12000:
                break
        tree.append(_job("tree", "tree", {"chain": ch, "bits": bits},
                         {"exit": 0, "member": True}))
    # A valid path whose level-6 centre numerator has about 15000 bits
    # (first bit 1), more than Python's default 4300-digit limit for
    # int-to-str conversion.
    bits = "1" + "".join(rng.choice("01") for _ in range(4))
    tree.append(_job("tree-bignum", "tree",
                     {"chain": {"kind": "falconer",
                                "M": [5, 6, 7, 8, 9, 10, 11],
                                "phi": [1, 2, 3, 4, 5, 6, 7], "depth": 8},
                      "bits": bits},
                     {"exit": 0, "member": True}))
    groups.append(tree)

    chain = []
    for i in range(12):
        if i % 3 == 0:
            chain.append(_job("chain-explicit", "chain",
                              {"kind": "explicit", "depth": 1 + i // 3 % 2},
                              {"exit": 0, "regime": "Branching"},
                              log_convention=("natural", "base2")[i // 6]))
        else:
            ch = _tower_chain(rng, 3 + i % 4, 3 * 10 ** (4 + i))
            chain.append(_job("chain-custom", "chain", ch,
                              {"exit": 0, "regime": "Branching",
                               "M": ch["M"]}))
    groups.append(chain)

    dich = []
    for i in range(8):
        levels = 3 + i % 3
        ms = sorted(rng.sample(range(2, 9), levels))
        phi = [m + 1 + rng.randint(0, 1) for m in ms]
        for j in range(1, levels):
            phi[j] = max(phi[j], phi[j - 1] + 1)
        ch = {"kind": "falconer", "M": ms, "phi": phi, "depth": levels + 1}
        dich.append(_job("dichotomy", "dichotomy",
                         {"chain": ch, "n": levels, "window": ["0", "1"]},
                         {"exit": 0, "non_increasing": True}))
    groups.append(dich)

    dim = []
    small = _by(lattice_family(0, 300), "est")
    ests = sorted(small)
    for i in range(16):
        prec = (128, 512, 2048)[i % 3]
        ch = rng.choice(small[ests[i % len(ests)]])
        dim.append(_job("dim", "dim",
                        {"chain": _chain_doc(ch), "n_range": [1, 2, 3],
                         "s_grid": _S_GRID},
                        {"exit": 0, "rows": 3}, prec=prec,
                        props={"precision_bits": prec}))
    groups.append(dim)

    indep = []
    for i in range(3):
        n_max = 2 + (i > 0)
        rho = [Fraction(1, 10 + rng.randint(0, 10))]
        for _ in range(n_max - 1):
            rho.append(rho[-1] / (10 + rng.randint(1, 20)))
        indep.append(_job("cantor-indep", "cantor-indep",
                          {"n_max": n_max, "rho": [_frac(r) for r in rho],
                           "forms": {"H": 2, "m_max": 3, "count": 12}},
                          {"exit": 0, "clean": True}))
    groups.append(indep)

    over = [_job("overflow-tree", "tree",
                 {"chain": OVERFLOW_TREE_CHAIN,
                  "bits": "".join(rng.choice("01") for _ in range(4))},
                 {"exit": 2, "error": True}),
            _job("overflow-window", "window",
                 {"chain": EXPLICIT2, "n": 2, "window": ["0", "1"]},
                 {"exit": 2, "error": True}),
            _job("overflow-dim", "dim",
                 {"chain": EXPLICIT2, "n_range": [1, 2]},
                 {"exit": 2, "error": True})]
    groups.append(over)
    return _interleave(rng, groups)


def references(workload):
    """Reference jobs run by traced runs and by the answer-table rebuild,
    outside the timed cycle (the lattice one alone takes ~10 s)."""
    return [lattice_reference()] if workload == "lattice" else []


def generate(workload, seed):
    """The job cycle of one workload; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lattice":
        return _lattice_jobs(rng)
    if workload == "digit":
        return _digit_jobs(rng)
    if workload == "tower":
        return _tower_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_job(workload):
    """One small fixed job per workload, run untimed during set-up."""
    if workload == "lattice":
        return _job("warmup", "window",
                    {"chain": DESK_CHAIN, "n": 2, "window": ["0", "1"]},
                    {"exit": 0})
    if workload == "digit":
        g = [2 ** i for i in range(1, 10)]
        return _job("warmup", "cantor-digit",
                    {"spec": {"g": g, "N_max": 9,
                              "growth": "g(n+1)>=g(n)+2"}},
                    {"exit": 0, "total": 512})
    return _job("warmup", "member",
                {"chain": DESK_CHAIN, "depth": 4,
                 "point": {"terms": [["1", "1"]]}},
                {"exit": 0, "member": True})


# --- oracle ----------------------------------------------------------------

def answer(job, report):
    """The numeric answer compared against the expected table, or None."""
    cmd = job["command"]
    if report.get("exit_code") != 0:
        return None
    if cmd == "window":
        return report["count"]
    if cmd == "dim":
        return [[r["n"], r["covering"], r["packing"]]
                for r in report["table"]["rows"]]
    if cmd == "dichotomy":
        return report["probe"]["counts"]
    if cmd == "cantor-digit":
        t = report["triple_sumset"]
        return [t["total"], t["passed"]]
    return None


def refused(job, code, report):
    """The program declined a job it should answer: exit 2 with an error
    where a verdict was expected.  A failure, but not a wrong answer."""
    return code == 2 and job["expect"]["exit"] != 2 and "error" in report


def check(job, code, report, expected_table):
    """Problems with one job's outcome as a list of strings (empty: ok)."""
    exp = job["expect"]
    bad = []
    if code != exp["exit"]:
        bad.append(f"exit {code}, expected {exp['exit']}")
    if report.get("exit_code") != code:
        bad.append("report exit_code differs from the returned code")
    if exp.get("error"):
        if "error" not in report:
            bad.append("no error named in the report")
        return bad
    if bad:
        return bad
    cmd = job["command"]
    if cmd == "window":
        if report["count"] != len(report["intervals"]):
            bad.append("count differs from the listed intervals")
        if "count" in exp and report["count"] != exp["count"]:
            bad.append(f"{report['count']} survivors in a gap window")
    elif cmd == "dim":
        rows = report["table"]["rows"]
        if len(rows) != exp["rows"]:
            bad.append(f"{len(rows)} rows, expected {exp['rows']}")
        for r in rows:
            if exp.get("digit_rows") and \
                    (r["covering"], r["packing"]) != (2 ** r["n"],) * 2:
                bad.append(f"digit row {r['n']} is not 2^n")
            if r["covering"] < 1 or r["packing"] < 1:
                bad.append(f"row {r['n']} has an empty cover")
    elif cmd in ("member", "tree"):
        if report["membership"]["member"] != exp["member"]:
            bad.append("wrong membership verdict")
    elif cmd == "triple":
        if report["verification"]["all_pass"] is not True:
            bad.append("triple sums not all members")
    elif cmd == "chain":
        if report["regime"]["tag"] != exp["regime"]:
            bad.append(f"regime {report['regime']['tag']}")
        if "M" in exp and report["chain"]["M"] != exp["M"]:
            bad.append("chain multipliers changed")
    elif cmd == "dichotomy":
        if report["probe"]["non_increasing"] is not True:
            bad.append("collapse counts increase")
    elif cmd == "cantor-digit":
        t = report["triple_sumset"]
        if not (report["separation"]["ok"] and t["ok"]):
            bad.append("separation or triple sumset failed")
        if t["total"] != exp["total"] or t["passed"] != t["total"]:
            bad.append(f"triple sums {t['passed']}/{t['total']}, "
                       f"expected {exp['total']}")
    elif cmd == "cantor-indep":
        if report["relation_scan"]["relation"] is not None:
            bad.append("relation found")
    want = expected_table.get(job["id"])
    if want is not None and answer(job, report) != want:
        bad.append(f"answer {answer(job, report)} differs from the "
                   f"expected {want}")
    return bad
