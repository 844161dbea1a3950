"""Command-line front end: build objects from JSON configs, run
verifications, and emit JSON/CSV reports.

Exit codes: 0 all checks passed, 1 a verification failed, 2 the config
or requested operation is invalid or ran out of budget (the error
class's exit_code).  Window interval records are rendered from one
template to the bytes json.dumps would write: its pure-Python indent
encoder is most of the cost of a large window.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, chain as chain_mod, digit as digit_mod
from . import dimension as dim_mod
from . import falconer as fal_mod
from . import independent as ind_mod
from .dyadic import SparseDyadic
from .errors import CapExceeded, ConfigError, ThinsetError
from .rounding import MAX_PREC

SCHEMA = "thinset-report/1"

# One interval record of a window report as json.dumps(indent=2,
# sort_keys=True) lays it out inside the top-level "intervals" list.
_RECORD = ('    {\n      "level": %d,\n      "numerator": "%d",\n'
           '      "radius_exponent": "%d"\n    }')


class _Records(str):
    """A window report's interval records, rendered from _RECORD and
    joined by a comma and a newline; _report_text puts them in place."""


def _object(doc, what):
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return doc


def _load_chain(doc, log_convention, prec):
    kind = _object(doc, "chain config").get("kind", "falconer")
    try:
        if kind == "explicit":
            return chain_mod.build_explicit_chain(
                int(doc["depth"]), log_convention=log_convention, prec=prec)
        if kind == "falconer":
            return chain_mod.build_custom_chain(
                doc["M"], [Fraction(p) for p in doc["phi"]],
                int(doc["depth"]), log_convention=log_convention)
    except (KeyError, ValueError, TypeError, ThinsetError) as ex:
        raise ConfigError(f"invalid chain config: {ex}") from ex
    raise ConfigError(f"unknown chain kind '{kind}'")


def _window(doc):
    lo, hi = doc.get("window", ["0", "1"])
    return Fraction(lo), Fraction(hi)


def _cmd_chain(cfg, opts):
    chain = _load_chain(cfg, opts["log_convention"], opts["prec"])
    regime = chain_mod.classify_regime(chain)
    return 0, {"chain": chain.to_json(),
               "regime": {"tag": regime.tag,
                          "witness_level": regime.witness_level}}


def _cmd_member(cfg, opts):
    chain = _load_chain(cfg["chain"], opts["log_convention"], opts["prec"])
    x = SparseDyadic.from_json(cfg["point"])
    rep = fal_mod.member_depth(chain, x, int(cfg["depth"]))
    return (0 if rep.member else 1), {"membership": rep.to_json()}


def _cmd_triple(cfg, opts):
    chain = _load_chain(cfg["chain"], opts["log_convention"], opts["prec"])
    K = int(cfg.get("K", 3))
    records = K + K ** 3  # K singles and K**3 ordered triples
    if records > opts["cap"]:
        raise CapExceeded(f"{records} triple records exceed cap "
                          f"{opts['cap']}")
    fam = fal_mod.select_triple_indices(chain, int(cfg.get("k_max", 3)))
    rep = fal_mod.verify_triple_sum(chain, fam, K, int(cfg["depth"]))
    return (0 if rep["all_pass"] else 1), {
        "family": fam.to_json(), "verification": rep}


def _cmd_tree(cfg, opts):
    chain = _load_chain(cfg["chain"], opts["log_convention"], opts["prec"])
    path = fal_mod.binary_tree_point(chain, cfg["bits"],
                                     cfg.get("start_hint"))
    rep = fal_mod.member_depth(chain, path.representative,
                               path.i0 + len(cfg["bits"]) - 1
                               if cfg["bits"] else path.i0)
    return (0 if rep.member else 1), {"path": path.to_json(),
                                      "membership": rep.to_json()}


def _cmd_window(cfg, opts):
    chain = _load_chain(cfg["chain"], opts["log_convention"], opts["prec"])
    n = int(cfg["n"])
    numerators = fal_mod.survivor_numerators(chain, n, _window(cfg),
                                             opts["cap"])
    rho = chain.rho[n - 1]
    records = ",\n".join([_RECORD % (n, m, rho) for m in numerators])
    return 0, {"count": len(numerators), "intervals": _Records(records)}


def _cmd_dichotomy(cfg, opts):
    chain = _load_chain(cfg["chain"], opts["log_convention"], opts["prec"])
    rep = fal_mod.dichotomy_probe(chain, int(cfg["n"]), _window(cfg),
                                  opts["cap"])
    return (0 if rep["non_increasing"] else 1), {"probe": rep}


def _cmd_dim(cfg, opts):
    if "chain" in cfg:
        source = _load_chain(cfg["chain"], opts["log_convention"],
                             opts["prec"])
    elif "digit" in cfg:
        source = digit_mod.DigitSpec.from_json(cfg["digit"])
    else:
        raise ConfigError("dim needs a 'chain' or 'digit' source")
    s_grid = [Fraction(s) for s in cfg.get("s_grid", ["1"])]
    params = None
    if "params" in cfg:
        p = cfg["params"]
        params = dim_mod.GaugeParams(Fraction(p["s"]),
                                     Fraction(p["epsilon"]),
                                     Fraction(p["C"]))
    rep = dim_mod.dimension_report(source, s_grid, cfg["n_range"],
                                   params=params, cap=opts["cap"],
                                   prec=opts["prec"])
    return 0, {"table": rep, "csv": dim_mod.report_to_csv(rep)}


def _cmd_cantor_indep(cfg, opts):
    f = cfg.get("forms", {"H": 2, "m_max": 3, "count": 12})
    forms = ind_mod.enumerate_forms(int(f["H"]), int(f["m_max"]),
                                    int(f["count"]))
    tree = ind_mod.build_independent_tree(
        int(cfg["n_max"]), [Fraction(r) for r in cfg["rho"]], forms)
    leaves = tree.level_centers(tree.n_max)
    quad = ind_mod.quadruple_scan(leaves)
    rel = ind_mod.relation_scan(leaves, min(int(f["H"]), 4),
                                min(int(f["m_max"]), 4))
    clean = quad["quadruple"] is None and rel["relation"] is None
    return (0 if clean else 1), {"tree": tree.to_json(),
                                 "quadruple_scan": {
                                     "quadruple": quad["quadruple"] and
                                     [str(v) for v in quad["quadruple"]],
                                     "pairs_checked": quad["pairs_checked"]},
                                 "relation_scan": rel}


def _cmd_cantor_digit(cfg, opts):
    spec = digit_mod.DigitSpec.from_json(cfg["spec"])
    sep = digit_mod.separation_check(spec, int(cfg.get("N", spec.N_max)))
    index_cap = int(cfg.get("index_cap", spec.N_max))
    if index_cap < 1:
        raise ConfigError(f"index_cap must be at least 1, not {index_cap}")
    triple = digit_mod.verify_triple_sumset(spec, index_cap)
    out = {"separation": sep, "triple_sumset": triple}
    if "s_grid" in cfg and "n_range" in cfg:
        out["gauge_costs"] = digit_mod.dimension_zero_diagnostic(
            spec, [Fraction(s) for s in cfg["s_grid"]], cfg["n_range"],
            prec=opts["prec"])
    ok = sep["ok"] and triple["ok"]
    return (0 if ok else 1), out


_COMMANDS = {
    "chain": _cmd_chain,
    "member": _cmd_member,
    "triple": _cmd_triple,
    "tree": _cmd_tree,
    "window": _cmd_window,
    "dichotomy": _cmd_dichotomy,
    "dim": _cmd_dim,
    "cantor-indep": _cmd_cantor_indep,
    "cantor-digit": _cmd_cantor_digit,
}


def _report_text(report):
    """json.dumps(report, indent=2, sort_keys=True) plus a newline, with
    _Records spliced in for an empty "intervals" list.  A newline
    followed by two spaces starts a top-level key (JSON escapes newlines
    in strings), so the empty list's line is found once."""
    records = report.get("intervals")
    if not isinstance(records, _Records):
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    text = json.dumps({**report, "intervals": []}, indent=2,
                      sort_keys=True) + "\n"
    if not records:
        return text
    return text.replace('\n  "intervals": [],',
                        '\n  "intervals": [\n' + records + '\n  ],', 1)


def run(command, config_doc, out_dir=".", prec=128, cap=100000,
        log_convention="natural"):
    """Execute one command; returns (exit_code, report_path)."""
    raw = json.dumps(config_doc, sort_keys=True).encode()
    opts = {"prec": prec, "cap": cap, "log_convention": log_convention}
    try:
        if not 1 <= prec <= MAX_PREC:
            raise ConfigError(f"precision must be 1 to {MAX_PREC} bits, "
                              f"not {prec}")
        if log_convention not in chain_mod.LOG_CONVENTIONS:
            raise ConfigError(f"log_convention must be one of "
                              f"{', '.join(chain_mod.LOG_CONVENTIONS)}, "
                              f"not {log_convention!r}")
        code, body = _COMMANDS[command](_object(config_doc, "config"), opts)
    except ThinsetError as ex:
        code, body = ex.exit_code, {"error": f"{type(ex).__name__}: {ex}"}
    except (KeyError, ValueError, TypeError) as ex:
        code, body = 2, {"error": f"{type(ex).__name__}: {ex}"}
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "exit_code": code,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    report.update(body)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command.replace('-', '_')}_report.json")
    text = _report_text(report)
    with open(path, "w") as fh:
        fh.write(text)
    csv_text = body.get("csv")
    if csv_text:
        with open(os.path.join(out_dir, f"{command}_table.csv"), "w") as fh:
            fh.write(csv_text)
    return code, path


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thinsets",
        description="Exact verifications over nested-lattice thin sets")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True,
                        help="path to a JSON experiment config")
    parser.add_argument("--out", default=".", help="report directory")
    parser.add_argument("--precision-bits", type=int, default=128)
    parser.add_argument("--cap", type=int, default=100000)
    parser.add_argument("--log-convention", choices=chain_mod.LOG_CONVENTIONS,
                        default="natural")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    code, path = run(args.command, config_doc, out_dir=args.out,
                     prec=args.precision_bits, cap=args.cap,
                     log_convention=args.log_convention)
    print(f"report: {path} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
