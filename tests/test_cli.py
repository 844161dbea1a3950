"""Command-line interface: exit codes, report schema, determinism."""

import importlib
import inspect
import json
from fractions import Fraction

import pytest

from thinsets import __version__, errors
from thinsets.chain import build_custom_chain
from thinsets.cli import main, run
from thinsets.falconer import LatticeInterval, survivor_numerators

DESK_CHAIN = {"kind": "falconer", "M": [3, 4, 5, 6],
              "phi": [1, 2, 3, 4], "depth": 5}
COLLAPSE_CHAIN = {"kind": "falconer", "M": [3, 4, 5],
                  "phi": [4, 5, 6], "depth": 4}
DIGIT_SPEC = {"g": [2, 4, 8, 16, 32, 64], "N_max": 6,
              "growth": "g(n+1)>=g(n)+2", "partition": "mod3"}
# e_4 = 120, so level-4 numerators near 1 exceed 2**64
WIDE_CHAIN = {"kind": "falconer", "M": [4, 5, 6, 7],
              "phi": [1, 2, 3, 4], "depth": 5}


def load(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(doc):
    return {k: v for k, v in doc.items() if k != "timestamp"}


def first_line_difference(got, want):
    """None when the texts are equal, else the index and the pair of the
    first differing lines (a full diff of a large report is too slow)."""
    if got == want:
        return None
    pairs = zip(got.splitlines(True) + [""], want.splitlines(True) + [""])
    return next((i, pair) for i, pair in enumerate(pairs)
                if pair[0] != pair[1])


class TestReportEnvelope:
    def test_schema_fields(self, tmp_path):
        code, path = run("chain", DESK_CHAIN, out_dir=str(tmp_path))
        assert code == 0
        doc = load(path)
        assert doc["schema"] == "thinset-report/1"
        assert doc["version"] == __version__
        assert doc["command"] == "chain"
        assert len(doc["config_sha256"]) == 64
        assert doc["exit_code"] == 0
        assert doc["regime"]["tag"] == "Branching"

    def test_deterministic_modulo_timestamp(self, tmp_path):
        _, p1 = run("window", {"chain": DESK_CHAIN, "n": 2},
                    out_dir=str(tmp_path / "a"))
        _, p2 = run("window", {"chain": DESK_CHAIN, "n": 2},
                    out_dir=str(tmp_path / "b"))
        assert strip_timestamp(load(p1)) == strip_timestamp(load(p2))

    def test_config_hash_tracks_config(self, tmp_path):
        _, p1 = run("window", {"chain": DESK_CHAIN, "n": 1},
                    out_dir=str(tmp_path / "a"))
        _, p2 = run("window", {"chain": DESK_CHAIN, "n": 2},
                    out_dir=str(tmp_path / "b"))
        assert load(p1)["config_sha256"] != load(p2)["config_sha256"]


class TestExitCodes:
    def test_member_pass_and_fail(self, tmp_path):
        member = {"chain": DESK_CHAIN, "depth": 4,
                  "point": {"terms": [["12", "1"]]}}
        code, _ = run("member", member, out_dir=str(tmp_path))
        assert code == 0
        non_member = {"chain": DESK_CHAIN, "depth": 4,
                      "point": {"terms": [["3", "1"], ["100", "1"]]}}
        code, path = run("member", non_member, out_dir=str(tmp_path))
        assert code == 1
        assert load(path)["membership"]["failed_level"] == 4

    def test_wrong_regime_is_config_error(self, tmp_path):
        # dichotomy on a branching chain is a misconfigured experiment
        code, path = run("dichotomy", {"chain": DESK_CHAIN, "n": 3},
                         out_dir=str(tmp_path))
        assert code == 2
        assert "RegimeViolation" in load(path)["error"]

    def test_missing_field_is_config_error(self, tmp_path):
        code, path = run("window", {"chain": DESK_CHAIN},
                         out_dir=str(tmp_path))
        assert code == 2
        assert "error" in load(path)

    def test_bad_chain_schedule(self, tmp_path):
        bad = {"kind": "falconer", "M": [4, 3], "phi": [1, 2], "depth": 3}
        code, _ = run("chain", bad, out_dir=str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("command, extra", [
        ("window", {"n": 2}), ("dim", {"n_range": [1, 2]})])
    def test_tower_scale_exponent_is_refused(self, tmp_path, command,
                                             extra):
        # rho_2 of the explicit depth-2 chain is about 2.5e11
        cfg = dict(extra, chain={"kind": "explicit", "depth": 2})
        code, path = run(command, cfg, out_dir=str(tmp_path))
        assert code == 2
        error = load(path)["error"]
        assert error.startswith("ExponentTooLarge")
        assert "limit 65536" in error

    def test_unknown_kind(self, tmp_path):
        code, path = run("chain", {"kind": "other", "depth": 2},
                         out_dir=str(tmp_path))
        assert code == 2
        assert "ConfigError" in load(path)["error"]

    @pytest.mark.parametrize("command, config", [
        ("chain", [1, 2]), ("chain", "falconer"), ("chain", None),
        ("member", {"chain": [3, 4], "depth": 1,
                    "point": {"terms": []}}),
        ("dim", {"chain": "desk", "n_range": [1]})])
    def test_non_object_config_is_config_error(self, tmp_path, command,
                                               config):
        code, path = run(command, config, out_dir=str(tmp_path))
        assert code == 2
        assert load(path)["error"].startswith("ConfigError")

    def test_point_outside_unit_interval_is_refused(self, tmp_path):
        cfg = {"chain": DESK_CHAIN, "depth": 2,
               "point": {"terms": [["0", "1"], ["3", "1"]]}}
        code, path = run("member", cfg, out_dir=str(tmp_path))
        assert code == 2
        assert load(path)["error"].startswith("OutOfUnitInterval")

    @pytest.mark.parametrize("command, config", [
        ("window", {"chain": DESK_CHAIN, "n": 9}),
        ("member", {"chain": DESK_CHAIN, "depth": 7,
                    "point": {"terms": []}}),
        ("dim", {"chain": DESK_CHAIN, "n_range": [0]}),
        ("dichotomy", {"chain": COLLAPSE_CHAIN, "n": 0})])
    def test_level_out_of_range_is_refused(self, tmp_path, command, config):
        code, path = run(command, config, out_dir=str(tmp_path))
        assert code == 2
        assert load(path)["error"].startswith("LevelOutOfRange")

    @pytest.mark.parametrize("prec", [0, -5])
    def test_non_positive_precision_is_refused(self, tmp_path, prec):
        code, path = run("dim", {"chain": DESK_CHAIN, "n_range": [2]},
                         out_dir=str(tmp_path), prec=prec)
        assert code == 2
        assert load(path)["error"].startswith("ConfigError: precision")

    @pytest.mark.parametrize("prec", [16385, 100000])
    def test_precision_above_the_bracket_limit_is_refused(self, tmp_path,
                                                          prec):
        # no bracket is built: the limit itself is the config error
        code, path = run("dim", {"chain": DESK_CHAIN, "n_range": [2]},
                         out_dir=str(tmp_path), prec=prec)
        assert code == 2
        assert load(path)["error"] == \
            f"ConfigError: precision must be 1 to 16384 bits, not {prec}"

    @pytest.mark.parametrize("chain", [
        DESK_CHAIN, {"kind": "explicit", "depth": 1}])
    def test_unknown_log_convention_is_refused(self, tmp_path, chain):
        code, path = run("chain", chain, out_dir=str(tmp_path),
                         log_convention="base10")
        assert code == 2
        assert "log_convention" in load(path)["error"]

    def test_missing_growth_step_is_refused(self, tmp_path):
        code, path = run("cantor-digit",
                         {"spec": {"g": [2, 4, 8], "N_max": 3}},
                         out_dir=str(tmp_path))
        assert code == 2
        assert load(path)["error"].startswith("GrowthPropertyMissing")

    def test_every_error_class_declares_its_exit_code(self):
        classes, pending = [], [errors.ThinsetError]
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
        assert len(classes) > 20
        for cls in classes:
            assert cls.__dict__.get("exit_code") in (1, 2), cls.__name__

    @pytest.mark.parametrize("command, config, error", [
        # overlapping explicit classes: a bad config
        ("cantor-digit",
         {"spec": dict(DIGIT_SPEC, partition=[[1, 4], [2, 4, 5], [3, 6]])},
         "PartitionOverlap: index 4 in classes 1 and 2"),
        # a search budget, not a failed independence check
        ("cantor-indep",
         {"n_max": 4, "rho": ["1/10", "1/128", "1/4096", "1/1000000"]},
         "SearchSpaceTooLarge: limits: 8 points, height 4, arity 4"),
        # a point past the sparse term cap is no non-member
        ("member",
         {"chain": DESK_CHAIN, "depth": 2,
          "point": {"terms": [[str(k), "1"] for k in range(1, 5001)]}},
         "TermCapExceeded: 5000 terms exceeds cap 4096")])
    def test_budget_and_config_errors_are_refused(self, tmp_path, command,
                                                  config, error):
        code, path = run(command, config, out_dir=str(tmp_path))
        assert code == 2
        assert load(path)["error"] == error

    def test_triple_sums_are_not_capped(self, tmp_path):
        # 12 indices in three classes: 2**12 = 4096 triple sums, counted
        # by the disjoint-class lemma, so --cap does not bound them
        spec = {"g": list(range(2, 26, 2)), "N_max": 12,
                "growth": "g(n+1)>=g(n)+2"}
        for cap in (4095, 4096):
            code, path = run("cantor-digit", {"spec": spec},
                             out_dir=str(tmp_path), cap=cap)
            assert code == 0
            assert load(path)["triple_sumset"]["total"] == 4096

    def test_two_to_the_forty_triple_sums(self, tmp_path):
        # far past any enumeration: only the lemma can answer this
        spec = {"g": list(range(2, 82, 2)), "N_max": 40,
                "growth": "g(n+1)>=g(n)+2"}
        code, path = run("cantor-digit", {"spec": spec},
                         out_dir=str(tmp_path))
        assert code == 0
        rep = load(path)["triple_sumset"]
        assert rep["total"] == rep["passed"] == 2 ** 40
        assert rep["set_sizes"] == [2 ** 14, 2 ** 13, 2 ** 13]

    @pytest.mark.parametrize("n_max, code, error", [
        (4095, 0, None),
        # a_1 minus the bounded tail then has 4097 terms
        (4096, 2, "TermCapExceeded: 4097 terms exceeds cap 4096")])
    def test_largest_digit_universe(self, tmp_path, n_max, code, error):
        # the separation check bounds N_max, so total = 2**4095 (1233
        # decimal digits) stays under the 4300-digit int-to-str limit
        spec = {"g": list(range(2, 2 * n_max + 2, 2)), "N_max": n_max,
                "growth": "g(n+1)>=g(n)+2"}
        got, path = run("cantor-digit", {"spec": spec, "N": 1},
                        out_dir=str(tmp_path))
        doc = load(path)
        assert (got, doc.get("error")) == (code, error)
        if code == 0:
            assert doc["triple_sumset"]["total"] == 2 ** n_max

    def test_triple_records_are_capped(self, tmp_path):
        # K singles and K**3 triples: 47 + 47**3 = 103870 records
        chain = {"kind": "falconer", "M": [3, 4], "phi": [1, 2],
                 "depth": 3}
        code, path = run("triple", {"chain": chain, "K": 47, "k_max": 47,
                                    "depth": 2}, out_dir=str(tmp_path))
        assert code == 2
        assert load(path)["error"] == \
            "CapExceeded: 103870 triple records exceed cap 100000"

    @pytest.mark.parametrize("K", [-1, 0, 4])
    def test_triple_size_outside_family_is_refused(self, tmp_path, K):
        code, path = run("triple", {"chain": DESK_CHAIN, "K": K,
                                    "depth": 4}, out_dir=str(tmp_path))
        assert code == 2
        assert load(path)["error"] == \
            f"ValueError: K must lie in 1..3, not {K}"

    def test_unknown_log_convention_without_chain_is_refused(self,
                                                             tmp_path):
        code, path = run("cantor-digit", {"spec": DIGIT_SPEC},
                         out_dir=str(tmp_path), log_convention="base10")
        assert code == 2
        assert load(path)["error"].startswith("ConfigError: log_convention")

    @pytest.mark.parametrize("index_cap", [0, -1])
    def test_non_positive_index_cap_is_refused(self, tmp_path, index_cap):
        code, path = run("cantor-digit",
                         {"spec": DIGIT_SPEC, "index_cap": index_cap},
                         out_dir=str(tmp_path))
        assert code == 2
        assert load(path)["error"] == \
            f"ConfigError: index_cap must be at least 1, not {index_cap}"


def test_class_functions_belong_to_their_module():
    # profilers that wrap the package's functions (bench/tracing.py) file
    # each one under the module named by its __module__
    for name in ("chain", "cli", "digit", "dimension", "dyadic",
                 "falconer", "independent", "rounding"):
        mod = importlib.import_module(f"thinsets.{name}")
        for cls in vars(mod).values():
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__ \
                    or issubclass(cls, BaseException):
                continue
            for attr, val in vars(cls).items():
                fn = getattr(val, "__func__", val)
                if inspect.isfunction(fn) and (attr == "__init__" or
                                               not attr.startswith("__")):
                    assert fn.__module__ == mod.__name__, \
                        f"{cls.__name__}.{attr} comes from {fn.__module__}"


def test_export_list_resolves():
    # a name deleted from a module must not linger in __all__
    import thinsets
    for name in thinsets.__all__:
        assert hasattr(thinsets, name), name
    namespace = {}
    exec("from thinsets import *", namespace)
    assert set(thinsets.__all__) <= set(namespace)


class TestWindowReport:
    """Window records come from a template; the report must still be
    exactly json.dumps of the LatticeInterval records."""

    @pytest.mark.parametrize("chain, n, window, count", [
        (DESK_CHAIN, 2, ["1/32", "1/16"], 0),  # between level-2 radii
        (DESK_CHAIN, 2, ["0", "1/1000"], 1),
        (DESK_CHAIN, 3, ["0", "1"], 1033),
        (WIDE_CHAIN, 4, [f"{2 ** 118 - 1}/{2 ** 118}", "1"], 5)])
    def test_records_match_json_dumps(self, tmp_path, chain, n, window,
                                      count):
        code, path = run("window", {"chain": chain, "n": n,
                                    "window": window},
                         out_dir=str(tmp_path))
        with open(path) as fh:
            text = fh.read()
        built = build_custom_chain(chain["M"], chain["phi"], chain["depth"])
        records = [LatticeInterval(n, m, built.rho[n - 1]).to_json()
                   for m in survivor_numerators(
                       built, n, tuple(map(Fraction, window)), 100000)]
        assert code == 0
        assert len(records) == count
        expected = dict(json.loads(text), intervals=records)
        assert first_line_difference(
            text, json.dumps(expected, indent=2, sort_keys=True) + "\n") \
            is None

    def test_error_report_matches_json_dumps(self, tmp_path):
        code, path = run("window", {"chain": DESK_CHAIN, "n": 3},
                         out_dir=str(tmp_path), cap=100)
        with open(path) as fh:
            text = fh.read()
        doc = json.loads(text)
        assert code == 2
        assert doc["error"].startswith("CapExceeded")
        assert first_line_difference(
            text, json.dumps(doc, indent=2, sort_keys=True) + "\n") is None


class TestCommands:
    def test_triple(self, tmp_path):
        cfg = {"chain": DESK_CHAIN, "k_max": 3, "K": 3, "depth": 4}
        code, path = run("triple", cfg, out_dir=str(tmp_path))
        assert code == 0
        doc = load(path)
        assert len(doc["verification"]["triples"]) == 27

    def test_broken_invariant_is_a_crash(self, tmp_path, monkeypatch):
        # a library bug must not be reported as a failed verification
        from thinsets.errors import InvariantViolation
        from thinsets.falconer import TripleSumFamily
        monkeypatch.setattr(TripleSumFamily, "check_invariants",
                            lambda self, chain: "forced violation")
        cfg = {"chain": DESK_CHAIN, "k_max": 3, "K": 3, "depth": 4}
        with pytest.raises(InvariantViolation):
            run("triple", cfg, out_dir=str(tmp_path))

    def test_tree(self, tmp_path):
        code, path = run("tree", {"chain": DESK_CHAIN, "bits": "010"},
                         out_dir=str(tmp_path))
        assert code == 0
        assert load(path)["membership"]["member"]

    def test_window_counts(self, tmp_path):
        code, path = run("window", {"chain": DESK_CHAIN, "n": 3},
                         out_dir=str(tmp_path))
        assert code == 0
        assert load(path)["count"] == 1033

    def test_report_is_indented_sorted_json(self, tmp_path):
        _, path = run("window", {"chain": DESK_CHAIN, "n": 2},
                      out_dir=str(tmp_path))
        with open(path) as fh:
            text = fh.read()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_window_cap_exceeded(self, tmp_path):
        code, path = run("window", {"chain": DESK_CHAIN, "n": 3},
                         out_dir=str(tmp_path), cap=100)
        assert code == 2
        assert "CapExceeded" in load(path)["error"]

    def test_dichotomy_collapse(self, tmp_path):
        code, path = run("dichotomy", {"chain": COLLAPSE_CHAIN, "n": 3},
                         out_dir=str(tmp_path))
        assert code == 0
        assert load(path)["probe"]["counts"] == [3, 3, 3]

    def test_dim_writes_csv(self, tmp_path):
        cfg = {"chain": DESK_CHAIN, "s_grid": ["1/2", "1"],
               "n_range": [2, 3]}
        code, path = run("dim", cfg, out_dir=str(tmp_path))
        assert code == 0
        csv_path = tmp_path / "dim_table.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("n,delta_exponent")

    def test_cantor_indep(self, tmp_path):
        cfg = {"n_max": 2, "rho": ["1/10", "1/128"],
               "forms": {"H": 2, "m_max": 3, "count": 12}}
        code, path = run("cantor-indep", cfg, out_dir=str(tmp_path))
        assert code == 0
        doc = load(path)
        assert doc["quadruple_scan"]["quadruple"] is None
        assert doc["relation_scan"]["relation"] is None
        assert path.endswith("cantor_indep_report.json")

    def test_cantor_digit(self, tmp_path):
        cfg = {"spec": DIGIT_SPEC, "N": 6, "index_cap": 6}
        code, path = run("cantor-digit", cfg, out_dir=str(tmp_path))
        assert code == 0
        doc = load(path)
        assert doc["separation"]["ok"]
        assert doc["triple_sumset"]["total"] == 64

    def test_cantor_digit_gauge_decay(self, tmp_path):
        # g(n) = 2**(n*n) grows fast enough for certified cost decay
        spec = {"g": [2, 16, 512, 65536], "N_max": 4,
                "growth": "g(n+1)>=g(n)+2", "partition": "mod3"}
        cfg = {"spec": spec, "s_grid": ["1"], "n_range": [1, 2, 3]}
        code, path = run("cantor-digit", cfg, out_dir=str(tmp_path))
        assert code == 0
        assert load(path)["gauge_costs"]["decreasing"]["1"]

    def test_cantor_digit_failure_exit_one(self, tmp_path):
        spec = {"g": [1, 2, 3, 4, 5, 6], "N_max": 6,
                "growth": "g(n+1)>=g(n)+1", "partition": "mod3"}
        code, path = run("cantor-digit", {"spec": spec},
                         out_dir=str(tmp_path))
        assert code == 1
        assert not load(path)["separation"]["ok"]


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(DESK_CHAIN))
        code = main(["chain", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        assert "chain_report.json" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path):
        assert main(["chain", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["chain", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2

    def test_base2_convention(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "explicit", "depth": 1}))
        code = main(["chain", "--config", str(cfg), "--out", str(tmp_path),
                     "--log-convention", "base2"])
        assert code == 0
        doc = load(tmp_path / "chain_report.json")
        assert doc["chain"]["M"] == [12]
