"""Command-line interface: exit codes, report schema, determinism."""

import json

import pytest

from thinsets import __version__
from thinsets.cli import main, run

DESK_CHAIN = {"kind": "falconer", "M": [3, 4, 5, 6],
              "phi": [1, 2, 3, 4], "depth": 5}
COLLAPSE_CHAIN = {"kind": "falconer", "M": [3, 4, 5],
                  "phi": [4, 5, 6], "depth": 4}
DIGIT_SPEC = {"g": [2, 4, 8, 16, 32, 64], "N_max": 6,
              "growth": "g(n+1)>=g(n)+2", "partition": "mod3"}


def load(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(doc):
    return {k: v for k, v in doc.items() if k != "timestamp"}


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

    def test_carry_budget_is_refused(self, tmp_path, monkeypatch):
        # running out of carry steps is not a failed verification
        from thinsets import digit
        from thinsets.errors import CarryBudgetExceeded

        def over_budget(spec, index_cap):
            raise CarryBudgetExceeded("step budget 100000")
        monkeypatch.setattr(digit, "verify_triple_sumset", over_budget)
        code, path = run("cantor-digit", {"spec": DIGIT_SPEC},
                         out_dir=str(tmp_path))
        assert code == 2
        assert load(path)["error"] == \
            "CarryBudgetExceeded: step budget 100000"


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
