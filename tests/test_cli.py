import json
import os

import numpy as np
import pytest

from jamgame.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture()
def fast_config(tmp_path):
    """Default profile with a small episode budget for CLI-level tests."""
    with open(os.path.join(CONFIG_DIR, "default.json")) as fh:
        doc = json.load(fh)
    doc["learn"]["episodes"] = 300
    doc["game"]["tau_max"] = 2
    doc["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestSteady:
    def test_prints_summary(self, fast_config, capsys):
        assert main(["steady", "--config", fast_config]) == 0
        text = capsys.readouterr().out
        assert "0.92445" in text
        assert "spectral radius: 1.2" in text
        assert "boundedness" in text

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["steady", "--config", str(bad)]) == 2

    def test_stable_plant_reports_negative_threshold(self, tmp_path, capsys):
        with open(os.path.join(CONFIG_DIR, "default.json")) as fh:
            doc = json.load(fh)
        doc["model"]["A"] = [[0.8]]
        cfg = tmp_path / "stable.json"
        cfg.write_text(json.dumps(doc))
        assert main(["steady", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "boundedness threshold 1 - 1/rho^2: -0.56" in out

    def test_missing_field_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"A": [[1.2]]}}))
        assert main(["steady", "--config", str(bad)]) == 2
        assert "model" in capsys.readouterr().err

    def test_overflowing_trace_table_exit_2(self, tmp_path, capsys):
        # A = 1.2 grows the trace by 1.44 per holding step: past float64 near 1944.
        with open(os.path.join(CONFIG_DIR, "default.json")) as fh:
            doc = json.load(fh)
        doc["game"]["tau_max"] = 2000
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps(doc))
        assert main(["steady", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "inf" not in captured.out
        assert "config error:" in captured.err
        assert "tau_max=2000" in captured.err and "rho(A)=1.2" in captured.err


class TestSolveAndLearn:
    def test_solve_writes_tables(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["solve", "--config", fast_config, "--out", out]) == 0
        assert sorted(os.listdir(out)) == [
            "oracle_policies.json", "oracle_qtable.csv", "oracle_qtables.json"]
        doc = json.loads(open(os.path.join(out, "oracle_qtables.json")).read())
        assert len(doc["states"]) == 12

    def test_learn_writes_tables_and_curve(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["learn", "--config", fast_config, "--out", out]) == 0
        names = sorted(os.listdir(out))
        assert names == ["learn_convergence.csv", "learn_policies.json",
                         "learn_qtable.csv", "learn_qtables.json"]
        curve = open(os.path.join(out, "learn_convergence.csv")).read().splitlines()
        assert curve[0].startswith("episode,q1(")
        assert len(curve) == 302  # header + initial row + one per episode

    def test_learn_zero_episodes_emit_zero_tables(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["learn", "--config", fast_config, "--out", out,
                     "--episodes", "0"]) == 0
        doc = json.loads(open(os.path.join(out, "learn_qtables.json")).read())
        assert np.abs(np.array(doc["q1"])).max() == 0.0

    @pytest.mark.parametrize("flag", ["--episodes", "--seed"])
    def test_negative_override_exit_2(self, fast_config, tmp_path, capsys, flag):
        out = str(tmp_path / "out")
        assert main(["learn", "--config", fast_config, "--out", out, flag, "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag[2:] in err
        assert not os.path.exists(out)

    def test_learn_dump_has_no_negative_zero(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["learn", "--config", fast_config, "--out", out,
                     "--episodes", "3"]) == 0
        doc = json.loads(open(os.path.join(out, "learn_qtables.json")).read())
        for key in ("q1", "q2"):
            table = np.array(doc[key])
            assert (table == 0.0).any()
            assert not np.signbit(table[table == 0.0]).any()

    def test_payoff_scale_beyond_certification_exit_2(self, tmp_path, capsys):
        # At tau_max=100 max|Q*| reaches 3e16: float64 spacing there dwarfs CERT_TOL.
        with open(os.path.join(CONFIG_DIR, "default.json")) as fh:
            doc = json.load(fh)
        doc["game"]["tau_max"] = 100
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        assert main(["solve", "--config", str(cfg), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "tau_max=100" in err and "rho(A)=1.2" in err and "B=" in err
        assert not os.path.exists(out)

    def test_learn_oracle_flag_prints_gap(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["learn", "--config", fast_config, "--out", out,
                     "--oracle"]) == 0
        assert "sup-norm gap to oracle" in capsys.readouterr().out

    def test_round_trip_policies(self, fast_config, tmp_path):
        from jamgame.nashq import qtables_from_json, extract_policy
        out = str(tmp_path / "out")
        main(["learn", "--config", fast_config, "--out", out])
        tables = qtables_from_json(open(os.path.join(out, "learn_qtables.json")).read())
        pols = extract_policy(tables)
        stored = json.loads(open(os.path.join(out, "learn_policies.json")).read())
        for p, s in zip(pols, stored["policies"]):
            assert p.strat_p1.probs.tolist() == s["attacker"]
            assert p.strat_p2.probs.tolist() == s["sensor"]


class TestEquilibriumCommand:
    def test_demo_matrix(self, capsys):
        path = os.path.join(CONFIG_DIR, "stage_game_demo.txt")
        assert main(["equilibrium", path]) == 0
        text = capsys.readouterr().out
        assert "zero-sum: True" in text
        assert "lemke-howson" in text
        assert "support enumeration" in text

    def test_matching_pennies_file(self, tmp_path, capsys):
        path = tmp_path / "mp.txt"
        path.write_text("1 -1\n-1 1\n")
        assert main(["equilibrium", str(path)]) == 0
        assert "[0.5, 0.5]" in capsys.readouterr().out

    def test_one_by_one(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("3.5\n")
        assert main(["equilibrium", str(path)]) == 0
        assert "[1.0]" in capsys.readouterr().out

    def test_missing_file_exit_2(self, capsys):
        assert main(["equilibrium", "/definitely/not/here.txt"]) == 2

    @pytest.mark.parametrize("text", ["1 2\n3\n", "1 x\n2 3\n", "1 nan\n2 3\n", ""],
                             ids=["ragged", "non_numeric", "nan", "empty"])
    def test_malformed_matrix_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["equilibrium", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: matrix file")

    def test_blank_line_of_spaces_separates_blocks(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("3 0\n5 1\n  \t\n3 5\n0 1\n")
        assert main(["equilibrium", str(path)]) == 0
        assert "stage game 2x2, zero-sum: False" in capsys.readouterr().out


class TestMonotoneCommand:
    def test_report_written(self, tmp_path, capsys):
        src = os.path.join(CONFIG_DIR, "monotone.json")
        with open(src) as fh:
            doc = json.load(fh)
        doc["output_dir"] = str(tmp_path / "out")
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps(doc))
        assert main(["monotone", "--config", str(cfg)]) == 0
        rep = json.loads(open(tmp_path / "out" / "monotone_report.json").read())
        assert rep["action_product_ok"] is True
        assert rep["supermodular_sensor_q"] is True
        assert rep["monotone_expected_action"] is True
        out = capsys.readouterr().out
        assert "epsilon_max" in out


class TestBayesCommand:
    def test_tables_emitted(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["bayes", "--config", fast_config, "--out", out]) == 0
        rows = open(os.path.join(out, "bayes_attacker.csv")).read().splitlines()
        assert rows[0] == "action,type=0.6,type=0.8"
        assert len(rows) == 3
        rows = open(os.path.join(out, "bayes_sensor.csv")).read().splitlines()
        assert rows[0] == "action,type=0.6,type=0.8"


class TestSimulateCommand:
    def test_rollout_csv(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["solve", "--config", fast_config, "--out", out]) == 0
        assert main(["simulate", "--config", fast_config, "--out", out,
                     "--policies", os.path.join(out, "oracle_policies.json"),
                     "--horizon", "500"]) == 0
        rows = open(os.path.join(out, "trajectory.csv")).read().splitlines()
        assert rows[0] == "step,tau,g_s,g_a,a,b,q,gamma,trace_P,r1"
        assert len(rows) == 501

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_nonpositive_horizon_exit_2(self, fast_config, tmp_path, capsys, horizon):
        out = str(tmp_path / "out")
        assert main(["solve", "--config", fast_config, "--out", out]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", fast_config, "--out", out,
                     "--policies", os.path.join(out, "oracle_policies.json"),
                     "--horizon", horizon]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "horizon" in err
        assert not os.path.exists(os.path.join(out, "trajectory.csv"))

    def test_missing_policy_file_exit_2(self, fast_config, tmp_path):
        assert main(["simulate", "--config", fast_config,
                     "--policies", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("case", [
        "no_policies_key", "no_attacker", "no_sensor", "ragged_rows",
        "negative_entry", "row_sum_off_one",
    ])
    def test_malformed_policy_file_exit_2(self, fast_config, tmp_path, capsys, case):
        out = str(tmp_path / "out")
        assert main(["solve", "--config", fast_config, "--out", out]) == 0
        path = os.path.join(out, "oracle_policies.json")
        with open(path) as fh:
            doc = json.load(fh)
        pols = doc["policies"]
        if case == "no_policies_key":
            del doc["policies"]
        elif case == "no_attacker":
            del pols[3]["attacker"]
        elif case == "no_sensor":
            del pols[3]["sensor"]
        elif case == "ragged_rows":
            pols[3]["attacker"] = [0.5, 0.25, 0.25]
        elif case == "negative_entry":
            pols[3]["sensor"] = [1.5, -0.5]
        else:
            pols[3]["sensor"] = [0.5, 0.5 + 1e-8]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert main(["simulate", "--config", fast_config, "--out", out,
                     "--policies", path, "--horizon", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: policy file")
        assert not os.path.exists(os.path.join(out, "trajectory.csv"))


class TestExitCodes:
    """0 success, 1 solver failure, 2 bad input; anything else is a bug."""

    def write_doc(self, tmp_path, doc):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def fast_doc(self, fast_config):
        with open(fast_config) as fh:
            return json.load(fh)

    def test_nan_gain_exit_2(self, fast_config, tmp_path, capsys):
        doc = self.fast_doc(fast_config)
        doc["channel"]["gains"] = [0.6, float("nan")]
        out = str(tmp_path / "out")
        assert main(["solve", "--config", self.write_doc(tmp_path, doc), "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error: channel: gains")
        assert not os.path.exists(out)

    def test_bayes_beyond_strategy_cap_exit_2(self, tmp_path, capsys, scaled_profile):
        cfg = self.write_doc(tmp_path, scaled_profile)
        assert main(["bayes", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bayes:") and "cap" in err

    def test_monotone_with_one_action_exit_2(self, fast_config, tmp_path, capsys):
        doc = self.fast_doc(fast_config)
        doc["game"]["actions_attacker"] = [1]
        doc["game"]["actions_sensor"] = [2]
        cfg = self.write_doc(tmp_path, doc)
        assert main(["monotone", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error: monotone: need at least two actions" in capsys.readouterr().err

    def test_out_under_a_regular_file_exit_2(self, fast_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["solve", "--config", fast_config, "--out", str(blocker / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("exc", [RuntimeError("no convergence"),
                                     np.linalg.LinAlgError("singular")])
    def test_solver_failure_exit_1(self, fast_config, tmp_path, capsys, monkeypatch, exc):
        def fail(spec):
            raise exc
        monkeypatch.setattr("jamgame.nashq.shapley_value_iteration", fail)
        assert main(["solve", "--config", fast_config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {exc}\n"

    @pytest.mark.parametrize("exc", [TypeError, IndexError, AttributeError, KeyError])
    def test_programming_error_surfaces(self, fast_config, tmp_path, monkeypatch, exc):
        def fail(spec):
            raise exc("bug")
        monkeypatch.setattr("jamgame.nashq.shapley_value_iteration", fail)
        with pytest.raises(exc):
            main(["solve", "--config", fast_config, "--out", str(tmp_path / "out")])


class TestDeterminism:
    def test_all_commands_byte_identical_on_rerun(self, fast_config, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["solve", "--config", fast_config, "--out", out]) == 0
            assert main(["learn", "--config", fast_config, "--out", out]) == 0
            assert main(["bayes", "--config", fast_config, "--out", out]) == 0
            assert main(["simulate", "--config", fast_config, "--out", out,
                         "--policies", os.path.join(out, "oracle_policies.json"),
                         "--horizon", "200"]) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_seed_override_changes_learning(self, fast_config, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["learn", "--config", fast_config, "--out", out1,
                     "--seed", "101"]) == 0
        assert main(["learn", "--config", fast_config, "--out", out2,
                     "--seed", "102"]) == 0
        a = open(os.path.join(out1, "learn_qtables.json")).read()
        b = open(os.path.join(out2, "learn_qtables.json")).read()
        assert a != b
