import json
import os
import subprocess
import sys

import numpy as np
import pytest

from solver_probes import count_lp_calls

from jamgame import equilibria
from jamgame.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


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

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"model": "\xff"}')
        assert main(["steady", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("config error: config is not valid UTF-8")

    def test_stable_plant_reports_negative_threshold(self, tmp_path, capsys):
        with open(os.path.join(CONFIG_DIR, "default.json")) as fh:
            doc = json.load(fh)
        doc["model"]["A"] = [[0.8]]
        cfg = tmp_path / "stable.json"
        cfg.write_text(json.dumps(doc))
        assert main(["steady", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "boundedness threshold 1 - 1/rho^2: -0.56" in out

    @pytest.mark.parametrize("model", [
        {"A": [[0.0]]},
        {"A": [[0, 1], [0, 0]], "C": [[1, 0]], "Q": [[0.8, 0], [0, 0.8]],
         "Pi0": [[0.8, 0], [0, 0.8]]},
    ], ids=["zero", "nilpotent"])
    def test_zero_spectral_radius_exit_0(self, tmp_path, capsys, model):
        # rho(A) = 0: the floor 1 - 1/rho^2 is -inf, so boundedness holds.
        with open(os.path.join(CONFIG_DIR, "default.json")) as fh:
            doc = json.load(fh)
        doc["model"].update(model)
        cfg = tmp_path / "plant.json"
        cfg.write_text(json.dumps(doc))
        assert main(["steady", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "spectral radius: 0.0" in out
        assert "boundedness threshold 1 - 1/rho^2: -inf" in out
        assert "boundedness holds" in out

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
        from jamgame.equilibria import ZERO_SUM_TOL
        from jamgame.nashq import QTables, extract_policy
        out = str(tmp_path / "out")
        main(["learn", "--config", fast_config, "--out", out])
        with open(os.path.join(out, "learn_qtables.json")) as fh:
            doc = json.load(fh)
        q1, q2 = np.array(doc["q1"]), np.array(doc["q2"])
        assert (np.abs(q1 + q2) <= ZERO_SUM_TOL).all()
        pols = extract_policy(QTables(q1=q1, visits=np.array(doc["visits"])))
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

    def test_support_enumeration_follows_its_cap(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "three.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n\n-1 0 0\n0 -1 0\n0 0 -1\n")
        monkeypatch.setattr(equilibria, "SUPPORT_MAX", 2)
        assert main(["equilibrium", str(path)]) == 0
        text = capsys.readouterr().out
        assert "zero-sum value" in text
        assert "support enumeration" not in text
        monkeypatch.setattr(equilibria, "SUPPORT_MAX", 3)
        assert main(["equilibrium", str(path)]) == 0
        assert "support enumeration #0" in capsys.readouterr().out

    def test_degenerate_matrix_takes_the_lp(self, capsys, monkeypatch):
        # A repeated row: no square support proves the equilibrium unique.
        path = os.path.join(CONFIG_DIR, "stage_game_degenerate.txt")
        lps = count_lp_calls(monkeypatch)
        assert main(["equilibrium", path]) == 0
        assert len(lps) == 1
        assert "zero-sum value: p1 [0.333333, 0.333333, 0.333333, 0.0]" in capsys.readouterr().out

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

    @pytest.mark.parametrize("case", ["other_game", "no_states", "no_actions_sensor"])
    def test_policy_file_of_another_game_exit_2(self, fast_config, tmp_path, capsys, case):
        out = str(tmp_path / "out")
        assert main(["solve", "--config", fast_config, "--out", out]) == 0
        path = os.path.join(out, "oracle_policies.json")
        with open(fast_config) as fh:
            doc = json.load(fh)
        if case == "other_game":
            # Same state and action counts, so the tables alone fit.
            doc["game"]["actions_attacker"] = [1, 7]
            doc["channel"]["gains"] = [0.5, 0.9]
        else:
            with open(path) as fh:
                pols = json.load(fh)
            del pols[case[3:]]
            with open(path, "w") as fh:
                json.dump(pols, fh)
        cfg = tmp_path / "simulated.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--out", out,
                     "--policies", path, "--horizon", "10"]) == 2
        assert capsys.readouterr().err.startswith("config error: policy file")
        assert not os.path.exists(os.path.join(out, "trajectory.csv"))

    @pytest.mark.parametrize("case", ["malformed", "rows_off_one"])
    def test_rejected_policy_file_creates_no_out_dir(self, fast_config, tmp_path, case):
        solved = str(tmp_path / "solved")
        assert main(["solve", "--config", fast_config, "--out", solved]) == 0
        path = os.path.join(solved, "oracle_policies.json")
        if case == "malformed":
            with open(path, "w") as fh:
                fh.write("{")
        else:
            with open(path) as fh:
                doc = json.load(fh)
            doc["policies"][3]["sensor"] = [0.5, 0.6]
            with open(path, "w") as fh:
                json.dump(doc, fh)
        out = str(tmp_path / "fresh")
        assert main(["simulate", "--config", fast_config, "--out", out,
                     "--policies", path, "--horizon", "10"]) == 2
        assert not os.path.exists(out)


class TestLabels:
    def test_close_values_keep_distinct_labels(self, fast_config, tmp_path):
        # :g prints 1 and 1.0000001 (and 0.6 and 0.6000001) alike.
        with open(fast_config) as fh:
            doc = json.load(fh)
        doc["game"]["actions_attacker"] = [1.0, 1.0000001]
        doc["channel"]["gains"] = [0.6, 0.6000001]
        cfg = tmp_path / "close.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        for cmd in ("solve", "learn", "bayes"):
            assert main([cmd, "--config", str(cfg), "--out", out]) == 0

        def lines(name):
            with open(os.path.join(out, name)) as fh:
                return fh.read().splitlines()

        q1 = "q1(a=1,b=2),q1(a=1,b=5),q1(a=1.0000001,b=2),q1(a=1.0000001,b=5)"
        assert lines("oracle_qtable.csv")[0] == "state,tau,g_s,g_a," + q1
        assert lines("learn_convergence.csv")[0] == "episode," + q1
        table = lines("bayes_attacker.csv")
        assert table[0] == "action,type=0.6,type=0.6000001"
        assert [row.split(",")[0] for row in table[1:]] == ["1", "1.0000001"]
        assert lines("bayes_sensor.csv")[0] == table[0]


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

    def test_bayes_beyond_old_strategy_cap_exit_0(self, tmp_path, capsys, scaled_profile):
        # 4 gains and 4 actions: 4^4 type-contingent strategies per player.
        cfg = self.write_doc(tmp_path, scaled_profile)
        assert main(["bayes", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        gap = float(out.split("deviation gap: ")[1].split()[0])
        assert gap <= 1e-8
        assert os.path.exists(tmp_path / "out" / "bayes_sensor.csv")

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


class TestOutputStep:
    """Commands compute and print; ``main`` writes their files after they return."""

    @pytest.fixture()
    def policies(self, fast_config, tmp_path):
        solved = str(tmp_path / "solved")
        assert main(["solve", "--config", fast_config, "--out", solved]) == 0
        return os.path.join(solved, "oracle_policies.json")

    @pytest.mark.parametrize("argv, target", [
        (["solve"], "jamgame.nashq.shapley_value_iteration"),
        (["learn", "--oracle"], "jamgame.nashq.shapley_value_iteration"),
        (["bayes"], "jamgame.bayesian.solve_bayesian"),
        (["simulate", "--horizon", "10"], "jamgame.game.simulate_trajectory"),
    ])
    def test_failed_command_writes_nothing(self, fast_config, tmp_path, capsys, monkeypatch,
                                           policies, argv, target):
        def fail(*args, **kwargs):
            raise RuntimeError("no convergence")
        monkeypatch.setattr(target, fail)
        if argv[0] == "simulate":
            argv = argv + ["--policies", policies]
        out = str(tmp_path / "out")
        assert main(argv + ["--config", fast_config, "--out", out]) == 1
        assert capsys.readouterr().err == "error: no convergence\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("single", ["actions_attacker", "actions_sensor"])
    def test_monotone_rejects_one_action_before_value_iteration(
            self, fast_config, tmp_path, capsys, monkeypatch, single):
        with open(fast_config) as fh:
            doc = json.load(fh)
        doc["game"][single] = doc["game"][single][:1]
        cfg = tmp_path / "one_action.json"
        cfg.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr("jamgame.nashq.shapley_value_iteration", calls.append)
        out = str(tmp_path / "out")
        assert main(["monotone", "--config", str(cfg), "--out", out]) == 2
        assert capsys.readouterr().err == (
            "config error: monotone: need at least two actions per player\n")
        assert calls == []
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["steady", "--out", "x"],
        ["steady", "--seed", "1"],
        ["solve", "--seed", "1"],
        ["monotone", "--seed", "1"],
        ["bayes", "--seed", "1"],
    ])
    def test_option_the_command_never_reads_exit_2(self, fast_config, tmp_path, capsys,
                                                   monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--config", fast_config]) == 2
        assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    def test_learn_prints_wrote_lines_after_summary(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["learn", "--config", fast_config, "--out", out, "--oracle"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = ["learn_qtables.json", "learn_qtable.csv", "learn_policies.json",
                 "learn_convergence.csv"]
        assert lines[-4:] == [f"wrote {os.path.join(out, name)}" for name in names]
        summary = ["worst-case arrival probability", "zero-sum mirror error",
                   "sup-norm gap to oracle"]
        assert len(lines) == len(summary) + len(names)
        assert all(line.startswith(want) for line, want in zip(lines, summary))


# Run in a fresh interpreter: the shipped commands in order, recording after
# each whether scipy has been imported. The commands that need no LP come
# first; ``bayes`` and the degenerate matrix file, which do, come last.
_STARTUP_SCRIPT = r"""
import contextlib, io, json, sys

configs, out = sys.argv[1], sys.argv[2]
import jamgame
from jamgame import cli
from jamgame.config import load_config

steps = [["import", 0, "scipy" in sys.modules]]
for name in ("default", "monotone"):
    load_config(f"{configs}/{name}.json")
    steps.append(["load_config " + name, 0, "scipy" in sys.modules])


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    steps.append([" ".join(argv), code, "scipy" in sys.modules])
    return buf.getvalue()


for name in ("default", "monotone"):
    cfg, dest = f"{configs}/{name}.json", f"{out}/{name}"
    run(["steady", "--config", cfg])
    run(["solve", "--config", cfg, "--out", dest])
    run(["learn", "--config", cfg, "--out", dest, "--episodes", "200"])
    run(["monotone", "--config", cfg, "--out", dest])
    run(["simulate", "--config", cfg, "--out", dest,
         "--policies", f"{dest}/oracle_policies.json"])
for name in ("stage_game_demo.txt", "stage_game_bimatrix.txt"):
    run(["equilibrium", f"{configs}/{name}"])
n_free = len(steps)
bayes = run(["bayes", "--config", f"{configs}/default.json", "--out", f"{out}/bayes"])
degenerate = run(["equilibrium", f"{configs}/stage_game_degenerate.txt"])
print(json.dumps({"steps": steps, "n_free": n_free, "bayes": bayes,
                  "degenerate": degenerate}))
"""


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    """``_STARTUP_SCRIPT``'s record and its output directory.

    It must be a subprocess: pytest's ``filterwarnings =
    error::scipy.optimize.OptimizeWarning`` imports scipy.optimize into the
    test process, so no in-process test can see the import that
    ``equilibria`` defers to the first LP.
    """
    out = tmp_path_factory.mktemp("fresh")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(SRC_DIR), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, os.path.abspath(CONFIG_DIR), str(out)],
        capture_output=True, text=True, env=env, cwd=out, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1]), out


class TestStartup:
    def test_scipy_loads_on_the_first_lp(self, fresh_interpreter):
        # Importing the package, parsing both shipped configs and every
        # command that reaches no LP leave scipy unimported; ``bayes`` (its
        # per-type LP always runs) and the degenerate matrix load it.
        record, _ = fresh_interpreter
        steps, n_free = record["steps"], record["n_free"]
        assert len(steps) == n_free + 2
        assert [step for step in steps if step[1] != 0] == []
        assert [step[0] for step in steps[:n_free] if step[2]] == []
        assert steps[n_free][0].startswith("bayes") and steps[n_free][2]
        assert steps[-1][0].startswith("equilibrium") and steps[-1][2]

    def test_lazy_import_gives_the_same_bits(self, fresh_interpreter, tmp_path, capsys):
        # The fresh interpreter's first LP ran through the import; here
        # scipy is already loaded. Outputs and printed lines match byte for byte.
        record, lazy_root = fresh_interpreter
        lazy, eager = str(lazy_root / "bayes"), str(tmp_path / "bayes")
        assert main(["bayes", "--config", os.path.join(CONFIG_DIR, "default.json"),
                     "--out", eager]) == 0
        assert capsys.readouterr().out.replace(eager, lazy) == record["bayes"]
        assert read_tree(eager) == read_tree(lazy)
        assert sorted(read_tree(eager)) == ["bayes_attacker.csv", "bayes_sensor.csv"]
        assert main(["equilibrium", os.path.join(CONFIG_DIR, "stage_game_degenerate.txt")]) == 0
        assert capsys.readouterr().out == record["degenerate"]


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
