"""The benchmark's three workloads: inputs, one round of operations, checks.

A workload writes its inputs from the seed (``prepare``), loads them
through the program's public API (``load``), runs one round of operations
(``round``), and checks the first round's outputs against the independent
references in ``checks`` (``check``). Every round repeats the same
operations on the same inputs, so later rounds must reproduce the first
round's outputs byte for byte.

CLI commands go through ``jamgame.cli.main`` in-process; library
operations without a command go through the public functions of
``jamgame.nashq`` and ``jamgame.equilibria``. Module attributes are looked
up at call time so a traced round sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import time

import numpy as np
from jamgame import cli, equilibria, nashq
from jamgame.config import load_config
from jamgame.equilibria import EquilibriumResult, MixedStrategy

import checks

# Next-gain kernels: ergodic, aperiodic and far from uniform, so the
# markov gain mode and the kernel belief differ from the stationary ones.
KERNEL_4 = [[0.6, 0.4, 0.0, 0.0], [0.2, 0.6, 0.2, 0.0],
            [0.0, 0.2, 0.6, 0.2], [0.0, 0.0, 0.4, 0.6]]
KERNEL_3 = [[0.6, 0.3, 0.1], [0.25, 0.5, 0.25], [0.1, 0.3, 0.6]]


class Ops:
    """Runs and counts operations; an operation fails on a nonzero exit or
    an exception, and every failure message is kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def cli(self, argv) -> tuple:
        self.attempted += 1
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        dt = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv[:1])} exited {code}")
        return dt, buf.getvalue()

    def call(self, label, fn, *args, **kwargs) -> tuple:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, and the run goes on
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            result = None
        return time.perf_counter() - t0, result


def read_policies(path: str) -> tuple:
    with open(path) as fh:
        doc = json.load(fh)
    pa = np.array([p["attacker"] for p in doc["policies"]])
    ps = np.array([p["sensor"] for p in doc["policies"]])
    v1 = np.array([p["value_attacker"] for p in doc["policies"]])
    return doc, pa, ps, v1


def read_qtables(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return {k: np.array(doc[k]) if k in ("q1", "q2", "visits") else doc[k] for k in doc}


def read_trajectory(path: str) -> dict:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    head, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, i] for i, name in enumerate(head)}


def policy_results(pa: np.ndarray, ps: np.ndarray, v1: np.ndarray) -> list:
    """Per-state strategies as the library's result objects."""
    return [EquilibriumResult(MixedStrategy(x), MixedStrategy(y), float(v), -float(v), 0.0)
            for x, y, v in zip(pa, ps, v1)]


def rollout_horizon(beta: float) -> int:
    """Shortest horizon with ``beta^horizon <= 1e-6`` (the library's floor)."""
    h = int(math.ceil(math.log(1e-6) / math.log(beta)))
    return h if beta ** h <= 1e-6 else h + 1


class Workload:
    """Shared plumbing: input and work directories, the seed streams."""

    name = ""

    def __init__(self, root: str, outdir: str, seed: int):
        self.root = root
        self.outdir = outdir
        self.work = os.path.join(outdir, "work")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        # Independent child streams: simulation, rollouts, stage games.
        seq = np.random.SeedSequence(seed)
        self.sim_seed, self.rollout_seed, self.game_seed = (
            int(s.generate_state(1)[0]) for s in seq.spawn(3))

    def write_profile(self, name: str, doc: dict) -> str:
        path = os.path.join(self.outdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.work, name)

    def digest(self) -> str:
        """Hash of every file the last round wrote plus its in-memory results."""
        h = hashlib.sha256(self.round_bytes())
        for dirpath, dirs, files in os.walk(self.work):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, self.work).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()


class _OracleRound(Workload):
    """Rounds built around the oracle: solve, simulate and rollouts."""

    simulate_horizon = 0
    n_rollouts = 0

    def load(self):
        with open(self.config) as fh:
            self.doc = json.load(fh)
        self.cfg = load_config(self.config)
        self.horizon = rollout_horizon(self.cfg.game.beta)

    def simulate(self, ops) -> float:
        dt, _ = ops.cli(["simulate", "--config", self.config, "--out", self.work,
                         "--policies", self.out("oracle_policies.json"),
                         "--horizon", str(self.simulate_horizon),
                         "--seed", str(self.sim_seed)])
        return dt

    def rollouts(self, ops) -> tuple:
        _, pa, ps, v1 = read_policies(self.out("oracle_policies.json"))
        policies = policy_results(pa, ps, v1)
        dt, samples = ops.call("discounted_rollouts", nashq.discounted_rollouts,
                               self.cfg.game, policies, self.horizon, self.n_rollouts,
                               np.random.default_rng(self.rollout_seed), start_index=0)
        return dt, samples

    def round_bytes(self) -> bytes:
        return b"" if self.samples is None else self.samples.tobytes()

    def check_oracle_outputs(self, model, report) -> tuple:
        """Oracle, simulation and rollout checks on the work directory."""
        fails = []
        tables = read_qtables(self.out("oracle_qtables.json"))
        doc, pa, ps, v1 = read_policies(self.out("oracle_policies.json"))
        fails += checks.check_states(model, tables["states"])
        fails += checks.check_states(model, doc["states"])
        f, stats = checks.check_oracle(model, tables["q1"], tables["q2"], pa, ps)
        fails += f
        report.update(stats)
        f, stats = checks.check_trajectory(model, read_trajectory(self.out("trajectory.csv")))
        fails += f
        report.update(stats)
        if self.samples is None:
            fails.append("no rollout samples")
        else:
            f, stats = checks.check_rollouts(model, self.samples, float(v1[0]), self.horizon)
            fails += f
            report.update(stats)
        return fails, tables, pa, ps


class DeskLearn(_OracleRound):
    """The shipped desk profile: the Nash-Q learner dominates.

    The round also runs ``solve`` and ``monotone`` on the shipped
    ``configs/monotone.json`` (12 states), on which every structure
    verdict is true; scaled-oracle's verdicts are all false, so the
    verdict checks see both outcomes. It sits here, where it costs a
    fraction of a percent, rather than in scaled-oracle, whose per-sweep
    value-iteration figures it would dilute.
    """

    name = "desk-learn"
    # Seed 12 (the profile's) reaches the 5% gap at 30k episodes but not
    # at 10k or 20k; the learner seed stays fixed for that reason.
    episodes = 30_000
    simulate_horizon = 50_000
    n_rollouts = 2_000

    def prepare(self) -> str:
        self.config = os.path.join(self.root, "configs", "default.json")
        self.shipped = os.path.join(self.root, "configs", "monotone.json")
        return self.config

    def load(self):
        super().load()
        with open(self.shipped) as fh:
            self.shipped_doc = json.load(fh)

    def round(self, ops) -> dict:
        t = {}
        t["solve"], _ = ops.cli(["solve", "--config", self.config, "--out", self.work])
        t["learn"], _ = ops.cli(["learn", "--config", self.config, "--out", self.work,
                                 "--episodes", str(self.episodes)])
        t["simulate"] = self.simulate(ops)
        t["rollouts"], self.samples = self.rollouts(ops)
        shipped = self.out("shipped")
        t["shipped_solve"], _ = ops.cli(["solve", "--config", self.shipped, "--out", shipped])
        t["shipped_monotone"], _ = ops.cli(["monotone", "--config", self.shipped,
                                            "--out", shipped])
        return t

    def rates(self, times: dict) -> dict:
        steps = self.episodes * self.cfg.learn.steps_per_episode
        return {
            "learn_steps_per_s": steps / times["learn"],
            "oracle_s": times["solve"],
            "simulate_steps_per_s": self.simulate_horizon / times["simulate"],
            "rollout_steps_per_s": self.n_rollouts * self.horizon / times["rollouts"],
        }

    def check(self) -> tuple:
        model = checks.Model(self.doc)
        report = {}
        fails, tables, _, _ = self.check_oracle_outputs(model, report)
        learned = read_qtables(self.out("learn_qtables.json"))
        fails += checks.check_states(model, learned["states"])
        f, stats = checks.check_learner(
            model, learned["q1"], learned["q2"], learned["visits"], tables["q1"],
            self.episodes * self.cfg.learn.steps_per_episode)
        fails += f
        report.update(stats)
        # The shipped monotone profile: its oracle first, then its verdicts.
        small = checks.Model(self.shipped_doc)
        shipped = self.out("shipped")
        tables = read_qtables(os.path.join(shipped, "oracle_qtables.json"))
        _, pa, ps, _ = read_policies(os.path.join(shipped, "oracle_policies.json"))
        fails += checks.check_states(small, tables["states"])
        f, stats = checks.check_oracle(small, tables["q1"], tables["q2"], pa, ps)
        fails += [f"shipped monotone profile: {m}" for m in f]
        report["shipped_bellman_residual"] = stats["bellman_residual"]
        fails += check_structure(small, tables["q2"], pa, ps,
                                 os.path.join(shipped, "monotone_report.json"), "shipped",
                                 report)
        return fails, report


def scaled_profile() -> dict:
    """About 1000 states, 4 gains, markov gains, 4x4 actions; see README."""
    return {
        "model": {"A": [[1.05]], "C": [[0.7]], "Q": [[0.8]], "R": [[0.8]], "Pi0": [[0.8]]},
        "channel": {"gains": [0.4, 0.6, 0.8, 1.0], "kernel": KERNEL_4,
                    "sigma2": 0.5, "alpha": 1.0},
        "game": {"actions_attacker": [1, 2, 4, 6], "actions_sensor": [2, 3, 4, 5],
                 "alpha_s": 1.0, "alpha_a": 1.0, "beta": 0.4, "tau_max": 60,
                 "gain_mode": "markov"},
        "learn": {"episodes": 1, "seed": 1},
        "bayes": {"holding_time": 0, "belief": "stationary", "payoff_mode": "stage"},
        "output_dir": "out",
    }


class ScaledOracle(_OracleRound):
    """A ~1000-state generated profile: compile, value iteration, structure."""

    name = "scaled-oracle"
    simulate_horizon = 20_000
    n_rollouts = 2_000

    def prepare(self) -> str:
        self.config = self.write_profile("scaled.json", scaled_profile())
        return self.config

    def round(self, ops) -> dict:
        t = {}
        t["solve"], _ = ops.cli(["solve", "--config", self.config, "--out", self.work])
        t["monotone"], _ = ops.cli(["monotone", "--config", self.config, "--out", self.work])
        t["simulate"] = self.simulate(ops)
        t["rollouts"], self.samples = self.rollouts(ops)
        return t

    def rates(self, times: dict) -> dict:
        return {
            "oracle_s": times["solve"],
            "monotone_s": times["monotone"],
            "simulate_steps_per_s": self.simulate_horizon / times["simulate"],
            "rollout_steps_per_s": self.n_rollouts * self.horizon / times["rollouts"],
        }

    def check(self) -> tuple:
        model = checks.Model(self.doc)
        report = {}
        fails, tables, pa, ps = self.check_oracle_outputs(model, report)
        fails += check_structure(model, tables["q2"], pa, ps,
                                 self.out("monotone_report.json"), "scaled", report)
        return fails, report


def check_structure(model, q2, pa, ps, path: str, label: str, report: dict) -> list:
    """A ``monotone`` report against the benchmark's recomputation.

    The verdicts must equal the vectorised ones, and the evidence for a
    false verdict must hold up: the supermodularity witness must be a
    crossed pair that violates the strict four-point inequality, and the
    reported policy witnesses must be dominating pairs whose expected
    actions do not both increase, as many as there are (up to the ten
    the report keeps).
    """
    with open(path) as fh:
        mono = json.load(fh)
    fails = []
    if mono["reward_cancellation_exact"] is not True:
        fails.append(f"{label}: reward cancellation is not exact")
    sup = checks.supermodular(model, q2)
    min_tau = mono["threshold_tau"] or 0
    bad, arg_bad = checks.monotone_witnesses(model, pa, ps, min_tau)
    exp_ok, arg_ok = not bad.any(), not arg_bad.any()
    for key, ours in (("supermodular_sensor_q", sup), ("monotone_expected_action", exp_ok),
                      ("monotone_argmax_action", arg_ok)):
        if mono[key] is not ours:
            fails.append(f"{label}: monotone report {key}={mono[key]} but recomputed {ours}")
        report[f"{label}_{key}"] = ours
    witness = mono["supermodular_witness"]
    if (witness is None) != sup:
        fails.append(f"{label}: supermodularity witness {witness} with verdict {sup}")
    elif witness is not None:
        margin = checks.supermodular_witness_margin(model, q2, witness)
        report[f"{label}_supermodular_witness_margin"] = margin
        if margin is None or margin > 0:
            fails.append(f"{label}: supermodularity witness {witness} is no violation "
                         f"(margin {margin})")
    listed = [tuple(w) for w in mono["monotone_witnesses"]]
    report[f"{label}_monotone_witness_pairs"] = int(bad.sum())
    if (len(set(listed)) != len(listed) or len(listed) != min(10, int(bad.sum()))
            or not all(bad[i, j] for i, j in listed)):
        fails.append(f"{label}: monotone witnesses {listed[:3]}... are not "
                     f"{min(10, int(bad.sum()))} distinct failing dominating pairs")
    return fails


def bayes_profile() -> dict:
    """3 gains and 4x4 actions: 4^3 = 64 type-contingent strategies each."""
    return {
        "model": {"A": [[1.2]], "C": [[0.7]], "Q": [[0.8]], "R": [[0.8]], "Pi0": [[0.8]]},
        "channel": {"gains": [0.5, 0.7, 0.9], "kernel": KERNEL_3,
                    "sigma2": 0.5, "alpha": 1.0},
        "game": {"actions_attacker": [1, 2, 4, 6], "actions_sensor": [2, 3, 4, 5],
                 "alpha_s": 1.0, "alpha_a": 1.0, "beta": 0.75, "tau_max": 4,
                 "gain_mode": "markov"},
        "learn": {"episodes": 1, "seed": 1},
        "bayes": {"holding_time": 0, "belief": "stationary", "payoff_mode": "lookahead"},
        "output_dir": "out",
    }


class BayesStage(Workload):
    """Partial-CSI Bayesian games and a seeded batch of one-shot stage games."""

    name = "bayes-stage"
    n_general = 2_000
    n_zero_sum = 200

    def prepare(self) -> str:
        base = bayes_profile()
        self.configs = []
        for m in range(base["game"]["tau_max"] + 1):
            for belief in ("stationary", "kernel"):
                doc = json.loads(json.dumps(base))
                doc["bayes"].update(holding_time=m, belief=belief)
                path = self.write_profile(f"bayes-m{m}-{belief}.json", doc)
                self.configs.append((m, belief, path))
        rng = np.random.default_rng(self.game_seed)
        self.general = []
        for _ in range(self.n_general):
            m, n = rng.integers(2, 5, size=2)
            self.general.append((rng.normal(size=(m, n)), rng.normal(size=(m, n))))
        self.zero_sum = []
        for _ in range(self.n_zero_sum):
            m, n = rng.integers(2, 5, size=2)
            self.zero_sum.append(rng.normal(size=(m, n)))
        return self.configs[0][2]

    def load(self):
        with open(self.configs[0][2]) as fh:
            self.doc = json.load(fh)
        self.cfg = load_config(self.configs[0][2])

    def round(self, ops) -> dict:
        t = {"bayes": 0.0}
        self.bayes_out = []
        for m, belief, path in self.configs:
            out = os.path.join(self.work, f"m{m}-{belief}")
            os.makedirs(out, exist_ok=True)
            dt, text = ops.cli(["bayes", "--config", path, "--out", out])
            t["bayes"] += dt
            self.bayes_out.append((m, belief, out, text))
        self.general_res = []
        t0 = time.perf_counter()
        for a, b in self.general:
            self.general_res.append(ops.call("solve_stage", _general_sum, a, b)[1])
        t["stage_games"] = time.perf_counter() - t0
        self.zero_sum_res = []
        t0 = time.perf_counter()
        for a in self.zero_sum:
            self.zero_sum_res.append(ops.call("zero_sum_value", _zero_sum, a)[1])
        t["zero_sum"] = time.perf_counter() - t0
        return t

    def round_bytes(self) -> bytes:
        h = hashlib.sha256()
        for text in (o[3] for o in self.bayes_out):
            h.update(text.encode())
        for res in self.general_res + self.zero_sum_res:
            if res is not None:
                h.update(res.strat_p1.probs.tobytes() + res.strat_p2.probs.tobytes())
        return h.digest()

    def rates(self, times: dict) -> dict:
        return {
            "bayes_solves_per_s": len(self.configs) / times["bayes"],
            "stage_games_per_s": self.n_general / times["stage_games"],
            "zero_sum_games_per_s": self.n_zero_sum / times["zero_sum"],
        }

    def check(self) -> tuple:
        model = checks.Model(self.doc)
        report = {}
        # The lookahead payoffs need the oracle values; take them from the
        # library and hold them to the factored Bellman check first.
        oracle = nashq.shapley_value_iteration(self.cfg.game)
        pa = np.array([p.strat_p1.probs for p in oracle.policies])
        ps = np.array([p.strat_p2.probs for p in oracle.policies])
        fails, stats = checks.check_oracle(model, oracle.tables.q1, oracle.tables.q2, pa, ps)
        report.update(stats)
        v1 = np.einsum("si,sij,sj->s", pa, oracle.tables.q1, ps)
        vbar = model.holding_values(v1)
        worst_gap = worst_val = 0.0
        for m, belief, out, text in self.bayes_out:
            payoff = checks.bayes_payoffs(model, m, vbar)
            prior = checks.belief(model, belief)
            s_att = _type_strategy(os.path.join(out, "bayes_attacker.csv"))
            s_sen = _type_strategy(os.path.join(out, "bayes_sensor.csv"))
            gaps = checks.bayes_gaps(payoff, prior, s_att, s_sen)
            worst_gap = max(worst_gap, float(gaps.max()))
            if gaps.max() > checks.GAP_TOL:
                fails.append(f"bayes m={m} {belief}: type gap {gaps.max():.3g}")
            printed = float(text.split("game value (attacker):")[1].split()[0])
            ref = checks.bayes_value(payoff, prior)
            worst_val = max(worst_val, abs(printed - ref))
            if abs(printed - ref) > checks.VALUE_TOL * (1.0 + abs(ref)):
                fails.append(f"bayes m={m} {belief}: value {printed!r} vs reference {ref!r}")
        report.update(bayes_worst_type_gap=worst_gap, bayes_worst_value_diff=worst_val)
        gen_gap = 0.0
        for (a, b), res in zip(self.general, self.general_res):
            if res is None:
                continue
            gap = checks.deviation_gap(a, b, res.strat_p1.probs, res.strat_p2.probs)
            gen_gap = max(gen_gap, gap)
        if gen_gap > checks.GAP_TOL:
            fails.append(f"general-sum stage game gap {gen_gap:.3g}")
        zs_gap = zs_val = 0.0
        for a, res in zip(self.zero_sum, self.zero_sum_res):
            if res is None:
                continue
            zs_gap = max(zs_gap, checks.deviation_gap(a, -a, res.strat_p1.probs,
                                                      res.strat_p2.probs))
            zs_val = max(zs_val, abs(res.value_p1 - checks.zero_sum_lp_value(a)))
        if zs_gap > checks.GAP_TOL:
            fails.append(f"zero-sum stage game gap {zs_gap:.3g}")
        if zs_val > checks.VALUE_TOL:
            fails.append(f"zero-sum value differs from the reference LP by {zs_val:.3g}")
        report.update(stage_worst_gap=gen_gap, zero_sum_worst_gap=zs_gap,
                      zero_sum_worst_value_diff=zs_val)
        return fails, report


def _general_sum(a, b):
    return equilibria.solve_stage(equilibria.StageGame(payoff_p1=a, payoff_p2=b))


def _zero_sum(a):
    return equilibria.zero_sum_value(equilibria.StageGame(payoff_p1=a, payoff_p2=-a))


def _type_strategy(path: str) -> np.ndarray:
    """``probs[type, action]`` from a per-type strategy CSV (actions as rows)."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    body = np.array([r[1:] for r in rows[1:]], dtype=float)
    return body.T


WORKLOADS = {w.name: w for w in (DeskLearn, ScaledOracle, BayesStage)}
