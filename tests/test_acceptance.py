"""Acceptance suite: one test per shipped criterion, printed pass/fail.

Each test prints a single ``criterion N: PASS`` line on success so the
whole gate can be read off a ``pytest -s`` run; tolerances are stated
inline and pinned.
"""

import itertools
import json
import math
import os
import time

import numpy as np

from jamgame.bayesian import bayesian_from_game, solve_bayesian
from jamgame.channel import ChannelSpec, packet_arrival_prob, stationary_distribution
from jamgame.cli import main
from jamgame.equilibria import (
    PivotLimitError,
    StageGame,
    deviation_gap,
    lemke_howson,
    support_enumeration,
    zero_sum_value,
)
from jamgame.estimation import SystemModel, steady_state_covariance
from jamgame.game import simulate_trajectory
from jamgame.nashq import discounted_rollouts, shapley_value_iteration
from jamgame.structure import (
    check_monotone_policy,
    check_q_supermodular,
    check_monotone_sufficient_condition,
    reward_cancellation_residual,
    continuation_difference_positive,
    epsilon_max,
    gain_averaged_values,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok


def test_criterion_1_steady_state_fixed_point():
    start = time.time()
    model = SystemModel(A=[[1.2]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]])
    summary = steady_state_covariance(model)
    elapsed = time.time() - start
    roots = np.roots((0.7056, 0.04, -0.64))
    root = float(roots[roots > 0][0])
    err = abs(summary.p_bar[0, 0] - root)
    report(1, err <= 1e-6 and elapsed < 1.0,
           f"(|P - root| = {err:.2e}, {elapsed:.3f} s)")


def test_criterion_2_stationary_distribution_and_ergodicity():
    spec = ChannelSpec(gains=(0.6, 0.8), kernel=[[0.5, 0.5], [0.5, 0.5]], sigma2=0.5)
    mu = stationary_distribution(spec).mu
    exact = mu[0] == 0.5 and mu[1] == 0.5
    rejected = False
    try:
        ChannelSpec(gains=(0.6, 0.8), kernel=[[1.0, 0.0], [0.0, 1.0]], sigma2=0.5)
    except ValueError:
        rejected = True
    report(2, exact and rejected, f"(mu = {mu.tolist()}, reducible rejected = {rejected})")


def test_criterion_3_solver_certification_batch():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(1000):
        m, n = rng.integers(2, 5, size=2)
        game = StageGame(payoff_p1=rng.normal(size=(m, n)),
                         payoff_p2=rng.normal(size=(m, n)))
        try:
            res = lemke_howson(game)
        except PivotLimitError:
            res = support_enumeration(game)[0]
        worst_gap = max(worst_gap, res.deviation_gap)
    worst_value_diff = 0.0
    for _ in range(100):
        m, n = rng.integers(2, 5, size=2)
        a = rng.normal(size=(m, n))
        game = StageGame(payoff_p1=a, payoff_p2=-a)
        lp = zero_sum_value(game)
        worst_gap = max(worst_gap, lp.deviation_gap)
        try:
            lh = lemke_howson(game)
            worst_value_diff = max(worst_value_diff, abs(lh.value_p1 - lp.value_p1))
            worst_gap = max(worst_gap, lh.deviation_gap)
        except PivotLimitError:
            pass
        eqs = support_enumeration(game)
        assert eqs
        worst_value_diff = max(worst_value_diff,
                               min(abs(e.value_p1 - lp.value_p1) for e in eqs))
        worst_value_diff = max(worst_value_diff,
                               max(abs(e.value_p1 - lp.value_p1) for e in eqs))
    elapsed = time.time() - start
    report(3, worst_gap <= 1e-8 and worst_value_diff <= 1e-7 and elapsed < 30,
           f"(max gap {worst_gap:.2e}, max value diff {worst_value_diff:.2e}, {elapsed:.1f} s)")


def test_criterion_4_printed_stage_game():
    # Row player is the sensor; entries as printed, columns are the
    # attacker's powers {1, 6}. Constant row/column differences imply a
    # unique pure point (sensor 5, attacker 6).
    sensor = np.array([[-1.9906, -4.9245], [3.0094, 0.0755]])
    game = StageGame(payoff_p1=sensor, payoff_p2=-sensor)
    solutions = [zero_sum_value(game), lemke_howson(game)]
    solutions += support_enumeration(game)
    ok = True
    for res in solutions:
        ok &= res.deviation_gap <= 1e-8
        ok &= np.allclose(res.strat_p1.probs, [0, 1], atol=1e-9)
        ok &= np.allclose(res.strat_p2.probs, [0, 1], atol=1e-9)
    # The reported mixed profile fails the equilibrium check by a
    # strictly positive margin.
    mixed_gap = deviation_gap(game, np.array([0.2297, 0.7703]),
                              np.array([0.4718, 0.5282]))
    ok &= mixed_gap > 0.1
    report(4, ok, f"(pure point certified; reported mixed profile gap = {mixed_gap:.4f})")


def test_criterion_5_learning_convergence(default_config, default_oracle,
                                          default_learning):
    learned, seconds = default_learning
    qstar = default_oracle.tables.q1
    gap = float(np.abs(learned.tables.q1 - qstar).max())
    tol = 0.05 * (1.0 + float(np.abs(qstar).max()))
    mirror = learned.mirror_max
    report(5, gap <= tol and mirror <= 1e-9 and seconds < 120,
           f"(gap {gap:.3f} <= {tol:.3f}, mirror {mirror:.1e}, run {seconds:.0f} s)")


def test_criterion_6_contraction_of_sweeps(default_oracle, default_config):
    beta = default_config.game.beta
    d = default_oracle.deltas
    ok = all(d[i] <= beta * d[i - 1] + 1e-9 for i in range(1, len(d)))
    worst = max((d[i] - beta * d[i - 1]) for i in range(1, len(d)))
    report(6, ok, f"(sweeps {len(d)}, worst excess {worst:.2e})")


def test_criterion_7_monotone_structure_pipeline(monotone_config, monotone_oracle):
    spec = monotone_config.game
    eps = epsilon_max(spec)
    v2 = np.array([p.value_p2 for p in monotone_oracle.policies])
    t3 = check_monotone_sufficient_condition(spec, v2, eps.epsilon_max)
    product_ok = t3.action_product_ok and 7 * 3 >= 2 * 9
    sup_ok, _ = check_q_supermodular(spec, monotone_oracle.tables.q2)
    mono = check_monotone_policy(spec, monotone_oracle.policies,
                                 min_tau=t3.threshold_tau)
    d1_exact, d1_float = reward_cancellation_residual(spec)
    d2_ok = continuation_difference_positive(spec, v2)
    ok = (t3.threshold_tau == 0 and product_ok and sup_ok
          and mono.expected_ok and d1_exact and d1_float <= 1e-12 and d2_ok)
    report(7, ok,
           f"(eps_max {eps.epsilon_max:.3f}, ratio {t3.ratios[0]:.3f}, "
           f"threshold {t3.threshold_tau}, cancellation exact, "
           f"float residue {d1_float:.1e})")


def test_criterion_8_bayesian_reduction_and_certification():
    start = time.time()
    model = SystemModel(A=[[1.2]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]])
    # single-type spec reduces to the complete-information game
    single = ChannelSpec(gains=(0.7,), kernel=[[1.0]], sigma2=0.5)
    from jamgame.game import GameSpec
    from scalar_law_reference import reward_attacker
    base = GameSpec(actions_attacker=(1.0, 6.0), actions_sensor=(2.0, 5.0),
                    alpha_s=1.0, alpha_a=1.0, beta=0.75, tau_max=4,
                    channel=single, model=model)
    res = solve_bayesian(bayesian_from_game(base, holding_time=1))
    matrix = np.array([[reward_attacker(base, 1, a, b) for b in base.actions_sensor]
                       for a in base.actions_attacker])
    complete = zero_sum_value(StageGame(payoff_p1=matrix, payoff_p2=-matrix))
    reduction_ok = abs(res.value_attacker - complete.value_p1) <= 1e-9

    # two-type spec in the shipped layout
    two = GameSpec(actions_attacker=(1.0, 6.0), actions_sensor=(2.0, 5.0),
                   alpha_s=1.0, alpha_a=1.0, beta=0.75, tau_max=4,
                   channel=ChannelSpec(gains=(0.6, 0.8),
                                       kernel=[[0.5, 0.5], [0.5, 0.5]],
                                       sigma2=0.5),
                   model=model)
    oracle = shapley_value_iteration(two)
    v1 = np.array([p.value_p1 for p in oracle.policies])
    spec2 = bayesian_from_game(two, holding_time=0, payoff_mode="lookahead",
                               holding_values=gain_averaged_values(two, v1))
    res2 = solve_bayesian(spec2)
    shape_ok = res2.attacker.probs.shape == (2, 2) and res2.sensor.probs.shape == (2, 2)
    elapsed = time.time() - start
    ok = reduction_ok and shape_ok and res2.deviation_gap <= 1e-8 and elapsed < 5
    report(8, ok, f"(reduction diff {abs(res.value_attacker - complete.value_p1):.1e}, "
                  f"gap {res2.deviation_gap:.1e}, {elapsed:.2f} s)")


def test_criterion_9_simulation_consistency(default_config, default_oracle):
    spec = default_config.game
    # empirical arrival frequency under fixed pure actions
    pa = np.tile([0.0, 1.0], (spec.n_states, 1))
    ps = np.tile([1.0, 0.0], (spec.n_states, 1))
    traj = simulate_trajectory(spec, pa, ps, horizon=10**5,
                               rng=np.random.default_rng(99))
    freq_ok = True
    worst = 0.0
    for g_s, g_a in itertools.product(spec.channel.gains, repeat=2):
        mask = (traj.g_s == g_s) & (traj.g_a == g_a)
        q = packet_arrival_prob(spec.channel, 2.0, g_s, 6.0, g_a)
        diff = abs(float(traj.gamma[mask].mean()) - q)
        worst = max(worst, diff)
        freq_ok &= diff < 0.01

    # discounted return from the first state under oracle policies
    horizon = int(math.ceil(math.log(1e-6) / math.log(spec.beta)))
    samples = discounted_rollouts(spec, default_oracle.policies, horizon, 10**4,
                                  np.random.default_rng(7))
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    v0 = default_oracle.policies[0].value_p1
    value_ok = abs(samples.mean() - v0) <= 3 * se
    report(9, freq_ok and value_ok,
           f"(worst freq diff {worst:.4f}, value diff {abs(samples.mean() - v0):.4f} "
           f"<= 3 x {se:.4f})")


def test_criterion_10_cli_determinism(tmp_path):
    with open(os.path.join(CONFIG_DIR, "default.json")) as fh:
        doc = json.load(fh)
    doc["learn"]["episodes"] = 400
    doc["game"]["tau_max"] = 2
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    trees = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["solve", "--config", str(cfg), "--out", out]) == 0
        assert main(["learn", "--config", str(cfg), "--out", out]) == 0
        assert main(["bayes", "--config", str(cfg), "--out", out]) == 0
        assert main(["monotone", "--config", str(cfg), "--out", out]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", out,
                     "--policies", os.path.join(out, "oracle_policies.json"),
                     "--horizon", "300"]) == 0
        tree = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                tree[name] = fh.read()
        trees.append(tree)
    identical = trees[0] == trees[1]
    report(10, identical, f"({len(trees[0])} files byte-identical)")
