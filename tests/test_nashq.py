import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings

import numpy_reference
from spec_strategies import PAPER_PLANT, game_specs

from jamgame.channel import ChannelSpec
from jamgame.equilibria import CERT_TOL
from jamgame.estimation import SystemModel
from jamgame.game import GameSpec, reward_attacker, simulate_trajectory, transition_distribution
from jamgame.nashq import (
    LearnConfig,
    QTables,
    discounted_rollouts,
    empirical_return,
    extract_policy,
    nash_q_learn,
    policy_arrays,
    qtables_from_json,
    qtables_to_json,
    shapley_value_iteration,
    write_qtable_csv,
)


def small_spec(**kw):
    args = dict(
        actions_attacker=(1.0, 6.0),
        actions_sensor=(2.0, 5.0),
        alpha_s=1.0,
        alpha_a=1.0,
        beta=0.75,
        tau_max=2,
        channel=ChannelSpec(gains=(0.6, 0.8), kernel=[[0.5, 0.5], [0.5, 0.5]],
                            sigma2=0.5, alpha=1.0),
        model=SystemModel(A=[[1.2]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]]),
    )
    args.update(kw)
    return GameSpec(**args)


def with_reward(spec, reward):
    """``spec`` with its compiled stage rewards replaced by ``reward``."""
    compiled = dataclasses.replace(spec.compiled, reward=reward)
    object.__setattr__(spec, "compiled", compiled)
    return spec


class TestLearnConfig:
    def test_learning_rate_schedule_exact(self):
        cfg = LearnConfig(episodes=1, seed=0)
        for n in range(1, 200):
            assert cfg.learning_rate(n) == 10.0 / (15.0 + n)
            assert 0.0 < cfg.learning_rate(n) <= 1.0

    def test_rate_parameters_validated(self):
        with pytest.raises(ValueError):
            LearnConfig(episodes=1, seed=0, lr_numerator=20.0, lr_offset=15.0)

    def test_schedule_satisfies_robbins_monro_partial_sums(self):
        # Harmonic-type decay: divergent sum, convergent square sum along
        # any visit subsequence.
        cfg = LearnConfig(episodes=1, seed=0)
        rates = np.array([cfg.learning_rate(n) for n in range(1, 20000)])
        assert rates.sum() > 50
        assert (rates**2).sum() < 7


class TestValueIterationOracle:
    def test_near_zero_discount_recovers_rewards(self):
        spec = small_spec(beta=1e-12)
        res = shapley_value_iteration(spec)
        assert np.abs(res.tables.q1 - spec.compiled.reward).max() < 1e-9

    def test_constant_rewards_geometric_sum(self):
        spec = small_spec(beta=0.75)
        with_reward(spec, np.full_like(spec.compiled.reward, 2.0))
        res = shapley_value_iteration(spec)
        assert np.abs(res.tables.q1 - 2.0 / (1 - 0.75)).max() < 1e-8

    def test_contraction_rate_per_sweep(self):
        spec = small_spec()
        res = shapley_value_iteration(spec)
        d = res.deltas
        for i in range(1, len(d)):
            assert d[i] <= spec.beta * d[i - 1] + 1e-9

    def test_zero_sum_mirror_exact(self):
        res = shapley_value_iteration(small_spec())
        assert res.tables.mirror_error == 0.0

    def test_policies_certified(self):
        res = shapley_value_iteration(small_spec())
        for p in res.policies:
            assert p.deviation_gap <= 1e-8

    def test_fixed_point_property(self):
        # Q* = r + beta * E[val(s')] must hold to solver tolerance.
        spec = small_spec()
        res = shapley_value_iteration(spec, tol=1e-12)
        v1 = np.array([p.value_p1 for p in res.policies])
        rhs = np.empty_like(res.tables.q1)
        for si, s in enumerate(spec.states):
            for ai, a in enumerate(spec.actions_attacker):
                for bi, b in enumerate(spec.actions_sensor):
                    law = transition_distribution(spec, s, a, b)
                    cont = sum(p * v1[spec.state_index(nxt)] for nxt, p in law.items())
                    rhs[si, ai, bi] = reward_attacker(spec, s.tau, a, b) + spec.beta * cont
        assert np.abs(res.tables.q1 - rhs).max() < 1e-9

    def test_three_action_games_go_through_lp_fallback(self):
        # 3x2 stage games have no closed form; the LP route must keep the
        # oracle certified and contractive.
        spec = small_spec(actions_attacker=(1.0, 3.0, 6.0))
        res = shapley_value_iteration(spec)
        assert all(p.deviation_gap <= 1e-8 for p in res.policies)
        d = res.deltas
        assert all(d[i] <= spec.beta * d[i - 1] + 1e-7 for i in range(1, len(d)))

    def test_markov_gain_mode_oracle(self):
        ch = ChannelSpec(gains=(0.6, 0.8), kernel=[[0.9, 0.1], [0.3, 0.7]],
                         sigma2=0.5)
        spec = small_spec(channel=ch, gain_mode="markov")
        res = shapley_value_iteration(spec)
        assert all(p.deviation_gap <= 1e-8 for p in res.policies)
        # learning against the markov model stays mirrored and deterministic
        a = nash_q_learn(spec, LearnConfig(episodes=400, seed=21))
        b = nash_q_learn(spec, LearnConfig(episodes=400, seed=21))
        assert (a.tables.q1 == b.tables.q1).all()
        assert a.mirror_max == 0.0

    # Derandomized: a draw with many LP-fallback states costs seconds per
    # solve, so the examples are pinned to keep the suite's time steady.
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(spec=game_specs())
    def test_invariants_on_random_games(self, spec):
        res = shapley_value_iteration(spec)
        q_max = np.abs(res.tables.q1).max()
        # Each delta carries a few ulps of rounding at the table's scale.
        rounding = 16 * np.finfo(float).eps * q_max
        d = res.deltas
        for i in range(1, len(d)):
            assert d[i] <= (spec.beta + 1e-9) * d[i - 1] + rounding
        bound = np.abs(spec.compiled.reward).max() / (1 - spec.beta)
        assert q_max <= bound * (1 + 1e-9)
        assert all(p.deviation_gap <= CERT_TOL for p in res.policies)


class TestNashQLearning:
    def test_zero_rewards_keep_zero_tables(self):
        spec = small_spec()
        with_reward(spec, np.zeros_like(spec.compiled.reward))
        res = nash_q_learn(spec, LearnConfig(episodes=200, seed=1))
        assert np.abs(res.tables.q1).max() == 0.0
        assert np.abs(res.tables.q2).max() == 0.0

    def test_myopic_limit_converges_to_rewards(self):
        spec = small_spec(beta=1e-9)
        res = nash_q_learn(spec, LearnConfig(episodes=4000, seed=2, exploration=1.0))
        visited = res.tables.visits > 50
        assert visited.any()
        assert np.abs((res.tables.q1 - spec.compiled.reward)[visited]).max() < 1e-6

    def test_deterministic_given_seed(self):
        spec = small_spec()
        a = nash_q_learn(spec, LearnConfig(episodes=300, seed=5))
        b = nash_q_learn(spec, LearnConfig(episodes=300, seed=5))
        assert (a.tables.q1 == b.tables.q1).all()
        assert (a.tables.visits == b.tables.visits).all()
        assert (a.curve == b.curve).all()

    def test_seed_changes_trajectory(self):
        spec = small_spec()
        a = nash_q_learn(spec, LearnConfig(episodes=300, seed=5))
        b = nash_q_learn(spec, LearnConfig(episodes=300, seed=6))
        assert (a.tables.q1 != b.tables.q1).any()

    def test_mirror_exact_throughout(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=500, seed=3),
                           snapshot_episodes=(100, 250, 500))
        assert res.mirror_max == 0.0

    def test_visit_counts_total_steps(self):
        spec = small_spec()
        cfg = LearnConfig(episodes=137, seed=4, steps_per_episode=13)
        res = nash_q_learn(spec, cfg)
        assert res.tables.visits.sum() == 137 * 13

    def test_single_step_touches_exactly_one_cell(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=1, seed=9, steps_per_episode=1))
        assert res.tables.visits.sum() == 1
        assert int(np.count_nonzero(res.tables.q1)) == 1
        # the touched cell carries lr * reward (zero bootstrap at step one)
        si, ai, bi = (int(v[0]) for v in np.nonzero(res.tables.visits))
        from jamgame.game import reward_attacker
        r = reward_attacker(spec, spec.states[si].tau,
                            spec.actions_attacker[ai], spec.actions_sensor[bi])
        lr = LearnConfig(episodes=1, seed=9).learning_rate(1)
        assert res.tables.q1[si, ai, bi] == pytest.approx(lr * r, abs=1e-12)

    def test_zero_episodes_returns_initial_tables(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=0, seed=0))
        assert np.abs(res.tables.q1).max() == 0.0
        assert res.curve.shape[0] == 1

    def test_curve_tracks_state(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=50, seed=8), track_state=3)
        assert res.curve.shape == (51, 4)
        assert (res.curve[0] == 0).all()

    @pytest.mark.parametrize("past_end", [False, True])
    def test_track_state_outside_state_range_rejected(self, default_config, past_end):
        spec = default_config.game
        track = spec.n_states if past_end else -1
        with pytest.raises(ValueError, match="track_state"):
            nash_q_learn(spec, LearnConfig(episodes=1, seed=0), track_state=track)


def lp_markov_spec():
    """A 3x2 markov game whose learned stage games often lack a saddle point."""
    return GameSpec(
        actions_attacker=(0.5, 1.5, 3.0),
        actions_sensor=(1.0, 2.5),
        alpha_s=0.3,
        alpha_a=0.2,
        beta=0.6,
        tau_max=3,
        channel=ChannelSpec(gains=(0.5, 0.8), kernel=[[0.7, 0.3], [0.4, 0.6]],
                            sigma2=0.5, alpha=1.0),
        model=PAPER_PLANT,
        gain_mode="markov",
    )


class TestLearnerPinnedToNumpyLoop:
    """The float loop gives the numpy reference loop's results bit for bit."""

    @pytest.mark.parametrize("profile", ["default", "no_exploration", "lp_markov_3x2"])
    def test_tables_curve_and_snapshots_identical(self, default_config, profile):
        if profile == "lp_markov_3x2":
            spec, cfg = lp_markov_spec(), LearnConfig(episodes=30, seed=5)
            track, wanted = 5, (10, 30)
        else:
            spec = default_config.game
            cfg = dataclasses.replace(default_config.learn, episodes=1600)
            if profile == "no_exploration":
                cfg = dataclasses.replace(cfg, exploration=0.0)
            track, wanted = 0, (400, 1600)
        res = nash_q_learn(spec, cfg, track_state=track, snapshot_episodes=wanted)
        ref = numpy_reference.nash_q_learn(spec, cfg, track_state=track,
                                           snapshot_episodes=wanted)
        if profile == "lp_markov_3x2":
            assert ref.lp_calls > 0
        for ours, theirs in ((res.tables.q1, ref.q1), (res.tables.visits, ref.visits),
                             (res.curve, ref.curve)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
        assert sorted(res.snapshots) == sorted(ref.snapshots) == list(wanted)
        for ep in wanted:
            assert res.snapshots[ep].tobytes() == ref.snapshots[ep].tobytes()


class TestDefaultProfileConvergence:
    def test_sup_norm_gap_shrinks_and_meets_tolerance(self, default_config,
                                                      default_oracle,
                                                      default_learning):
        learned, _ = default_learning
        qstar = default_oracle.tables.q1
        tol = 0.05 * (1.0 + np.abs(qstar).max())
        gaps = {ep: float(np.abs(snap - qstar).max())
                for ep, snap in sorted(learned.snapshots.items())}
        assert gaps[50000] <= tol
        # monotone decrease across checkpoints with 10% noise slack
        assert gaps[25000] <= 1.1 * gaps[10000]
        assert gaps[50000] <= 1.1 * gaps[25000]

    def test_mirror_error_stays_zero(self, default_learning):
        learned, _ = default_learning
        assert learned.mirror_max <= 1e-9

    def test_learned_policies_certified(self, default_learning):
        learned, _ = default_learning
        for p in learned.policies:
            assert p.deviation_gap <= 1e-8

    def test_tracked_curve_flattens(self, default_learning):
        # per-episode movement of the tracked state's values dies down as
        # the learning rates decay
        learned, _ = default_learning
        steps = np.abs(np.diff(learned.curve, axis=0)).max(axis=1)
        early = steps[:5000].mean()
        late = steps[-5000:].mean()
        assert late < 0.2 * early


class TestExtractPolicy:
    def test_strict_dominance_gives_pure(self):
        q1 = np.array([[[3.0, 4.0], [1.0, 2.0]]])
        tables = QTables(q1=q1, visits=np.zeros_like(q1, dtype=np.int64))
        pol = extract_policy(tables)[0]
        assert np.allclose(pol.strat_p1.probs, [1, 0])
        assert np.allclose(pol.strat_p2.probs, [1, 0])

    def test_matching_pennies_table_gives_uniform(self):
        q1 = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
        tables = QTables(q1=q1, visits=np.zeros_like(q1, dtype=np.int64))
        pol = extract_policy(tables)[0]
        assert np.allclose(pol.strat_p1.probs, [0.5, 0.5], atol=1e-9)
        assert pol.deviation_gap <= 1e-8

    def test_oracle_policies_all_certified(self, default_oracle):
        for p in default_oracle.policies:
            assert p.deviation_gap <= 1e-8


class TestEmpiricalReturn:
    def test_geometric_sum_when_always_delivered(self):
        spec = small_spec(actions_sensor=(500.0, 1000.0))
        res = shapley_value_iteration(spec)
        pure = extract_policy(res.tables)
        # under q = 1 the trajectory stays at fresh states; compare against
        # the oracle value directly
        val = empirical_return(spec, pure, horizon=60, n_rollouts=200,
                               rng=np.random.default_rng(0))
        assert val == pytest.approx(pure[0].value_p1, abs=0.2)

    def test_horizon_guard(self):
        spec = small_spec()
        res = shapley_value_iteration(spec)
        with pytest.raises(ValueError):
            empirical_return(spec, res.policies, horizon=5, n_rollouts=10,
                             rng=np.random.default_rng(0))

    @pytest.mark.parametrize("past_end", [False, True])
    def test_start_outside_state_range_rejected(self, default_config, default_oracle, past_end):
        spec = default_config.game
        horizon = int(np.ceil(np.log(1e-6) / np.log(spec.beta)))
        start = spec.n_states if past_end else -1
        with pytest.raises(ValueError, match="start state"):
            discounted_rollouts(spec, default_oracle.policies, horizon, 10,
                                np.random.default_rng(0), start_index=start)

    def test_no_rollouts_rejected(self, default_config, default_oracle):
        spec = default_config.game
        horizon = int(np.ceil(np.log(1e-6) / np.log(spec.beta)))
        with pytest.raises(ValueError, match="n_rollouts"):
            empirical_return(spec, default_oracle.policies, horizon, 0,
                             np.random.default_rng(0))

    def test_matches_oracle_value_within_three_sigma(self):
        spec = small_spec()
        res = shapley_value_iteration(spec)
        horizon = int(np.ceil(np.log(1e-6) / np.log(spec.beta)))
        samples = discounted_rollouts(spec, res.policies, horizon, 4000,
                                      np.random.default_rng(12))
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean() - res.policies[0].value_p1) <= 3 * se

    def test_rollout_and_simulation_walk_one_path(self):
        # Both are views over one stepping engine: the same stream gives
        # the same path, so the same discounted return.
        spec = small_spec()
        res = shapley_value_iteration(spec)
        horizon = int(np.ceil(np.log(1e-6) / np.log(spec.beta)))
        pa, ps = policy_arrays(res.policies)
        traj = simulate_trajectory(spec, pa, ps, horizon, np.random.default_rng(5))
        ret = discounted_rollouts(spec, res.policies, horizon, 1, np.random.default_rng(5))
        assert ret[0] == pytest.approx(traj.discounted_return(spec.beta), rel=1e-12)

    def test_vanishing_discount_returns_one_step_reward(self):
        from jamgame.game import reward_attacker
        spec = small_spec(beta=1e-7)
        res = shapley_value_iteration(spec)
        val = empirical_return(spec, res.policies, horizon=1, n_rollouts=2000,
                               rng=np.random.default_rng(4))
        # start state is fresh (tau = 0); average the one-step reward over
        # the equilibrium action mix there
        pol = res.policies[0]
        expect = sum(
            pol.strat_p1.probs[i] * pol.strat_p2.probs[j]
            * reward_attacker(spec, 0, a, b)
            for i, a in enumerate(spec.actions_attacker)
            for j, b in enumerate(spec.actions_sensor)
        )
        assert val == pytest.approx(expect, abs=0.05)


class TestSerialization:
    def test_json_round_trip_exact(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=100, seed=13))
        text = qtables_to_json(spec, res.tables)
        back = qtables_from_json(text)
        assert (back.q1 == res.tables.q1).all()
        assert (back.q2 == res.tables.q2).all()
        assert (back.visits == res.tables.visits).all()

    @pytest.mark.parametrize("case", ["not_mirrored", "q2_shape", "visits_shape"])
    def test_mismatched_tables_rejected(self, case):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=20, seed=13))
        doc = json.loads(qtables_to_json(spec, res.tables))
        if case == "not_mirrored":
            doc["q2"][0][0][0] += 1e-6
        elif case == "q2_shape":
            doc["q2"] = doc["q2"][:-1]
        else:
            doc["visits"] = doc["visits"][:-1]
        with pytest.raises(ValueError):
            qtables_from_json(json.dumps(doc))

    def test_round_trip_policies_identical(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=100, seed=13))
        back = qtables_from_json(qtables_to_json(spec, res.tables))
        pol_a = extract_policy(res.tables)
        pol_b = extract_policy(back)
        for a, b in zip(pol_a, pol_b):
            assert (a.strat_p1.probs == b.strat_p1.probs).all()
            assert (a.strat_p2.probs == b.strat_p2.probs).all()

    def test_csv_layout(self, tmp_path):
        spec = small_spec()
        res = shapley_value_iteration(spec)
        path = tmp_path / "table.csv"
        write_qtable_csv(spec, res.tables, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0].startswith("state,tau,g_s,g_a,q1(a=1,b=2)")
        assert len(rows) == spec.n_states + 1
        assert rows[1].split(",")[0] == "s0"


class TestPolicyArrays:
    def test_shapes(self, default_oracle):
        pa, ps = policy_arrays(default_oracle.policies)
        assert pa.shape == (20, 2)
        assert ps.shape == (20, 2)
        assert np.allclose(pa.sum(axis=1), 1.0)
