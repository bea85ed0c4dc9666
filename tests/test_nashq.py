import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy_reference
import per_state_vi_reference as vi_ref
from scalar_law_reference import (
    learning_rate,
    reward_attacker,
    state_index,
    transition_distribution,
)
from solver_probes import bits, count_lp_calls
from spec_strategies import PAPER_PLANT, game_specs

from jamgame.channel import ChannelSpec
from jamgame.config import parse_config
from jamgame.equilibria import CERT_TOL, VALUE_TOL, ZERO_SUM_TOL, stage_policies
from jamgame.estimation import SystemModel
from jamgame.game import GameSpec, simulate_trajectory
from jamgame.nashq import (
    LearnConfig,
    QTables,
    discounted_rollouts,
    extract_policy,
    nash_q_learn,
    policy_arrays,
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
            assert learning_rate(cfg, n) == 10.0 / (15.0 + n)
            assert 0.0 < learning_rate(cfg, n) <= 1.0

    def test_rate_parameters_validated(self):
        with pytest.raises(ValueError):
            LearnConfig(episodes=1, seed=0, lr_numerator=20.0, lr_offset=15.0)

    def test_schedule_satisfies_robbins_monro_partial_sums(self):
        # Harmonic-type decay: divergent sum, convergent square sum along
        # any visit subsequence.
        cfg = LearnConfig(episodes=1, seed=0)
        rates = np.array([learning_rate(cfg, n) for n in range(1, 20000)])
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
                    cont = sum(p * v1[state_index(spec, nxt)] for nxt, p in law.items())
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

    # Derandomized: a draw with many LP-fallback states costs seconds in the
    # per-state reference loop, so the examples are pinned to keep the
    # suite's time steady.
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(spec=game_specs())
    def test_invariants_on_random_games(self, spec):
        res = shapley_value_iteration(spec)
        assert_matches_per_state_loop(spec, res)
        q_max = np.abs(res.tables.q1).max()
        # Each delta carries a few ulps of rounding at the table's scale.
        rounding = 16 * np.finfo(float).eps * q_max
        d = res.deltas
        for i in range(1, len(d)):
            assert d[i] <= (spec.beta + 1e-9) * d[i - 1] + rounding
        bound = np.abs(spec.compiled.reward).max() / (1 - spec.beta)
        assert q_max <= bound * (1 + 1e-9)
        assert all(p.deviation_gap <= CERT_TOL for p in res.policies)


def assert_same_policies(got, want):
    """Two policy lists with the same strategies, values and gaps, bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(bits(g.strat_p1.probs), bits(w.strat_p1.probs))
        assert np.array_equal(bits(g.strat_p2.probs), bits(w.strat_p2.probs))
        assert np.array_equal(bits([g.value_p1, g.value_p2, g.deviation_gap]),
                              bits([w.value_p1, w.value_p2, w.deviation_gap]))


def assert_matches_per_state_loop(spec, res, check_deltas=True):
    """``res`` (the batched oracle of ``spec``) equals the per-state loop's, bit for bit.

    ``check_deltas=False`` leaves out the sweep deltas, for games where the
    warm start rounds a value of a middle sweep an ulp away from the loop's.
    """
    tables, policies, deltas, sweeps = vi_ref.shapley_value_iteration(spec)
    assert res.sweeps == sweeps
    if check_deltas:
        assert np.array_equal(bits(res.deltas), bits(deltas))
    assert np.array_equal(bits(res.tables.q1), bits(tables.q1))
    assert_same_policies(res.policies, policies)


def tied_spec(reward):
    """A 12-state markov spec with 3x3 stage games, every state's reward ``reward``."""
    ch = ChannelSpec(gains=(0.6, 0.8), kernel=[[0.7, 0.3], [0.4, 0.6]], sigma2=0.5, alpha=1.0)
    spec = small_spec(actions_attacker=(1.0, 2.0, 3.0), actions_sensor=(2.0, 3.0, 4.0),
                      channel=ch, gain_mode="markov")
    reward = np.broadcast_to(np.array(reward, dtype=float), spec.compiled.reward.shape)
    return with_reward(spec, reward.copy())


class TestBatchedSweepMatchesPerStateLoop:
    """One stage pass per sweep, warm supports and array extraction reproduce the
    per-state loop bit for bit: tables, deltas, sweeps and every policy. Random
    games are checked in ``test_invariants_on_random_games``; on tied optima
    the warm start can round a value an ulp away (``TestWarmStartRounding``)."""

    @pytest.mark.parametrize("profile", ["default", "monotone", "scaled"])
    def test_profiles(self, profile, request):
        spec = request.getfixturevalue(f"{profile}_config").game
        assert_matches_per_state_loop(spec, request.getfixturevalue(f"{profile}_oracle"))

    # Stage games with several optimal strategies: the final sweep's supports
    # certify at a state, but are not the ones the cold route polishes on.
    # Extraction takes no hint, so the policies follow the table alone. The
    # final tables agree bit for bit; the warm start rounds some middle
    # sweeps' deltas an ulp away (see TestWarmStartRounding).
    @pytest.mark.parametrize("reward", [
        [[1, 1, -2], [0, -1, -2], [2, 1, 2]],
        [[0, 2, 2], [1, -2, 2], [1, 2, 2]],
    ], ids=["row-mix", "column-mix"])
    def test_tied_optima(self, reward):
        spec = tied_spec(reward)
        assert_matches_per_state_loop(spec, shapley_value_iteration(spec), check_deltas=False)


# The warm start solves a state on the supports of the sweep before; the
# cold route polishes on the supports it finds itself. Both certify, but
# here they round a value differently, and the tables drift apart by an ulp.
WARM_ROUNDING = [[2, -1, 0], [0, -1, 0], [2, 2, -2]]


@pytest.fixture(scope="module")
def warm_rounding():
    """The batched oracle and the per-state loop's table on ``WARM_ROUNDING``."""
    spec = tied_spec(WARM_ROUNDING)
    return shapley_value_iteration(spec), vi_ref.shapley_value_iteration(spec)[0]


class TestWarmStartRounding:
    """Value iteration's warm start against the per-state (cold) loop."""

    def test_tables_agree_within_tolerance(self, warm_rounding):
        res, tables = warm_rounding
        assert np.abs(res.tables.q1 - tables.q1).max() <= VALUE_TOL
        assert all(p.deviation_gap <= CERT_TOL for p in res.policies)
        assert_same_policies(res.policies, stage_policies(res.tables.q1))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the warm start and the cold route round a tied "
                              "state's value differently")
    def test_tables_match_the_per_state_loop_bit_for_bit(self, warm_rounding):
        res, tables = warm_rounding
        assert np.array_equal(bits(res.tables.q1), bits(tables.q1))


class TestArgumentValidation:
    # A NaN tol used to run every sweep and then raise RuntimeError.
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_non_finite_or_non_positive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            shapley_value_iteration(small_spec(), tol=tol)

    @pytest.mark.parametrize("max_sweeps", [0, -3])
    def test_max_sweeps_below_one_rejected(self, max_sweeps):
        with pytest.raises(ValueError, match="max_sweeps"):
            shapley_value_iteration(small_spec(), max_sweeps=max_sweeps)


class TestScalePoints:
    """Contraction, the value bound, certified extraction and the LP budget of the
    oracle beyond the shipped profiles."""

    @pytest.mark.parametrize("model, game, n_states, max_lps", [
        ({"A": [[0.95]]}, {"tau_max": 1000}, 16016, 0),  # every stage game has a saddle
        ({}, {"beta": 0.9}, 976, 0),  # 228 sweeps; mixed 4x4 states have unique equilibria
    ], ids=["stable plant", "beta 0.9"])
    def test_oracle(self, model, game, n_states, max_lps, scaled_profile, monkeypatch):
        doc = json.loads(json.dumps(scaled_profile))
        doc["model"].update(model)
        doc["game"].update(game)
        spec = parse_config(doc).game
        assert spec.n_states == n_states
        lps = count_lp_calls(monkeypatch)
        res = shapley_value_iteration(spec)
        assert len(lps) <= max_lps
        q_max = np.abs(res.tables.q1).max()
        rounding = 16 * np.finfo(float).eps * q_max
        d = res.deltas
        assert all(d[i] <= spec.beta * d[i - 1] + rounding for i in range(1, len(d)))
        assert q_max <= np.abs(spec.compiled.reward).max() / (1 - spec.beta)
        assert max(p.deviation_gap for p in res.policies) <= CERT_TOL

    def test_lp_budget_on_the_scaled_profile(self, scaled_config, monkeypatch):
        lps = count_lp_calls(monkeypatch)
        shapley_value_iteration(scaled_config.game)
        assert lps == []

    @pytest.mark.parametrize("profile", ["default", "monotone"])
    def test_shipped_2x2_profiles_never_reach_the_lp(self, profile, request, monkeypatch):
        spec = request.getfixturevalue(f"{profile}_config").game
        lps = count_lp_calls(monkeypatch)
        shapley_value_iteration(spec)
        assert lps == []


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
        r = reward_attacker(spec, spec.states[si].tau,
                            spec.actions_attacker[ai], spec.actions_sensor[bi])
        lr = learning_rate(LearnConfig(episodes=1, seed=9), 1)
        assert res.tables.q1[si, ai, bi] == pytest.approx(lr * r, abs=1e-12)

    def test_zero_episodes_returns_initial_tables(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=0, seed=0))
        assert np.abs(res.tables.q1).max() == 0.0
        assert res.curve.shape[0] == 1

    def test_curve_tracks_state(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=50, seed=8),
                           snapshot_episodes=(20, 50))
        assert res.curve.shape == (51, 4)
        assert (res.curve[0] == 0).all()
        for ep in (20, 50):
            assert res.curve[ep].tobytes() == res.snapshots[ep][0].ravel().tobytes()

    @pytest.mark.parametrize("wanted", [(0, 3), (3, 6), (-1,), (0, 3, 9)])
    def test_snapshot_outside_episode_budget_rejected(self, wanted):
        with pytest.raises(ValueError, match="snapshot episodes"):
            nash_q_learn(small_spec(), LearnConfig(episodes=5, seed=0),
                         snapshot_episodes=wanted)

    def test_snapshot_at_budget_edges_kept(self):
        res = nash_q_learn(small_spec(), LearnConfig(episodes=5, seed=0),
                           snapshot_episodes=(5, 1, 5))
        assert sorted(res.snapshots) == [1, 5]
        assert res.snapshots[5].tobytes() == res.tables.q1.tobytes()


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
            wanted = (10, 30)
        else:
            spec = default_config.game
            cfg = dataclasses.replace(default_config.learn, episodes=1600)
            if profile == "no_exploration":
                cfg = dataclasses.replace(cfg, exploration=0.0)
            wanted = (400, 1600)
        ref = assert_learner_matches_numpy_loop(spec, cfg, wanted)
        if profile == "lp_markov_3x2":
            assert ref.lp_calls > 0

    # Every learn starts from all-zero tables, full of tied saddles, so
    # kept saddle entries meet ties at every index; the reference solves
    # every stage afresh. Derandomized to keep the suite's time steady.
    @pytest.mark.parametrize("exploration", [0.5, 0.0])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=game_specs(), seed=st.integers(0, 2**32 - 1))
    def test_random_games(self, exploration, spec, seed):
        cfg = LearnConfig(episodes=15, seed=seed, exploration=exploration)
        assert_learner_matches_numpy_loop(spec, cfg, (1, 15))


def assert_learner_matches_numpy_loop(spec, cfg, wanted):
    """``nash_q_learn`` gives ``numpy_reference.nash_q_learn``'s tables, visits,
    curve and snapshots bit for bit; returns the reference's result."""
    res = nash_q_learn(spec, cfg, snapshot_episodes=wanted)
    ref = numpy_reference.nash_q_learn(spec, cfg, snapshot_episodes=wanted)
    for ours, theirs in ((res.tables.q1, ref.q1), (res.tables.visits, ref.visits),
                         (res.curve, ref.curve)):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
    assert sorted(res.snapshots) == sorted(ref.snapshots) == list(wanted)
    for ep in wanted:
        assert res.snapshots[ep].tobytes() == ref.snapshots[ep].tobytes()
    return ref


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
    """``discounted_rollouts``: Monte-Carlo returns of the attacker's discounted value."""

    def test_geometric_sum_when_always_delivered(self):
        spec = small_spec(actions_sensor=(500.0, 1000.0))
        res = shapley_value_iteration(spec)
        pure = extract_policy(res.tables)
        # under q = 1 the trajectory stays at fresh states; compare against
        # the oracle value directly
        val = discounted_rollouts(spec, pure, horizon=60, n_rollouts=200,
                                  rng=np.random.default_rng(0)).mean()
        assert val == pytest.approx(pure[0].value_p1, abs=0.2)

    def test_horizon_guard(self):
        spec = small_spec()
        res = shapley_value_iteration(spec)
        with pytest.raises(ValueError):
            discounted_rollouts(spec, res.policies, horizon=5, n_rollouts=10,
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
            discounted_rollouts(spec, default_oracle.policies, horizon, 0,
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
        spec = small_spec(beta=1e-7)
        res = shapley_value_iteration(spec)
        val = discounted_rollouts(spec, res.policies, horizon=1, n_rollouts=2000,
                                  rng=np.random.default_rng(4)).mean()
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


def read_qtables(text):
    """The tables of a ``qtables_to_json`` document; its ``q2`` must mirror ``q1``."""
    doc = json.loads(text)
    q1, q2 = np.array(doc["q1"]), np.array(doc["q2"])
    assert q2.shape == q1.shape and (np.abs(q1 + q2) <= ZERO_SUM_TOL).all()
    return QTables(q1=q1, visits=np.array(doc["visits"], dtype=np.int64))


class TestSerialization:
    def test_json_round_trip_exact(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=100, seed=13))
        back = read_qtables(qtables_to_json(spec, res.tables))
        assert back.q1.tobytes() == res.tables.q1.tobytes()
        assert back.q2.tobytes() == res.tables.q2.tobytes()
        assert back.visits.tobytes() == res.tables.visits.tobytes()

    def test_round_trip_policies_identical(self):
        spec = small_spec()
        res = nash_q_learn(spec, LearnConfig(episodes=100, seed=13))
        back = read_qtables(qtables_to_json(spec, res.tables))
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
