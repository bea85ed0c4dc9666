import copy
import dataclasses
import itertools
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_tuple_reference as ref
from jamgame.channel import ChannelSpec
from jamgame.cli import main
from jamgame.config import parse_config
from jamgame.estimation import SystemModel
from jamgame.game import GameSpec
from jamgame.nashq import shapley_value_iteration
from jamgame.structure import (
    WITNESS_CAP,
    EpsilonReport,
    _increment_key,
    _increments,
    check_monotone_policy,
    check_q_supermodular,
    check_supermodular,
    check_monotone_sufficient_condition,
    reward_cancellation_residual,
    continuation_difference_positive,
    epsilon_max,
    gain_averaged_values,
    game_q_lattice,
    render_report,
    structure_report,
)
from spec_strategies import game_specs

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def example2_spec():
    """Two-action power sets {3,9}/{2,7} on the compact two-gain channel."""
    return GameSpec(
        actions_attacker=(3.0, 9.0),
        actions_sensor=(2.0, 7.0),
        alpha_s=1.0,
        alpha_a=1.0,
        beta=0.75,
        tau_max=4,
        channel=ChannelSpec(gains=(0.6, 0.8), kernel=[[0.5, 0.5], [0.5, 0.5]],
                            sigma2=0.5, alpha=1.0),
        model=SystemModel(A=[[1.2]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]]),
    )


class TestEpsilonMax:
    def test_single_gain_channel_is_identically_one(self):
        spec = GameSpec(
            actions_attacker=(3.0, 9.0),
            actions_sensor=(2.0, 7.0),
            alpha_s=1.0, alpha_a=1.0, beta=0.75, tau_max=2,
            channel=ChannelSpec(gains=(0.7,), kernel=[[1.0]], sigma2=0.5),
            model=SystemModel(A=[[1.2]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]]),
        )
        rep = epsilon_max(spec)
        assert rep.epsilon_max == pytest.approx(1.0, abs=1e-12)
        assert rep.n_excluded == 0
        # One gain pair: every ratio compares an increment with itself.
        assert _increments(spec).shape[2:] == (1, 1)

    def test_identity_tuples_pin_max_at_least_one(self):
        rep = epsilon_max(example2_spec())
        assert rep.epsilon_max >= 1.0

    def test_against_independent_enumeration(self):
        # Re-derive every ratio with a literal loop over the same grid,
        # computing arrival probabilities from erfc directly.
        spec = example2_spec()
        mu = {g: 0.5 for g in spec.channel.gains}

        def q(a, b, gs, ga):
            s = (b * gs) / (a * ga + 0.5)
            return 1.0 - math.erfc(math.sqrt(0.5 * s))

        expected = {}
        for gs, ga, gps, gpa in itertools.product(spec.channel.gains, repeat=4):
            num = mu[ga] * mu[gs] * (q(9, 7, gs, ga) - q(3, 2, gs, ga))
            den = mu[gpa] * mu[gps] * (q(9, 7, gps, gpa) - q(3, 2, gps, gpa))
            expected[(gs, ga, gps, gpa)] = num / den
        rep = epsilon_max(spec)
        assert rep.epsilon_max == pytest.approx(max(expected.values()), abs=1e-12)
        # The increments the bound reduces over, gains ascending on each axis.
        inc = _increments(spec)[0, 0]
        k = spec.channel.gains.index
        for (gs, ga, gps, gpa), val in expected.items():
            got = inc[k(gs), k(ga)] / inc[k(gps), k(gpa)]
            assert got == pytest.approx(val, abs=1e-12)

    def test_positive_increments_reported(self):
        rep = epsilon_max(example2_spec())
        assert rep.condition_holds
        assert rep.witness is None
        assert rep.n_excluded == 0

    def test_requires_two_actions(self):
        spec = GameSpec(
            actions_attacker=(3.0,), actions_sensor=(2.0, 7.0),
            alpha_s=1.0, alpha_a=1.0, beta=0.75, tau_max=2,
            channel=ChannelSpec(gains=(0.6, 0.8), kernel=[[0.5, 0.5], [0.5, 0.5]],
                                sigma2=0.5),
            model=SystemModel(A=[[1.2]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]]),
        )
        with pytest.raises(ValueError):
            epsilon_max(spec)


def saturated_default(actions_sensor):
    """The shipped default profile with sensor powers loud enough to saturate arrivals."""
    with open(os.path.join(CONFIG_DIR, "default.json")) as fh:
        doc = json.load(fh)
    doc["game"]["actions_sensor"] = actions_sensor
    return doc


class TestExcludedTuples:
    """Tuples whose denominator increment vanished: counted, never in the max."""

    def test_partly_saturated_channel(self):
        spec = parse_config(saturated_default([200, 400])).game
        rep = _assert_epsilon_matches_reference(spec)
        assert rep.n_excluded == 4  # of 16 gain quadruples
        assert not rep.condition_holds and rep.witness is not None
        assert math.isfinite(rep.epsilon_max)

    def test_fully_saturated_channel_fails_monotone(self, tmp_path, capsys):
        doc = saturated_default([400, 800])
        with pytest.raises(ValueError, match="all denominators vanished"):
            epsilon_max(parse_config(doc).game)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["monotone", "--config", str(path), "--out", str(out)]) == 2
        assert "all denominators vanished" in capsys.readouterr().err
        assert not out.exists()


class TestCheckSupermodular:
    def test_coordinate_product_is_supermodular(self):
        s = np.array([1.0, 2.0])
        a = np.array([1.0, 3.0])
        b = np.array([2.0, 5.0])
        table = s[:, None, None] * a[None, :, None] * b[None, None, :]
        ok, wit = check_supermodular(table, n_state_axes=1)
        assert ok and wit is None

    def test_constant_table_not_strict(self):
        ok, wit = check_supermodular(np.ones((2, 2, 2)), n_state_axes=1)
        assert not ok
        assert wit is not None

    def test_negated_product_is_submodular_with_witness(self):
        s = np.array([1.0, 2.0])
        a = np.array([1.0, 3.0])
        b = np.array([2.0, 5.0])
        table = -(s[:, None, None] * a[None, :, None] * b[None, None, :])
        ok, wit = check_supermodular(table, n_state_axes=1)
        assert not ok
        lhs_minus_rhs = wit[2]
        assert lhs_minus_rhs < 0

    def test_hand_checked_four_point_inequality(self):
        # 2x2x2 grid of s*a*b: the unique crossed pair is (s1,a0,b0) vs
        # (s0,a1,b1); the inequality reads s1 a1 b1 + s0 a0 b0 > s1 a0 b0 + s0 a1 b1.
        s, a, b = (1.0, 2.0), (1.0, 3.0), (2.0, 5.0)
        lhs = s[1] * a[1] * b[1] + s[0] * a[0] * b[0]
        rhs = s[1] * a[0] * b[0] + s[0] * a[1] * b[1]
        assert lhs > rhs  # oracle for the test above

    def test_block_split_validated(self):
        with pytest.raises(ValueError):
            check_supermodular(np.ones((2, 2)), n_state_axes=2)


@pytest.fixture(scope="module")
def oracle_pair():
    spec = example2_spec()
    return spec, shapley_value_iteration(spec)


class TestMonotoneSufficientCondition:
    def test_action_product_holds_for_example_actions(self, oracle_pair):
        spec, vi = oracle_pair
        eps = epsilon_max(spec)
        v2 = np.array([p.value_p2 for p in vi.policies])
        rep = check_monotone_sufficient_condition(spec, v2, eps)
        # 7 * 3 = 21 >= 2 * 9 = 18
        assert rep.action_product_ok

    def test_ratios_match_hand_computation(self, oracle_pair):
        spec, vi = oracle_pair
        eps = epsilon_max(spec)
        v2 = np.array([p.value_p2 for p in vi.policies])
        rep = check_monotone_sufficient_condition(spec, v2, eps)
        vbar = gain_averaged_values(spec, v2)
        for m in range(spec.tau_max - 1):
            expect = (vbar[0] - vbar[m + 2]) / (vbar[0] - vbar[m + 1])
            assert rep.ratios[m] == pytest.approx(expect, rel=1e-12)

    def test_ratio_invariant_under_player_choice(self, oracle_pair):
        spec, vi = oracle_pair
        eps = epsilon_max(spec)
        v1 = np.array([p.value_p1 for p in vi.policies])
        v2 = np.array([p.value_p2 for p in vi.policies])
        r1 = check_monotone_sufficient_condition(spec, v1, eps)
        r2 = check_monotone_sufficient_condition(spec, v2, eps)
        for m in r1.ratios:
            assert r1.ratios[m] == pytest.approx(r2.ratios[m], rel=1e-9)

    def test_constant_values_reported_undefined(self, oracle_pair):
        spec, _ = oracle_pair
        eps = epsilon_max(spec)
        rep = check_monotone_sufficient_condition(spec, np.ones(spec.n_states), eps)
        assert rep.threshold_tau is None
        assert len(rep.undefined) == spec.tau_max - 1
        assert not any(rep.holds.values())

    def test_product_condition_fails_for_reversed_actions(self):
        # actions {1,6}/{2,5}: 5*1 = 5 < 2*6 = 12
        spec = example2_spec()
        small = GameSpec(
            actions_attacker=(1.0, 6.0), actions_sensor=(2.0, 5.0),
            alpha_s=1.0, alpha_a=1.0, beta=0.75, tau_max=4,
            channel=spec.channel, model=spec.model,
        )
        eps = epsilon_max(small)
        vi = shapley_value_iteration(small)
        v2 = np.array([p.value_p2 for p in vi.policies])
        rep = check_monotone_sufficient_condition(small, v2, eps)
        assert not rep.action_product_ok


def _assert_condition_matches_loop(spec, values, eps_max):
    """Ratios by ``repr``, verdicts, undefined holding times and threshold
    against the holding-time loop; returns the report."""
    eps = EpsilonReport(epsilon_max=eps_max, condition_holds=True)
    rep = check_monotone_sufficient_condition(spec, values, eps)
    want = ref.monotone_sufficient_condition(spec, gain_averaged_values(spec, values), eps_max)
    assert repr((rep.ratios, rep.holds, rep.undefined, rep.threshold_tau)) == repr(want)
    return rep


class TestSufficientConditionMatchesHoldingTimeLoop:
    """The slice division and the backward threshold scan reproduce the
    per-holding-time loop and its nested threshold search."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=game_specs(), data=st.data())
    def test_random_values(self, spec, data):
        # Few distinct levels give tied gaps (ratio exactly 1) and zero gaps
        # (undefined ratios); a constant draw leaves every ratio undefined.
        level = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.0]),
                          st.floats(-50.0, 50.0, allow_subnormal=False))
        per_tau = data.draw(st.lists(level, min_size=spec.tau_max + 1, max_size=spec.tau_max + 1))
        shape = data.draw(st.sampled_from(["per holding time", "per state", "constant"]))
        n_pairs = spec.channel.n_gains ** 2
        if shape == "per state":
            values = np.array(data.draw(st.lists(level, min_size=spec.n_states,
                                                 max_size=spec.n_states)))
        else:
            values = np.repeat(per_tau if shape == "per holding time" else per_tau[:1] * len(per_tau),
                               n_pairs)
        eps_max = data.draw(st.one_of(st.sampled_from([0.0, 1.0, 1.5]),
                                      st.floats(-5.0, 5.0, allow_subnormal=False)))
        rep = _assert_condition_matches_loop(spec, values, eps_max)
        if shape == "constant":
            assert rep.undefined == tuple(range(spec.tau_max - 1))

    @staticmethod
    def falling_values(spec, gaps):
        """Per-state values equal across gain pairs, ``v(0) - v(m + 1) = gaps[m]``."""
        return -np.repeat(np.concatenate([[0.0], gaps]), spec.channel.n_gains ** 2)

    @pytest.mark.parametrize("fail, threshold", [(-1, None), (0, 1), (None, 0)],
                             ids=["last", "first", "none"])
    def test_one_failing_ratio(self, fail, threshold):
        # 999 ratios of 1.1, but the failing one exactly 1, against epsilon_max
        # 1.05; a stable plant keeps the long holding-time axis certifiable.
        spec = dataclasses.replace(example2_spec(), tau_max=1000, model=SystemModel(
            A=[[0.95]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]]))
        ratios = np.full(spec.tau_max - 1, 1.1)
        if fail is not None:
            ratios[fail] = 1.0
        gaps = np.cumprod(np.concatenate([[1.0], ratios]))
        rep = _assert_condition_matches_loop(spec, self.falling_values(spec, gaps), 1.05)
        assert rep.threshold_tau == threshold
        assert [m for m, ok in rep.holds.items() if not ok] == list(np.flatnonzero(ratios == 1.0))
        assert rep.undefined == ()

    def test_zero_gap_is_undefined_not_infinite(self):
        # gap 0 then gap 1: the division gives inf, which must not count as holding.
        spec = example2_spec()
        gaps = np.array([0.0, 1.0, 2.0, 4.0])
        rep = _assert_condition_matches_loop(spec, self.falling_values(spec, gaps), 1.5)
        assert rep.undefined == (0,) and rep.ratios[0] is None and rep.holds[0] is False
        assert rep.threshold_tau == 1


class TestMonotonePolicy:
    def test_pure_gain_keyed_step_passes(self, monotone_config):
        vi = shapley_value_iteration(monotone_config.game)
        rep = check_monotone_policy(monotone_config.game, vi.policies, min_tau=0)
        assert rep.expected_ok
        assert rep.argmax_ok

    def test_identical_mixes_fail_with_witness(self, monotone_config):
        spec = monotone_config.game
        vi = shapley_value_iteration(spec)
        flat = [vi.policies[0]] * spec.n_states
        rep = check_monotone_policy(spec, flat, min_tau=0)
        assert not rep.expected_ok
        assert rep.expected_witnesses
        # Exact ties with the running maximum over earlier holding times. On
        # example 2 only gain pair 0 (both gains high) dominates pair 3 (both
        # low). Pair 0 at holding time 3 repeats the mix pair 3 plays at
        # holding time 1, the maximum of its holding times 0-2, so expected
        # action ties with a non-adjacent holding time: strict increase fails
        # with witness (12, 7). The max-probability action ties too, and
        # passes. min_tau 2 drops holding time 1, and min_tau 5 every state.
        spec = example2_spec()
        for player, min_tau, want in (("a", 0, ((12, 7),)), ("b", 0, ((12, 7),)),
                                      ("a", 2, ()), ("b", spec.tau_max + 1, ())):
            # Weight on the high action, by (holding time, gain pair).
            tied = np.full((spec.tau_max + 1, 4), 0.5)
            tied[:, 3], tied[:, 0] = [0.2, 0.6, 0.3, 0.1, 0.1], [0.9, 0.4, 0.7, 0.6, 0.8]
            pure = np.full_like(tied, 0.5)
            pure[:, 3], pure[:, 0] = 0.0, 1.0
            xa, xb = (tied, pure) if player == "a" else (pure, tied)
            policies = [_policy([1 - x, x], [1 - y, y]) for x, y in zip(xa.flat, xb.flat)]
            rep = check_monotone_policy(spec, policies, min_tau=min_tau)
            assert _verdicts(rep) == (not want, want, True)
            exp_ok, exp_wit, arg_ok, _ = ref.check_monotone_policy(spec, policies, min_tau)
            assert repr(_verdicts(rep)) == repr((exp_ok, exp_wit, arg_ok))

    @pytest.mark.parametrize("n_policies", [8, 16, 19, 24])
    def test_policy_list_of_the_wrong_length_raises(self, default_config, n_policies):
        # The default profile has 20 states over 4 gain pairs.
        policies = [_policy([1.0, 0.0], [1.0, 0.0])] * n_policies
        with pytest.raises(ValueError, match=f"expected 20 policies, one per state, got {n_policies}"):
            check_monotone_policy(default_config.game, policies)

    def test_min_tau_filters_pairs(self, monotone_config):
        spec = monotone_config.game
        vi = shapley_value_iteration(spec)
        rep = check_monotone_policy(spec, vi.policies, min_tau=spec.tau_max + 1)
        assert rep.expected_ok  # vacuous

    def test_learned_policies_keep_the_monotone_shape(self, monotone_config):
        # Learning on the engineered profile reproduces the qualitative
        # shift: mass moves toward the high power level as states grow.
        # Sampling noise can collapse an interior mix to a pure point, so
        # the learned check is weak dominance everywhere plus strictness at
        # the top; the exact strict check runs on the oracle policies.
        from jamgame.nashq import nash_q_learn
        spec = monotone_config.game
        res = nash_q_learn(spec, monotone_config.learn)
        acts_a = np.array(spec.actions_attacker)
        acts_b = np.array(spec.actions_sensor)
        lo, hi = spec.channel.gains
        exp_a = {}
        exp_b = {}
        for i, s in enumerate(spec.states):
            exp_a[(s.tau, s.g_s, s.g_a)] = float(res.policies[i].strat_p1.probs @ acts_a)
            exp_b[(s.tau, s.g_s, s.g_a)] = float(res.policies[i].strat_p2.probs @ acts_b)
        top = (spec.tau_max, hi, hi)
        for m_lo in range(spec.tau_max):
            for m_hi in range(m_lo + 1, spec.tau_max + 1):
                assert exp_a[(m_hi, hi, hi)] > exp_a[(m_lo, lo, lo)]
                assert exp_b[(m_hi, hi, hi)] >= exp_b[(m_lo, lo, lo)]
            assert exp_b[top] > exp_b[(m_lo, lo, lo)]


class TestRewardIdentities:
    def test_reward_cancellation_exact_in_rational_arithmetic(self):
        exact, float_res = reward_cancellation_residual(example2_spec())
        assert exact
        assert float_res <= 1e-12

    def test_continuation_difference_positive_on_engineered_profile(self, monotone_config):
        spec = monotone_config.game
        vi = shapley_value_iteration(spec)
        v2 = np.array([p.value_p2 for p in vi.policies])
        ok, wit = continuation_difference_positive(spec, v2)
        assert ok and wit is None


class TestIncrementKeys:
    """The continuation check's one witness key is the full key list's entry."""

    @staticmethod
    def check_keys(spec):
        inc = _increments(spec)
        shape = inc.shape + inc.shape[2:]
        keys = ref.increment_keys(spec)
        assert len(keys) == math.prod(shape)
        for k, key in enumerate(keys):
            assert repr(_increment_key(spec, np.unravel_index(k, shape))) == repr(key)

    @pytest.mark.parametrize("profile", ["default", "monotone", "scaled"])
    def test_profiles(self, profile, request):
        spec = request.getfixturevalue(f"{profile}_config").game
        self.check_keys(spec)
        v2 = [p.value_p2 for p in request.getfixturevalue(f"{profile}_oracle").policies]
        got = continuation_difference_positive(spec, v2)
        want = ref.continuation_difference_positive(spec, gain_averaged_values(spec, v2))
        assert repr(got) == repr(want)
        assert got[0] == (profile == "monotone")

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(spec=game_specs())
    def test_random_games(self, spec):
        self.check_keys(spec)


class TestPipelineReport:
    def test_full_monotone_profile_report(self, monotone_config):
        spec = monotone_config.game
        vi = shapley_value_iteration(spec)
        rep = structure_report(spec, vi)
        assert rep["threshold_tau"] == 0
        assert rep["action_product_ok"]
        assert rep["supermodular_sensor_q"]
        assert rep["monotone_expected_action"]
        assert rep["monotone_argmax_action"]
        assert rep["continuation_difference_positive"]
        assert rep["reward_cancellation_exact"]
        text = render_report(rep)
        assert "epsilon_max" in text and "supermodular" in text

    def test_sensor_supermodular_attacker_not(self, monotone_config):
        # Zero-sum: the sensor's table satisfies the four-point inequality,
        # so the attacker's (its negation) must violate it strictly.
        spec = monotone_config.game
        vi = shapley_value_iteration(spec)
        ok2, _ = check_q_supermodular(spec, vi.tables.q2)
        ok1, wit1 = check_q_supermodular(spec, vi.tables.q1)
        assert ok2
        assert not ok1 and wit1 is not None


def _assert_epsilon_matches_reference(spec):
    """Max, premise, witness and excluded count against the per-tuple loop."""
    _, want_max, want_holds, want_witness, want_excluded = ref.epsilon_max(spec)
    rep = epsilon_max(spec)
    assert repr(rep.epsilon_max) == repr(want_max)
    assert (rep.condition_holds, rep.witness) == (want_holds, want_witness)
    assert rep.n_excluded == len(want_excluded)
    return rep


def _assert_matches_per_tuple_loops(spec, values):
    """Ratio bound, continuation difference and reward residue against the loops."""
    values = np.asarray(values, dtype=float)
    if min(len(spec.actions_attacker), len(spec.actions_sensor)) >= 2:
        _assert_epsilon_matches_reference(spec)
    got = continuation_difference_positive(spec, values)
    assert repr(got) == repr(ref.continuation_difference_positive(
        spec, gain_averaged_values(spec, values)))
    assert repr(reward_cancellation_residual(spec)[1]) == repr(ref.reward_float_residue(spec))


class TestMatchesPerTupleLoops:
    """The compiled-model checks reproduce the per-tuple erfc loops bit for bit."""

    @pytest.mark.parametrize("profile", ["default", "monotone", "example2"])
    def test_shipped_profiles(self, profile, default_config, monotone_config):
        spec = {"default": default_config.game, "monotone": monotone_config.game,
                "example2": example2_spec()}[profile]
        oracle = shapley_value_iteration(spec)
        for v in ([p.value_p2 for p in oracle.policies], [p.value_p1 for p in oracle.policies]):
            _assert_matches_per_tuple_loops(spec, v)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=game_specs(), data=st.data())
    def test_random_games(self, spec, data):
        # Values falling in holding time make the continuation scan run past m = 0.
        drop = data.draw(st.lists(st.floats(0.0, 20.0), min_size=spec.tau_max + 1,
                                  max_size=spec.tau_max + 1))
        values = -np.repeat(np.cumsum(drop), spec.channel.n_gains ** 2)
        _assert_matches_per_tuple_loops(spec, values)


def _policy(p_attacker, p_sensor):
    """The two strategy vectors of a stage solution, as the order check reads them."""
    return SimpleNamespace(strat_p1=SimpleNamespace(probs=np.asarray(p_attacker, dtype=float)),
                           strat_p2=SimpleNamespace(probs=np.asarray(p_sensor, dtype=float)))


def _tied_mixes(n):
    """Pure strategies and even two-action mixes: few distinct summaries, many ties."""
    eye = np.eye(n)
    return [eye[i] for i in range(n)] + [
        (eye[i] + eye[j]) / 2 for i, j in itertools.combinations(range(n), 2)]


def _verdicts(rep):
    """What a policy-monotonicity report holds, as one comparable tuple."""
    return rep.expected_ok, rep.expected_witnesses, rep.argmax_ok


def _assert_order_checks_match_loops(spec, tables, policies, min_taus):
    """Supermodularity, policy monotonicity and the reward cancellation against the
    pair loops: verdicts, the first witnesses and their order, margins, exact flag
    and residue."""
    for q in tables:
        lattice = game_q_lattice(spec, q, max_tau=spec.tau_max - 1)
        assert repr(check_q_supermodular(spec, q)) == repr(ref.check_supermodular(lattice, 3))
    for min_tau in min_taus:
        got = _verdicts(check_monotone_policy(spec, policies, min_tau=min_tau))
        exp_ok, exp_wit, arg_ok, _ = ref.check_monotone_policy(spec, policies, min_tau)
        assert repr(got) == repr((exp_ok, exp_wit[:WITNESS_CAP], arg_ok))
    want = (ref.reward_cancellation_exact(spec), ref.reward_float_residue(spec))
    assert repr(reward_cancellation_residual(spec)) == repr(want)


class TestOrderChecksMatchPairLoops:
    """The supermodularity row scan and the gain-pair scan reproduce the product loop,
    the pair loop and the Fraction sum."""

    @pytest.mark.parametrize("profile", ["default", "monotone", "scaled"])
    def test_profiles(self, profile, request):
        spec = request.getfixturevalue(f"{profile}_config").game
        oracle = request.getfixturevalue(f"{profile}_oracle")
        _assert_order_checks_match_loops(spec, (oracle.tables.q2, oracle.tables.q1),
                                         oracle.policies, (0, 1, spec.tau_max // 2))

    def test_scaled_profile_violations_are_reported(self, scaled_config, scaled_oracle):
        # The scaled profile fails both checks, so its witnesses are non-trivial.
        spec = scaled_config.game
        ok, wit = check_q_supermodular(spec, scaled_oracle.tables.q2)
        assert not ok and wit[2] <= 0
        rep = check_monotone_policy(spec, scaled_oracle.policies, min_tau=1)
        assert len(ref.check_monotone_policy(spec, scaled_oracle.policies, 1)[1]) > WITNESS_CAP
        assert len(rep.expected_witnesses) == WITNESS_CAP
        assert all(spec.states[j].tau >= 1 for _, j in rep.expected_witnesses)

    def test_witnesses_merge_across_gain_pairs(self, scaled_profile, scaled_oracle):
        # The scaled oracle's verdicts are all false: on its first holding times
        # the failing pairs exceed WITNESS_CAP and the first ones come from
        # several pairs of gain pairs.
        doc = copy.deepcopy(scaled_profile)
        doc["game"]["tau_max"] = 5
        spec = parse_config(doc).game
        policies = scaled_oracle.policies[:spec.n_states]
        min_taus = (0, spec.tau_max // 2, spec.tau_max)
        _assert_order_checks_match_loops(spec, (), policies, min_taus)
        n_pairs = spec.compiled.n_pairs
        for min_tau in min_taus[:2]:
            rep = check_monotone_policy(spec, policies, min_tau=min_tau)
            assert len(ref.check_monotone_policy(spec, policies, min_tau)[1]) > WITNESS_CAP
            assert len({(i % n_pairs, j % n_pairs) for i, j in rep.expected_witnesses}) > 1
        assert check_monotone_policy(spec, policies, min_tau=spec.tau_max).expected_ok

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(spec=game_specs(), seed=st.integers(0, 2**32 - 1))
    def test_random_games_with_tied_policies(self, spec, seed):
        rng = np.random.default_rng(seed)
        na, nb = len(spec.actions_attacker), len(spec.actions_sensor)
        # With a single action per player no pair is crossed; the loop would
        # walk every state pair for nothing, so only the verdict is checked.
        tables = ()
        q = rng.integers(-2, 3, size=(spec.n_states, na, nb)).astype(float)
        if min(na, nb) >= 2:
            tables = (q, -q)
        else:
            assert check_q_supermodular(spec, q) == (True, None)
        mix_a, mix_b = _tied_mixes(na), _tied_mixes(nb)
        policies = [_policy(mix_a[rng.integers(len(mix_a))], mix_b[rng.integers(len(mix_b))])
                    for _ in range(spec.n_states)]
        min_taus = (0, int(rng.integers(1, spec.tau_max + 1)))
        _assert_order_checks_match_loops(spec, tables, policies, min_taus)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(state_shape=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           action_shape=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           scale=st.sampled_from([0.0, 1.0, 5.0]), seed=st.integers(0, 2**32 - 1))
    def test_integer_tables_with_ties(self, state_shape, action_shape, scale, seed):
        # scale * (sum of state coords) * (sum of action coords) is strictly
        # supermodular by at least scale; integer noise in [0, 2] moves a
        # four-point sum by at most 4, so scale 5 passes and 0 or 1 give ties.
        shape = tuple(state_shape + action_shape)
        k = len(state_shape)
        idx = np.indices(shape)
        table = scale * idx[:k].sum(axis=0) * idx[k:].sum(axis=0)
        table = table + np.random.default_rng(seed).integers(0, 3, size=shape)
        got = check_supermodular(table, n_state_axes=k)
        assert repr(got) == repr(ref.check_supermodular(table, k))
        if scale == 5.0:
            assert got == (True, None)
