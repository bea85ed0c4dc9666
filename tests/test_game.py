import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings

import numpy_reference
from scalar_law_reference import reward_attacker, state_index, transition_distribution
from solver_probes import bits
from spec_strategies import game_specs

from jamgame import game
from jamgame.channel import ChannelSpec, draw_index, packet_arrival_prob
from jamgame.estimation import SystemModel
from jamgame.game import (
    GameSpec,
    GameState,
    fixed_policy,
    play,
    simulate_trajectory,
    write_trajectory_csv,
)


def paper_model():
    return SystemModel(A=[[1.2]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]])


def paper_spec(**kw):
    args = dict(
        actions_attacker=(1.0, 6.0),
        actions_sensor=(2.0, 5.0),
        alpha_s=1.0,
        alpha_a=1.0,
        beta=0.75,
        tau_max=4,
        channel=ChannelSpec(gains=(0.6, 0.8), kernel=[[0.5, 0.5], [0.5, 0.5]],
                            sigma2=0.5, alpha=1.0),
        model=paper_model(),
    )
    args.update(kw)
    return GameSpec(**args)


@pytest.fixture(scope="module")
def spec():
    return paper_spec()


class TestGameSpec:
    def test_twenty_states(self, spec):
        states = spec.states
        assert len(states) == 20
        assert states[0] == GameState(0, 0.8, 0.8)
        assert states[12] == GameState(3, 0.8, 0.8)
        assert states[19] == GameState(4, 0.6, 0.6)

    def test_single_gain_single_tau(self):
        ch = ChannelSpec(gains=(0.7,), kernel=[[1.0]], sigma2=0.5)
        small = paper_spec(channel=ch, tau_max=1)
        assert len(small.states) == 2

    def test_index_round_trip(self, spec):
        # The compiled model's layout: s = tau * n_pairs + p, gains descending.
        desc = sorted(spec.channel.gains, reverse=True)
        pairs = [(gs, ga) for gs in desc for ga in desc]
        for i, s in enumerate(spec.states):
            tau, p = divmod(i, spec.compiled.n_pairs)
            assert (s.tau, (s.g_s, s.g_a)) == (tau, pairs[p])

    def test_boundedness_guard_ok_for_paper_profile(self, spec):
        assert spec.boundedness_ok
        assert spec.min_arrival_prob > spec.bound_threshold

    @pytest.mark.parametrize("a, c", [([[0.0]], [[0.7]]), ([[0, 1], [0, 0]], [[1, 0]])],
                             ids=["zero", "nilpotent"])
    def test_zero_spectral_radius_plant_is_bounded(self, a, c):
        eye = 0.8 * np.eye(len(a))
        spec = paper_spec(model=SystemModel(A=a, C=c, Q=eye, R=[[0.8]], Pi0=eye))
        assert spec.bound_threshold == -np.inf
        assert spec.boundedness_ok

    def test_boundedness_guard_warns_when_violated(self):
        with pytest.warns(UserWarning, match="unbounded"):
            paper_spec(channel=ChannelSpec(gains=(0.6, 0.8),
                                           kernel=[[0.5, 0.5], [0.5, 0.5]],
                                           sigma2=50.0, alpha=1.0))

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            paper_spec(beta=1.0)

    def test_actions_must_increase(self):
        with pytest.raises(ValueError):
            paper_spec(actions_attacker=(6.0, 1.0))

    def test_payoff_scale_beyond_certification_rejected(self):
        # eps * max|r| / (1 - beta) is 5.3e-9 at tau_max=40, 3.3e-8 at 45.
        paper_spec(tau_max=40)
        with pytest.raises(ValueError, match=r"tau_max=45.*rho\(A\)=1\.2.*B="):
            paper_spec(tau_max=45)


class TestReward:
    def test_pure_trace_when_weights_zero(self, spec):
        zero = paper_spec(alpha_s=0.0, alpha_a=0.0)
        assert reward_attacker(zero, 0, 1.0, 2.0) == zero.steady.trace_table[0]

    def test_linear_energy_terms(self, spec):
        p_bar = spec.steady.trace_table[0]
        got = reward_attacker(spec, 0, 1.0, 2.0)
        assert got == pytest.approx(p_bar + 2.0 - 1.0, abs=1e-12)

    def test_zero_sum_identity_exact(self, spec):
        for m in range(spec.tau_max + 1):
            for a in spec.actions_attacker:
                for b in spec.actions_sensor:
                    r1 = reward_attacker(spec, m, a, b)
                    assert r1 + (-r1) == 0.0

    def test_monotone_in_arguments(self, spec):
        for m in range(spec.tau_max):
            assert reward_attacker(spec, m + 1, 1.0, 2.0) > reward_attacker(spec, m, 1.0, 2.0)
        assert reward_attacker(spec, 0, 1.0, 5.0) > reward_attacker(spec, 0, 1.0, 2.0)
        assert reward_attacker(spec, 0, 6.0, 2.0) < reward_attacker(spec, 0, 1.0, 2.0)

    def test_rejects_unknown_action(self, spec):
        with pytest.raises(ValueError):
            reward_attacker(spec, 0, 3.0, 2.0)

    def test_rejects_out_of_range_holding_time(self, spec):
        with pytest.raises(ValueError):
            reward_attacker(spec, 9, 1.0, 2.0)


class TestTransition:
    def test_rows_sum_to_one(self, spec):
        for s in spec.states:
            for a in spec.actions_attacker:
                for b in spec.actions_sensor:
                    dist = transition_distribution(spec, s, a, b)
                    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
                    taus = {nxt.tau for nxt in dist}
                    assert taus <= {0, min(s.tau + 1, spec.tau_max)}

    def test_stationary_mode_gain_marginal(self, spec):
        s = spec.states[5]
        dist = transition_distribution(spec, s, 1.0, 2.0)
        marginal = {}
        for nxt, p in dist.items():
            marginal[(nxt.g_s, nxt.g_a)] = marginal.get((nxt.g_s, nxt.g_a), 0.0) + p
        for pair, p in marginal.items():
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_success_mass_equals_arrival_probability(self, spec):
        s = spec.states[7]
        a, b = 6.0, 2.0
        q = packet_arrival_prob(spec.channel, b, s.g_s, a, s.g_a)
        dist = transition_distribution(spec, s, a, b)
        success = sum(p for nxt, p in dist.items() if nxt.tau == 0)
        assert success == pytest.approx(q, abs=1e-12)

    def test_saturation_at_cap(self, spec):
        top = GameState(spec.tau_max, 0.8, 0.8)
        dist = transition_distribution(spec, top, 1.0, 2.0)
        assert {nxt.tau for nxt in dist} == {0, spec.tau_max}

    def test_markov_mode_uses_kernel_rows(self):
        kernel = [[0.9, 0.1], [0.2, 0.8]]
        ch = ChannelSpec(gains=(0.6, 0.8), kernel=kernel, sigma2=0.5)
        spec = paper_spec(channel=ch, gain_mode="markov")
        s = GameState(0, 0.8, 0.6)
        dist = transition_distribution(spec, s, 1.0, 2.0)
        # row of g_s = 0.8 is [0.2, 0.8]; row of g_a = 0.6 is [0.9, 0.1]
        marg_s = {}
        for nxt, p in dist.items():
            marg_s[nxt.g_s] = marg_s.get(nxt.g_s, 0.0) + p
        assert marg_s[0.6] == pytest.approx(0.2, abs=1e-12)
        assert marg_s[0.8] == pytest.approx(0.8, abs=1e-12)


class TestSimulation:
    def test_always_delivered_keeps_tau_zero(self):
        # Enormous sensor power saturates q to 1.
        spec = paper_spec(actions_sensor=(500.0, 1000.0))
        pa = np.tile([1.0, 0.0], (spec.n_states, 1))
        ps = np.tile([1.0, 0.0], (spec.n_states, 1))
        traj = simulate_trajectory(spec, pa, ps, horizon=200, rng=np.random.default_rng(0))
        assert (traj.tau == 0).all()
        assert np.allclose(traj.trace_p, spec.steady.trace_table[0])

    def test_never_delivered_grows_to_cap(self):
        with pytest.warns(UserWarning, match="unbounded"):
            spec = paper_spec(channel=ChannelSpec(gains=(0.6, 0.8),
                                                  kernel=[[0.5, 0.5], [0.5, 0.5]],
                                                  sigma2=1e12, alpha=1.0))
        pa = np.tile([1.0, 0.0], (spec.n_states, 1))
        ps = np.tile([1.0, 0.0], (spec.n_states, 1))
        traj = simulate_trajectory(spec, pa, ps, horizon=10, rng=np.random.default_rng(0))
        assert traj.tau.tolist() == [0, 1, 2, 3, 4, 4, 4, 4, 4, 4]

    def test_empirical_arrival_matches_analytic_q(self, spec):
        pa = np.tile([0.0, 1.0], (spec.n_states, 1))  # attacker always 6
        ps = np.tile([1.0, 0.0], (spec.n_states, 1))  # sensor always 2
        traj = simulate_trajectory(spec, pa, ps, horizon=10**5,
                                   rng=np.random.default_rng(42))
        for g_s, g_a in itertools.product(spec.channel.gains, repeat=2):
            mask = (traj.g_s == g_s) & (traj.g_a == g_a)
            q = packet_arrival_prob(spec.channel, 2.0, g_s, 6.0, g_a)
            assert abs(traj.gamma[mask].mean() - q) < 0.01

    def test_reward_column_consistency(self, spec):
        pa = np.tile([0.5, 0.5], (spec.n_states, 1))
        ps = np.tile([0.5, 0.5], (spec.n_states, 1))
        traj = simulate_trajectory(spec, pa, ps, horizon=500,
                                   rng=np.random.default_rng(7))
        for k in range(500):
            expect = reward_attacker(spec, int(traj.tau[k]), traj.a[k], traj.b[k])
            assert traj.r1[k] == expect

    def test_csv_round_trip(self, spec, tmp_path):
        pa = np.tile([0.5, 0.5], (spec.n_states, 1))
        ps = np.tile([0.5, 0.5], (spec.n_states, 1))
        traj = simulate_trajectory(spec, pa, ps, horizon=50,
                                   rng=np.random.default_rng(3))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "step,tau,g_s,g_a,a,b,q,gamma,trace_P,r1"
        assert len(rows) == 51
        first = rows[1].split(",")
        assert int(first[0]) == 0 and int(first[1]) == 0

    def test_deterministic_under_seed(self, spec):
        pa = np.tile([0.5, 0.5], (spec.n_states, 1))
        ps = np.tile([0.5, 0.5], (spec.n_states, 1))
        t1 = simulate_trajectory(spec, pa, ps, 100, np.random.default_rng(9))
        t2 = simulate_trajectory(spec, pa, ps, 100, np.random.default_rng(9))
        assert (t1.a == t2.a).all() and (t1.gamma == t2.gamma).all()

    @pytest.mark.parametrize("player", ["attacker", "sensor"])
    def test_rows_that_are_not_probability_vectors_rejected(self, spec, player):
        good = np.tile([0.5, 0.5], (spec.n_states, 1))
        for row in ([0.2, 0.2], [1.5, -0.5], [0.5, 0.5 + 1e-8], [np.nan, 1.0]):
            bad = good.copy()
            bad[7] = row
            pa, ps = (bad, good) if player == "attacker" else (good, bad)
            with pytest.raises(ValueError, match=f"{player} row of state 7"):
                simulate_trajectory(spec, pa, ps, 10, np.random.default_rng(0))
            with pytest.raises(ValueError, match=f"{player} row of state 7"):
                fixed_policy(pa, ps)

    @pytest.mark.parametrize("player", ["attacker", "sensor"])
    def test_table_shape_mismatch_names_player_and_shapes(self, spec, player):
        good = np.tile([0.5, 0.5], (spec.n_states, 1))
        bad = np.tile([0.5, 0.25, 0.25], (spec.n_states - 1, 1))
        pa, ps = (bad, good) if player == "attacker" else (good, bad)
        n = spec.n_states
        with pytest.raises(ValueError, match=rf"^{player} table has shape \({n - 1}, 3\), "
                                             rf"game needs \({n}, 2\)$"):
            simulate_trajectory(spec, pa, ps, 10, np.random.default_rng(0))

    def test_row_sums_within_tolerance_accepted(self, spec):
        pa = np.tile([0.5, 0.5 + 1e-10], (spec.n_states, 1))
        cdf_a, _ = fixed_policy(pa, pa)(3)
        assert cdf_a == [0.5, 1.0 + 1e-10]

    def test_batched_play_walks_the_scalar_path(self, spec):
        # Uniforms drawn in blocks must give the steps and the final generator
        # state of three scalar draws per step, with integer draws in between.
        draws = np.random.default_rng(3)
        policy = fixed_policy(draws.dirichlet([1.0, 1.0], size=spec.n_states),
                              draws.dirichlet([1.0, 1.0], size=spec.n_states))
        ours, ref = np.random.default_rng(11), np.random.default_rng(11)
        lengths = (2 * game._BLOCK_STEPS + 452, 7, game._BLOCK_STEPS, 0)
        for steps in lengths:
            start = int(ours.integers(spec.n_states))
            assert start == int(ref.integers(spec.n_states))
            walked = list(play(spec, policy, start, steps, ours))
            assert len(walked) == steps
            assert walked == list(numpy_reference.play(spec, policy, start, steps, ref))
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_draws_past_a_short_cdf_take_the_last_positive_mass_entry(self, spec,
                                                                       monkeypatch):
        # CDFs that end below 1, for the actions and for the next state, send
        # a uniform at or above their last entry to ``draw_index``'s fallback:
        # the last entry with positive mass, as in the reference stepper.
        model = spec.compiled
        short = SimpleNamespace(
            n_states=spec.n_states,
            compiled=dataclasses.replace(
                model, cdf_rows=(0.7 * np.array(model.cdf_rows)).tolist()))
        cdfs = ([0.4, 0.4], [0.1, 0.6])
        policy = lambda si: cdfs  # noqa: E731
        fallbacks = []

        def counted(cdf, u):
            fallbacks.append(tuple(cdf))
            return draw_index(cdf, u)

        monkeypatch.setattr(game, "draw_index", counted)
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        walked = list(play(short, policy, 3, 500, ours))
        assert walked == list(numpy_reference.play(short, policy, 3, 500, ref))
        assert {ai for _, ai, _, _ in walked} == {0} and {bi for _, _, bi, _ in walked} == {0, 1}
        # Both action draws and the next-state draw reached the fallback.
        assert {tuple(cdf) for cdf in cdfs} <= set(fallbacks)
        assert any(len(cdf) == 2 * model.n_pairs for cdf in fallbacks)

    def test_markov_mode_gain_transition_frequencies(self):
        kernel = [[0.9, 0.1], [0.3, 0.7]]
        ch = ChannelSpec(gains=(0.6, 0.8), kernel=kernel, sigma2=0.5)
        spec = paper_spec(channel=ch, gain_mode="markov")
        pa = np.tile([0.5, 0.5], (spec.n_states, 1))
        ps = np.tile([0.5, 0.5], (spec.n_states, 1))
        traj = simulate_trajectory(spec, pa, ps, horizon=10**5,
                                   rng=np.random.default_rng(31))
        # empirical sensor-gain transition frequencies match the kernel rows
        for i, g in enumerate(spec.channel.gains):
            mask = traj.g_s[:-1] == g
            stay = (traj.g_s[1:][mask] == g).mean()
            assert abs(stay - kernel[i][i]) < 0.01


def dense_law(spec, state, a, b):
    """Next-state probabilities in state-index order, from the reference law."""
    law = np.zeros(spec.n_states)
    for nxt, p in transition_distribution(spec, state, a, b).items():
        law[state_index(spec, nxt)] += p
    return law


class TestCompiledModel:
    def test_draw_past_rounded_cdf_stays_in_support(self, default_config):
        # Rows whose cumulative mass rounds below 1 once sent u >= cdf[-1] to
        # the last state (tau = tau_max); the draw must stay on the support.
        spec = default_config.game
        model = spec.compiled
        short = np.argwhere(np.array(model.cdf_rows)[..., -1] < 1.0)
        assert len(short) > 0
        u = np.nextafter(1.0, 0.0)
        for p, ai, bi in short:
            si = int(p)  # the tau = 0 state with gain pair p
            nxt = spec.states[numpy_reference.next_state(model, si, int(ai), int(bi), u)]
            law = transition_distribution(spec, spec.states[si],
                                          spec.actions_attacker[ai], spec.actions_sensor[bi])
            assert nxt.tau in (0, 1)
            assert law.get(nxt, 0.0) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(spec=game_specs())
    def test_stationary_fading_is_the_rank_one_chain(self, spec):
        """Stationary fading compiles, through the kernel whose every row is mu,
        to the bits of the product law it used to have a formula for."""
        assume(spec.gain_mode == "stationary")
        model = spec.compiled
        w = spec.mu[::-1]
        gain_step = np.tile(np.outer(w, w).ravel(), (model.n_pairs, 1))
        q = model.arrival[..., None]
        g = gain_step[:, None, None, :]
        cdf = np.cumsum(np.concatenate((q * g, (1.0 - q) * g), axis=-1), axis=-1)
        assert np.array_equal(bits(model.gain_step), bits(gain_step))
        assert np.array_equal(bits(model.cdf_rows), bits(cdf))

    @settings(max_examples=20, deadline=None)
    @given(spec=game_specs())
    def test_compiled_law_matches_reference(self, spec):
        model = spec.compiled
        n = model.n_pairs
        cdf = np.array(model.cdf_rows)
        assert np.abs(cdf[..., -1] - 1.0).max() <= 1e-12
        mass = np.diff(cdf, axis=-1, prepend=0.0)
        v = np.random.default_rng(0).normal(size=spec.n_states)
        expected = model.expected(v)
        for si, s in enumerate(spec.states):
            lost = min(s.tau + 1, spec.tau_max)
            for ai, a in enumerate(spec.actions_attacker):
                for bi, b in enumerate(spec.actions_sensor):
                    assert model.reward[si, ai, bi] == reward_attacker(spec, s.tau, a, b)
                    law = np.zeros(spec.n_states)
                    law[:n] = mass[si % n, ai, bi, :n]
                    law[lost * n:(lost + 1) * n] = mass[si % n, ai, bi, n:]
                    ref = dense_law(spec, s, a, b)
                    assert np.abs(law - ref).max() <= 1e-12
                    assert abs(expected[si, ai, bi] - ref @ v) <= 1e-12 * (1 + np.abs(v).max())
