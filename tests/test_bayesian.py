import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import normal_form_reference as nf
import per_tuple_reference as ref
from jamgame import equilibria
from jamgame.bayesian import (
    BayesianSpec,
    TypeStrategy,
    bayes_deviation_gap,
    bayesian_from_game,
    solve_bayesian,
    write_type_strategy_csv,
)
from jamgame.channel import ChannelSpec
from jamgame.estimation import SystemModel
from jamgame.equilibria import CERT_TOL, VALUE_TOL, zero_sum_value, StageGame
from jamgame.game import GameSpec
from jamgame.nashq import shapley_value_iteration
from jamgame.structure import gain_averaged_values
from normal_form_reference import expand_matrix
from solver_probes import bits
from spec_strategies import game_specs


def paper_game(**kw):
    args = dict(
        actions_attacker=(1.0, 6.0),
        actions_sensor=(2.0, 5.0),
        alpha_s=1.0,
        alpha_a=1.0,
        beta=0.75,
        tau_max=4,
        channel=ChannelSpec(gains=(0.6, 0.8), kernel=[[0.5, 0.5], [0.5, 0.5]],
                            sigma2=0.5, alpha=1.0),
        model=SystemModel(A=[[1.2]], C=[[0.7]], Q=[[0.8]], R=[[0.8]], Pi0=[[0.8]]),
    )
    args.update(kw)
    return GameSpec(**args)


def single_type_game():
    return paper_game(channel=ChannelSpec(gains=(0.7,), kernel=[[1.0]], sigma2=0.5))


def lookahead_spec(game=None, m=0):
    game = game or paper_game()
    oracle = shapley_value_iteration(game)
    v1 = np.array([p.value_p1 for p in oracle.policies])
    values = gain_averaged_values(game, v1)
    return bayesian_from_game(game, holding_time=m, payoff_mode="lookahead",
                              holding_values=values)


class TestSpecConstruction:
    def test_stage_mode_payoff_ignores_gains(self):
        spec = bayesian_from_game(paper_game(), holding_time=1)
        # payoff[attacker type, sensor type, a, b]: (g_s, g_a) = (0.6, 0.8), then swapped
        a = spec.payoff[1, 0, 0, 0]
        b = spec.payoff[0, 1, 0, 0]
        assert a == b

    def test_lookahead_payoff_depends_on_gains(self):
        spec = lookahead_spec()
        a = spec.payoff[1, 0, 1, 0]
        b = spec.payoff[0, 1, 1, 0]
        assert a != b

    def test_lookahead_requires_values(self):
        with pytest.raises(ValueError, match="holding_values"):
            bayesian_from_game(paper_game(), holding_time=0, payoff_mode="lookahead")

    def test_kernel_belief_equals_stationary_for_identical_rows(self):
        game = paper_game()
        a = bayesian_from_game(game, 0, belief_mode="stationary")
        b = bayesian_from_game(game, 0, belief_mode="kernel")
        assert np.allclose(a.belief, b.belief, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(game=game_specs())
    def test_stationary_belief_is_the_product_law(self, game):
        """The kernel belief of the chain whose every row is mu is mu x mu, bit for bit."""
        belief = bayesian_from_game(game, 0, belief_mode="stationary").belief
        assert np.array_equal(bits(belief), bits(np.outer(game.mu, game.mu)))

    def test_kernel_belief_differs_otherwise(self):
        game = paper_game(channel=ChannelSpec(gains=(0.6, 0.8),
                                              kernel=[[0.9, 0.1], [0.2, 0.8]],
                                              sigma2=0.5))
        a = bayesian_from_game(game, 0, belief_mode="stationary")
        b = bayesian_from_game(game, 0, belief_mode="kernel")
        assert not np.allclose(a.belief, b.belief)
        assert b.belief.sum() == pytest.approx(1.0, abs=1e-12)

    def test_size_guard(self):
        # 2^7 = 128 type-contingent strategies per player, past the
        # 64 that the normal-form expansion was capped at.
        gains = tuple(0.1 * k for k in range(1, 8))
        kernel = np.full((7, 7), 1.0 / 7)
        game = paper_game(channel=ChannelSpec(gains=gains, kernel=kernel, sigma2=0.5))
        res = solve_bayesian(bayesian_from_game(game, 0))
        assert res.attacker.probs.shape == (7, 2)
        assert res.deviation_gap <= CERT_TOL

    def test_non_finite_belief_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BayesianSpec(actions_attacker=(1.0, 6.0), actions_sensor=(2.0, 5.0),
                         types=(0.6, 0.8), belief=np.full((2, 2), np.nan),
                         payoff=np.full((2, 2, 2, 2), 3.0))


class TestExpandMatrix:
    def test_two_types_two_actions_gives_4x4(self):
        spec = bayesian_from_game(paper_game(), holding_time=0)
        game = expand_matrix(spec)
        assert game.shape == (4, 4)
        assert game.zero_sum

    def test_single_type_reproduces_base_matrix(self):
        base = single_type_game()
        spec = bayesian_from_game(base, holding_time=2)
        game = expand_matrix(spec)
        assert game.shape == (2, 2)
        from scalar_law_reference import reward_attacker
        for ai, a in enumerate(base.actions_attacker):
            for bi, b in enumerate(base.actions_sensor):
                assert game.payoff_p1[ai, bi] == pytest.approx(
                    reward_attacker(base, 2, a, b), abs=1e-12)

    def test_degenerate_belief_collapses_rows(self):
        base = paper_game()
        spec0 = bayesian_from_game(base, holding_time=0, payoff_mode="lookahead",
                                   holding_values=np.linspace(1, 3, base.tau_max + 1))
        # mass concentrated on the (hi, hi) type pair, marginals kept positive
        belief = np.array([[1e-13, 1e-13], [1e-13, 1.0 - 3e-13]])
        conc = BayesianSpec(
            actions_attacker=spec0.actions_attacker,
            actions_sensor=spec0.actions_sensor,
            types=spec0.types,
            belief=belief,
            payoff=spec0.payoff,
        )
        game = expand_matrix(conc)
        # rows enumerate (f(lo), f(hi)); only f(hi) matters now, so rows
        # 0=(0,0) and 2=(1,0) are near-duplicates, as are 1 and 3
        assert np.allclose(game.payoff_p1[0], game.payoff_p1[2], atol=1e-8)
        assert np.allclose(game.payoff_p1[1], game.payoff_p1[3], atol=1e-8)

    def test_expected_payoff_matches_bilinear_form(self):
        spec = lookahead_spec()
        res = solve_bayesian(spec)
        # type-strategy expected payoff must reproduce the LP value
        total = 0.0
        for ti, ta in enumerate(spec.types):
            for tj, ts in enumerate(spec.types):
                w = spec.belief[ti, tj]
                for ai, a in enumerate(spec.actions_attacker):
                    for bi, b in enumerate(spec.actions_sensor):
                        total += (w * res.attacker.probs[ti, ai] * res.sensor.probs[tj, bi]
                                  * spec.payoff[ti, tj, ai, bi])
        assert total == pytest.approx(res.value_attacker, abs=1e-9)


class TestSolveBayesian:
    def test_single_type_equals_complete_information(self):
        base = single_type_game()
        spec = bayesian_from_game(base, holding_time=1)
        res = solve_bayesian(spec)
        from scalar_law_reference import reward_attacker
        matrix = np.array([[reward_attacker(base, 1, a, b)
                            for b in base.actions_sensor]
                           for a in base.actions_attacker])
        complete = zero_sum_value(StageGame(payoff_p1=matrix, payoff_p2=-matrix))
        assert res.value_attacker == pytest.approx(complete.value_p1, abs=1e-9)
        assert np.allclose(res.attacker.probs[0], complete.strat_p1.probs, atol=1e-9)
        _assert_matches_reference(spec)

    def test_paper_shape_with_lookahead_payoffs(self):
        res = solve_bayesian(lookahead_spec())
        assert res.attacker.probs.shape == (2, 2)
        assert res.sensor.probs.shape == (2, 2)
        assert res.deviation_gap <= 1e-8

    def test_symmetric_spec_has_permutation_symmetric_matrix(self):
        # A payoff invariant under swapping both type values at once:
        # permuting each player's type-contingent strategies accordingly
        # must leave the expanded matrix fixed.
        spec = bayesian_from_game(paper_game(), holding_time=0)

        def sym_payoff(m, a, b, g_s, g_a):
            return (2.0 * a - 3.0 * b) * (1.5 if g_s == g_a else 0.5)

        sym = BayesianSpec(
            actions_attacker=spec.actions_attacker,
            actions_sensor=spec.actions_sensor,
            types=spec.types,
            belief=spec.belief,
            payoff=ref.payoff_array(spec.types, spec.actions_attacker, spec.actions_sensor,
                                    sym_payoff),
        )
        game = expand_matrix(sym)
        # swapping types permutes pure strategies (f0,f1) -> (f1,f0):
        # rows/cols 0,1,2,3 map to 0,2,1,3
        perm = [0, 2, 1, 3]
        swapped = game.payoff_p1[np.ix_(perm, perm)]
        assert np.allclose(swapped, game.payoff_p1, atol=1e-12)
        _assert_matches_reference(sym)

    def test_gap_certified_on_monotone_profile(self, monotone_config):
        game = monotone_config.game
        oracle = shapley_value_iteration(game)
        v1 = np.array([p.value_p1 for p in oracle.policies])
        spec = bayesian_from_game(game, holding_time=monotone_config.bayes_holding_time,
                                  payoff_mode="lookahead",
                                  holding_values=gain_averaged_values(game, v1))
        res = solve_bayesian(spec)
        assert res.deviation_gap <= 1e-8


class TestDeviationGap:
    def test_solver_output_certifies(self):
        res = solve_bayesian(lookahead_spec())
        spec = lookahead_spec()
        gap = bayes_deviation_gap(spec, res.attacker, res.sensor)
        assert gap <= 1e-8

    def test_type_blind_strategy_in_type_sensitive_game(self):
        # Payoffs differ sharply by own type; ignoring the type leaves a
        # strictly profitable deviation for at least one type.
        def payoff(m, a, b, g_s, g_a):
            return a * (1.0 if g_a > 0.7 else -1.0)

        spec = BayesianSpec(
            actions_attacker=(1.0, 6.0),
            actions_sensor=(2.0, 5.0),
            types=(0.6, 0.8),
            belief=np.full((2, 2), 0.25),
            payoff=ref.payoff_array((0.6, 0.8), (1.0, 6.0), (2.0, 5.0), payoff),
        )
        blind = TypeStrategy(np.tile([0.5, 0.5], (2, 1)))
        gap = bayes_deviation_gap(spec, blind, blind)
        # type 0.6 wants action 1 (payoff -a), type 0.8 wants 6 (payoff +a):
        # the blind mix loses 2.5 per type against the best response
        assert gap == pytest.approx(2.5, abs=1e-12)

    def test_non_finite_strategy_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TypeStrategy(np.full((2, 2), np.nan))

    def test_constant_payoffs_any_strategy_is_equilibrium(self):
        spec = BayesianSpec(
            actions_attacker=(1.0, 6.0),
            actions_sensor=(2.0, 5.0),
            types=(0.6, 0.8),
            belief=np.full((2, 2), 0.25),
            payoff=np.full((2, 2, 2, 2), 3.0),
        )
        s = TypeStrategy(np.tile([0.3, 0.7], (2, 1)))
        assert bayes_deviation_gap(spec, s, s) == 0.0


def _assert_matches_reference(spec):
    res = solve_bayesian(spec)
    want = nf.solve_bayesian(spec)
    assert res.deviation_gap <= CERT_TOL
    assert want.deviation_gap <= CERT_TOL
    assert res.value_attacker == pytest.approx(want.value_attacker, abs=VALUE_TOL)


def random_specs(rng, n, types, actions):
    """``n`` specs with type and action counts drawn from the inclusive
    ranges ``types`` and ``actions``.

    Every third payoff is rounded to integers so ties and several optimal
    strategies come up; every fourth belief has zero entries off the
    diagonal, so its marginals stay positive.
    """
    specs = []
    for i in range(n):
        k = int(rng.integers(types[0], types[1] + 1))
        na, nb = (int(v) for v in rng.integers(actions[0], actions[1] + 1, size=2))
        payoff = 5.0 * rng.normal(size=(k, k, na, nb))
        if i % 3 == 0:
            payoff = np.round(payoff)
        belief = rng.random((k, k)) + 0.05
        if i % 4 == 0:
            belief[(rng.random((k, k)) < 0.5) & ~np.eye(k, dtype=bool)] = 0.0
        specs.append(BayesianSpec(
            actions_attacker=tuple(range(1, na + 1)),
            actions_sensor=tuple(range(1, nb + 1)),
            types=tuple(0.1 * (t + 1) for t in range(k)),
            belief=belief / belief.sum(),
            payoff=payoff,
        ))
    return specs


class TestPerTypeLp:
    def test_one_linprog_call_per_game(self, monkeypatch):
        spec = lookahead_spec()
        calls = []

        def counting_linprog(*args, **kwargs):
            calls.append(args)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(equilibria, "linprog", counting_linprog)
        solve_bayesian(spec)
        assert len(calls) == 1

    def test_matches_normal_form_reference(self):
        specs = random_specs(np.random.default_rng(8), 200, types=(1, 3), actions=(1, 4))
        assert any(np.any(s.belief == 0.0) for s in specs)
        for spec in specs:
            _assert_matches_reference(spec)

    def test_small_type_marginals(self):
        base = paper_game()
        spec = bayesian_from_game(base, holding_time=0, payoff_mode="lookahead",
                                  holding_values=np.linspace(1, 3, base.tau_max + 1))
        for eps in (1e-3, 1e-6, 1e-9):
            belief = np.array([[eps, eps], [eps, 1.0 - 3 * eps]])
            _assert_matches_reference(BayesianSpec(
                actions_attacker=spec.actions_attacker, actions_sensor=spec.actions_sensor,
                types=spec.types, belief=belief, payoff=spec.payoff))

    @pytest.mark.xfail(strict=True, raises=RuntimeError, reason=(
        "a type marginal below about 1e-10 moves the per-type LP objective by less than "
        "HiGHS's dual feasibility tolerance, so that type gets an arbitrary mix and "
        "fails its conditional certificate; the normal-form reference certifies"))
    @pytest.mark.parametrize("eps", [1e-11, 1e-13])
    def test_tiny_type_marginals(self, eps):
        base = paper_game()
        spec = bayesian_from_game(base, holding_time=0, payoff_mode="lookahead",
                                  holding_values=np.linspace(1, 3, base.tau_max + 1))
        belief = np.array([[eps, eps], [eps, 1.0 - 3 * eps]])
        _assert_matches_reference(BayesianSpec(
            actions_attacker=spec.actions_attacker, actions_sensor=spec.actions_sensor,
            types=spec.types, belief=belief, payoff=spec.payoff))

    def test_beyond_the_normal_form_cap(self):
        # 6^8 type-contingent strategies per player: no normal form fits.
        for spec in random_specs(np.random.default_rng(9), 6, types=(8, 8), actions=(6, 6)):
            res = solve_bayesian(spec)
            assert res.attacker.probs.shape == res.sensor.probs.shape == (8, 6)
            assert res.deviation_gap <= CERT_TOL


class TestCsvEmission:
    def test_layout(self, tmp_path):
        spec = lookahead_spec()
        res = solve_bayesian(spec)
        path = tmp_path / "attacker.csv"
        write_type_strategy_csv(spec, res.attacker, "attacker", path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "action,type=0.6,type=0.8"
        assert len(rows) == 3
        assert rows[1].split(",")[0] == "1"


class TestPayoffArray:
    def test_shape_checked(self):
        spec = bayesian_from_game(paper_game(), holding_time=0)
        with pytest.raises(ValueError, match="shape"):
            BayesianSpec(actions_attacker=spec.actions_attacker,
                         actions_sensor=spec.actions_sensor, types=spec.types,
                         belief=spec.belief, payoff=spec.payoff[:, :, :1])

    def test_non_finite_rejected(self):
        payoff = np.full((2, 2, 2, 2), 3.0)
        payoff[1, 0, 1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            BayesianSpec(actions_attacker=(1.0, 6.0), actions_sensor=(2.0, 5.0),
                         types=(0.6, 0.8), belief=np.full((2, 2), 0.25), payoff=payoff)


def _assert_matches_per_tuple_loops(game, m, belief_mode, payoff_mode, values, rng):
    spec = bayesian_from_game(game, holding_time=m, belief_mode=belief_mode,
                              payoff_mode=payoff_mode, holding_values=values)
    payoff = ref.payoff_function(game, payoff_mode, values)
    want = ref.payoff_array(spec.types, spec.actions_attacker, spec.actions_sensor, payoff, m)
    assert spec.payoff.tobytes() == want.tobytes()
    if nf.n_pure_strategies(spec) <= 64:
        assert expand_matrix(spec).payoff_p1.tobytes() == ref.expand_matrix(spec, payoff, m).tobytes()
    k = len(spec.types)
    na, nb = len(spec.actions_attacker), len(spec.actions_sensor)
    for x, y in (
        (rng.dirichlet(np.ones(na), k), rng.dirichlet(np.ones(nb), k)),
        (np.eye(na)[rng.integers(na, size=k)], np.eye(nb)[rng.integers(nb, size=k)]),
    ):
        s_a, s_s = TypeStrategy(x), TypeStrategy(y)
        got = bayes_deviation_gap(spec, s_a, s_s)
        assert repr(got) == repr(ref.bayes_deviation_gap(spec, payoff, m, s_a, s_s))


class TestMatchesPerTupleLoops:
    """The array code reproduces the per-tuple callable expansion bit for bit."""

    @pytest.mark.parametrize("profile", ["default", "monotone"])
    def test_shipped_profiles(self, profile, default_config, monotone_config):
        cfg = default_config if profile == "default" else monotone_config
        game = cfg.game
        oracle = shapley_value_iteration(game)
        values = gain_averaged_values(game, np.array([p.value_p1 for p in oracle.policies]))
        rng = np.random.default_rng(3)
        for m in range(game.tau_max + 1):
            for belief_mode in ("stationary", "kernel"):
                for payoff_mode in ("stage", "lookahead"):
                    _assert_matches_per_tuple_loops(game, m, belief_mode, payoff_mode, values, rng)

    def test_zero_belief_entries_skipped(self):
        # Kernel beliefs put no mass on the (0.8, 0.8) type pair here.
        game = paper_game(channel=ChannelSpec(gains=(0.6, 0.8), kernel=[[0.5, 0.5], [1.0, 0.0]],
                                              sigma2=0.5))
        values = np.linspace(1.0, 3.0, game.tau_max + 1)
        rng = np.random.default_rng(4)
        for m in range(game.tau_max + 1):
            for payoff_mode in ("stage", "lookahead"):
                _assert_matches_per_tuple_loops(game, m, "kernel", payoff_mode, values, rng)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(game=game_specs(), data=st.data())
    def test_random_games(self, game, data):
        m = data.draw(st.integers(0, game.tau_max))
        values = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=game.tau_max + 1,
                                             max_size=game.tau_max + 1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for belief_mode in ("stationary", "kernel"):
            for payoff_mode in ("stage", "lookahead"):
                _assert_matches_per_tuple_loops(game, m, belief_mode, payoff_mode, values, rng)
