import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import numpy_reference
import two_lp_reference

from jamgame import equilibria
from jamgame.equilibria import (
    CERT_TOL,
    VALUE_TOL,
    MixedStrategy,
    PivotLimitError,
    StageGame,
    _closed_form,
    deviation_gap,
    lemke_howson,
    _zero_sum_strategies,
    read_stage_game,
    solve_stage,
    solve_zero_sum,
    support_enumeration,
    zero_sum_value,
)

MATCHING_PENNIES = StageGame(payoff_p1=[[1, -1], [-1, 1]], payoff_p2=[[-1, 1], [1, -1]])
BATTLE = StageGame(payoff_p1=[[2, 0], [0, 1]], payoff_p2=[[1, 0], [0, 2]])
# Sensor-vs-attacker 2x2 with constant row/column differences, hence a
# unique pure equilibrium at (row 1, col 1).
DOMINANCE = StageGame(
    payoff_p1=[[-1.9906, -4.9245], [3.0094, 0.0755]],
    payoff_p2=[[1.9906, 4.9245], [-3.0094, -0.0755]],
)


def zero_sum(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return StageGame(payoff_p1=matrix, payoff_p2=-matrix)


class TestStageGame:
    def test_zero_sum_flag(self):
        assert MATCHING_PENNIES.zero_sum
        assert not BATTLE.zero_sum

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StageGame(payoff_p1=np.zeros((2, 2)), payoff_p2=np.zeros((2, 3)))

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            MixedStrategy([0.5, 0.6])


class TestDeviationGap:
    def test_equilibrium_has_zero_gap(self):
        res = zero_sum_value(MATCHING_PENNIES)
        assert deviation_gap(MATCHING_PENNIES, res.strat_p1, res.strat_p2) <= CERT_TOL

    def test_exploitable_profile_measured(self):
        # Row player pins the first row; the column player's best response
        # nets 1 instead of the 0 it gets from mixing.
        gap = deviation_gap(MATCHING_PENNIES, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_constant_game_any_profile_is_equilibrium(self):
        g = StageGame(payoff_p1=np.full((3, 3), 2.0), payoff_p2=np.full((3, 3), -2.0))
        gap = deviation_gap(g, np.full(3, 1 / 3), np.full(3, 1 / 3))
        assert gap == 0.0


class TestLemkeHowson:
    def test_matching_pennies_uniform(self):
        res = lemke_howson(MATCHING_PENNIES)
        assert np.allclose(res.strat_p1.probs, [0.5, 0.5], atol=1e-9)
        assert np.allclose(res.strat_p2.probs, [0.5, 0.5], atol=1e-9)
        assert res.value_p1 == pytest.approx(0.0, abs=1e-9)

    def test_strict_dominance_pure_point(self):
        res = lemke_howson(DOMINANCE)
        assert np.allclose(res.strat_p1.probs, [0, 1], atol=1e-9)
        assert np.allclose(res.strat_p2.probs, [0, 1], atol=1e-9)
        assert res.deviation_gap <= CERT_TOL

    def test_prisoners_dilemma_style(self):
        g = StageGame(payoff_p1=[[3, 0], [5, 1]], payoff_p2=[[3, 5], [0, 1]])
        res = lemke_howson(g)
        assert np.allclose(res.strat_p1.probs, [0, 1], atol=1e-9)
        assert np.allclose(res.strat_p2.probs, [0, 1], atol=1e-9)

    def test_all_labels_give_certified_results(self):
        for label in range(4):
            res = lemke_howson(BATTLE, initial_label=label)
            assert res.deviation_gap <= CERT_TOL

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            lemke_howson(BATTLE, initial_label=7)

    def test_shift_invariance_of_supports(self):
        res = lemke_howson(BATTLE)
        shifted = StageGame(payoff_p1=BATTLE.payoff_p1 + 17.5, payoff_p2=BATTLE.payoff_p2)
        res2 = lemke_howson(shifted)
        assert np.allclose(res.strat_p1.probs, res2.strat_p1.probs, atol=1e-9)
        assert res2.value_p1 == pytest.approx(res.value_p1 + 17.5, abs=1e-8)

    def test_rectangular_game(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(3, 5))
        res = lemke_howson(StageGame(payoff_p1=a, payoff_p2=b))
        assert res.deviation_gap <= CERT_TOL


class TestZeroSumValue:
    def test_one_by_one(self):
        res = zero_sum_value(zero_sum([[1.0]]))
        assert res.value_p1 == pytest.approx(1.0)
        assert res.strat_p1.probs[0] == 1.0

    def test_matching_pennies_value(self):
        res = zero_sum_value(MATCHING_PENNIES)
        assert res.value_p1 == pytest.approx(0.0, abs=1e-9)
        assert res.value_p2 == pytest.approx(-res.value_p1, abs=1e-9)

    def test_rejects_general_sum(self):
        with pytest.raises(ValueError):
            zero_sum_value(BATTLE)

    def test_random_games_match_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = rng.integers(2, 5)
            n = rng.integers(2, 5)
            game = zero_sum(rng.normal(size=(m, n)))
            lp = zero_sum_value(game)
            eqs = support_enumeration(game)
            assert eqs, "oracle found no equilibrium"
            # All equilibria of a zero-sum game share one value.
            for eq in eqs:
                assert lp.value_p1 == pytest.approx(eq.value_p1, abs=VALUE_TOL)

    def test_one_linprog_call_per_game(self, monkeypatch):
        calls = []

        def counting_linprog(*args, **kwargs):
            calls.append(args)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(equilibria, "linprog", counting_linprog)
        zero_sum_value(zero_sum([[3.0, -1.0, 0.5], [-2.0, 4.0, 1.0]]))
        assert len(calls) == 1

    def test_matches_two_lp_reference(self):
        # A strategy may differ from the reference only where the game has
        # more than one optimal strategy; both results certify, so any such
        # difference is between two optimal strategies. Unrounded games
        # have a unique equilibrium, and there the two solves agree.
        for a, rounded in two_lp_games():
            game = zero_sum(a)
            ours = zero_sum_value(game)
            ref = two_lp_reference.zero_sum_value(game)
            assert ours.deviation_gap <= CERT_TOL
            assert ref.deviation_gap <= CERT_TOL
            assert ours.value_p1 == pytest.approx(ref.value_p1, abs=VALUE_TOL)
            if not rounded:
                for got, want in ((ours.strat_p1, ref.strat_p1), (ours.strat_p2, ref.strat_p2)):
                    assert np.abs(got.probs - want.probs).max() <= 1e-12


def two_lp_games():
    """Derandomized zero-sum games with a flag for integer rounding.

    240 games from 1x1 to 8x8, every third rounded to integers so ties and
    several optimal strategies come up, then three unrounded 64x64 games.
    """
    rng = np.random.default_rng(2024)
    games = []
    for i in range(240):
        a = 5.0 * rng.normal(size=tuple(rng.integers(1, 9, size=2)))
        games.append((np.round(a), True) if i % 3 == 0 else (a, False))
    games += [(rng.normal(size=(64, 64)), False) for _ in range(3)]
    return games


@st.composite
def payoff_rows(draw):
    """A 1-4 x 1-4 payoff matrix as rows of floats, 2x2 about half the time;
    some entries rounded to integers so saddle points and ties come up often."""
    m, n = draw(st.one_of(st.just((2, 2)), st.tuples(st.integers(1, 4), st.integers(1, 4))))
    vals = draw(st.lists(st.floats(-10, 10, allow_subnormal=False),
                         min_size=m * n, max_size=m * n))
    rounded = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    vals = [float(round(v)) if r else v for v, r in zip(vals, rounded)]
    return [vals[i * n:(i + 1) * n] for i in range(m)]


class TestFastStageSolver:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(payoff_rows())
    def test_scalar_closed_form_matches_numpy_formula(self, rows):
        ours = _closed_form(rows)
        ref = numpy_reference.closed_form(np.array(rows))
        if ref is None:
            assert ours is None
        else:
            assert ours is not None
            for got, want in zip(ours, ref):
                assert np.array(got).tobytes() == want.tobytes()
        assert solve_zero_sum(zero_sum(rows)).deviation_gap <= CERT_TOL

    def test_agrees_with_lp_on_random_2x2(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            m = rng.normal(size=(2, 2))
            if rng.random() < 0.3:
                m = np.round(m)  # force ties / saddle points
            x, y = _zero_sum_strategies(m.tolist())
            game = zero_sum(m)
            lp = zero_sum_value(game)
            assert deviation_gap(game, x, y) <= 1e-9
            assert float(x @ m @ y) == pytest.approx(lp.value_p1, abs=1e-9)

    def test_pure_saddle_scan_on_larger_matrices(self):
        m = [[5.0, 4.0, 6.0], [2.0, 1.0, 3.0]]
        # row 0 / column 1 is a saddle: min of row 0, max of column 1
        x, y = _zero_sum_strategies(m)
        assert x == [1.0, 0.0]
        assert y == [0.0, 1.0, 0.0]


class TestSolveZeroSum:
    def test_random_games_certified_and_match_lp(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            m = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))
            if rng.random() < 0.4:
                m = np.round(m)  # force ties and saddle points
            game = zero_sum(m)
            res = solve_zero_sum(game)
            assert res.deviation_gap <= CERT_TOL
            assert deviation_gap(game, res.strat_p1, res.strat_p2) == res.deviation_gap
            assert res.value_p1 == pytest.approx(zero_sum_value(game).value_p1, abs=VALUE_TOL)
            assert res.value_p2 == -res.value_p1

    def test_rejects_general_sum(self):
        with pytest.raises(ValueError):
            solve_zero_sum(BATTLE)

    def test_dispatcher_routes_zero_sum_games_here(self):
        game = zero_sum([[5.0, 4.0, 6.0], [2.0, 1.0, 3.0]])
        res = solve_stage(game)
        assert res.strat_p1.probs.tolist() == [1.0, 0.0]
        assert res.strat_p2.probs.tolist() == [0.0, 1.0, 0.0]
        assert res.value_p1 == 4.0


class TestSupportEnumeration:
    def test_matching_pennies_unique(self):
        eqs = support_enumeration(MATCHING_PENNIES)
        assert len(eqs) == 1

    def test_battle_of_the_sexes_three_equilibria(self):
        eqs = support_enumeration(BATTLE)
        assert len(eqs) == 3
        mixed = [e for e in eqs if 0 < e.strat_p1.probs[0] < 1]
        assert len(mixed) == 1
        assert np.allclose(mixed[0].strat_p1.probs, [2 / 3, 1 / 3], atol=1e-9)
        assert np.allclose(mixed[0].strat_p2.probs, [1 / 3, 2 / 3], atol=1e-9)

    def test_dominance_solvable_single_point(self):
        eqs = support_enumeration(DOMINANCE)
        assert len(eqs) == 1
        assert np.allclose(eqs[0].strat_p1.probs, [0, 1], atol=1e-9)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            support_enumeration(zero_sum(np.zeros((6, 6))))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=8, max_size=8))
    def test_every_2x2_game_has_an_equilibrium(self, vals):
        a = np.array(vals[:4]).reshape(2, 2)
        b = np.array(vals[4:]).reshape(2, 2)
        eqs = support_enumeration(StageGame(payoff_p1=a, payoff_p2=b))
        assert eqs
        for eq in eqs:
            assert eq.deviation_gap <= CERT_TOL


class TestSolversAgree:
    def test_lemke_howson_matches_lp_value_on_zero_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            game = zero_sum(rng.normal(size=(rng.integers(2, 5), rng.integers(2, 5))))
            lp = zero_sum_value(game)
            try:
                lh = lemke_howson(game)
            except PivotLimitError:
                continue
            assert lh.value_p1 == pytest.approx(lp.value_p1, abs=VALUE_TOL)

    def test_dispatcher_certifies_everything(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            res = solve_stage(StageGame(payoff_p1=a, payoff_p2=b))
            assert res.deviation_gap <= CERT_TOL

    def test_constant_shift_moves_value_only(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(3, 3))
        game = zero_sum(a)
        base = zero_sum_value(game)
        shifted = StageGame(payoff_p1=a + 3.25, payoff_p2=-a)
        res = lemke_howson(shifted)
        assert res.value_p1 == pytest.approx(base.value_p1 + 3.25, abs=1e-6)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "game.txt"
        path.write_text("1 -1\n-1 1\n\n-1 1\n1 -1\n")
        game = read_stage_game(path)
        assert game.zero_sum
        assert game.shape == (2, 2)

    def test_single_block_is_zero_sum(self, tmp_path):
        path = tmp_path / "game.txt"
        path.write_text("2 0\n1 3\n")
        game = read_stage_game(path)
        assert game.zero_sum

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "game.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ValueError):
            read_stage_game(path)
