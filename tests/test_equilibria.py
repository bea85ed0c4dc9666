import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import lemke_howson_reference
import lp_route_reference
import numpy_reference
import single_game_reference
import two_lp_reference
from single_game_reference import closed_form, solve_zero_sum, zero_sum_strategies
from solver_probes import bits, count_lp_calls

from jamgame import equilibria
from jamgame.equilibria import (
    CERT_TOL,
    VALUE_TOL,
    MixedStrategy,
    PivotLimitError,
    StageGame,
    _bilinear,
    _closed_forms,
    _result,
    _saddle,
    _saddle_kept,
    deviation_gap,
    lemke_howson,
    read_stage_game,
    solve_stage,
    stage_policies,
    stage_values,
    support_enumeration,
    zero_sum_value,
)

# Payoff entries from a few tied values, signed zeros among them, or any float.
TIED_OR_ANY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                        st.floats(-10, 10, allow_subnormal=False))

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

    def test_non_finite_strategy_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MixedStrategy([np.nan, np.nan])


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
        # At most one: none where the square-support search proves the
        # equilibrium unique, exactly one where it cannot.
        calls = []

        def counting_linprog(*args, **kwargs):
            calls.append(args)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(equilibria, "linprog", counting_linprog)
        zero_sum_value(zero_sum([[3.0, -1.0, 0.5], [-2.0, 4.0, 1.0]]))
        assert len(calls) == 0
        zero_sum_value(zero_sum([[1.0, 1.0], [1.0, 1.0]]))  # every pair is optimal
        assert len(calls) == 1
        zero_sum_value(zero_sum(np.random.default_rng(3).normal(size=(6, 6))))  # above the cap
        assert len(calls) == 2

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
        ours = closed_form(rows)
        ref = numpy_reference.closed_form(np.array(rows))
        if ref is None:
            assert ours is None
        else:
            assert ours is not None
            for got, want in zip(ours, ref):
                assert np.array(got).tobytes() == want.tobytes()
        assert stage_policies(np.array([rows]))[0].deviation_gap <= CERT_TOL

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_saddle_scan_matches_closed_forms_and_value(self, m, n, data):
        rows = [[data.draw(TIED_OR_ANY) for _ in range(n)] for _ in range(m)]
        ij = _saddle(list(map(min, rows)), list(map(max, zip(*rows))))
        sol = closed_form(rows)
        x, y, closed = _closed_forms(np.array([rows]))
        assert closed[0] == (sol is not None)
        if sol is not None:
            assert np.array_equal(bits(x[0]), bits(sol[0]))
            assert np.array_equal(bits(y[0]), bits(sol[1]))
        if ij is None:
            return
        i, j = ij
        assert sol[0].index(1.0) == i and sol[1].index(1.0) == j
        want = numpy_reference.closed_form(np.array(rows))
        assert (int(np.argmax(want[0])), int(np.argmax(want[1]))) == ij
        assert np.array_equal(bits([0.0 + rows[i][j]]), bits([_bilinear(sol[0], rows, sol[1])]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_kept_saddle_matches_a_fresh_scan(self, m, n, data):
        rows = [[data.draw(TIED_OR_ANY) for _ in range(n)] for _ in range(m)]
        cols = [list(col) for col in zip(*rows)]
        row_min, col_max = list(map(min, rows)), list(map(max, cols))
        ij = _saddle(row_min, col_max)
        assume(ij is not None)
        i, j = ij
        v = 0.0 + rows[i][j]
        # One cell takes a new value, often one the table already holds.
        ai, bi = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
        x = data.draw(st.one_of(TIED_OR_ANY, st.sampled_from(sum(rows, []))))
        rows[ai][bi] = cols[bi][ai] = x
        # The learner's refresh: one row minimum and one column maximum.
        row_min[ai] = min(rows[ai])
        col_max[bi] = max(cols[bi])
        fresh_min, fresh_max = list(map(min, rows)), list(map(max, zip(*rows)))
        assert np.array_equal(bits(row_min), bits(fresh_min))
        assert np.array_equal(bits(col_max), bits(fresh_max))
        # Exact: kept when, and only when, the scan still finds (i, j) and
        # the stage value keeps its bits.
        still = (_saddle(fresh_min, fresh_max) == ij
                 and np.array_equal(bits([0.0 + rows[i][j]]), bits([v])))
        assert _saddle_kept(row_min, col_max, ij, v, ai, bi) == still

    def test_agrees_with_lp_on_random_2x2(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            m = rng.normal(size=(2, 2))
            if rng.random() < 0.3:
                m = np.round(m)  # force ties / saddle points
            rows = m.tolist()
            x, y = zero_sum_strategies(rows)
            game = zero_sum(m)
            lp = zero_sum_value(game)
            assert deviation_gap(game, x, y) <= 1e-9
            assert float(x @ m @ y) == pytest.approx(lp.value_p1, abs=1e-9)

    def test_pure_saddle_scan_on_larger_matrices(self):
        m = [[5.0, 4.0, 6.0], [2.0, 1.0, 3.0]]
        # row 0 / column 1 is a saddle: min of row 0, max of column 1
        x, y = zero_sum_strategies(m)
        assert x == [1.0, 0.0]
        assert y == [0.0, 1.0, 0.0]


class TestSolveZeroSum:
    def test_random_games_certified_and_match_lp(self):
        rng = np.random.default_rng(41)
        games = []
        for _ in range(400):
            m = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))
            if rng.random() < 0.4:
                m = np.round(m)  # force ties and saddle points
            games.append(m)
        for shape in sorted({m.shape for m in games}):
            group = [m for m in games if m.shape == shape]
            for m, res in zip(group, stage_policies(np.array(group))):
                game = zero_sum(m)
                assert res.deviation_gap <= CERT_TOL
                assert deviation_gap(game, res.strat_p1, res.strat_p2) == res.deviation_gap
                assert res.value_p1 == pytest.approx(zero_sum_value(game).value_p1, abs=VALUE_TOL)
                assert res.value_p2 == -res.value_p1

    def test_dispatcher_routes_zero_sum_games_here(self):
        game = zero_sum([[5.0, 4.0, 6.0], [2.0, 1.0, 3.0]])
        res = solve_stage(game)
        assert_same_result(res, zero_sum_value(game))
        assert res.strat_p1.probs.tolist() == [1.0, 0.0]
        assert res.strat_p2.probs.tolist() == [0.0, 1.0, 0.0]
        assert res.value_p1 == 4.0


class TestStagePass:
    """``stage_values``/``stage_policies`` on a table of games against the scalar
    routes state by state: both cold, and ``stage_values`` warm (hinted supports)."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(m=st.integers(1, 4), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_routes_bit_for_bit(self, m, n, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(16, m, n))
        q[:6] = np.round(q[:6])  # saddles with tied rows and columns
        want_values = []
        for a in q.tolist():
            x, y = zero_sum_strategies(a)
            want_values.append(_bilinear(x, a, y))
        want_policies = [solve_zero_sum(zero_sum(a)) for a in q]
        with pytest.MonkeyPatch.context() as mp:
            lps = count_lp_calls(mp)
            _, hint = stage_values(q)
            cold = len(lps)
            for warm in (None, hint):
                values, _ = stage_values(q, warm)
                assert np.array_equal(bits(values), bits(want_values))
            for got, want in zip(stage_policies(q), want_policies):
                assert_same_result(got, want)
        # An LP state's own supports certify unless the LP point stood with
        # supports of different sizes; only those reach the LP when warm.
        # The other three calls are cold, each with the first call's LPs.
        unequal = int((hint[0].sum(axis=1) != hint[1].sum(axis=1)).sum())
        assert len(lps) == 3 * cold + unequal

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_table_rejected(self, bad):
        q = np.zeros((3, 2, 2))
        q[1, 0, 1] = bad
        for solve in (stage_values, stage_policies):
            with pytest.raises(ValueError, match="finite"):
                solve(q)

    def test_wrong_hint_falls_back_to_the_lp(self, monkeypatch):
        # Rock-paper-scissors has a unique equilibrium, which the search
        # proves without the LP and with the LP route's bits.
        rps = np.array([[[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]])
        pure = (np.array([[True, False, False]]), np.array([[True, False, False]]))
        lps = count_lp_calls(monkeypatch)
        (value,), supports = stage_values(rps, pure)
        assert lps == []
        assert np.array_equal(bits([value]), bits([lp_route_value(rps[0])]))
        assert supports[0].all() and supports[1].all()
        # A repeated row leaves the row player several optimal mixes, so
        # no support pair proves uniqueness and the LP runs.
        tied = np.concatenate([rps, rps[:, :1]], axis=1)
        pure = (np.array([[True, False, False, False]]), pure[1])
        (value,), _ = stage_values(tied, pure)
        assert len(lps) == 1
        assert np.array_equal(bits([value]), bits([lp_route_value(tied[0])]))


def lp_route_value(a):
    """``_bilinear`` of the LP route's strategies on the zero-sum game ``a``:
    the bits ``stage_values`` gives a state the cold route solves."""
    res = lp_route_reference.zero_sum_value(zero_sum(a))
    return _bilinear(res.strat_p1.probs.tolist(), a.tolist(), res.strat_p2.probs.tolist())


@st.composite
def tied_tables(draw):
    """A stack of small integer-payoff stage games and a nearby stack, one
    step of at most 1 per entry away: ties and several optimal strategies
    come up often."""
    k, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = k * m * n
    q = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    step = draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
    q = np.array(q, dtype=float).reshape(k, m, n)
    return q, q + np.array(step, dtype=float).reshape(k, m, n)


# Two identical columns: the cold route mixes the first, a warm support
# taken from the nearby table mixes the second, and both certify.
TIED_COLUMNS = (np.array([[[-1.0, 1.0, 1.0], [1.0, -1.0, -1.0]]]),
                np.array([[[-2.0, 2.0, 1.0], [0.0, 0.0, -2.0]]]))


class TestWarmHintOnTiedOptima:
    """A warm support hint against the cold route on games with several optima."""

    # The warm route keeps a hinted support only when it certifies, and the
    # cold route raises unless it certifies, so both values are certified.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example(TIED_COLUMNS)
    @given(tied_tables())
    def test_both_certify_with_one_value(self, tables):
        q, near = tables
        _, hint = stage_values(near)
        warm, _ = stage_values(q, hint)
        cold, _ = stage_values(q)
        assert np.abs(warm - cold).max() <= VALUE_TOL

    def test_policies_take_the_cold_route(self):
        (got,) = stage_policies(TIED_COLUMNS[0])
        assert_same_result(got, solve_zero_sum(zero_sum(TIED_COLUMNS[0][0])))


class TestSquareSupportSearch:
    """The cold route (search, else LP) against the LP route (``lp_route_reference``)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.integers(1, 5), n=st.integers(1, 5), rounded=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_lp_route_bit_for_bit(self, m, n, rounded, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(6, m, n))
        if rounded:
            q = np.round(q)  # ties and several optimal strategies
        for a in q:
            game = zero_sum(a)
            with pytest.MonkeyPatch.context() as mp:
                lps = count_lp_calls(mp)
                got = zero_sum_value(game)
            assert_same_result(got, lp_route_reference.zero_sum_value(game))
            assert (lps == []) == lp_route_reference.proves_unique(a)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equilibria, "_cold_results", lp_route_reference.lp_results)
            want = stage_policies(q)
        for got, w in zip(stage_policies(q), want):
            assert_same_result(got, w)

    @pytest.mark.parametrize("a", [
        [[1.0, -1.0], [0.0, 1e-8]],  # a row weight of 5e-9
        [[-1.0, 0.0], [1.0, -1e-8]],  # a column weight of 5e-9
        [[1.0, -1.0], [-1.0, 1.0], [-1e-8, -1e-8]],  # an outside row 1e-8 short
        [[1.0, -1.0, 1e-8], [-1.0, 1.0, 1e-8]],  # an outside column 1e-8 short
    ], ids=["row weight", "column weight", "row", "column"])
    def test_unique_within_the_margin_takes_the_lp(self, a, monkeypatch):
        # Each equilibrium is unique, but by less than VALUE_TOL: the
        # search does not count that as proof.
        game = zero_sum(a)
        assert not lp_route_reference.proves_unique(game.payoff_p1)
        lps = count_lp_calls(monkeypatch)
        res = zero_sum_value(game)
        assert len(lps) == 1
        assert_same_result(res, lp_route_reference.zero_sum_value(game))

    def test_search_results_are_not_polished_again(self, monkeypatch):
        # A mixed 2x2, a second mixed 2x2 and a strict pure saddle: the search
        # proves each unique, so the support solve runs only inside it.
        a = np.array([[[1.0, -1.0], [-1.0, 1.0]],
                      [[3.0, 1.0], [0.0, 2.0]],
                      [[2.0, 1.0], [0.0, -1.0]]])
        calls = []
        real = equilibria._support_rows

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(equilibria, "_support_rows", counted)
        assert equilibria._unique_supports(a, -a)[0].all()
        searched = list(calls)
        lps = count_lp_calls(monkeypatch)
        got = equilibria._cold_results(a, -a)
        assert calls == searched + searched and lps == []
        want = lp_route_reference.lp_results(a, -a)
        for g, w in zip(got, want):
            assert (bits(g) == bits(w)).all()


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
    @example(vals=[0.0, 5e-324, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # a singular support system
    def test_every_2x2_game_has_an_equilibrium(self, vals):
        a = np.array(vals[:4]).reshape(2, 2)
        b = np.array(vals[4:]).reshape(2, 2)
        eqs = support_enumeration(StageGame(payoff_p1=a, payoff_p2=b))
        assert eqs
        for eq in eqs:
            assert eq.deviation_gap <= CERT_TOL


def assert_same_result(got, want):
    """Two ``EquilibriumResult``s with the same bits, signed zeros included."""
    assert np.array_equal(bits(got.strat_p1.probs), bits(want.strat_p1.probs))
    assert np.array_equal(bits(got.strat_p2.probs), bits(want.strat_p2.probs))
    assert np.array_equal(bits([got.value_p1, got.value_p2, got.deviation_gap]),
                          bits([want.value_p1, want.value_p2, want.deviation_gap]))


def sparse_mix(rng, k):
    """Random nonnegative weights on ``k`` actions, some zeroed, one kept."""
    w = rng.random(k)
    w[rng.random(k) < 0.3] = 0.0
    w[rng.integers(k)] += 0.5
    return w


class TestStackedKernelsMatchSingleGameRoutes:
    """The one-row calls of the stacked kernels against the single-game routes
    they replaced (``single_game_reference``), bit for bit."""

    def test_certificate_on_general_sum_games(self):
        rng = np.random.default_rng(53)
        for m in range(1, 13):
            for n in range(1, 13):
                for i in range(4):
                    a, b = rng.normal(size=(2, m, n))
                    if i % 2:
                        a, b = np.round(3.0 * a), np.round(3.0 * b)  # tied best responses
                    game = StageGame(payoff_p1=a, payoff_p2=b)
                    x, y = sparse_mix(rng, m), sparse_mix(rng, n)
                    if i == 3:
                        x[rng.integers(m)] -= 1e-13  # clipped by the certificate
                    assert_same_result(_result(game, x, y),
                                       single_game_reference._result(game, x, y))
                    for xs, ys in ((x, y), (x / x.sum(), y / y.sum())):
                        assert np.array_equal(
                            bits(deviation_gap(game, xs, ys)),
                            bits(single_game_reference.deviation_gap(game, xs, ys)))

    def test_enumeration_on_small_games(self, monkeypatch):
        singular = []
        real = equilibria._indifference

        def counted(sub):
            try:
                return real(sub)
            except np.linalg.LinAlgError:
                singular.append(sub.shape)
                raise

        monkeypatch.setattr(equilibria, "_indifference", counted)
        rng = np.random.default_rng(59)
        games = [
            StageGame(payoff_p1=np.full((3, 3), 2.0), payoff_p2=np.full((3, 3), -1.0)),
            StageGame(payoff_p1=[[1, 1, 0], [1, 1, 0]], payoff_p2=[[0, 0, 1], [0, 0, 1]]),
        ]
        for i in range(300):
            m, n = rng.integers(1, 6, size=2)
            if i % 3 == 0:
                a, b = rng.normal(size=(2, m, n))
            elif i % 3 == 1:
                a, b = rng.integers(-1, 2, size=(2, m, n))  # singular support blocks
            else:
                a = rng.normal(size=(m, n))
                b = -a
            games.append(StageGame(payoff_p1=a, payoff_p2=b))
        for game in games:
            got = support_enumeration(game)
            want = single_game_reference.support_enumeration(game)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_result(g, w)
        # Stacks of several support pairs hit a singular block and were
        # solved pair by pair.
        assert sum(shape[0] > 1 for shape in singular) >= 50



class TestLemkeHowsonMatchesTwoBranchReference:
    """The one pivot step against the mirrored-branch loop (``lemke_howson_reference``)."""

    @staticmethod
    def games():
        """Random-normal, small-integer (degenerate) and zero-sum games, 1x1 to 6x6."""
        rng = np.random.default_rng(61)
        for m in range(1, 7):
            for n in range(1, 7):
                for kind in ("normal", "integer", "zero-sum") * 2:
                    if kind == "normal":
                        a, b = rng.normal(size=(2, m, n))
                    elif kind == "integer":
                        a, b = rng.integers(-1, 2, size=(2, m, n))
                    else:
                        a = rng.normal(size=(m, n))
                        b = -a
                    yield StageGame(payoff_p1=a, payoff_p2=b)

    @staticmethod
    def outcomes(game, before_each=lambda: None) -> list:
        """Both loops from every initial label: the failure message each raised, else None."""
        messages = []
        for label in range(sum(game.shape)):
            before_each()
            try:
                want = lemke_howson_reference.lemke_howson(game, label)
            except PivotLimitError as exc:
                before_each()
                with pytest.raises(PivotLimitError) as got:
                    lemke_howson(game, label)
                assert str(got.value) == str(exc)
                messages.append(str(exc))
                continue
            before_each()
            assert_same_result(lemke_howson(game, label), want)
            messages.append(None)
        return messages

    def test_every_label_bit_for_bit(self):
        for game in self.games():
            assert self.outcomes(game) == [None] * sum(game.shape)

    def test_pivot_failures_raise_the_same_messages(self, monkeypatch):
        # A ratio rule without the lexicographic tie-break, installed in both
        # loops, reaches the artificial equilibrium and the pivot budget.
        calls = []

        def scrambled(tableau, col, id_cols):
            rows = np.nonzero(tableau[:, col] > 1e-12)[0]
            if rows.size == 0:
                raise PivotLimitError("entering column has no positive entry (unbounded ray)")
            calls.append(col)
            return int(rows[len(calls) * 7919 % rows.size])

        for module in (equilibria, lemke_howson_reference):
            monkeypatch.setattr(module, "_lex_min_ratio", scrambled)
        messages = [msg for game in self.games() for msg in self.outcomes(game, calls.clear)
                    if msg is not None]
        assert "pivoting terminated at the artificial equilibrium" in messages
        assert any(msg.startswith("no equilibrium within") for msg in messages)


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
