"""The shared writers against the writers they replaced, byte for byte.

``row_writer_reference`` keeps the four CSV row loops and the
``json.dumps`` route of the two table JSON files; every case here writes
one file or text with each and compares the bytes. The hand-built cases
hold the values whose text is easy to get wrong (``-0.0`` beside ``0.0``,
``1e-05``, ``1e+16``, ``5e-324``, integral floats) and row counts at the
edges of one ``_BLOCK_STEPS`` block.
"""

import dataclasses
import math
import types
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import row_writer_reference as ref
from jamgame import bayesian, cli, game, nashq, structure
from jamgame.bayesian import TypeStrategy
from jamgame.game import GameState
from jamgame.nashq import QTables, policy_arrays

BLOCK = game._BLOCK_STEPS
EDGE_ROWS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)
# Values whose texts differ in form: signed zeros, tiny and huge magnitudes,
# integral and non-integral floats.
AWKWARD = (0.0, -0.0, 1e-05, -1e-05, 1e16, 1e16 + 2.0, 0.1 + 0.2, 3.0, -7.0, 123456.789)


def assert_same_bytes(tmp_path, ours, theirs):
    """``ours(path)`` and ``theirs(path)`` write the same file."""
    a, b = tmp_path / "ours.csv", tmp_path / "reference.csv"
    ours(a)
    theirs(b)
    assert a.read_bytes() == b.read_bytes()


def check_qtable(tmp_path, spec, tables):
    assert_same_bytes(tmp_path, partial(nashq.write_qtable_csv, spec, tables),
                      partial(ref.write_qtable_csv, spec, tables))


def check_curve(tmp_path, spec, curve):
    res = types.SimpleNamespace(curve=curve)
    assert_same_bytes(tmp_path, lambda path: cli._write_curve(path, spec, res),
                      lambda path: ref.write_curve(path, spec, res))


def check_trajectory(tmp_path, traj):
    assert_same_bytes(tmp_path, partial(game.write_trajectory_csv, traj),
                      partial(ref.write_trajectory_csv, traj))


def check_type_strategy(tmp_path, bspec, strategy, player):
    assert_same_bytes(tmp_path, partial(bayesian.write_type_strategy_csv, bspec, strategy, player),
                      partial(ref.write_type_strategy_csv, bspec, strategy, player))


def shipped_bayes(cfg, oracle):
    """The Bayesian game ``jamgame bayes`` builds for ``cfg``."""
    v1 = np.array([p.value_p1 for p in oracle.policies])
    return bayesian.bayesian_from_game(
        cfg.game,
        holding_time=cfg.bayes_holding_time,
        belief_mode=cfg.bayes_belief_mode,
        payoff_mode=cfg.bayes_payoff_mode,
        holding_values=structure.gain_averaged_values(cfg.game, v1),
    )


def awkward_draws(seed, shape):
    return np.random.default_rng(seed).choice(np.array(AWKWARD), size=shape)


@pytest.mark.parametrize("name", ["default", "monotone"])
def test_shipped_profiles(tmp_path, request, capsys, name):
    cfg = request.getfixturevalue(f"{name}_config")
    oracle = request.getfixturevalue(f"{name}_oracle")
    spec = cfg.game
    if name == "default":
        learned = request.getfixturevalue("default_learning")[0]
    else:
        learned = nashq.nash_q_learn(spec, dataclasses.replace(cfg.learn, episodes=BLOCK + 1))
    for tables in (oracle.tables, learned.tables):
        check_qtable(tmp_path, spec, tables)
    check_curve(tmp_path, spec, learned.curve)
    traj = game.simulate_trajectory(spec, *policy_arrays(oracle.policies), horizon=5000,
                                    rng=np.random.default_rng(cfg.learn.seed))
    check_trajectory(tmp_path, traj)
    bspec = shipped_bayes(cfg, oracle)
    res = bayesian.solve_bayesian(bspec)
    for player in ("attacker", "sensor"):
        check_type_strategy(tmp_path, bspec, getattr(res, player), player)


def test_scaled_oracle_qtable(tmp_path, scaled_config, scaled_oracle):
    check_qtable(tmp_path, scaled_config.game, scaled_oracle.tables)


def test_qtable_awkward_cells(tmp_path, default_config):
    spec = default_config.game
    q1 = awkward_draws(1, (spec.n_states, 2, 2))
    # Both orders of the signed zeros within one column.
    q1[:2, 0, 0] = 0.0, -0.0
    q1[:2, 0, 1] = -0.0, 0.0
    check_qtable(tmp_path, spec, QTables(q1=q1, visits=np.zeros(q1.shape, dtype=np.int64)))


@pytest.mark.parametrize("rows", EDGE_ROWS)
def test_curve_rows(tmp_path, default_config, rows, capsys):
    curve = awkward_draws(rows, (rows, 4))
    if rows > 1:
        curve[:2, 0] = -0.0, 0.0
    check_curve(tmp_path, default_config.game, curve)


def test_zero_episode_curve(tmp_path, default_config, capsys):
    learn = dataclasses.replace(default_config.learn, episodes=0)
    learned = nashq.nash_q_learn(default_config.game, learn)
    assert learned.curve.shape == (1, 4)
    check_curve(tmp_path, default_config.game, learned.curve)


@pytest.mark.parametrize("rows", EDGE_ROWS)
def test_trajectory_rows(tmp_path, rows):
    draws = np.random.default_rng(rows)
    ints = partial(draws.integers, size=rows)
    traj = game.Trajectory(
        steps=np.arange(rows),
        tau=ints(0, 5),
        g_s=draws.choice([0.6, 0.8], size=rows),
        g_a=draws.choice([0.6, 0.8], size=rows),
        a=draws.choice([1.0, 6.0], size=rows),  # integral floats print as ints
        b=draws.choice([2.0, 5.5], size=rows),
        q=draws.random(rows),
        gamma=ints(0, 2),
        trace_p=awkward_draws(rows, rows),
        r1=draws.normal(size=rows) * ints(0, 2),  # -0.0 where a negative meets 0
    )
    check_trajectory(tmp_path, traj)


@pytest.mark.parametrize("player", ["attacker", "sensor"])
def test_type_strategy_awkward_cells(tmp_path, default_config, default_oracle, player):
    bspec = shipped_bayes(default_config, default_oracle)
    strategy = TypeStrategy(probs=[[1.0 - 1e-05, 1e-05], [0.0, 1.0]])
    check_type_strategy(tmp_path, bspec, strategy, player)


def check_json(spec, tables, policies):
    """Both table JSON writers against the ``json.dumps`` route."""
    assert nashq.qtables_to_json(spec, tables) == ref.qtables_to_json(spec, tables)
    assert cli._policies_json(spec, policies) == ref.policies_json(spec, policies)


@pytest.mark.parametrize("name", ["default", "monotone", "scaled"])
def test_json_profiles(request, name):
    spec = request.getfixturevalue(f"{name}_config").game
    oracle = request.getfixturevalue(f"{name}_oracle")
    check_json(spec, oracle.tables, oracle.policies)
    if name == "default":
        learned = request.getfixturevalue("default_learning")[0]
        check_json(spec, learned.tables, learned.policies)


# Finite values whose JSON texts differ in form, and visit counts up to int64.
JSON_VALUES = st.one_of(
    st.sampled_from(AWKWARD + (5e-324, -5e-324, 1.7976931348623157e308)),
    st.floats(allow_nan=False, allow_infinity=False))
COUNTS = st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1))


def _policy(probs_a, probs_b, v1, v2, gap):
    return types.SimpleNamespace(
        strat_p1=types.SimpleNamespace(probs=np.array(probs_a)),
        strat_p2=types.SimpleNamespace(probs=np.array(probs_b)),
        value_p1=v1, value_p2=v2, deviation_gap=gap)


@st.composite
def json_games(draw):
    """A game header of 1-30 states, 1-4 actions a side, its tables and policies."""
    n, na, nb = draw(st.integers(1, 30)), draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def values(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(JSON_VALUES, min_size=size, max_size=size))).reshape(shape)

    taus = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    gains = values(n, 2).tolist()
    spec = types.SimpleNamespace(
        states=tuple(GameState(t, gs, ga) for t, (gs, ga) in zip(taus, gains)),
        actions_attacker=tuple(values(na).tolist()), actions_sensor=tuple(values(nb).tolist()))
    visits = draw(st.lists(COUNTS, min_size=n * na * nb, max_size=n * na * nb))
    tables = QTables(q1=values(n, na, nb),
                     visits=np.array(visits, dtype=np.int64).reshape(n, na, nb))
    policies = [_policy(pa, pb, *v) for pa, pb, v in
                zip(values(n, na), values(n, nb), values(n, 3).tolist())]
    return spec, tables, policies


@settings(max_examples=60, deadline=None, derandomize=True)
@given(game=json_games())
def test_json_drawn_tables(game):
    check_json(*game)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_non_finite_rejected(default_config, default_oracle, bad):
    spec = default_config.game
    q1 = default_oracle.tables.q1.copy()
    q1[3, 1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        nashq.qtables_to_json(spec, QTables(q1=q1, visits=default_oracle.tables.visits))
    policies = list(default_oracle.policies)
    p = policies[2]
    for field in ("value_p1", "deviation_gap"):
        policies[2] = dataclasses.replace(p, **{field: bad})
        with pytest.raises(ValueError, match="non-finite"):
            cli._policies_json(spec, policies)
