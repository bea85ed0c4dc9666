"""The per-state value-iteration sweep, kept as the reference for the batched pass.

Before ``shapley_value_iteration`` solved a sweep's stage games in one
``equilibria.stage_values`` pass, it walked the states one at a time:
``zero_sum_strategies`` on the state's table as lists (the one-hot pair
at a pure saddle, else the 2x2 closed form, else the LP's strategies),
then ``_bilinear`` for its value. The
policies came from ``solve_zero_sum`` (now in ``single_game_reference``)
on each final stage game, with no support hint, as ``extract_policy``
still does. The tests check that the batched pass reproduces it bit for
bit on the shipped profiles and on drawn games. That is not so on every
game: where a stage game has several optimal strategies, the batched
pass's warm start can round a value an ulp away from this loop's cold
route, and the tables then agree only within ``VALUE_TOL``.
"""

import numpy as np

from single_game_reference import solve_zero_sum, zero_sum_strategies

from jamgame.equilibria import StageGame, _bilinear
from jamgame.nashq import QTables


def extract_policy(tables):
    """Per-state ``solve_zero_sum`` of the stage game (Q1[s], Q2[s])."""
    return [solve_zero_sum(StageGame(payoff_p1=a, payoff_p2=b))
            for a, b in zip(tables.q1, tables.q2)]


def shapley_value_iteration(spec, tol=1e-10, max_sweeps=100000):
    """``(tables, policies, deltas, sweeps)`` of the per-state sweep loop."""
    model = spec.compiled
    r1 = model.reward
    ns, na, nb = r1.shape
    q1 = np.zeros((ns, na, nb))
    deltas = []
    for sweep in range(1, max_sweeps + 1):
        v = np.empty(ns)
        for si, a in enumerate(q1.tolist()):
            x, y = zero_sum_strategies(a)
            v[si] = _bilinear(x, a, y)
        new = r1 + spec.beta * model.expected(v)
        delta = float(np.abs(new - q1).max())
        q1 = new
        deltas.append(delta)
        if delta <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not reach tol={tol} in {max_sweeps} sweeps")
    tables = QTables(q1=q1, visits=np.zeros_like(q1, dtype=np.int64))
    return tables, extract_policy(tables), tuple(deltas), sweep
