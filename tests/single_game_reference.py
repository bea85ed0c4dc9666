"""The single-game solver routes, kept as the reference for the stacked kernels.

Before every solver job in ``equilibria`` had one implementation written
for a stack of games, the single-game routes had their own:
``deviation_gap`` and ``_result`` certified one mix pair with 1-D
products, ``support_enumeration`` solved one support pair at a time in a
nested loop, and ``solve_zero_sum`` was a certified zero-sum entry point
(the closed form when it certifies, else the LP) that no command reached.
The scalar closed form once returned a pure saddle's one-hot pair
itself; the learner reads that pair from a table instead, and
``closed_form``/``zero_sum_strategies`` here put it back in front of
``_closed_form``/``_zero_sum_strategies``. The saddle scan once read the
table itself; the learner keeps each state's row minima and column
maxima instead, and ``saddle`` computes them from the table first. The tests check that the
library reproduces them bit for bit.
"""

import itertools

import numpy as np

from jamgame.equilibria import (
    CERT_TOL,
    EquilibriumResult,
    MixedStrategy,
    _closed_form,
    _saddle,
    _support_rows,
    _zero_sum_strategies,
    zero_sum_value,
)


def _one_hot(a, ij):
    x = [0.0] * len(a)
    y = [0.0] * len(a[0])
    x[ij[0]] = 1.0
    y[ij[1]] = 1.0
    return x, y


def saddle(a):
    """``_saddle`` of the row minima and column maxima of ``a`` (rows of floats)."""
    return _saddle(list(map(min, a)), list(map(max, zip(*a))))


def closed_form(a):
    """The one-hot pair at the pure saddle ``saddle(a)``, else ``_closed_form(a)``."""
    ij = saddle(a)
    return _closed_form(a) if ij is None else _one_hot(a, ij)


def zero_sum_strategies(a):
    """The one-hot pair at the pure saddle ``saddle(a)``, else ``_zero_sum_strategies(a)``."""
    ij = saddle(a)
    return _zero_sum_strategies(a) if ij is None else _one_hot(a, ij)


def deviation_gap(game, s1, s2) -> float:
    """Largest unilateral pure-deviation improvement over the given mix pair."""
    x = s1.probs if isinstance(s1, MixedStrategy) else np.asarray(s1, dtype=float)
    y = s2.probs if isinstance(s2, MixedStrategy) else np.asarray(s2, dtype=float)
    m, n = game.shape
    if x.shape != (m,) or y.shape != (n,):
        raise ValueError("strategy dimensions do not match the game")
    payoff1 = game.payoff_p1 @ y
    payoff2 = x @ game.payoff_p2
    v1 = float(x @ payoff1)
    v2 = float(payoff2 @ y)
    gap1 = float(payoff1.max()) - v1
    gap2 = float(payoff2.max()) - v2
    return max(gap1, gap2, 0.0)


def _result(game, x, y) -> EquilibriumResult:
    """The mix pair clipped, normalized and certified."""
    x = np.clip(x, 0.0, None)
    y = np.clip(y, 0.0, None)
    x = x / x.sum()
    y = y / y.sum()
    s1 = MixedStrategy(x)
    s2 = MixedStrategy(y)
    v1 = float(x @ game.payoff_p1 @ y)
    v2 = float(x @ game.payoff_p2 @ y)
    return EquilibriumResult(s1, s2, v1, v2, deviation_gap(game, s1, s2))


def _support_solve(a, b, sup_x, sup_y):
    """``(x, y)`` of the support solve of one game, or None."""
    ok, x, y = _support_rows(a[None], b[None], np.asarray(sup_x)[None], np.asarray(sup_y)[None])
    return (x[0], y[0]) if ok[0] else None


def support_enumeration(game) -> list:
    """All equilibria of a game up to 5x5, one support pair at a time."""
    m, n = game.shape
    if m > 5 or n > 5:
        raise ValueError("support enumeration is limited to 5x5 games")
    a, b = game.payoff_p1, game.payoff_p2
    found = []
    seen = set()
    for k in range(1, min(m, n) + 1):
        for sup_x in itertools.combinations(range(m), k):
            for sup_y in itertools.combinations(range(n), k):
                sol = _support_solve(a, b, np.array(sup_x), np.array(sup_y))
                if sol is None:
                    continue
                x, y = sol
                res = _result(game, x, y)
                if res.deviation_gap > CERT_TOL:
                    continue
                key = (tuple(np.round(res.strat_p1.probs, 9)),
                       tuple(np.round(res.strat_p2.probs, 9)))
                if key not in seen:
                    seen.add(key)
                    found.append(res)
    return found


def solve_zero_sum(game) -> EquilibriumResult:
    """The closed form when its deviation gap is within ``CERT_TOL``, else the LP."""
    if not game.zero_sum:
        raise ValueError("solve_zero_sum requires payoff_p1 + payoff_p2 = 0")
    a = game.payoff_p1.tolist()
    sol = closed_form(a)
    if sol is not None:
        res = _result(game, *sol)
        if res.deviation_gap <= CERT_TOL:
            return res
    return zero_sum_value(game)
