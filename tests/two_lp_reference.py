"""The two-LP zero-sum solve, kept as the reference for the one-LP solve.

Before ``zero_sum_value`` read the column strategy from the maximin LP's
duals, it solved two LPs: the row player's maximin on ``a`` and the
column player's on ``-a.T``, each value thrown away. It then polished
the pair with its own copy of the indifference solve on the two LP
supports, and kept the raw LP point when the supports differed in size,
the system was singular or a weight fell below ``-1e-12``. The tests
check that the one-LP solve certifies and agrees with it.
"""

import numpy as np
from scipy.optimize import linprog

from jamgame.equilibria import _LP_OPTIONS, _indifference, _result


def maximin_lp(a):
    """Row player's maximin mix and value for payoff matrix ``a``."""
    m, n = a.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-a.T, np.ones((n, 1))])
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    bounds = [(0, None)] * m + [(None, None)]
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0], bounds=bounds,
        method="highs", options=_LP_OPTIONS,
    )
    if not res.success:
        raise RuntimeError(f"maximin LP failed: {res.message}")
    return res.x[:m], float(res.x[-1])


def polish_support(a, x, y):
    """The indifference solve on the LP supports, or the LP point."""
    sup_x = np.nonzero(x > 1e-9)[0]
    sup_y = np.nonzero(y > 1e-9)[0]
    if sup_x.size != sup_y.size:
        return x, y
    k = sup_x.size
    sub = a[np.ix_(sup_x, sup_y)]
    try:
        solx = _indifference(sub.T)
        soly = _indifference(sub)
    except np.linalg.LinAlgError:
        return x, y
    if solx[:k].min() < -1e-12 or soly[:k].min() < -1e-12:
        return x, y
    xr = np.zeros_like(x)
    yr = np.zeros_like(y)
    xr[sup_x] = np.clip(solx[:k], 0.0, None)
    yr[sup_y] = np.clip(soly[:k], 0.0, None)
    return xr / xr.sum(), yr / yr.sum()


def zero_sum_value(game):
    """Two LPs, then the polish; uncertified."""
    a = game.payoff_p1
    x, _ = maximin_lp(a)
    y, _ = maximin_lp(-a.T)
    return _result(game, *polish_support(a, x, y))
