"""The LP route of the cold zero-sum solve, kept as the reference for the
square-support search.

Before the search, every zero-sum game that neither the closed form nor
a support hint solved took one maximin LP: the row mix from its primal,
the column mix from its duals, polished by the support solve where the
two supports had one size. ``equilibria._cold_results`` now skips the LP
for the games whose equilibrium the search proves unique. The tests
check that it gives this route's bits, and that it skips the LP on
exactly the games that ``proves_unique`` accepts one support pair at a
time.
"""

import itertools

import numpy as np

from jamgame.equilibria import (
    CERT_TOL,
    SUPPORT_TOL,
    VALUE_TOL,
    _equilibria,
    _maximin_lp,
    _results,
    _square_supports,
    _support_rows,
)


def lp_results(a, b):
    """Certified ``_results`` of each zero-sum game ``(a[g], b[g])``: one
    maximin LP per game, then the support-solve polish."""
    x = np.empty(a.shape[:2])
    y = np.empty((a.shape[0], a.shape[2]))
    for g, game in enumerate(a):
        xg, yg = _maximin_lp(game[None, None])
        x[g], y[g] = xg[0], yg[0]
    for rows, xs, ys in _square_supports(a, x > SUPPORT_TOL, y > SUPPORT_TOL):
        x[rows], y[rows] = xs, ys
    res = _results(a, b, x, y)
    over = res[4][res[4] > CERT_TOL]
    if over.size:
        raise RuntimeError(f"LP equilibrium failed certification (gap {over[0]})")
    return res


def zero_sum_value(game):
    """The LP route on one zero-sum game."""
    return _equilibria(lp_results(game.payoff_p1[None], game.payoff_p2[None]))[0]


def proves_unique(a) -> bool:
    """Whether some square support pair of the zero-sum game ``a`` (up to
    5x5) proves its equilibrium unique: every support weight above
    ``VALUE_TOL``, every outside row and column worse than the value by
    more than ``VALUE_TOL``. One pair at a time, with 1-D products."""
    m, n = a.shape
    if m > 5 or n > 5:
        return False
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                ok, x, y = _support_rows(a[None], -a[None], np.array([rows]), np.array([cols]))
                if not ok[0]:
                    continue
                x, y = x[0], y[0]
                pay_rows, pay_cols = a @ y, x @ -a
                out_rows = [i for i in range(m) if i not in rows]
                out_cols = [j for j in range(n) if j not in cols]
                u, v = pay_rows[list(rows)].min(), pay_cols[list(cols)].min()
                if (x[list(rows)].min() > VALUE_TOL and y[list(cols)].min() > VALUE_TOL
                        and all(pay_rows[i] < u - VALUE_TOL for i in out_rows)
                        and all(pay_cols[j] < v - VALUE_TOL for j in out_cols)):
                    return True
    return False
