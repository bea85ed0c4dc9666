"""Lemke-Howson with one branch per tableau, kept as the reference for the folded loop.

Before ``equilibria.lemke_howson`` kept its tableaux, bases and identity
columns in pairs indexed by side, it pivoted tableau X and tableau Y in
two mirrored branches of the loop and read the two bases back in two
loops. The tests check that the library reproduces it bit for bit:
strategies, values, deviation gap and ``PivotLimitError`` messages.
"""

import numpy as np

from jamgame.equilibria import PivotLimitError, _lex_min_ratio, _pivot, _result


def lemke_howson(game, initial_label=0):
    """One Nash equilibrium by complementary pivoting, the two tableaux in two branches."""
    m, n = game.shape
    if not 0 <= initial_label < m + n:
        raise ValueError(f"initial_label must be in [0, {m + n})")
    shift = min(float(game.payoff_p1.min()), float(game.payoff_p2.min()))
    a = game.payoff_p1 - shift + 1.0  # strictly positive
    b = game.payoff_p2 - shift + 1.0

    # Tableau X: n rows for B' x + s = 1; columns [x_0..x_{m-1}, s_0..s_{n-1}, 1].
    # Tableau Y: m rows for r + A y = 1; columns [r_0..r_{m-1}, y_0..y_{n-1}, 1].
    # In both, the variable carrying label L sits in column L.
    tab_x = np.hstack([b.T, np.eye(n), np.ones((n, 1))])
    tab_y = np.hstack([np.eye(m), a, np.ones((m, 1))])
    basis_x = [m + j for j in range(n)]
    basis_y = list(range(m))
    id_x = list(range(m, m + n))
    id_y = list(range(m))

    budget = 10 * (m + n) ** 2
    label = initial_label
    in_x = initial_label < m  # x_k enters tableau X, y_k enters tableau Y
    for _ in range(budget):
        if in_x:
            row = _lex_min_ratio(tab_x, label, id_x)
            leaving = basis_x[row]
            _pivot(tab_x, row, label)
            basis_x[row] = label
        else:
            row = _lex_min_ratio(tab_y, label, id_y)
            leaving = basis_y[row]
            _pivot(tab_y, row, label)
            basis_y[row] = label
        if leaving == initial_label:
            break
        label = leaving
        in_x = not in_x
    else:
        raise PivotLimitError(f"no equilibrium within {budget} pivots")

    x = np.zeros(m)
    for row, lab in enumerate(basis_x):
        if lab < m:
            x[lab] = tab_x[row, -1]
    y = np.zeros(n)
    for row, lab in enumerate(basis_y):
        if lab >= m:
            y[lab - m] = tab_y[row, -1]
    if x.sum() <= 0 or y.sum() <= 0:
        raise PivotLimitError("pivoting terminated at the artificial equilibrium")
    return _result(game, x, y)
