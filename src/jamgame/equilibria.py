"""Bimatrix stage-game solvers with deviation-gap certification.

Three routes are provided and cross-checked in the test suite:

* ``lemke_howson`` -- complementary pivoting on the two best-response
  polytopes (tableaux of Python floats), with lexicographic tie-breaking
  and a pivot budget;
* ``zero_sum_value`` -- the square-support search, which proves a unique
  equilibrium on a square support, else one maximin linear program
  (HiGHS, loaded on the first LP) whose duals are the column strategy;
  either way polished by the support solve;
* ``support_enumeration`` -- exhaustive support pairs for desk-scale
  games, used as the independent oracle.

``solve_stage`` sends zero-sum games to ``zero_sum_value`` and the rest
to Lemke-Howson, with support enumeration as the last resort for games
up to ``SUPPORT_MAX`` a side. The maximin LP takes one payoff block per
pair of player types, so the Bayesian variant
(``bayesian.solve_bayesian``) is solved by it too.

``stage_values`` and ``stage_policies`` solve a whole table of zero-sum
stage games ``q[s]`` in one pass: the saddle scan and the 2x2 formula
run as array operations, and each remaining state takes the cold route.
``stage_values`` alone takes a support hint: each remaining state first
tries the support it had in the previous pass, kept only when its
deviation gap is within ``CERT_TOL``, before the search and the LP.
``stage_policies`` reads no hint, so a policy depends on its table alone.

Each solver job has one implementation, written for a stack of games,
and a single game is a one-row call of it: the certificate
(``_certificates``: values and deviation gaps of mix pairs), the support
solve (``_support_rows``) and the cold route (``_cold_results``: one
batched support solve per support size searches for a unique
equilibrium, one maximin LP per game it leaves, then one batched
support-solve polish per support size).

Every result is certified against the *original* payoff matrices;
tolerances are centralized below.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StageGame",
    "MixedStrategy",
    "EquilibriumResult",
    "PivotLimitError",
    "deviation_gap",
    "lemke_howson",
    "zero_sum_value",
    "stage_values",
    "stage_policies",
    "support_enumeration",
    "solve_stage",
    "read_stage_game",
]

# Strategy vectors must sum to 1 within this.
NORM_TOL = 1e-12
# A certified equilibrium has deviation gap at most this.
CERT_TOL = 1e-8
# Solver cross-checks (Lemke-Howson vs LP vs enumeration) agree within this.
VALUE_TOL = 1e-7
# Two payoff matrices are treated as exact negations within this.
ZERO_SUM_TOL = 1e-9
# Support solves: an action is in a support above this weight, a solved
# weight may dip this far below zero, and an outside action may beat the
# support payoff by this much.
SUPPORT_TOL = 1e-9
# Support enumeration and the square-support search take games up to this
# many actions a side.
SUPPORT_MAX = 5

# 1e-10 is the tightest feasibility tolerance HiGHS accepts; the support
# solve in _cold_results takes the certificate the rest of the way.
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class PivotLimitError(RuntimeError):
    """Lemke-Howson found no equilibrium: its pivot budget ran out (degenerate
    or cycling game), it ended at the artificial equilibrium or on an
    unbounded ray, or its payoffs or basic values overflowed."""


@dataclass(frozen=True, eq=False)
class StageGame:
    """One-shot bimatrix game; ``payoff_p1`` rows, ``payoff_p2`` columns."""

    payoff_p1: np.ndarray
    payoff_p2: np.ndarray

    def __post_init__(self):
        a = np.array(self.payoff_p1, dtype=float)
        b = np.array(self.payoff_p2, dtype=float)
        if a.ndim != 2 or a.shape != b.shape:
            raise ValueError(f"payoff matrices must share a 2-D shape, got {a.shape} vs {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("payoff matrices must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "payoff_p1", a)
        object.__setattr__(self, "payoff_p2", b)

    @property
    def shape(self):
        return self.payoff_p1.shape

    @property
    def zero_sum(self) -> bool:
        return float(np.abs(self.payoff_p1 + self.payoff_p2).max()) <= ZERO_SUM_TOL


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability vector over one player's actions."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1:
            raise ValueError("strategy must be a vector")
        if not np.isfinite(p).all():
            raise ValueError("strategy must be finite")
        if p.min() < -NORM_TOL:
            raise ValueError("strategy has a negative entry")
        if abs(p.sum() - 1.0) > NORM_TOL:
            raise ValueError(f"strategy sums to {p.sum()}, not 1")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Certified strategy pair with per-player values and deviation gap."""

    strat_p1: MixedStrategy
    strat_p2: MixedStrategy
    value_p1: float
    value_p2: float
    deviation_gap: float


def _certificates(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """``(value_p1, value_p2, deviation_gap)`` of each mix pair ``(x[g], y[g])``
    in the game ``(a[g], b[g])``, as arrays.

    The deviation gap is the largest unilateral pure-deviation
    improvement: zero (within tolerance) if and only if the pair is a
    Nash equilibrium. Every row runs the BLAS kernels it would run alone,
    so a row's bits do not depend on the rest of the stack.
    """
    xr = x[:, None, :]
    yc = y[:, :, None]
    pay1 = a @ yc
    pay2 = xr @ b
    v2 = (pay2 @ yc)[:, 0, 0]
    gap1 = pay1[:, :, 0].max(axis=1) - (xr @ pay1)[:, 0, 0]
    gap2 = pay2[:, 0, :].max(axis=1) - v2
    # max(gap1, gap2, 0.0), keeping the first of equal values.
    gap = np.where(gap2 > gap1, gap2, gap1)
    gap = np.where(0.0 > gap, 0.0, gap)
    return (xr @ a @ yc)[:, 0, 0], v2, gap


def _normalized(p: np.ndarray) -> np.ndarray:
    """Each row of ``p`` clipped at zero and scaled to sum 1."""
    p = np.maximum(p, 0.0)
    return p / p.sum(axis=1, keepdims=True)


def _results(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """Each mix pair clipped at zero, normalized and certified in its game
    ``(a[g], b[g])``: ``(x, y, value_p1, value_p2, deviation_gap)``."""
    x, y = _normalized(x), _normalized(y)
    return (x, y) + _certificates(a, b, x, y)


def _mixed_rows(p: np.ndarray) -> list:
    """One ``MixedStrategy`` per row of ``p``, each a read-only view of it."""
    p.flags.writeable = False
    rows = []
    for row in p:
        s = object.__new__(MixedStrategy)
        object.__setattr__(s, "probs", row)
        rows.append(s)
    return rows


def _equilibria(res: tuple) -> list:
    """One ``EquilibriumResult`` per row of a ``_results`` tuple.

    Its mixes are clipped and normalized, so each row is a probability
    vector unless its weights summed to zero or to infinity, which leaves
    a NaN: one finiteness check covers them all.
    """
    xs, ys, v1, v2, gap = res
    if not math.isfinite(xs.sum() + ys.sum()):
        raise ValueError("strategy rows must be probability vectors")
    return [EquilibriumResult(*fields) for fields in zip(
        _mixed_rows(xs), _mixed_rows(ys), v1.tolist(), v2.tolist(), gap.tolist())]


def deviation_gap(game: StageGame, s1, s2) -> float:
    """Largest unilateral pure-deviation improvement over the given mix pair.

    Zero (within tolerance) if and only if the pair is a Nash equilibrium.
    The mixes are taken as given, neither clipped nor normalized.
    """
    x = s1.probs if isinstance(s1, MixedStrategy) else np.asarray(s1, dtype=float)
    y = s2.probs if isinstance(s2, MixedStrategy) else np.asarray(s2, dtype=float)
    m, n = game.shape
    if x.shape != (m,) or y.shape != (n,):
        raise ValueError("strategy dimensions do not match the game")
    gap = _certificates(game.payoff_p1[None], game.payoff_p2[None], x[None], y[None])[2]
    return float(gap[0])


def _result(game: StageGame, x, y) -> EquilibriumResult:
    """The mix pair clipped at zero, normalized and certified in ``game``."""
    x, y = np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None]
    return _equilibria(_results(game.payoff_p1[None], game.payoff_p2[None], x, y))[0]


# ---------------------------------------------------------------------------
# Lemke-Howson
# ---------------------------------------------------------------------------

def _lex_min_ratio(tableau: list, col: int, id_cols) -> int:
    """Row of the lexicographic minimum ratio for the entering column.

    Compares (rhs, identity-history columns) componentwise, all divided by
    the pivot entry; this is the standard anti-cycling rule. A comparison
    tied on rhs is decided by the rest, so the identity-column ratios are
    formed only for a row that ties with the best so far.
    """
    best = None
    for r, row in enumerate(tableau):
        piv = row[col]
        if piv > 1e-12:
            ratio = row[-1] / piv
            if best is None or ratio < best_ratio:
                best, best_ratio = r, ratio
            elif ratio == best_ratio:
                held = tableau[best]
                if [row[c] / piv for c in id_cols] < [held[c] / held[col] for c in id_cols]:
                    best = r
    if best is None:
        raise PivotLimitError("entering column has no positive entry (unbounded ray)")
    return best


def _pivot(tableau: list, row: int, col: int) -> None:
    """Divide the pivot row by its pivot, then clear the column from the other rows."""
    piv = tableau[row][col]
    prow = tableau[row] = [v / piv for v in tableau[row]]
    for r, other in enumerate(tableau):
        f = other[col]
        if r != row and f != 0.0:
            tableau[r] = [v - f * w for v, w in zip(other, prow)]


def lemke_howson(game: StageGame, initial_label: int = 0) -> EquilibriumResult:
    """Find one Nash equilibrium by complementary pivoting.

    ``initial_label`` is the label dropped first: ``0..m-1`` are row
    actions, ``m..m+n-1`` column actions. The payoffs are shifted to be
    positive internally; the certificate is computed on the originals.
    Raises ``PivotLimitError`` past ``10 (m+n)^2`` pivots, and when the
    shifted payoffs or a basic value at the end overflow; callers fall
    back to ``support_enumeration`` or ``zero_sum_value``.
    Tableaux, bases and identity columns are pairs indexed by side (0: X,
    1: Y); a pivot step works on one side and hands its leaving label on.
    A tableau is a list of rows of Python floats, pivoted with the
    operations numpy would run, in the same order (the numpy loop is the
    reference in ``tests/lemke_howson_reference.py``).
    """
    m, n = game.shape
    if not 0 <= initial_label < m + n:
        raise ValueError(f"initial_label must be in [0, {m + n})")
    shift = min(float(game.payoff_p1.min()), float(game.payoff_p2.min()))
    top = max(float(game.payoff_p1.max()), float(game.payoff_p2.max()))
    if not math.isfinite(top - shift + 1.0):
        raise PivotLimitError("payoffs overflow when shifted to be positive")
    a = (game.payoff_p1 - shift + 1.0).tolist()  # strictly positive
    bt = (game.payoff_p2 - shift + 1.0).T.tolist()

    # Tableau X: n rows for B' x + s = 1; columns [x_0..x_{m-1}, s_0..s_{n-1}, 1].
    # Tableau Y: m rows for r + A y = 1; columns [r_0..r_{m-1}, y_0..y_{n-1}, 1].
    # In both, the variable carrying label L sits in column L; a side's
    # identity columns are the labels of its starting basis.
    tabs = ([row + _unit(j, n) + [1.0] for j, row in enumerate(bt)],
            [_unit(i, m) + row + [1.0] for i, row in enumerate(a)])
    ids = (range(m, m + n), range(m))
    bases = [list(cols) for cols in ids]

    budget = 10 * (m + n) ** 2
    label = initial_label
    side = int(initial_label >= m)  # x_k enters tableau X, y_k enters tableau Y
    for _ in range(budget):
        tab, basis = tabs[side], bases[side]
        row = _lex_min_ratio(tab, label, ids[side])
        leaving = basis[row]
        _pivot(tab, row, label)
        basis[row] = label
        if leaving == initial_label:
            break
        label = leaving
        side = 1 - side
    else:
        raise PivotLimitError(f"no equilibrium within {budget} pivots")
    if not all(math.isfinite(row[-1]) for tab in tabs for row in tab):
        raise PivotLimitError("pivoting overflowed: a basic value is not finite")

    # z[L] is the value of the variable carrying label L: the x (labels
    # below m) are read off tableau X, the y off tableau Y.
    z = np.zeros(m + n)
    for side, (tab, basis) in enumerate(zip(tabs, bases)):
        for row, lab in enumerate(basis):
            if (lab >= m) == side:
                z[lab] = tab[row][-1]
    x, y = z[:m], z[m:]
    if x.sum() <= 0 or y.sum() <= 0:
        raise PivotLimitError("pivoting terminated at the artificial equilibrium")
    return _result(game, x, y)


def _unit(i: int, k: int) -> list:
    """Row ``i`` of the ``k x k`` identity, as Python floats."""
    return [0.0] * i + [1.0] + [0.0] * (k - 1 - i)


# ---------------------------------------------------------------------------
# Support solve and zero-sum linear programming
# ---------------------------------------------------------------------------

# scipy's ``linprog``, imported by the first LP: most commands never reach
# one, and importing scipy.optimize would dominate their start-up. Tests
# replace it to count LP calls.
linprog = None


def _maximin_lp(blocks: np.ndarray) -> tuple:
    """Per-type optimal mixes ``(x, y)`` of a zero-sum game with typed players.

    ``blocks[i, j]`` is the row player's weighted payoff matrix at row
    type ``i`` and column type ``j``; a matrix game ``a`` is the one-type
    case ``a[None, None]``. One LP: the row player's maximin over one mix
    ``x[i]`` per row type. By LP duality the duals of its ``(j, b)`` rows
    are the column player's mixes ``y[j]``.
    """
    global linprog
    ki, kj, m, n = blocks.shape
    nx = ki * m
    # Variables (x[0]..x[ki-1], w_0..w_{kj-1}): maximize sum_j w_j s.t.
    # w_j <= sum_i x[i]' blocks[i, j][:, b] for every (j, b),
    # sum_a x[i, a] = 1 and x >= 0.
    c = np.zeros(nx + kj)
    c[nx:] = -1.0
    a_ub = np.hstack([-blocks.transpose(1, 3, 0, 2).reshape(kj * n, nx),
                      np.kron(np.eye(kj), np.ones((n, 1)))])
    b_ub = np.zeros(kj * n)
    a_eq = np.hstack([np.kron(np.eye(ki), np.ones((1, m))), np.zeros((ki, kj))])
    bounds = [(0, None)] * nx + [(None, None)] * kj
    if linprog is None:
        from scipy.optimize import linprog
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(ki), bounds=bounds,
        method="highs", options=_LP_OPTIONS,
    )
    if not res.success:
        raise RuntimeError(f"maximin LP failed: {res.message}")
    return res.x[:nx].reshape(ki, m), -res.ineqlin.marginals.reshape(kj, n)


def _bordered(sub: np.ndarray) -> np.ndarray:
    """The bordered ``(k+1) x (k+1)`` matrix of each square support block in
    a stack ``(..., k, k)``: ``[[sub, -1], [1', 0]]``."""
    k = sub.shape[-1]
    lhs = np.zeros(sub.shape[:-2] + (k + 1, k + 1))
    lhs[..., :k, :k] = sub
    lhs[..., :k, k] = -1.0
    lhs[..., k, :k] = 1.0
    return lhs


def _indifference(sub: np.ndarray) -> np.ndarray:
    """``(z, u)`` with ``sub @ z = u`` in every row and ``sum(z) = 1``.

    The bordered system (``_bordered``) of a square support block, or of
    each block in a stack ``(..., k, k)``; raises ``LinAlgError`` when one
    is singular.
    """
    k = sub.shape[-1]
    rhs = np.zeros(sub.shape[:-2] + (k + 1, 1))
    rhs[..., k, 0] = 1.0
    return np.linalg.solve(_bordered(sub), rhs)[..., 0]


def _support_rows(a: np.ndarray, b: np.ndarray, rx: np.ndarray, cy: np.ndarray) -> tuple:
    """The support solve of each game ``(a[g], b[g])`` on its rows ``rx[g]``
    and columns ``cy[g]``, all of one size ``k``: ``(ok, x, y)``.

    ``y`` on the columns equalizes the row payoffs over the rows, and
    vice versa. A game is ``ok`` unless a system is singular, a solved
    weight dips below ``-SUPPORT_TOL`` or an action outside the support
    beats the support payoff by more than ``SUPPORT_TOL``.
    """
    g, k = rx.shape
    at = np.arange(g)[:, None]
    block = (at[:, :, None], rx[:, :, None], cy[:, None, :])
    try:
        sol_y = _indifference(a[block])
        sol_x = _indifference(b[block].transpose(0, 2, 1))
    except np.linalg.LinAlgError:
        # A singular system fails the whole stack. The solve meets a zero
        # pivot exactly where the same LU factorization gives a zero
        # determinant sign: those games are not ok, the rest are solved
        # as one stack. slogdet warns on the log of a zero determinant,
        # whose sign 0 is the answer wanted here.
        with np.errstate(divide="ignore"):
            live = ((np.linalg.slogdet(_bordered(a[block]))[0] != 0.0)
                    & (np.linalg.slogdet(_bordered(b[block].transpose(0, 2, 1)))[0] != 0.0))
        if live.all():
            raise
        ok, x, y = np.zeros(g, dtype=bool), np.zeros(a.shape[:2]), np.zeros((g, a.shape[2]))
        if live.any():
            ok[live], x[live], y[live] = _support_rows(a[live], b[live], rx[live], cy[live])
        return ok, x, y
    y_s, u = sol_y[:, :k], sol_y[:, k]
    x_s, v = sol_x[:, :k], sol_x[:, k]
    ok = ~((y_s.min(axis=1) < -SUPPORT_TOL) | (x_s.min(axis=1) < -SUPPORT_TOL))
    x = np.zeros(a.shape[:2])
    y = np.zeros((g, a.shape[2]))
    x[at, rx] = np.clip(x_s, 0.0, None)
    y[at, cy] = np.clip(y_s, 0.0, None)
    # No action outside the support may beat the support payoff.
    ok &= ~(((a @ y[:, :, None])[:, :, 0].max(axis=1) > u + SUPPORT_TOL)
            | ((x[:, None, :] @ b)[:, 0, :].max(axis=1) > v + SUPPORT_TOL))
    return ok, x, y


def _square_supports(a: np.ndarray, sup_x: np.ndarray, sup_y: np.ndarray):
    """The support solve of each zero-sum game ``a[g]`` whose row and column
    support masks ``sup_x[g]``, ``sup_y[g]`` have one size.

    One ``_support_rows`` call per size; yields ``(rows, x, y)`` for the
    games of that size where the solve succeeded.
    """
    kx, ky = sup_x.sum(axis=1), sup_y.sum(axis=1)
    for k in np.unique(kx[(kx == ky) & (kx > 0)]).tolist():
        pick = np.flatnonzero((kx == k) & (ky == k))
        ok, x, y = _support_rows(a[pick], -a[pick], np.nonzero(sup_x[pick])[1].reshape(-1, k),
                                 np.nonzero(sup_y[pick])[1].reshape(-1, k))
        yield pick[ok], x[ok], y[ok]


def _support_pairs(m: int, n: int, k: int) -> tuple:
    """Every pair of a size-``k`` row support and a size-``k`` column support
    of an ``m x n`` game, as index arrays ``(rx, cy)`` of shape ``(pairs, k)``:
    row supports in order, each with every column support in order."""
    rx = np.array(list(itertools.combinations(range(m), k)))
    cy = np.array(list(itertools.combinations(range(n), k)))
    return np.repeat(rx, len(cy), axis=0), np.tile(cy, (len(rx), 1))


def _unique_supports(a: np.ndarray, b: np.ndarray) -> tuple:
    """The square-support search: ``(found, x, y)``, where ``found`` masks the
    zero-sum games ``(a[g], b[g])`` whose equilibrium it proves unique and
    ``x``, ``y`` hold that equilibrium (zero elsewhere).

    Every matrix game has an optimal pair on a square kernel (Shapley and
    Snow), and a pair with every support weight above ``VALUE_TOL`` whose
    outside rows and columns each fall more than ``VALUE_TOL`` short of
    the value is the only one (Bohnenblust, Karlin and Shapley). For k =
    1, 2, ... the k x k support pairs of the games still open are solved
    in one ``_support_rows`` call. Games above ``SUPPORT_MAX`` on a side
    are not searched.
    """
    g, m, n = a.shape
    found = np.zeros(g, dtype=bool)
    x, y = np.zeros((g, m)), np.zeros((g, n))
    if max(m, n) > SUPPORT_MAX:
        return found, x, y
    todo = np.arange(g)
    for k in range(1, min(m, n) + 1):
        if not todo.size:
            break
        rx, cy = _support_pairs(m, n, k)
        at = np.repeat(todo, len(rx))
        rx, cy = np.tile(rx, (todo.size, 1)), np.tile(cy, (todo.size, 1))
        ga, gb = a[at], b[at]
        ok, xs, ys = _support_rows(ga, gb, rx, cy)
        pay1 = (ga @ ys[:, :, None])[:, :, 0]
        pay2 = (xs[:, None, :] @ gb)[:, 0, :]
        pair = np.arange(at.size)[:, None]
        u, v = pay1[pair, rx].min(axis=1), pay2[pair, cy].min(axis=1)
        # Support actions at -inf, so each max runs over the outside actions.
        pay1[pair, rx] = -np.inf
        pay2[pair, cy] = -np.inf
        strict = (ok & (xs[pair, rx].min(axis=1) > VALUE_TOL)
                  & (ys[pair, cy].min(axis=1) > VALUE_TOL)
                  & (pay1.max(axis=1) < u - VALUE_TOL) & (pay2.max(axis=1) < v - VALUE_TOL))
        games = at[strict]
        found[games] = True
        x[games], y[games] = xs[strict], ys[strict]
        todo = todo[~found[todo]]
    return found, x, y


def _cold_results(a: np.ndarray, b: np.ndarray) -> tuple:
    """Certified ``_results`` of each zero-sum game ``(a[g], b[g])`` from its payoffs alone.

    The square-support search (``_unique_supports``) first; each game
    whose equilibrium it does not prove unique (degenerate, tied or above
    ``SUPPORT_MAX``) takes one maximin LP, whose primal is the row mix
    and whose duals are the column mix. Where an LP point's two supports
    have the same size, the support solve polishes it to machine
    precision so the certificate holds at ``CERT_TOL``; elsewhere the LP
    point stands. The search's point is that polish already, and a unique
    equilibrium is the LP's point too, so the search changes no bit of
    the result. Raises ``RuntimeError`` when a gap exceeds ``CERT_TOL``.
    """
    found, x, y = _unique_supports(a, b)
    lp = np.flatnonzero(~found)
    for g in lp:
        xg, yg = _maximin_lp(a[g][None, None])
        x[g], y[g] = xg[0], yg[0]
    for rows, xs, ys in _square_supports(a[lp], x[lp] > SUPPORT_TOL, y[lp] > SUPPORT_TOL):
        x[lp[rows]], y[lp[rows]] = xs, ys
    res = _results(a, b, x, y)
    over = res[4][res[4] > CERT_TOL]
    if over.size:
        raise RuntimeError(f"zero-sum equilibrium failed certification (gap {over[0]})")
    return res


def zero_sum_value(game: StageGame) -> EquilibriumResult:
    """Solve a zero-sum game, certified: ``_cold_results`` on one row.

    The square-support search when it proves the equilibrium unique, else
    the maximin LP; either point is polished by the support solve, and the
    certificate is taken on the game's own payoff matrices.
    """
    if not game.zero_sum:
        raise ValueError("zero_sum_value requires payoff_p1 + payoff_p2 = 0")
    return _equilibria(_cold_results(game.payoff_p1[None], game.payoff_p2[None]))[0]


def _saddle(row_min, col_max):
    """Indices ``(i, j)`` of a pure saddle point of the zero-sum game whose
    row payoffs ``a`` have row minima ``row_min`` and column maxima
    ``col_max`` (lists of floats), or None.

    For a table ``a`` (rows of floats) those are ``list(map(min, a))`` and
    ``list(map(max, zip(*a)))``; the learner keeps them per state instead.
    Row ``i`` maximizes the row minima and column ``j`` minimizes the column
    maxima; a tie breaks to the lowest index.
    """
    lower, upper = max(row_min), min(col_max)
    if lower == upper:
        return row_min.index(lower), col_max.index(upper)
    return None


def _saddle_kept(row_min, col_max, ij, v, ai, bi) -> bool:
    """Whether a pure saddle ``ij = (i, j)`` of value ``v`` still stands after
    an update of cell ``(ai, bi)``: ``_saddle(row_min, col_max)`` is still
    ``ij`` and ``a[i][j]`` still equals ``v``.

    ``row_min`` and ``col_max`` are the lists after the update, which
    changed only ``row_min[ai]`` and ``col_max[bi]``; before it, ``_saddle``
    gave ``ij`` and ``a[i][j] == v``.
    """
    # Why this is exact. For v == a[i][j], _saddle returns (i, j) if and
    # only if row_min[i] == v == col_max[j], every earlier row has a minimum
    # below v and every earlier column a maximum above v. For the converse,
    # max(row_min) >= v >= min(col_max), and the lower value never exceeds
    # the upper (row_min[k] <= a[k][l] <= col_max[l]), so both equal v; the
    # first-index rule then gives the strict inequalities. Before the update
    # these held, and only row_min[ai] and col_max[bi] moved, so only i, j,
    # ai and bi need a look. An update of (i, j) itself left a[i][j] == v
    # whenever row_min[i] == v == col_max[j], since those bound it from
    # both sides; then 0.0 + a[i][j] keeps its bits too.
    i, j = ij
    return (row_min[i] == v and col_max[j] == v
            and (ai >= i or row_min[ai] < v) and (bi >= j or col_max[bi] > v))


def _closed_form(a):
    """The 2x2 mixing weights (x, y) of the zero-sum game with row payoffs
    ``a`` (rows of floats), or None.

    Applies to 2x2 games without a pure saddle point (``_saddle`` of the
    row minima and column maxima of ``a`` is None), whose weights lie in
    [0, 1]; any other game gives None.
    """
    if len(a) == len(a[0]) == 2:
        (p11, p12), (p21, p22) = a
        den = (p11 - p12) + (p22 - p21)
        if den != 0.0:
            p = (p22 - p21) / den
            q = (p22 - p12) / den
            if 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0:
                return [p, 1.0 - p], [q, 1.0 - q]
    return None


def _zero_sum_strategies(a) -> tuple:
    """Strategies (x, y), as lists, for the zero-sum game with row payoffs ``a``
    that has no pure saddle point.

    The 2x2 closed form when it applies, uncertified, else the certified
    strategies of the cold route (``_cold_results`` on one row). The
    learner scans each stage's kept row minima and column maxima first and
    takes a pure saddle's exploring CDFs from a table, so it calls this
    only on the stages without one;
    ``stage_values`` is its form for a table.
    """
    sol = _closed_form(a)
    if sol is not None:
        return sol
    a = np.array(a, dtype=float)[None]
    x, y, *_ = _cold_results(a, -a)
    return x[0].tolist(), y[0].tolist()


# ---------------------------------------------------------------------------
# One pass over a table of zero-sum stage games
# ---------------------------------------------------------------------------

def _bilinear(x, matrix, y) -> float:
    """``x' M y`` accumulated in a fixed order, skipping zero weights."""
    total = 0.0
    for i, xi in enumerate(x):
        if xi == 0.0:
            continue
        row = matrix[i]
        acc = 0.0
        for j, yj in enumerate(y):
            if yj != 0.0:
                acc += yj * row[j]
        total += xi * acc
    return total


def _bilinear_rows(x: np.ndarray, q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_bilinear(x[s], q[s], y[s])`` for every ``s``, in the same order of operations."""
    acc = np.zeros(q.shape[:2])
    for j in range(q.shape[2]):
        w = y[:, j, None]
        acc = np.where(w != 0.0, acc + w * q[:, :, j], acc)
    total = np.zeros(q.shape[0])
    for i in range(q.shape[1]):
        w = x[:, i]
        total = np.where(w != 0.0, total + w * acc[:, i], total)
    return total


def _closed_forms(q: np.ndarray) -> tuple:
    """``_saddle``'s one-hot pair, else ``_closed_form``, of every ``q[s]`` as
    array operations: ``(x, y, closed)``.

    Pure saddles by the scan on each state's row minima and column maxima,
    computed here as folds where the learner keeps them (``argmax`` and
    ``argmin`` keep the first index of a tie, as ``list.index`` does), then
    the other 2x2 games by the mixing formula. ``closed`` masks the states
    either one solved; the other rows of ``x`` and ``y`` are zero.
    """
    if not np.isfinite(q).all():
        raise ValueError("payoff matrices must be finite")
    ns, m, n = q.shape
    x = np.zeros((ns, m))
    y = np.zeros((ns, n))
    # Elementwise folds: numpy's reductions over a short last axis are slow.
    row_min = functools.reduce(np.minimum, (q[:, :, j] for j in range(n)))
    col_max = functools.reduce(np.maximum, (q[:, i, :] for i in range(m)))
    lower = functools.reduce(np.maximum, row_min.T)
    upper = functools.reduce(np.minimum, col_max.T)
    saddle = np.flatnonzero(lower == upper)
    x[saddle, row_min[saddle].argmax(axis=1)] = 1.0
    y[saddle, col_max[saddle].argmin(axis=1)] = 1.0
    closed = np.zeros(ns, dtype=bool)
    closed[saddle] = True
    if m == n == 2:
        mixed = np.flatnonzero(~closed)
        (p11, p12), (p21, p22) = q[mixed].transpose(1, 2, 0)
        den = (p11 - p12) + (p22 - p21)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = (p22 - p21) / den
            r = (p22 - p12) / den
        ok = (den != 0.0) & (0.0 <= p) & (p <= 1.0) & (0.0 <= r) & (r <= 1.0)
        mixed, p, r = mixed[ok], p[ok], r[ok]
        x[mixed] = np.stack([p, 1.0 - p], axis=1)
        y[mixed] = np.stack([r, 1.0 - r], axis=1)
        closed[mixed] = True
    return x, y, closed


def stage_values(q: np.ndarray, hint=None) -> tuple:
    """Value of every zero-sum stage game with row payoffs ``q[s]``, in one pass.

    ``values[s]`` is ``x' q[s] y`` summed in ``_bilinear``'s order, for
    the strategies the learner takes: a pure saddle's one-hot pair, else
    ``_zero_sum_strategies`` (the 2x2 closed form), else the cold route
    (the square-support search, else the LP). Returns ``(values,
    supports)``; ``supports`` (boolean masks of each state's row and
    column support) is the ``hint`` for the next pass on a nearby table,
    such as the next value-iteration sweep. With a hint, each state the
    closed form leaves first tries the support solve on its hinted
    supports, kept when the deviation gap is within ``CERT_TOL``; only
    the rest take the cold route. When the cold route would polish on
    the same supports, the two routes give the same bits.
    """
    x, y, closed = _closed_forms(q)
    rest = np.flatnonzero(~closed)
    cold = np.ones(rest.size, dtype=bool)
    if hint is not None:
        a = q[rest]
        for pick, xs, ys in _square_supports(a, hint[0][rest], hint[1][rest]):
            xs, ys, _, _, gap = _results(a[pick], 0.0 - a[pick], xs, ys)
            good = gap <= CERT_TOL
            x[rest[pick[good]]], y[rest[pick[good]]] = xs[good], ys[good]
            cold[pick[good]] = False
    rest = rest[cold]
    if rest.size:
        x[rest], y[rest], *_ = _cold_results(q[rest], 0.0 - q[rest])
    return _bilinear_rows(x, q, y), (x > SUPPORT_TOL, y > SUPPORT_TOL)


def stage_policies(q: np.ndarray) -> list:
    """Certified equilibrium of every zero-sum stage game ``(q[s], 0.0 - q[s])``.

    The closed form where it certifies, in one pass: the closed-form
    states are normalized, valued and certified as arrays. A closed form
    that fails certification, and every state the closed form leaves,
    takes the cold route, all in one call. No support hint is read, so
    the policies depend on ``q`` alone.
    """
    x, y, closed = _closed_forms(q)
    cf = np.flatnonzero(closed)
    res = _results(q[cf], 0.0 - q[cf], x[cf], y[cf])
    kept = res[4] <= CERT_TOL
    rest = np.union1d(np.flatnonzero(~closed), cf[~kept])
    out = [np.empty((q.shape[0],) + r.shape[1:]) for r in res]
    for o, r in zip(out, res):
        o[cf[kept]] = r[kept]
    if rest.size:
        for o, r in zip(out, _cold_results(q[rest], 0.0 - q[rest])):
            o[rest] = r
    return _equilibria(out)


# ---------------------------------------------------------------------------
# Support enumeration (oracle)
# ---------------------------------------------------------------------------

def support_enumeration(game: StageGame) -> list:
    """All equilibria of a small game by support-pair enumeration.

    Enumerates equal-size support pairs, solves each indifference system,
    keeps solutions that stay in the simplex and admit no profitable
    outside action. Exponential; restricted to matrices up to
    ``SUPPORT_MAX`` a side. The
    pairs of one size are solved and certified as one stack; results
    come in order of size, then row support, then column support.
    """
    m, n = game.shape
    if max(m, n) > SUPPORT_MAX:
        raise ValueError(f"support enumeration is limited to {SUPPORT_MAX}x{SUPPORT_MAX} games")
    found = []
    seen = set()
    for k in range(1, min(m, n) + 1):
        rx, cy = _support_pairs(m, n, k)
        a = np.broadcast_to(game.payoff_p1, (len(rx), m, n))
        b = np.broadcast_to(game.payoff_p2, (len(rx), m, n))
        ok, x, y = _support_rows(a, b, rx, cy)
        res = _results(a[ok], b[ok], x[ok], y[ok])
        certified = ~(res[4] > CERT_TOL)
        for eq in _equilibria([r[certified] for r in res]):
            key = (tuple(np.round(eq.strat_p1.probs, 9)),
                   tuple(np.round(eq.strat_p2.probs, 9)))
            if key not in seen:
                seen.add(key)
                found.append(eq)
    return found


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def solve_stage(game: StageGame) -> EquilibriumResult:
    """One certified equilibrium, deterministically selected.

    Zero-sum games go to ``zero_sum_value``. Otherwise Lemke-Howson runs
    are tried at increasing initial labels and the first certified result
    wins; support enumeration is the last resort for games up to
    ``SUPPORT_MAX`` a side. Raises ``RuntimeError`` when none of them
    finds a certified equilibrium.
    """
    if game.zero_sum:
        return zero_sum_value(game)
    m, n = game.shape
    for label in range(m + n):
        try:
            res = lemke_howson(game, label)
        except PivotLimitError:
            continue
        if res.deviation_gap <= CERT_TOL:
            return res
    results = support_enumeration(game) if max(m, n) <= SUPPORT_MAX else []
    if results:
        return results[0]
    raise RuntimeError("no certified equilibrium found")


def read_stage_game(path) -> StageGame:
    """Read two whitespace-separated matrices (blank-line delimited blocks).

    A line that is empty or holds only whitespace separates blocks. A file
    with a single block is interpreted as a zero-sum game.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    blocks = [
        [[float(tok) for tok in line.split()] for line in group]
        for blank, group in itertools.groupby(lines, key=lambda line: not line.strip())
        if not blank
    ]
    if len(blocks) not in (1, 2):
        raise ValueError(f"expected 1 or 2 matrix blocks, found {len(blocks)}")
    mats = []
    for rows in blocks:
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged matrix block")
        mats.append(np.array(rows))
    if len(mats) == 1:
        mats.append(-mats[0])
    return StageGame(payoff_p1=mats[0], payoff_p2=mats[1])
