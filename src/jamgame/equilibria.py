"""Bimatrix stage-game solvers with deviation-gap certification.

Three routes are provided and cross-checked in the test suite:

* ``lemke_howson`` -- complementary pivoting on the two best-response
  polytopes, with lexicographic tie-breaking and a pivot budget;
* ``zero_sum_value`` -- one maximin linear program (HiGHS) whose duals
  are the column strategy, polished by the support solve;
* ``support_enumeration`` -- exhaustive support pairs for desk-scale
  games, used as the independent oracle.

``solve_zero_sum`` is the one certified zero-sum entry point: a pure
saddle scan and the 2x2 mixing formula, with the LP as the fallback.

Every result is certified against the *original* payoff matrices via
``deviation_gap``; tolerances are centralized below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "StageGame",
    "MixedStrategy",
    "EquilibriumResult",
    "PivotLimitError",
    "deviation_gap",
    "lemke_howson",
    "zero_sum_value",
    "solve_zero_sum",
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

# 1e-10 is the tightest feasibility tolerance HiGHS accepts; the support
# solve in zero_sum_value takes the certificate the rest of the way.
_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class PivotLimitError(RuntimeError):
    """Lemke-Howson exceeded its pivot budget (degenerate or cycling game)."""


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


def deviation_gap(game: StageGame, s1, s2) -> float:
    """Largest unilateral pure-deviation improvement over the given mix pair.

    Zero (within tolerance) if and only if the pair is a Nash equilibrium.
    """
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


def _result(game: StageGame, x: np.ndarray, y: np.ndarray) -> EquilibriumResult:
    x = np.clip(x, 0.0, None)
    y = np.clip(y, 0.0, None)
    x = x / x.sum()
    y = y / y.sum()
    s1 = MixedStrategy(x)
    s2 = MixedStrategy(y)
    v1 = float(x @ game.payoff_p1 @ y)
    v2 = float(x @ game.payoff_p2 @ y)
    return EquilibriumResult(s1, s2, v1, v2, deviation_gap(game, s1, s2))


# ---------------------------------------------------------------------------
# Lemke-Howson
# ---------------------------------------------------------------------------

def _lex_min_ratio(tableau: np.ndarray, col: int, id_cols) -> int:
    """Row of the lexicographic minimum ratio for the entering column.

    Compares (rhs, identity-history columns) componentwise, all divided by
    the pivot entry; this is the standard anti-cycling rule.
    """
    rows = np.nonzero(tableau[:, col] > 1e-12)[0]
    if rows.size == 0:
        raise PivotLimitError("entering column has no positive entry (unbounded ray)")
    best = None
    best_key = None
    cols = [tableau.shape[1] - 1] + list(id_cols)
    for r in rows:
        piv = tableau[r, col]
        key = tuple(tableau[r, c] / piv for c in cols)
        if best is None or key < best_key:
            best, best_key = int(r), key
    return best


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def lemke_howson(game: StageGame, initial_label: int = 0) -> EquilibriumResult:
    """Find one Nash equilibrium by complementary pivoting.

    ``initial_label`` is the label dropped first: ``0..m-1`` are row
    actions, ``m..m+n-1`` column actions. The payoffs are shifted to be
    positive internally; the certificate is computed on the originals.
    Raises ``PivotLimitError`` past ``10 (m+n)^2`` pivots; callers fall
    back to ``support_enumeration`` or ``zero_sum_value``.
    """
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


# ---------------------------------------------------------------------------
# Zero-sum linear programming
# ---------------------------------------------------------------------------

def _maximin_lp(a: np.ndarray) -> tuple:
    """Row and column players' optimal mixes ``(x, y)`` for payoff matrix ``a``.

    One LP: the row player's maximin. By LP duality the duals of its
    ``A' x >= v`` rows are the column player's minimax mix.
    """
    m, n = a.shape
    # Variables (x_1..x_m, v): maximize v s.t. A' x >= v, sum x = 1, x >= 0.
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-a.T, np.ones((n, 1))])
    b_ub = np.zeros(n)
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    bounds = [(0, None)] * m + [(None, None)]
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds,
        method="highs", options=_LP_OPTIONS,
    )
    if not res.success:
        raise RuntimeError(f"maximin LP failed: {res.message}")
    return res.x[:m], -res.ineqlin.marginals


def _indifference(sub: np.ndarray) -> np.ndarray:
    """``(z, u)`` with ``sub @ z = u`` in every row and ``sum(z) = 1``.

    The bordered ``(k+1) x (k+1)`` system of a square support block;
    raises ``LinAlgError`` when it is singular.
    """
    k = sub.shape[0]
    lhs = np.zeros((k + 1, k + 1))
    lhs[:k, :k] = sub
    lhs[:k, k] = -1.0
    lhs[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    return np.linalg.solve(lhs, rhs)


def zero_sum_value(game: StageGame) -> EquilibriumResult:
    """Solve a zero-sum game by linear programming, certified.

    One maximin LP on ``payoff_p1`` gives both strategies: the row mix
    from its primal, the column mix from its duals. When the two supports
    have the same size, the support solve of ``support_enumeration``
    polishes them to machine precision so the certificate holds at
    ``CERT_TOL``; otherwise the LP point stands.
    """
    if not game.zero_sum:
        raise ValueError("zero_sum_value requires payoff_p1 + payoff_p2 = 0")
    a = game.payoff_p1
    x, y = _maximin_lp(a)
    sup_x = np.nonzero(x > SUPPORT_TOL)[0]
    sup_y = np.nonzero(y > SUPPORT_TOL)[0]
    if sup_x.size == sup_y.size:
        sol = _support_solve(a, -a, sup_x, sup_y)
        if sol is not None:
            x, y = sol
    res = _result(game, x, y)
    if res.deviation_gap > CERT_TOL:
        raise RuntimeError(
            f"LP equilibrium failed certification (gap {res.deviation_gap})"
        )
    return res


def _closed_form(a):
    """Equilibrium (x, y) of the zero-sum game with row payoffs ``a``, or None.

    Works in scalars on ``a`` given as rows of floats. Pure saddle points
    are found by scanning (ties break to the lowest index); 2x2 games
    without one use the closed-form mixing weights, else None.
    """
    row_min = list(map(min, a))
    col_max = list(map(max, zip(*a)))
    lower, upper = max(row_min), min(col_max)
    if lower == upper:
        x = [0.0] * len(row_min)
        y = [0.0] * len(col_max)
        x[row_min.index(lower)] = 1.0
        y[col_max.index(upper)] = 1.0
        return x, y
    if len(row_min) == len(col_max) == 2:
        (p11, p12), (p21, p22) = a
        den = (p11 - p12) + (p22 - p21)
        if den != 0.0:
            p = (p22 - p21) / den
            q = (p22 - p12) / den
            if 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0:
                return [p, 1.0 - p], [q, 1.0 - q]
    return None


def _zero_sum_strategies(a) -> tuple:
    """Strategies (x, y), as lists, for the zero-sum game with row payoffs ``a``.

    The uncertified per-step form of ``solve_zero_sum`` for hot loops:
    the closed form when it applies, else the LP's strategies.
    """
    sol = _closed_form(a)
    if sol is not None:
        return sol
    res = zero_sum_value(StageGame(payoff_p1=a, payoff_p2=-np.array(a)))
    return res.strat_p1.probs.tolist(), res.strat_p2.probs.tolist()


def solve_zero_sum(game: StageGame) -> EquilibriumResult:
    """Certified equilibrium of a zero-sum game.

    The closed form (pure saddle, 2x2 mixing) is taken when its deviation
    gap is within ``CERT_TOL``; otherwise the LP solves the game.
    """
    if not game.zero_sum:
        raise ValueError("solve_zero_sum requires payoff_p1 + payoff_p2 = 0")
    sol = _closed_form(game.payoff_p1.tolist())
    if sol is not None:
        res = _result(game, *sol)
        if res.deviation_gap <= CERT_TOL:
            return res
    return zero_sum_value(game)


# ---------------------------------------------------------------------------
# Support enumeration (oracle)
# ---------------------------------------------------------------------------

def support_enumeration(game: StageGame) -> list:
    """All equilibria of a small game by support-pair enumeration.

    Enumerates equal-size support pairs, solves each indifference system,
    keeps solutions that stay in the simplex and admit no profitable
    outside action. Exponential; restricted to matrices up to 5x5.
    """
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


def _support_solve(a, b, sup_x, sup_y):
    k = sup_x.size
    # y on sup_y equalizing the row payoffs over sup_x, and vice versa.
    try:
        sol_y = _indifference(a[np.ix_(sup_x, sup_y)])
        sol_x = _indifference(b[np.ix_(sup_x, sup_y)].T)
    except np.linalg.LinAlgError:
        return None
    y_s, u = sol_y[:k], sol_y[k]
    x_s, v = sol_x[:k], sol_x[k]
    if y_s.min() < -SUPPORT_TOL or x_s.min() < -SUPPORT_TOL:
        return None
    x = np.zeros(a.shape[0])
    y = np.zeros(a.shape[1])
    x[sup_x] = np.clip(x_s, 0.0, None)
    y[sup_y] = np.clip(y_s, 0.0, None)
    # No action outside the support may beat the support payoff.
    if (a @ y).max() > u + SUPPORT_TOL or (x @ b).max() > v + SUPPORT_TOL:
        return None
    return x, y


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def solve_stage(game: StageGame) -> EquilibriumResult:
    """One certified equilibrium, deterministically selected.

    Zero-sum games go through ``solve_zero_sum``. Otherwise Lemke-Howson runs
    are tried at increasing initial labels and the first certified result
    wins; support enumeration is the last resort for small games.
    """
    if game.zero_sum:
        return solve_zero_sum(game)
    m, n = game.shape
    for label in range(m + n):
        try:
            res = lemke_howson(game, label)
        except PivotLimitError:
            continue
        if res.deviation_gap <= CERT_TOL:
            return res
    results = support_enumeration(game)
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
