"""Nash Q-learning and its minimax value-iteration oracle.

Both players keep a Q-table over (state, joint action). Learning updates
only the visited cell: the target bootstraps through the equilibrium
value of the *next* state's stage game ``(Q1[s'], Q2[s'])``, so the
update is

    Q_i <- (1 - lr) Q_i + lr * (r_i + beta * pi1' Q_i[s'] pi2)

with a per-cell harmonic learning rate. Because the rewards are exact
negations and both players share one equilibrium selection, the tables
stay exact mirrors of each other throughout.

The oracle iterates the same fixed point directly from the game's
compiled, factored transition law (a beta-contraction in the sup norm),
giving the reference tables the learner is checked against.

Stage games here are zero-sum by construction; they are solved by a
closed-form routine (pure saddle scan, 2x2 mixing formula) that agrees
with the LP solver to machine precision and keeps the 10^6-step learning
loop off the LP solver's overhead. Larger action sets fall back to the LP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .equilibria import (
    CERT_TOL,
    EquilibriumResult,
    MixedStrategy,
    StageGame,
    deviation_gap,
    solve_stage,
    zero_sum_value,
)
from .game import GameSpec, fixed_policy, play

__all__ = [
    "QTables",
    "LearnConfig",
    "LearnResult",
    "ValueIterationResult",
    "nash_q_learn",
    "shapley_value_iteration",
    "extract_policy",
    "empirical_return",
    "discounted_rollouts",
    "qtables_to_json",
    "qtables_from_json",
    "write_qtable_csv",
]


@dataclass(frozen=True, eq=False)
class QTables:
    """Per-player value tables plus shared visit counts.

    Arrays are indexed ``[state, attacker action, sensor action]``; counts
    record how often each joint cell was updated.
    """

    q1: np.ndarray
    q2: np.ndarray
    visits: np.ndarray

    def __post_init__(self):
        if not (self.q1.shape == self.q2.shape == self.visits.shape):
            raise ValueError("tables and visit counts must share one shape")

    @property
    def mirror_error(self) -> float:
        return float(np.abs(self.q1 + self.q2).max())


@dataclass(frozen=True)
class LearnConfig:
    """Episode budget, learning-rate schedule and exploration weight."""

    episodes: int
    seed: int
    steps_per_episode: int = 20
    lr_numerator: float = 10.0
    lr_offset: float = 15.0
    exploration: float = 0.2

    def __post_init__(self):
        if self.episodes < 0:
            raise ValueError("episodes must be nonnegative")
        if self.steps_per_episode <= 0:
            raise ValueError("steps_per_episode must be positive")
        if self.lr_numerator <= 0 or self.lr_offset <= 0:
            raise ValueError("learning-rate parameters must be positive")
        if self.lr_numerator > self.lr_offset:
            raise ValueError("lr_numerator must not exceed lr_offset (rate must stay in (0,1])")
        if not 0.0 <= self.exploration <= 1.0:
            raise ValueError("exploration must lie in [0, 1]")

    def learning_rate(self, count: int) -> float:
        """Rate used at the ``count``-th visit of a cell (count >= 1)."""
        return self.lr_numerator / (self.lr_offset + count)


@dataclass(frozen=True, eq=False)
class LearnResult:
    tables: QTables
    policies: list
    curve: np.ndarray  # per-episode Q1 values of the tracked state
    tracked_state: int
    mirror_max: float
    snapshots: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ValueIterationResult:
    tables: QTables
    policies: list
    deltas: tuple  # sup-norm change per sweep
    sweeps: int


# ---------------------------------------------------------------------------
# Fast zero-sum stage solving for the hot loops
# ---------------------------------------------------------------------------

def _solve_zero_sum_fast(matrix: np.ndarray):
    """Equilibrium (x, y) of a zero-sum stage game given the row payoffs.

    Pure saddle points are found by scanning; 2x2 games without one use
    the closed-form mixing weights. Returns None when neither applies
    (caller then pays for the LP).
    """
    m, n = matrix.shape
    row_min = matrix.min(axis=1)
    col_max = matrix.max(axis=0)
    maximin = row_min.max()
    minimax = col_max.min()
    if maximin == minimax:  # pure saddle; ties break to the lowest index
        i = int(np.argmax(row_min))
        j = int(np.argmin(col_max))
        x = np.zeros(m)
        y = np.zeros(n)
        x[i] = 1.0
        y[j] = 1.0
        return x, y
    if (m, n) == (2, 2):
        a, b = matrix[0]
        c, d = matrix[1]
        den = (a - b) + (d - c)
        if den != 0.0:
            p = (d - c) / den
            q = (d - b) / den
            if 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0:
                return np.array([p, 1.0 - p]), np.array([q, 1.0 - q])
    return None


def _stage_equilibrium(matrix: np.ndarray):
    """Strategies for the zero-sum stage game with row payoffs ``matrix``."""
    sol = _solve_zero_sum_fast(matrix)
    if sol is not None:
        return sol
    res = zero_sum_value(StageGame(payoff_p1=matrix, payoff_p2=-matrix))
    return res.strat_p1.probs, res.strat_p2.probs


def _bilinear(x, matrix, y) -> float:
    """``x' M y`` accumulated in a fixed order (exact under negation)."""
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


# ---------------------------------------------------------------------------
# Nash Q-learning (Algorithm: episodic asynchronous updates)
# ---------------------------------------------------------------------------

def nash_q_learn(
    spec: GameSpec,
    cfg: LearnConfig,
    track_state: int = 0,
    snapshot_episodes: tuple = (),
) -> LearnResult:
    """Learn both players' equilibrium Q-tables from simulated play.

    Episodes restart from a uniformly random state. Within an episode,
    the joint action is sampled from the current stage-game equilibrium
    blended with a uniform exploration mix, the transition is sampled
    from the analytic model, and only the visited cell is updated. The
    mirror error max ``|Q1 + Q2|`` is tracked across the whole run.

    ``snapshot_episodes`` requests copies of Q1 after the given episode
    counts (used to measure convergence against the oracle).
    """
    rng = np.random.default_rng(cfg.seed)
    r1 = spec.compiled.reward
    ns, na, nb = r1.shape
    q1 = np.zeros((ns, na, nb))
    q2 = np.zeros((ns, na, nb))
    visits = np.zeros((ns, na, nb), dtype=np.int64)

    uniform_a = np.full(na, 1.0 / na)
    uniform_b = np.full(nb, 1.0 / nb)
    eps = cfg.exploration

    # Per-state stage equilibrium and the exploring players' action CDFs,
    # invalidated when the state's cell changes.
    cache = [None] * ns

    def stage(si):
        if cache[si] is None:
            pi1, pi2 = _stage_equilibrium(q1[si])
            if eps > 0.0:
                pa = (1.0 - eps) * pi1 + eps * uniform_a
                pb = (1.0 - eps) * pi2 + eps * uniform_b
            else:
                pa, pb = pi1, pi2
            cache[si] = (pi1, pi2, np.add.accumulate(pa), np.add.accumulate(pb))
        return cache[si]

    def explore(si):
        return stage(si)[2:]

    curve = np.empty((cfg.episodes + 1, na * nb))
    curve[0] = q1[track_state].ravel()
    snapshots = {}
    mirror_max = 0.0
    wanted = sorted(set(int(e) for e in snapshot_episodes))

    for ep in range(cfg.episodes):
        start = int(rng.integers(ns))
        for si, ai, bi, nxt in play(spec, explore, start, cfg.steps_per_episode, rng):
            npi1, npi2 = stage(nxt)[:2]
            target1 = r1[si, ai, bi] + spec.beta * _bilinear(npi1, q1[nxt], npi2)
            target2 = -r1[si, ai, bi] + spec.beta * _bilinear(npi1, q2[nxt], npi2)
            visits[si, ai, bi] += 1
            lr = cfg.learning_rate(int(visits[si, ai, bi]))
            q1[si, ai, bi] = (1.0 - lr) * q1[si, ai, bi] + lr * target1
            q2[si, ai, bi] = (1.0 - lr) * q2[si, ai, bi] + lr * target2
            cache[si] = None
        curve[ep + 1] = q1[track_state].ravel()
        if ep + 1 in wanted:
            snapshots[ep + 1] = q1.copy()
            mirror_max = max(mirror_max, float(np.abs(q1 + q2).max()))
    mirror_max = max(mirror_max, float(np.abs(q1 + q2).max()))

    tables = QTables(q1=q1, q2=q2, visits=visits)
    return LearnResult(
        tables=tables,
        policies=extract_policy(tables),
        curve=curve,
        tracked_state=track_state,
        mirror_max=mirror_max,
        snapshots=snapshots,
    )


# ---------------------------------------------------------------------------
# Value-iteration oracle
# ---------------------------------------------------------------------------

def shapley_value_iteration(
    spec: GameSpec, tol: float = 1e-10, max_sweeps: int = 100000
) -> ValueIterationResult:
    """Solve the game's Q fixed point directly from the transition model.

    Each sweep replaces ``Q_i`` with ``r_i + beta * E[val_i(s')]`` where
    ``val_i`` is the zero-sum value of the stage game at each state. The
    sweep map contracts at rate ``beta`` in the sup norm, so successive
    deltas shrink geometrically; iteration stops once they reach ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    model = spec.compiled
    r1 = model.reward
    ns, na, nb = r1.shape
    q1 = np.zeros((ns, na, nb))
    q2 = np.zeros((ns, na, nb))
    deltas = []
    for sweep in range(1, max_sweeps + 1):
        v1 = np.empty(ns)
        v2 = np.empty(ns)
        for si in range(ns):
            x, y = _stage_equilibrium(q1[si])
            v1[si] = _bilinear(x, q1[si], y)
            v2[si] = _bilinear(x, q2[si], y)
        new1 = r1 + spec.beta * model.expected(v1)
        new2 = -r1 + spec.beta * model.expected(v2)
        delta = max(
            float(np.abs(new1 - q1).max()),
            float(np.abs(new2 - q2).max()),
        )
        q1, q2 = new1, new2
        deltas.append(delta)
        if delta <= tol:
            break
    else:
        raise RuntimeError(f"value iteration did not reach tol={tol} in {max_sweeps} sweeps")
    tables = QTables(q1=q1, q2=q2, visits=np.zeros_like(q1, dtype=np.int64))
    return ValueIterationResult(
        tables=tables, policies=extract_policy(tables), deltas=tuple(deltas), sweeps=sweep
    )


# ---------------------------------------------------------------------------
# Policy extraction and rollout evaluation
# ---------------------------------------------------------------------------

def extract_policy(tables: QTables) -> list:
    """Per-state certified equilibrium of the stage game (Q1[s], Q2[s])."""
    out = []
    for si in range(tables.q1.shape[0]):
        game = StageGame(payoff_p1=tables.q1[si], payoff_p2=tables.q2[si])
        if game.zero_sum:
            x, y = _stage_equilibrium(tables.q1[si])
            s1, s2 = MixedStrategy(x), MixedStrategy(y)
            res = EquilibriumResult(
                strat_p1=s1,
                strat_p2=s2,
                value_p1=_bilinear(x, tables.q1[si], y),
                value_p2=_bilinear(x, tables.q2[si], y),
                deviation_gap=deviation_gap(game, s1, s2),
            )
            if res.deviation_gap > CERT_TOL:
                res = zero_sum_value(game)
        else:
            res = solve_stage(game)
        out.append(res)
    return out


def policy_arrays(policies) -> tuple:
    """Stack per-state strategies into (attacker, sensor) policy matrices."""
    pa = np.vstack([p.strat_p1.probs for p in policies])
    ps = np.vstack([p.strat_p2.probs for p in policies])
    return pa, ps


def discounted_rollouts(
    spec: GameSpec,
    policies,
    horizon: int,
    n_rollouts: int,
    rng: np.random.Generator,
    start_index: int = 0,
) -> np.ndarray:
    """Per-rollout discounted attacker returns from the given start state."""
    if spec.beta**horizon > 1e-6:
        raise ValueError("horizon too short: beta^horizon must be at most 1e-6")
    r1 = spec.compiled.reward
    policy = fixed_policy(*policy_arrays(policies))
    out = np.empty(n_rollouts)
    for k in range(n_rollouts):
        total = 0.0
        disc = 1.0
        for si, ai, bi, _ in play(spec, policy, start_index, horizon, rng):
            total += disc * r1[si, ai, bi]
            disc *= spec.beta
        out[k] = total
    return out


def empirical_return(
    spec: GameSpec,
    policies,
    horizon: int,
    n_rollouts: int,
    rng: np.random.Generator,
    start_index: int = 0,
) -> float:
    """Monte-Carlo estimate of the attacker's discounted value at a state."""
    return float(discounted_rollouts(spec, policies, horizon, n_rollouts, rng, start_index).mean())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def qtables_to_json(spec: GameSpec, tables: QTables) -> str:
    doc = {
        "states": [[s.tau, s.g_s, s.g_a] for s in spec.states],
        "actions_attacker": list(spec.actions_attacker),
        "actions_sensor": list(spec.actions_sensor),
        "q1": tables.q1.tolist(),
        "q2": tables.q2.tolist(),
        "visits": tables.visits.tolist(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def qtables_from_json(text: str) -> QTables:
    doc = json.loads(text)
    return QTables(
        q1=np.array(doc["q1"], dtype=float),
        q2=np.array(doc["q2"], dtype=float),
        visits=np.array(doc["visits"], dtype=np.int64),
    )


def write_qtable_csv(spec: GameSpec, tables: QTables, path) -> None:
    """Dump Q1 as one row per state, one column per joint action."""
    pairs = [
        (ai, bi)
        for ai in range(len(spec.actions_attacker))
        for bi in range(len(spec.actions_sensor))
    ]
    header = ["state", "tau", "g_s", "g_a"] + [
        f"q1(a={spec.actions_attacker[ai]:g},b={spec.actions_sensor[bi]:g})"
        for ai, bi in pairs
    ]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for si, s in enumerate(spec.states):
            row = [f"s{si}", str(s.tau), repr(s.g_s), repr(s.g_a)]
            row += [repr(float(tables.q1[si, ai, bi])) for ai, bi in pairs]
            fh.write(",".join(row) + "\n")
