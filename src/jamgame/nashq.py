"""Nash Q-learning and its minimax value-iteration oracle.

The sensor's stage reward is the exact negation of the attacker's, so
Nash-Q reduces to minimax-Q: one table ``Q1`` over (state, joint action)
holds the attacker's values and the sensor's view is derived from it as
``Q2 = -Q1`` (``QTables.q2``). Learning updates only the visited cell:
the target bootstraps through the equilibrium value of the *next*
state's stage game ``Q1[s']``, so the update is

    Q1 <- (1 - lr) Q1 + lr * (r1 + beta * pi1' Q1[s'] pi2)

with a per-cell harmonic learning rate.

The oracle iterates the same fixed point directly from the game's
compiled, factored transition law (a beta-contraction in the sup norm),
giving the reference table the learner is checked against.

Stage games are solved by ``equilibria``: the hot loops take the closed
form (pure saddle scan, 2x2 mixing formula) or the LP's strategies, and
``extract_policy`` certifies each state through ``solve_zero_sum``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .equilibria import ZERO_SUM_TOL, StageGame, _zero_sum_strategies, solve_zero_sum
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
    """The attacker's value table plus visit counts; the sensor's is derived.

    Arrays are indexed ``[state, attacker action, sensor action]``; counts
    record how often each joint cell was updated.
    """

    q1: np.ndarray
    visits: np.ndarray

    def __post_init__(self):
        if self.q1.shape != self.visits.shape:
            raise ValueError("table and visit counts must share one shape")

    @property
    def q2(self) -> np.ndarray:
        """The sensor's table; ``0.0 - q1`` keeps unvisited cells at +0.0."""
        return 0.0 - self.q1

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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.steps_per_episode <= 0:
            raise ValueError("steps_per_episode must be positive")
        if not (0 < self.lr_numerator < math.inf and 0 < self.lr_offset < math.inf):
            raise ValueError("learning-rate parameters must be positive and finite")
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
    mirror_max: float  # max |Q1 + Q2| of the returned tables
    snapshots: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ValueIterationResult:
    tables: QTables
    policies: list
    deltas: tuple  # sup-norm change per sweep
    sweeps: int


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


# ---------------------------------------------------------------------------
# Nash Q-learning (Algorithm: episodic asynchronous updates)
# ---------------------------------------------------------------------------

def nash_q_learn(
    spec: GameSpec,
    cfg: LearnConfig,
    track_state: int = 0,
    snapshot_episodes: tuple = (),
) -> LearnResult:
    """Learn the equilibrium Q-table from simulated play.

    Episodes restart from a uniformly random state. Within an episode,
    the joint action is sampled from the current stage-game equilibrium
    blended with a uniform exploration mix, the transition is sampled
    from the analytic model, and only the visited cell is updated.

    ``snapshot_episodes`` requests copies of Q1 after the given episode
    counts (used to measure convergence against the oracle).
    """
    rng = np.random.default_rng(cfg.seed)
    ns, na, nb = spec.compiled.reward.shape
    if not 0 <= track_state < ns:
        raise ValueError(f"track_state {track_state} is outside [0, {ns})")
    # The loop runs on Python floats: tables are nested lists until the end.
    r1 = spec.compiled.reward.tolist()
    q1 = np.zeros((ns, na, nb)).tolist()
    visits = np.zeros((ns, na, nb), dtype=np.int64).tolist()
    beta, lr_num, lr_off = spec.beta, cfg.lr_numerator, cfg.lr_offset
    eps = cfg.exploration
    keep, mix_a, mix_b = 1.0 - eps, eps * (1.0 / na), eps * (1.0 / nb)

    # Per-state exploring players' action CDFs and stage equilibrium,
    # invalidated when the state's cell changes.
    cache = [None] * ns

    def stage(si):
        if cache[si] is None:
            pi1, pi2 = _zero_sum_strategies(q1[si])
            if eps > 0.0:
                pa = [keep * p + mix_a for p in pi1]
                pb = [keep * p + mix_b for p in pi2]
            else:
                pa, pb = pi1, pi2
            cache[si] = ((list(accumulate(pa)), list(accumulate(pb))), pi1, pi2)
        return cache[si]

    def explore(si):
        return (cache[si] or stage(si))[0]

    curve = np.empty((cfg.episodes + 1, na, nb))
    curve[0] = q1[track_state]
    snapshots = {}
    wanted = sorted(set(int(e) for e in snapshot_episodes))

    for ep in range(cfg.episodes):
        start = int(rng.integers(ns))
        for si, ai, bi, nxt in play(spec, explore, start, cfg.steps_per_episode, rng):
            _, npi1, npi2 = stage(nxt)
            target = r1[si][ai][bi] + beta * _bilinear(npi1, q1[nxt], npi2)
            count = visits[si][ai][bi] + 1
            visits[si][ai][bi] = count
            lr = lr_num / (lr_off + count)  # cfg.learning_rate(count)
            row = q1[si][ai]
            row[bi] = (1.0 - lr) * row[bi] + lr * target
            cache[si] = None
        curve[ep + 1] = q1[track_state]
        if ep + 1 in wanted:
            snapshots[ep + 1] = np.array(q1)

    tables = QTables(q1=np.array(q1), visits=np.array(visits, dtype=np.int64))
    return LearnResult(
        tables=tables,
        policies=extract_policy(tables),
        curve=curve.reshape(cfg.episodes + 1, na * nb),
        tracked_state=track_state,
        mirror_max=tables.mirror_error,
        snapshots=snapshots,
    )


# ---------------------------------------------------------------------------
# Value-iteration oracle
# ---------------------------------------------------------------------------

def shapley_value_iteration(
    spec: GameSpec, tol: float = 1e-10, max_sweeps: int = 100000
) -> ValueIterationResult:
    """Solve the game's Q fixed point directly from the transition model.

    Each sweep replaces ``Q1`` with ``r1 + beta * E[val(s')]`` where
    ``val`` is the zero-sum value of the stage game at each state. The
    sweep map contracts at rate ``beta`` in the sup norm, so successive
    deltas shrink geometrically; iteration stops once they reach ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    model = spec.compiled
    r1 = model.reward
    ns, na, nb = r1.shape
    q1 = np.zeros((ns, na, nb))
    deltas = []
    for sweep in range(1, max_sweeps + 1):
        v = np.empty(ns)
        for si, a in enumerate(q1.tolist()):
            x, y = _zero_sum_strategies(a)
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
    return ValueIterationResult(
        tables=tables, policies=extract_policy(tables), deltas=tuple(deltas), sweeps=sweep
    )


# ---------------------------------------------------------------------------
# Policy extraction and rollout evaluation
# ---------------------------------------------------------------------------

def extract_policy(tables: QTables) -> list:
    """Per-state certified equilibrium of the stage game (Q1[s], Q2[s])."""
    return [solve_zero_sum(StageGame(payoff_p1=a, payoff_p2=b))
            for a, b in zip(tables.q1, tables.q2)]


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
    if n_rollouts < 1:
        raise ValueError(f"n_rollouts must be at least 1, got {n_rollouts}")
    if spec.beta**horizon > 1e-6:
        raise ValueError("horizon too short: beta^horizon must be at most 1e-6")
    r1 = spec.compiled.reward.tolist()
    policy = fixed_policy(*policy_arrays(policies))
    out = np.empty(n_rollouts)
    for k in range(n_rollouts):
        total = 0.0
        disc = 1.0
        for si, ai, bi, _ in play(spec, policy, start_index, horizon, rng):
            total += disc * r1[si][ai][bi]
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
    """Tables from ``qtables_to_json`` output; the stored ``q2`` must mirror ``q1``."""
    doc = json.loads(text)
    tables = QTables(
        q1=np.array(doc["q1"], dtype=float),
        visits=np.array(doc["visits"], dtype=np.int64),
    )
    q2 = np.array(doc["q2"], dtype=float)
    if q2.shape != tables.q1.shape or not (np.abs(tables.q1 + q2) <= ZERO_SUM_TOL).all():
        raise ValueError("stored q2 is not the negation of q1")
    return tables


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
