"""Nash Q-learning and its minimax value-iteration oracle.

The sensor's stage reward is the exact negation of the attacker's, so
Nash-Q reduces to minimax-Q: one table ``Q1`` over (state, joint action)
holds the attacker's values and the sensor's view is derived from it as
``Q2 = -Q1`` (``QTables.q2``). Learning updates only the visited cell:
the target bootstraps through the equilibrium value of the *next*
state's stage game ``Q1[s']``, so the update is

    Q1 <- (1 - lr) Q1 + lr * (r1 + beta * pi1' Q1[s'] pi2)

with a per-cell harmonic learning rate ``lr_numerator / (lr_offset + n)``
at the cell's ``n``-th visit.

The oracle iterates the same fixed point directly from the game's
compiled, factored transition law (a beta-contraction in the sup norm),
giving the reference table the learner is checked against.

Stage games are solved by ``equilibria``. The learner keeps each
state's row minima and column maxima, refreshing one of each per
update, and caches a state's exploring action CDFs with its stage value.
The saddle scan (``_saddle``) on the kept minima and maxima comes first:
a pure saddle's CDFs come from a table built once per run, and its value
is the table entry itself. Any other stage takes the 2x2 mixing formula
or the cold route's strategies (the square-support search when it proves
the equilibrium unique, else the LP), and ``_bilinear``. An update of a
state's table clears its entry, unless the entry is a pure saddle that
the update provably leaves in place (``_saddle_kept``).

A value-iteration sweep solves every state in one ``stage_values`` pass:
the closed form as array operations, then for each other state the
support it had one sweep earlier, kept only if its deviation gap is
within ``CERT_TOL``, else the cold route. That warm start is value
iteration's alone: across sweeps only values are carried. ``extract_policy``
certifies every state in one ``stage_policies`` pass, which takes no
hint, so the oracle's policies depend on its final table alone.

Tables are written as JSON (``qtables_to_json``) and CSV
(``write_qtable_csv``); no command reads a table file back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .equilibria import (
    _bilinear,
    _saddle,
    _saddle_kept,
    _zero_sum_strategies,
    stage_policies,
    stage_values,
)
from .game import _REPR, _STR, GameSpec, _label, _write_csv, fixed_policy, play

__all__ = [
    "QTables",
    "LearnConfig",
    "LearnResult",
    "ValueIterationResult",
    "nash_q_learn",
    "shapley_value_iteration",
    "extract_policy",
    "discounted_rollouts",
    "qtables_to_json",
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


@dataclass(frozen=True, eq=False)
class LearnResult:
    tables: QTables
    policies: list
    curve: np.ndarray  # per-episode Q1 values of state 0
    mirror_max: float  # max |Q1 + Q2| of the returned tables
    snapshots: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ValueIterationResult:
    tables: QTables
    policies: list
    deltas: tuple  # sup-norm change per sweep
    sweeps: int


# ---------------------------------------------------------------------------
# Nash Q-learning (Algorithm: episodic asynchronous updates)
# ---------------------------------------------------------------------------

def nash_q_learn(
    spec: GameSpec,
    cfg: LearnConfig,
    snapshot_episodes: tuple = (),
) -> LearnResult:
    """Learn the equilibrium Q-table from simulated play.

    Episodes restart from a uniformly random state. Within an episode,
    the joint action is sampled from the current stage-game equilibrium
    blended with a uniform exploration mix, the transition is sampled
    from the analytic model, and only the visited cell is updated.

    The loop keeps each state's row minima and column maxima: an update
    of cell ``(a, b)`` refreshes the minimum of row ``a`` and the maximum
    of column ``b``, read from a transposed copy of the table, and the
    saddle scan ``_saddle`` reads the kept lists instead of the table.
    They hold the bits ``map(min, ...)`` and ``map(max, ...)`` would.

    Each state's cache entry is ``(exploring CDFs, stage value, saddle)``,
    filled on first use, so the target reads the next state's value from
    it. A pure saddle ``(i, j)`` takes its CDFs from a precomputed
    ``na x nb`` table and its value as ``0.0 + Q1[s][i][j]``, the bits
    ``_bilinear`` gives on the one-hot pair. An update of the state's table
    clears a mixed entry. It keeps a pure one exactly when the scan would
    return the same saddle of the same value (``_saddle_kept``): the stage
    value is still the minimum of row ``i`` and the maximum of column
    ``j``, which pins ``Q1[s][i][j]`` to it, and the updated row and column
    do not now tie it at a lower index.

    ``curve`` holds state 0's Q1 row after every episode.
    ``snapshot_episodes`` requests copies of Q1 after the given episode
    counts (used to measure convergence against the oracle); a count
    outside ``[1, episodes]`` raises ``ValueError``.
    """
    wanted = sorted(set(int(e) for e in snapshot_episodes))
    outside = [e for e in wanted if not 1 <= e <= cfg.episodes]
    if outside:
        raise ValueError(f"snapshot episodes {outside} are outside [1, {cfg.episodes}]")
    rng = np.random.default_rng(cfg.seed)
    ns, na, nb = spec.compiled.reward.shape
    # The loop runs on Python floats: tables are nested lists until the end.
    r1 = spec.compiled.reward.tolist()
    q1 = np.zeros((ns, na, nb)).tolist()
    visits = np.zeros((ns, na, nb), dtype=np.int64).tolist()
    beta, lr_num, lr_off = spec.beta, cfg.lr_numerator, cfg.lr_offset
    eps = cfg.exploration
    keep, mix_a, mix_b = 1.0 - eps, eps * (1.0 / na), eps * (1.0 / nb)

    def explore_cdf(pi, mix):
        return list(accumulate([keep * p + mix for p in pi]))

    # A pure saddle's exploring CDFs depend only on its indices (i, j).
    cdfs_a = [explore_cdf([float(k == i) for k in range(na)], mix_a) for i in range(na)]
    cdfs_b = [explore_cdf([float(k == j) for k in range(nb)], mix_b) for j in range(nb)]
    saddle_cdfs = [[(ca, cb) for cb in cdfs_b] for ca in cdfs_a]

    # Each state's row minima and column maxima, refreshed at the updated
    # cell's row and column; a transposed copy of each table holds its
    # columns as lists.
    q1t = [[list(col) for col in zip(*a)] for a in q1]
    row_min = [list(map(min, a)) for a in q1]
    col_max = [list(map(max, at)) for at in q1t]

    # Per-state (exploring players' action CDFs, stage value, saddle), where
    # saddle is a pure saddle's (i, j) and None for a mixed stage.
    cache = [None] * ns

    def stage(si):
        a = q1[si]
        ij = _saddle(row_min[si], col_max[si])
        if ij is not None:
            # 0.0 + a[i][j] is _bilinear on the one-hot pair, bit for bit.
            i, j = ij
            cache[si] = entry = (saddle_cdfs[i][j], 0.0 + a[i][j], ij)
        else:
            pi1, pi2 = _zero_sum_strategies(a)
            cache[si] = entry = ((explore_cdf(pi1, mix_a), explore_cdf(pi2, mix_b)),
                                 _bilinear(pi1, a, pi2), None)
        return entry

    def explore(si):
        return (cache[si] or stage(si))[0]

    curve = np.empty((cfg.episodes + 1, na, nb))
    curve[0] = q1[0]
    snapshots = {}

    for ep in range(cfg.episodes):
        start = int(rng.integers(ns))
        for si, ai, bi, nxt in play(spec, explore, start, cfg.steps_per_episode, rng):
            target = r1[si][ai][bi] + beta * (cache[nxt] or stage(nxt))[1]
            count = visits[si][ai][bi] + 1
            visits[si][ai][bi] = count
            lr = lr_num / (lr_off + count)
            row = q1[si][ai]
            row[bi] = x = (1.0 - lr) * row[bi] + lr * target
            col = q1t[si][bi]
            col[ai] = x
            rm = row_min[si]
            rm[ai] = min(row)
            cm = col_max[si]
            cm[bi] = max(col)
            entry = cache[si]
            # The stage value 0.0 + a[i][j] compares as a[i][j] itself.
            if entry is not None and (entry[2] is None
                                      or not _saddle_kept(rm, cm, entry[2], entry[1], ai, bi)):
                cache[si] = None
        curve[ep + 1] = q1[0]
        if ep + 1 in wanted:
            snapshots[ep + 1] = np.array(q1)

    tables = QTables(q1=np.array(q1), visits=np.array(visits, dtype=np.int64))
    return LearnResult(
        tables=tables,
        policies=extract_policy(tables),
        curve=curve.reshape(cfg.episodes + 1, na * nb),
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

    A sweep solves all stage games in one ``equilibria.stage_values``
    pass: saddle and 2x2 states as arrays, every other state by the
    support it had one sweep earlier, kept only if its deviation gap is
    within ``CERT_TOL``, else by the cold route. The policies are
    extracted from the final table alone (``extract_policy``).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    model = spec.compiled
    r1 = model.reward
    q1 = np.zeros(r1.shape)
    hint = None
    deltas = []
    for sweep in range(1, max_sweeps + 1):
        v, hint = stage_values(q1, hint)
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
    """Per-state certified equilibrium of the stage game (Q1[s], Q2[s]).

    One ``equilibria.stage_policies`` pass: the closed form where it
    certifies, else the cold route, so the policies depend on ``Q1`` alone.
    """
    return stage_policies(tables.q1)


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


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _game_header(spec: GameSpec) -> dict:
    """The states and actions that index a table, as JSON-ready lists."""
    return {
        "states": [[s.tau, s.g_s, s.g_a] for s in spec.states],
        "actions_attacker": list(spec.actions_attacker),
        "actions_sensor": list(spec.actions_sensor),
    }


# A template leaf; ``json.dumps`` writes it as ``"@"``, which no key or number contains.
_LEAF = "@"


def _template(node, columns: list):
    """One record of ``node`` with a ``_LEAF`` per value, appending the record's
    value columns to ``columns`` in the order ``json.dumps(..., sort_keys=True)``
    writes them. ``node`` is an array with one row per record, or a dict or list
    of such nodes."""
    if isinstance(node, dict):
        return {key: _template(node[key], columns) for key in sorted(node)}
    if isinstance(node, list):
        return [_template(v, columns) for v in node]
    rows = np.asarray(node)
    columns.extend(rows.reshape(len(rows), -1).T)
    return np.full(rows.shape[1:], _LEAF, dtype=object).tolist()


def _game_json(spec: GameSpec, **fields) -> str:
    """JSON document of ``fields`` beside the states and actions that index them.

    Each field holds one record per state (see ``_template``). The text is
    ``json.dumps(doc, indent=2, sort_keys=True)`` of the nested-list document,
    byte for byte: ``json.dumps`` writes the actions and a skeleton with two
    template records per table, the literal pieces between its leaves become
    the separators, and every value is written as its ``repr``. A non-finite
    value raises ``ValueError``, since ``repr`` and ``json`` spell it apart.
    """
    tau, g_s, g_a = (np.array(col) for col in zip(*((s.tau, s.g_s, s.g_a)
                                                     for s in spec.states)))
    tables = {"states": [tau, g_s, g_a], **fields}
    skeleton = {"actions_attacker": list(spec.actions_attacker),
                "actions_sensor": list(spec.actions_sensor)}
    columns = {}
    for name, node in tables.items():
        columns[name] = []
        record = _template(node, columns[name])
        skeleton[name] = [record, record]
    pieces = iter(json.dumps(skeleton, indent=2, sort_keys=True).split(f'"{_LEAF}"'))
    out = [next(pieces)]
    for name in sorted(tables):
        cols = columns[name]
        k, n = len(cols), len(cols[0])
        # The pieces after each leaf of the two records: the first record's last
        # one leads into the next record, the second record's last closes the table.
        seps = [next(pieces) for _ in range(2 * k)]
        body = [None] * (2 * k * n)
        body[1::2] = seps[:k] * n
        body[-1] = seps[-1]
        for c, col in enumerate(cols):
            if not np.isfinite(col).all():
                raise ValueError(f"{name} holds a non-finite value")
            body[2 * c::2 * k] = map(repr, col.tolist())
        out += body
    return "".join(out)


def qtables_to_json(spec: GameSpec, tables: QTables) -> str:
    return _game_json(spec, q1=tables.q1, q2=tables.q2, visits=tables.visits)


def _q1_labels(spec: GameSpec) -> list:
    """``q1(a=..,b=..)`` column labels of the joint actions, sensor action fastest."""
    return [f"q1(a={_label(a)},b={_label(b)})"
            for a in spec.actions_attacker for b in spec.actions_sensor]


def write_qtable_csv(spec: GameSpec, tables: QTables, path) -> None:
    """Dump Q1 as one row per state, one column per joint action."""
    n = spec.n_states
    tau, g_s, g_a = zip(*((s.tau, s.g_s, s.g_a) for s in spec.states))
    columns = [([f"s{si}" for si in range(n)], _STR), (tau, _STR), (g_s, _REPR), (g_a, _REPR)]
    columns += [(q, _REPR) for q in tables.q1.reshape(n, -1).T]
    _write_csv(path, ["state", "tau", "g_s", "g_a"] + _q1_labels(spec), columns)
