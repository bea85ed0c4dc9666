"""Attacker-sensor stochastic game on top of the channel and plant models.

A state is ``(tau, g_s, g_a)``: the holding time since the last received
packet plus both players' current channel gains. The attacker picks a
jamming power, the sensor a transmission power; the attacker's stage
reward is ``Tr[h^tau(P_bar)] + alpha_s * b - alpha_a * a`` and the game
is zero-sum. Holding time is truncated at ``tau_max`` (failures saturate
there), which keeps the state space finite.

``GameSpec.compiled`` holds the rewards and the factored transition law,
which value iteration, the learner, ``play`` (the one stepping engine),
the Bayesian game and the structure checks read; the reward formula
above exists once, in ``_compile``. Stationary fading is the Markov chain whose
every row is the stationary law.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .channel import ChannelSpec, draw_index, packet_arrival_prob, stationary_distribution
from .equilibria import CERT_TOL
from .estimation import SystemModel, boundedness_threshold, steady_state_covariance

__all__ = [
    "CompiledGame",
    "GameSpec",
    "GameState",
    "play",
    "fixed_policy",
    "simulate_trajectory",
    "write_trajectory_csv",
    "TRAJECTORY_COLUMNS",
]

GAIN_MODES = ("stationary", "markov")

TRAJECTORY_COLUMNS = ("step", "tau", "g_s", "g_a", "a", "b", "q", "gamma", "trace_P", "r1")

# Largest deviation from 1 allowed in the sum of a policy row.
POLICY_SUM_TOL = 1e-9

# Most steps whose uniforms ``play`` draws, and rows ``_write_csv`` formats, at once.
_BLOCK_STEPS = 1024

# ``_write_csv`` cell formatters: a list of one column's values to their texts.
_REPR = partial(map, repr)
_STR = partial(map, str)


@dataclass(frozen=True)
class GameState:
    """Holding time plus the current sensor/attacker channel gains."""

    tau: int
    g_s: float
    g_a: float


@dataclass(frozen=True, eq=False)
class CompiledGame:
    """The game's rewards and factored transition law as read-only arrays.

    State index ``s = tau * n_pairs + p`` with ``p`` the gain pair
    ``(g_s, g_a)`` in state order. ``reward[s, a, b]`` is the attacker's
    stage reward, ``arrival[p, a, b]`` the packet's success probability,
    ``gain_step[p, p']`` the weight of next gain pair ``p'`` (the
    Kronecker square of the gain kernel), and ``cdf_rows[p][a][b]``, the
    list of floats ``play`` reads, the cumulative next-state law over
    ``2 * n_pairs`` entries: delivered (``tau' = 0``) pairs, then lost
    (``tau' = min(tau + 1, tau_max)``) pairs.
    """

    reward: np.ndarray
    arrival: np.ndarray
    gain_step: np.ndarray
    cdf_rows: list
    tau_max: int
    n_pairs: int

    def expected(self, v: np.ndarray) -> np.ndarray:
        """``E[v(s') | s, a, b]`` for every cell, shaped like ``reward``."""
        # w[t, p] = sum_p' gain_step[p, p'] v[t, p']
        w = v.reshape(self.tau_max + 1, self.n_pairs) @ self.gain_step.T
        lost = w[np.minimum(np.arange(1, self.tau_max + 2), self.tau_max)]
        q = self.arrival
        out = q * w[0][:, None, None] + (1.0 - q) * lost[:, :, None, None]
        return out.reshape(self.reward.shape)


def _compile(spec, desc: tuple) -> CompiledGame:
    n = len(desc) ** 2
    trace = np.array(spec.steady.trace_table)[:, None, None]
    acts_a = np.array(spec.actions_attacker)[None, :, None]
    acts_b = np.array(spec.actions_sensor)[None, None, :]
    reward = np.repeat(trace + spec.alpha_s * acts_b - spec.alpha_a * acts_a, n, axis=0)
    arrival = np.array([
        [[packet_arrival_prob(spec.channel, b, gs, a, ga) for b in spec.actions_sensor]
         for a in spec.actions_attacker]
        for gs in desc
        for ga in desc
    ])
    # Stationary fading is the Markov chain whose every row is mu; gains
    # ascend in the channel and descend in the states.
    k = np.tile(spec.mu, (len(desc), 1)) if spec.gain_mode == "stationary" else spec.channel.kernel
    gain_step = np.kron(k[::-1, ::-1], k[::-1, ::-1])
    q = arrival[..., None]
    g = gain_step[:, None, None, :]
    cdf_rows = np.cumsum(np.concatenate((q * g, (1.0 - q) * g), axis=-1), axis=-1).tolist()
    for arr in (reward, arrival, gain_step):
        arr.flags.writeable = False
    return CompiledGame(reward, arrival, gain_step, cdf_rows, spec.tau_max, n)


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Full description of the power-control game; derived tables cached.

    ``gain_mode`` selects the kernel that moves the gains from block to
    block: ``markov`` uses the channel's kernel, ``stationary`` the
    rank-one kernel whose every row is the stationary law ``mu``, so the
    next gains do not depend on the current ones.
    """

    actions_attacker: tuple
    actions_sensor: tuple
    alpha_s: float
    alpha_a: float
    beta: float
    tau_max: int
    channel: ChannelSpec
    model: SystemModel
    gain_mode: str = "stationary"

    # Derived (filled in __post_init__).
    states: tuple = field(init=False, repr=False)
    steady: object = field(init=False, repr=False)
    mu: np.ndarray = field(init=False, repr=False)
    compiled: CompiledGame = field(init=False, repr=False)
    min_arrival_prob: float = field(init=False, repr=False)
    bound_threshold: float = field(init=False, repr=False)
    boundedness_ok: bool = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("actions_attacker", "actions_sensor"):
            acts = tuple(float(v) for v in getattr(self, name))
            if not acts:
                raise ValueError(f"{name} must be nonempty")
            if not all(0 < v < math.inf for v in acts):
                raise ValueError(f"{name} must be positive and finite")
            if any(y <= x for x, y in zip(acts, acts[1:])):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, acts)
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not (0 <= self.alpha_s < math.inf and 0 <= self.alpha_a < math.inf):
            raise ValueError("reward weights must be nonnegative and finite")
        if self.tau_max < 1:
            raise ValueError("tau_max must be a positive integer")
        if self.gain_mode not in GAIN_MODES:
            raise ValueError(f"gain_mode must be one of {GAIN_MODES}")

        steady = steady_state_covariance(self.model, tau_max=self.tau_max)
        object.__setattr__(self, "steady", steady)
        object.__setattr__(self, "mu", stationary_distribution(self.channel).mu)

        # Gains within a tau block run high-to-low so the flat indexing puts
        # the best channel conditions first (stable dump ordering).
        desc = tuple(sorted(self.channel.gains, reverse=True))
        states = tuple(
            GameState(tau, gs, ga)
            for tau in range(self.tau_max + 1)
            for gs in desc
            for ga in desc
        )
        object.__setattr__(self, "states", states)

        compiled = _compile(self, desc)
        # Values are bounded by B = max|r| / (1 - beta); float64 rounding at
        # that scale must stay below the certification tolerance.
        bound = float(np.abs(compiled.reward).max()) / (1.0 - self.beta)
        if np.finfo(float).eps * bound > CERT_TOL:
            raise ValueError(
                f"tau_max={self.tau_max} with rho(A)={steady.rho_a:.6g} gives the value bound "
                f"B={bound:.3g}, too large to certify equilibria to {CERT_TOL:g} in float64"
            )
        object.__setattr__(self, "compiled", compiled)
        q_min = float(compiled.arrival.min())
        threshold = boundedness_threshold(steady)
        object.__setattr__(self, "min_arrival_prob", q_min)
        object.__setattr__(self, "bound_threshold", threshold)
        object.__setattr__(self, "boundedness_ok", q_min > threshold)
        if not self.boundedness_ok:
            warnings.warn(
                f"worst-case arrival probability {q_min:.4f} does not exceed "
                f"1 - 1/rho(A)^2 = {threshold:.4f}; the attacker can force an "
                "unbounded estimation error",
                stacklevel=3,
            )

    @property
    def n_states(self) -> int:
        return len(self.states)


def play(spec: GameSpec, policy, start: int, steps: int, rng: np.random.Generator):
    """Step the closed loop ``steps`` times from state index ``start``.

    ``policy(si)`` gives both players' action CDFs at ``si``, asked afresh
    each step. A step draws the attacker action, the sensor action, then
    the next state from the compiled ``cdf_rows``, one uniform each, and
    yields ``(si, ai, bi, next_si)``.

    Each draw is ``bisect_right`` on its CDF; only a uniform at or above
    the CDF's last entry, which rounding can leave below 1, goes to
    ``channel.draw_index`` for its last positive-mass entry.

    Uniforms come ``_BLOCK_STEPS`` steps' worth at a time from
    ``rng.random(n)``, the stream of ``n`` scalar draws; a consumer that
    stops early has advanced ``rng`` to the end of the current block.
    A ``start`` outside ``[0, n_states)`` raises ``ValueError``.
    """
    if not 0 <= start < spec.n_states:
        raise ValueError(f"start state {start} is outside [0, {spec.n_states})")
    model = spec.compiled
    cdf_rows, n, tau_max = model.cdf_rows, model.n_pairs, model.tau_max
    si = start
    for done in range(0, steps, _BLOCK_STEPS):
        u = iter(rng.random(3 * min(steps - done, _BLOCK_STEPS)).tolist())
        for ua, ub, un in zip(u, u, u):
            cdf_a, cdf_b = policy(si)
            ai = bisect_right(cdf_a, ua)
            if ai == len(cdf_a):
                ai = draw_index(cdf_a, ua)
            bi = bisect_right(cdf_b, ub)
            if bi == len(cdf_b):
                bi = draw_index(cdf_b, ub)
            tau, p = divmod(si, n)
            row = cdf_rows[p][ai][bi]
            k = bisect_right(row, un)
            if k == len(row):
                k = draw_index(row, un)
            nxt = k if k < n else min(tau + 1, tau_max) * n + k - n
            yield si, ai, bi, nxt
            si = nxt


def fixed_policy(policy_a, policy_s):
    """``play`` policy for fixed per-state mixed strategies (rows of each array).

    A row that is not a probability vector raises ``ValueError``.
    """
    for player, table in (("attacker", policy_a), ("sensor", policy_s)):
        ok = (table >= 0).all(axis=1) & (np.abs(table.sum(axis=1) - 1.0) <= POLICY_SUM_TOL)
        if not ok.all():
            raise ValueError(f"{player} row of state {int(np.argmin(ok))} is not a probability vector")
    cdf_a = np.cumsum(policy_a, axis=1).tolist()
    cdf_b = np.cumsum(policy_s, axis=1).tolist()
    return lambda si: (cdf_a[si], cdf_b[si])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Columnar record of one closed-loop rollout, fields in ``TRAJECTORY_COLUMNS`` order."""

    steps: np.ndarray
    tau: np.ndarray
    g_s: np.ndarray
    g_a: np.ndarray
    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    gamma: np.ndarray
    trace_p: np.ndarray
    r1: np.ndarray

    def discounted_return(self, beta: float) -> float:
        return float(np.sum(self.r1 * beta ** self.steps))


def simulate_trajectory(
    spec: GameSpec,
    policy_a,
    policy_s,
    horizon: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Roll the closed loop forward from state index 0 under fixed per-state policies.

    ``policy_a``/``policy_s`` are arrays of shape ``(n_states, n_actions)``
    whose rows are probability vectors. Records the pre-transition state,
    the joint action, the arrival outcome and the attacker reward at every
    step.
    """
    pa = np.asarray(policy_a, dtype=float)
    ps = np.asarray(policy_s, dtype=float)
    for player, table in (("attacker", pa), ("sensor", ps)):
        shape = (spec.n_states, len(getattr(spec, f"actions_{player}")))
        if table.shape != shape:
            raise ValueError(f"{player} table has shape {table.shape}, game needs {shape}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    steps = np.array(list(play(spec, fixed_policy(pa, ps), 0, horizon, rng)))
    si, ai, bi, nxt = steps.T
    model = spec.compiled
    tau = si // model.n_pairs
    return Trajectory(
        steps=np.arange(horizon),
        tau=tau,
        g_s=np.array([s.g_s for s in spec.states])[si],
        g_a=np.array([s.g_a for s in spec.states])[si],
        a=np.array(spec.actions_attacker)[ai],
        b=np.array(spec.actions_sensor)[bi],
        q=model.arrival[si % model.n_pairs, ai, bi],
        gamma=(nxt < model.n_pairs).astype(int),
        trace_p=np.array(spec.steady.trace_table)[tau],
        r1=model.reward[si, ai, bi],
    )


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per step under the ``TRAJECTORY_COLUMNS`` header."""
    columns = [(getattr(traj, f.name), _integral_cells) for f in fields(traj)]
    _write_csv(path, TRAJECTORY_COLUMNS, columns)


def _integral_cells(values: list):
    """``str(int(v))`` for integral ``v``, else ``repr(v)``; each distinct ``v`` once.
    ``0.0`` and ``-0.0`` are one dict key, so a ``repr`` column must not use a table."""
    text = {v: str(int(v)) if v == int(v) else repr(v) for v in set(values)}
    return map(text.__getitem__, values)


def _label(v: float) -> str:
    """A header or row label: ``f"{v:g}"`` if that reads back as ``v``, else ``repr(v)``."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


def _write_csv(path, header, columns) -> None:
    """Write the ``header`` labels, then one row per entry of ``columns``: ``(values, cells)``
    pairs of array-like ``values`` and a formatter (``_REPR``, ``_STR``, ``_integral_cells``).
    A block of ``_BLOCK_STEPS`` rows is formatted column by column and written as one string."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0][0]), _BLOCK_STEPS):
            texts = [cells(np.asarray(values[lo:lo + _BLOCK_STEPS]).tolist())
                     for values, cells in columns]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")
