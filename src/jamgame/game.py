"""Attacker-sensor stochastic game on top of the channel and plant models.

A state is ``(tau, g_s, g_a)``: the holding time since the last received
packet plus both players' current channel gains. The attacker picks a
jamming power, the sensor a transmission power; the attacker's stage
reward is ``Tr[h^tau(P_bar)] + alpha_s * b - alpha_a * a`` and the game
is zero-sum. Holding time is truncated at ``tau_max`` (failures saturate
there), which keeps the state space finite.

``GameSpec.compiled`` holds the rewards and the factored transition law
as arrays, which value iteration, the learner, ``play`` (the one
stepping engine), the Bayesian game and the structure checks read;
``reward_attacker`` and ``transition_distribution`` are the scalar
reference reward and law.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSpec, draw_index, packet_arrival_prob, stationary_distribution
from .equilibria import CERT_TOL
from .estimation import SystemModel, boundedness_threshold, steady_state_covariance

__all__ = [
    "CompiledGame",
    "GameSpec",
    "GameState",
    "reward_attacker",
    "transition_distribution",
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

# Most steps whose uniforms ``play`` draws at once, so long horizons stay small.
_BLOCK_STEPS = 1024


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
    ``gain_step[p, p']`` the weight of next gain pair ``p'``, and
    ``cdf[p, a, b]`` the cumulative next-state law over ``2 * n_pairs``
    entries: delivered (``tau' = 0``) pairs, then lost
    (``tau' = min(tau + 1, tau_max)``) pairs; ``cdf_rows`` is the same
    law as nested lists of floats, which the stepping engine reads.
    """

    reward: np.ndarray
    arrival: np.ndarray
    gain_step: np.ndarray
    cdf: np.ndarray
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

    def next_state(self, si: int, ai: int, bi: int, u: float) -> int:
        """Next state index from ``si`` under actions ``(ai, bi)`` for uniform ``u``."""
        n = self.n_pairs
        tau, p = divmod(si, n)
        k = draw_index(self.cdf_rows[p][ai][bi], u)
        if k < n:
            return k
        return min(tau + 1, self.tau_max) * n + k - n


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
    if spec.gain_mode == "stationary":
        w = spec.mu[::-1]  # gains ascend in the channel, descend in the states
        gain_step = np.tile(np.outer(w, w).ravel(), (n, 1))
    else:
        k = spec.channel.kernel[::-1, ::-1]
        gain_step = np.kron(k, k)
    q = arrival[..., None]
    g = gain_step[:, None, None, :]
    cdf = np.cumsum(np.concatenate((q * g, (1.0 - q) * g), axis=-1), axis=-1)
    for arr in (reward, arrival, gain_step, cdf):
        arr.flags.writeable = False
    return CompiledGame(reward, arrival, gain_step, cdf, cdf.tolist(), spec.tau_max, n)


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Full description of the power-control game; derived tables cached.

    ``gain_mode`` selects how next-block gains enter the transition law:
    ``stationary`` draws them from the stationary distribution, ``markov``
    from the kernel rows of the current gains.
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
        object.__setattr__(
            self, "_index", {(s.tau, s.g_s, s.g_a): i for i, s in enumerate(states)}
        )

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

    def state_index(self, state: GameState) -> int:
        try:
            return self._index[(state.tau, state.g_s, state.g_a)]
        except KeyError:
            raise ValueError(f"{state} is not a state of this game") from None

    def attacker_index(self, a: float) -> int:
        try:
            return self.actions_attacker.index(float(a))
        except ValueError:
            raise ValueError(f"attacker action {a} not in {self.actions_attacker}") from None

    def sensor_index(self, b: float) -> int:
        try:
            return self.actions_sensor.index(float(b))
        except ValueError:
            raise ValueError(f"sensor action {b} not in {self.actions_sensor}") from None


def reward_attacker(spec: GameSpec, m: int, a: float, b: float) -> float:
    """Attacker stage reward at holding time ``m``; the sensor gets its negation."""
    if not 0 <= m <= spec.tau_max:
        raise ValueError(f"holding time {m} outside [0, {spec.tau_max}]")
    spec.attacker_index(a)
    spec.sensor_index(b)
    return spec.steady.trace_table[m] + spec.alpha_s * b - spec.alpha_a * a


def transition_distribution(spec: GameSpec, state: GameState, a: float, b: float) -> dict:
    """Distribution of the next state under joint action ``(a, b)``.

    On success the holding time resets to 0, on failure it saturates at
    ``tau_max``; next gains are weighted per ``gain_mode``. Probabilities
    sum to 1 over the support.
    """
    spec.state_index(state)
    q = packet_arrival_prob(spec.channel, b, state.g_s, a, state.g_a)
    if spec.gain_mode == "stationary":
        w_s = w_a = spec.mu
    else:
        w_s = spec.channel.kernel[spec.channel.gain_index(state.g_s)]
        w_a = spec.channel.kernel[spec.channel.gain_index(state.g_a)]
    tau_fail = min(state.tau + 1, spec.tau_max)
    out: dict = {}
    for i, gs in enumerate(spec.channel.gains):
        for j, ga in enumerate(spec.channel.gains):
            w = w_s[i] * w_a[j]
            if w == 0.0:
                continue
            if q > 0.0:
                ok = GameState(0, gs, ga)
                out[ok] = out.get(ok, 0.0) + q * w
            if q < 1.0:
                fail = GameState(tau_fail, gs, ga)
                out[fail] = out.get(fail, 0.0) + (1.0 - q) * w
    return out


def play(spec: GameSpec, policy, start: int, steps: int, rng: np.random.Generator):
    """Step the closed loop ``steps`` times from state index ``start``.

    ``policy(si)`` gives both players' action CDFs at ``si``, asked afresh
    each step. A step draws the attacker action, the sensor action, then
    the next state, one uniform each, and yields ``(si, ai, bi, next_si)``.

    Uniforms come ``_BLOCK_STEPS`` steps' worth at a time from
    ``rng.random(n)``, the stream of ``n`` scalar draws; a consumer that
    stops early has advanced ``rng`` to the end of the current block.
    A ``start`` outside ``[0, n_states)`` raises ``ValueError``.
    """
    if not 0 <= start < spec.n_states:
        raise ValueError(f"start state {start} is outside [0, {spec.n_states})")
    next_state = spec.compiled.next_state
    si = start
    for done in range(0, steps, _BLOCK_STEPS):
        u = iter(rng.random(3 * min(steps - done, _BLOCK_STEPS)).tolist())
        for ua, ub, un in zip(u, u, u):
            cdf_a, cdf_b = policy(si)
            ai = draw_index(cdf_a, ua)
            bi = draw_index(cdf_b, ub)
            nxt = next_state(si, ai, bi, un)
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
    """Columnar record of one closed-loop rollout."""

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
    na, nb = len(spec.actions_attacker), len(spec.actions_sensor)
    if pa.shape != (spec.n_states, na) or ps.shape != (spec.n_states, nb):
        raise ValueError("policies must cover every state")
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
    arrays = (
        traj.steps, traj.tau, traj.g_s, traj.g_a, traj.a,
        traj.b, traj.q, traj.gamma, traj.trace_p, traj.r1,
    )
    with open(path, "w") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in zip(*arrays):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if float(v) == int(v):
        return str(int(v))
    return repr(float(v))
