"""Incomplete-information variant: each player knows only its own gain.

A player's type is its channel gain; beliefs about the opponent's gain
come from the stationary distribution (default) or from the kernel row
of one's own gain. The game is solved in matrix form: pure strategies
become functions type -> action, the payoff matrix is the belief-weighted
expectation over type pairs, and the zero-sum expansion goes to
``solve_zero_sum``. The mixed solution is then marginalized back into one
action distribution per type and certified by the conditional deviation gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .equilibria import CERT_TOL, NORM_TOL, StageGame, solve_zero_sum
from .game import GameSpec, reward_attacker

__all__ = [
    "BayesianSpec",
    "TypeStrategy",
    "BayesResult",
    "bayesian_from_game",
    "expand_matrix",
    "solve_bayesian",
    "bayes_deviation_gap",
    "write_type_strategy_csv",
]

# Keeps |actions|^|types| per player at desk scale.
MAX_PURE_STRATEGIES = 64

BELIEF_MODES = ("stationary", "kernel")
PAYOFF_MODES = ("stage", "lookahead")


@dataclass(frozen=True, eq=False)
class BayesianSpec:
    """Type sets, common-prior belief and the per-type-pair payoff.

    ``belief[i, j]`` is the joint probability that the attacker's gain is
    ``types[i]`` and the sensor's is ``types[j]``; marginals must be
    positive. ``payoff(m, a, b, g_s, g_a)`` returns the attacker's reward
    (the sensor's is its negation); ``holding_time`` fixes ``m``.
    """

    actions_attacker: tuple
    actions_sensor: tuple
    types: tuple
    belief: np.ndarray
    payoff: object
    holding_time: int

    def __post_init__(self):
        object.__setattr__(self, "actions_attacker", tuple(float(a) for a in self.actions_attacker))
        object.__setattr__(self, "actions_sensor", tuple(float(b) for b in self.actions_sensor))
        object.__setattr__(self, "types", tuple(float(t) for t in self.types))
        if not (self.actions_attacker and self.actions_sensor and self.types):
            raise ValueError("actions and types must be nonempty")
        belief = np.array(self.belief, dtype=float)
        k = len(self.types)
        if belief.shape != (k, k):
            raise ValueError(f"belief must be {k}x{k}, got {belief.shape}")
        if belief.min() < 0 or abs(belief.sum() - 1.0) > NORM_TOL:
            raise ValueError("belief must be a probability distribution")
        if belief.sum(axis=1).min() <= 0 or belief.sum(axis=0).min() <= 0:
            raise ValueError("belief marginals must be positive")
        belief.flags.writeable = False
        object.__setattr__(self, "belief", belief)
        if not callable(self.payoff):
            raise ValueError("payoff must be callable")
        if self.holding_time < 0:
            raise ValueError("holding_time must be nonnegative")
        for n_act in (len(self.actions_attacker), len(self.actions_sensor)):
            if n_act**k > MAX_PURE_STRATEGIES:
                raise ValueError(
                    f"{n_act}^{k} type-contingent strategies exceed the "
                    f"desk-scale cap of {MAX_PURE_STRATEGIES}"
                )


@dataclass(frozen=True, eq=False)
class TypeStrategy:
    """One action distribution per own type; rows are simplex vectors."""

    probs: np.ndarray  # shape (n_types, n_actions)

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 2:
            raise ValueError("type strategy must be a matrix")
        if p.min() < -NORM_TOL or np.abs(p.sum(axis=1) - 1.0).max() > NORM_TOL:
            raise ValueError("every row must be a probability vector")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True, eq=False)
class BayesResult:
    attacker: TypeStrategy
    sensor: TypeStrategy
    value_attacker: float
    deviation_gap: float


def bayesian_from_game(
    spec: GameSpec,
    holding_time: int,
    belief_mode: str = "stationary",
    payoff_mode: str = "stage",
    holding_values: np.ndarray = None,
) -> BayesianSpec:
    """Build the incomplete-information game from a complete one.

    ``stage`` payoffs use the immediate reward only (the literal static
    game); ``lookahead`` adds the discounted expected continuation
    ``beta * (q(b, g_s, a, g_a) v(0) + (1-q) v(m+1))`` so the types enter
    through the channel. ``holding_values`` supplies the per-holding-time
    continuation values (gain-averaged), usually from the oracle.
    """
    if belief_mode not in BELIEF_MODES:
        raise ValueError(f"belief_mode must be one of {BELIEF_MODES}")
    if payoff_mode not in PAYOFF_MODES:
        raise ValueError(f"payoff_mode must be one of {PAYOFF_MODES}")
    if not 0 <= holding_time <= spec.tau_max:
        raise ValueError(f"holding_time outside [0, {spec.tau_max}]")
    mu = spec.mu
    if belief_mode == "stationary":
        belief = np.outer(mu, mu)
    else:
        # Common prior anchored on the attacker's stationary gain; the
        # sensor's gain is one kernel step from it. Identical kernel rows
        # collapse this to the stationary product.
        belief = mu[:, None] * spec.channel.kernel

    if payoff_mode == "stage":
        def payoff(m, a, b, g_s, g_a):
            return reward_attacker(spec, m, a, b)
    else:
        if holding_values is None:
            raise ValueError("lookahead payoffs need holding_values")
        vals = np.asarray(holding_values, dtype=float)
        if vals.shape != (spec.tau_max + 1,):
            raise ValueError(f"holding_values must have shape ({spec.tau_max + 1},)")

        def payoff(m, a, b, g_s, g_a):
            q = spec.arrival_prob(a, b, g_s, g_a)
            nxt = min(m + 1, spec.tau_max)
            cont = q * vals[0] + (1.0 - q) * vals[nxt]
            return reward_attacker(spec, m, a, b) + spec.beta * cont

    return BayesianSpec(
        actions_attacker=spec.actions_attacker,
        actions_sensor=spec.actions_sensor,
        types=spec.channel.gains,
        belief=belief,
        payoff=payoff,
        holding_time=holding_time,
    )


def _pure_type_strategies(actions, n_types):
    """All maps type index -> action, in deterministic lexicographic order."""
    return list(itertools.product(range(len(actions)), repeat=n_types))


def expand_matrix(spec: BayesianSpec) -> StageGame:
    """Belief-weighted payoff matrix over type-contingent pure strategies.

    Row ``f`` assigns the attacker an action per own type, column ``g``
    does the same for the sensor; the entry averages the payoff over type
    pairs under the common prior. Zero-sum by construction.
    """
    k = len(spec.types)
    rows = _pure_type_strategies(spec.actions_attacker, k)
    cols = _pure_type_strategies(spec.actions_sensor, k)
    m = spec.holding_time
    payoff = np.empty((len(rows), len(cols)))
    for ri, f in enumerate(rows):
        for ci, g in enumerate(cols):
            total = 0.0
            for ti in range(k):  # attacker's type
                for tj in range(k):  # sensor's type
                    w = spec.belief[ti, tj]
                    if w == 0.0:
                        continue
                    a = spec.actions_attacker[f[ti]]
                    b = spec.actions_sensor[g[tj]]
                    total += w * spec.payoff(m, a, b, spec.types[tj], spec.types[ti])
            payoff[ri, ci] = total
    return StageGame(payoff_p1=payoff, payoff_p2=-payoff)


def solve_bayesian(spec: BayesianSpec) -> BayesResult:
    """Solve the expanded game and marginalize back to per-type strategies."""
    game = expand_matrix(spec)
    res = solve_zero_sum(game)
    k = len(spec.types)
    attacker = _marginalize(res.strat_p1.probs, spec.actions_attacker, k)
    sensor = _marginalize(res.strat_p2.probs, spec.actions_sensor, k)
    gap = bayes_deviation_gap(spec, attacker, sensor)
    if gap > CERT_TOL:
        raise RuntimeError(f"Bayesian equilibrium failed certification (gap {gap})")
    return BayesResult(
        attacker=attacker,
        sensor=sensor,
        value_attacker=res.value_p1,
        deviation_gap=gap,
    )


def _marginalize(mix, actions, n_types) -> TypeStrategy:
    pures = _pure_type_strategies(actions, n_types)
    probs = np.zeros((n_types, len(actions)))
    for w, pure in zip(mix, pures):
        for t, ai in enumerate(pure):
            probs[t, ai] += w
    # Guard against drift from the LP mix before normalizing rows.
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    return TypeStrategy(probs=probs)


def _conditional(belief: np.ndarray, axis: int) -> np.ndarray:
    """Opponent-type distribution conditioned on own type along ``axis``."""
    if axis == 0:  # attacker's view: rows are own types
        return belief / belief.sum(axis=1, keepdims=True)
    return (belief / belief.sum(axis=0, keepdims=True)).T


def bayes_deviation_gap(spec: BayesianSpec, s_attacker: TypeStrategy, s_sensor: TypeStrategy) -> float:
    """Largest conditional improvement any type of either player can get.

    For each own type, compares the prescribed mix's expected payoff
    (conditioned on the opponent's type distribution given own type)
    against the best pure action. Zero within tolerance certifies a
    Bayesian Nash equilibrium.
    """
    k = len(spec.types)
    na, nb = len(spec.actions_attacker), len(spec.actions_sensor)
    if s_attacker.probs.shape != (k, na) or s_sensor.probs.shape != (k, nb):
        raise ValueError("strategy shape does not match the game")
    m = spec.holding_time
    cond_a = _conditional(spec.belief, axis=0)  # P(sensor type | attacker type)
    cond_s = _conditional(spec.belief, axis=1)  # P(attacker type | sensor type)
    worst = 0.0
    # Attacker maximizes payoff.
    for ti in range(k):
        by_action = np.zeros(na)
        for ai, a in enumerate(spec.actions_attacker):
            for tj in range(k):
                w = cond_a[ti, tj]
                if w == 0.0:
                    continue
                for bi, b in enumerate(spec.actions_sensor):
                    pb = s_sensor.probs[tj, bi]
                    if pb == 0.0:
                        continue
                    by_action[ai] += w * pb * spec.payoff(m, a, b, spec.types[tj], spec.types[ti])
        have = float(s_attacker.probs[ti] @ by_action)
        worst = max(worst, float(by_action.max()) - have)
    # Sensor maximizes the negated payoff.
    for tj in range(k):
        by_action = np.zeros(nb)
        for bi, b in enumerate(spec.actions_sensor):
            for ti in range(k):
                w = cond_s[tj, ti]
                if w == 0.0:
                    continue
                for ai, a in enumerate(spec.actions_attacker):
                    pa = s_attacker.probs[ti, ai]
                    if pa == 0.0:
                        continue
                    by_action[bi] -= w * pa * spec.payoff(m, a, b, spec.types[tj], spec.types[ti])
        have = float(s_sensor.probs[tj] @ by_action)
        worst = max(worst, float(by_action.max()) - have)
    return max(worst, 0.0)


def write_type_strategy_csv(spec: BayesianSpec, strategy: TypeStrategy, player: str, path) -> None:
    """One row per action, one column per own-type value."""
    actions = spec.actions_attacker if player == "attacker" else spec.actions_sensor
    if player not in ("attacker", "sensor"):
        raise ValueError("player must be 'attacker' or 'sensor'")
    with open(path, "w") as fh:
        fh.write("action," + ",".join(f"type={t:g}" for t in spec.types) + "\n")
        for ai, a in enumerate(actions):
            row = [f"{a:g}"] + [repr(float(strategy.probs[t, ai])) for t in range(len(spec.types))]
            fh.write(",".join(row) + "\n")
