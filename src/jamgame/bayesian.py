"""Incomplete-information variant: each player knows only its own gain.

A player's type is its channel gain; beliefs about the opponent's gain
come from the kernel row of one's own gain, where the stationary belief
(default) takes the kernel whose every row is the stationary law. Each
player's strategy is one action distribution per own type (a
behavioural strategy, which loses nothing under perfect recall). The
zero-sum game over them is the one maximin LP of ``equilibria``, fed the
belief-weighted payoff block of every type pair: its primal gives the
attacker's per-type mixes and its duals the sensor's. The pair is
certified by the conditional deviation gap.

``bayesian_from_game`` reads the per-type-pair payoffs off
``spec.compiled`` into one array: the rewards at the holding time and, for
lookahead payoffs, the continuation over the arrival probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibria import CERT_TOL, NORM_TOL, _maximin_lp, _normalized
from .game import _REPR, _STR, GameSpec, _label, _write_csv

__all__ = [
    "BayesianSpec",
    "TypeStrategy",
    "BayesResult",
    "bayesian_from_game",
    "solve_bayesian",
    "bayes_deviation_gap",
    "write_type_strategy_csv",
]

BELIEF_MODES = ("stationary", "kernel")
PAYOFF_MODES = ("stage", "lookahead")


@dataclass(frozen=True, eq=False)
class BayesianSpec:
    """Type sets, common-prior belief and the per-type-pair payoff.

    ``belief[i, j]`` is the joint probability that the attacker's gain is
    ``types[i]`` and the sensor's is ``types[j]``; marginals must be
    positive. ``payoff[i, j, a, b]`` is the attacker's reward at that type
    pair under action indices ``(a, b)``; the sensor's is its negation.
    """

    actions_attacker: tuple
    actions_sensor: tuple
    types: tuple
    belief: np.ndarray
    payoff: np.ndarray

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
        if not np.isfinite(belief).all():
            raise ValueError("belief must be finite")
        if belief.min() < 0 or abs(belief.sum() - 1.0) > NORM_TOL:
            raise ValueError("belief must be a probability distribution")
        if belief.sum(axis=1).min() <= 0 or belief.sum(axis=0).min() <= 0:
            raise ValueError("belief marginals must be positive")
        belief.flags.writeable = False
        object.__setattr__(self, "belief", belief)
        payoff = np.array(self.payoff, dtype=float)
        shape = (k, k, len(self.actions_attacker), len(self.actions_sensor))
        if payoff.shape != shape:
            raise ValueError(f"payoff must have shape {shape}, got {payoff.shape}")
        if not np.isfinite(payoff).all():
            raise ValueError("payoff must be finite")
        payoff.flags.writeable = False
        object.__setattr__(self, "payoff", payoff)


@dataclass(frozen=True, eq=False)
class TypeStrategy:
    """One action distribution per own type; rows are simplex vectors."""

    probs: np.ndarray  # shape (n_types, n_actions)

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 2:
            raise ValueError("type strategy must be a matrix")
        if not np.isfinite(p).all():
            raise ValueError("type strategy must be finite")
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
    # Common prior anchored on the attacker's stationary gain; the sensor's
    # gain is one kernel step from it. The stationary belief's kernel has
    # every row mu, so the two gains are independent.
    kernel = np.tile(mu, (len(mu), 1)) if belief_mode == "stationary" else spec.channel.kernel
    belief = mu[:, None] * kernel

    model = spec.compiled
    k = len(mu)
    # Rewards do not depend on the gains: every pair of a tau block holds them.
    reward = model.reward[holding_time * model.n_pairs]
    if payoff_mode == "stage":
        payoff = np.broadcast_to(reward, (k, k) + reward.shape)
    else:
        if holding_values is None:
            raise ValueError("lookahead payoffs need holding_values")
        vals = np.asarray(holding_values, dtype=float)
        if vals.shape != (spec.tau_max + 1,):
            raise ValueError(f"holding_values must have shape ({spec.tau_max + 1},)")
        # State pairs run (g_s, g_a) with gains descending; types ascend and
        # the attacker's comes first.
        q = model.arrival.reshape((k, k) + reward.shape)[::-1, ::-1].transpose(1, 0, 2, 3)
        nxt = min(holding_time + 1, spec.tau_max)
        payoff = reward + spec.beta * (q * vals[0] + (1.0 - q) * vals[nxt])

    return BayesianSpec(
        actions_attacker=spec.actions_attacker,
        actions_sensor=spec.actions_sensor,
        types=spec.channel.gains,
        belief=belief,
        payoff=payoff,
    )


def solve_bayesian(spec: BayesianSpec) -> BayesResult:
    """Per-type equilibrium mixes from one maximin LP, certified."""
    blocks = spec.belief[:, :, None, None] * spec.payoff
    x, y = _maximin_lp(blocks)
    # Guard against drift from the LP mix before normalizing rows.
    attacker, sensor = TypeStrategy(_normalized(x)), TypeStrategy(_normalized(y))
    gap = bayes_deviation_gap(spec, attacker, sensor)
    if gap > CERT_TOL:
        raise RuntimeError(f"Bayesian equilibrium failed certification (gap {gap})")
    x, y = attacker.probs, sensor.probs
    k = len(spec.types)
    # Type pairs in order, attacker's type outermost.
    value = sum(float(x[i] @ blocks[i, j] @ y[j]) for i in range(k) for j in range(k))
    return BayesResult(attacker=attacker, sensor=sensor, value_attacker=value, deviation_gap=gap)


def _conditional(belief: np.ndarray, axis: int) -> np.ndarray:
    """Opponent-type distribution conditioned on own type along ``axis``."""
    if axis == 0:  # attacker's view: rows are own types
        return belief / belief.sum(axis=1, keepdims=True)
    return (belief / belief.sum(axis=0, keepdims=True)).T


def _type_gap(payoff: np.ndarray, cond: np.ndarray, own: np.ndarray, opp: np.ndarray) -> float:
    """Largest gain of a best pure action over ``own``'s mix, over own types.

    ``payoff[own type, opponent type, own action, opponent action]`` is the
    player's payoff and ``cond[own type, opponent type]`` its belief.
    """
    by_action = np.zeros(own.shape)  # expected payoff per own type and action
    for t in range(opp.shape[0]):  # opponent's type
        for j in range(opp.shape[1]):  # opponent's action
            by_action += (cond[:, t] * opp[t, j])[:, None] * payoff[:, t, :, j]
    return max(float(row.max()) - float(mix @ row) for mix, row in zip(own, by_action))


def bayes_deviation_gap(spec: BayesianSpec, s_attacker: TypeStrategy, s_sensor: TypeStrategy) -> float:
    """Largest conditional improvement any type of either player can get.

    For each own type, compares the prescribed mix's expected payoff
    (conditioned on the opponent's type distribution given own type)
    against the best pure action. Zero within tolerance certifies a
    Bayesian Nash equilibrium.
    """
    k = len(spec.types)
    na, nb = len(spec.actions_attacker), len(spec.actions_sensor)
    x, y = s_attacker.probs, s_sensor.probs
    if x.shape != (k, na) or y.shape != (k, nb):
        raise ValueError("strategy shape does not match the game")
    # The sensor maximizes the negated payoff, seen from its own types and actions.
    gap_a = _type_gap(spec.payoff, _conditional(spec.belief, axis=0), x, y)
    gap_s = _type_gap(-spec.payoff.transpose(1, 0, 3, 2), _conditional(spec.belief, axis=1), y, x)
    return max(0.0, gap_a, gap_s)


def write_type_strategy_csv(spec: BayesianSpec, strategy: TypeStrategy, player: str, path) -> None:
    """One row per action, one column per own-type value."""
    if player not in ("attacker", "sensor"):
        raise ValueError("player must be 'attacker' or 'sensor'")
    actions = getattr(spec, f"actions_{player}")
    columns = [([_label(a) for a in actions], _STR)] + [(p, _REPR) for p in strategy.probs]
    _write_csv(path, ["action"] + [f"type={_label(t)}" for t in spec.types], columns)
