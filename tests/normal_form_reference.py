"""The normal-form Bayesian solve, kept as the reference for the per-type LP.

Before ``solve_bayesian`` solved one LP over per-type mixes, it expanded
the game into a matrix over type-contingent pure strategies (every map
from own type to action), solved that with ``solve_zero_sum`` (now in
``single_game_reference``) and marginalized the mixed solution back into
one action distribution per type. The matrix has ``|actions|^|types|``
rows and columns per player, so it only serves games up to desk scale.
The tests check that the per-type LP certifies and agrees with it.
"""

import itertools

import numpy as np

from single_game_reference import solve_zero_sum

from jamgame.bayesian import BayesResult, TypeStrategy, bayes_deviation_gap
from jamgame.equilibria import StageGame


def pure_type_strategies(actions, n_types):
    """All maps type index -> action, in deterministic lexicographic order."""
    return list(itertools.product(range(len(actions)), repeat=n_types))


def n_pure_strategies(spec):
    """The larger player's count of type-contingent pure strategies."""
    return max(len(spec.actions_attacker), len(spec.actions_sensor)) ** len(spec.types)


def expand_matrix(spec):
    """Belief-weighted payoff matrix over type-contingent pure strategies.

    Row ``f`` assigns the attacker an action per own type, column ``g``
    does the same for the sensor; the entry averages the payoff over type
    pairs under the common prior. Zero-sum by construction.
    """
    k = len(spec.types)
    rows = np.array(pure_type_strategies(spec.actions_attacker, k))
    cols = np.array(pure_type_strategies(spec.actions_sensor, k))
    payoff = np.zeros((len(rows), len(cols)))
    # Type pairs are added in the same order for every entry.
    for ti in range(k):  # attacker's type
        for tj in range(k):  # sensor's type
            w = spec.belief[ti, tj]
            if w == 0.0:
                continue
            payoff += w * spec.payoff[ti, tj][np.ix_(rows[:, ti], cols[:, tj])]
    return StageGame(payoff_p1=payoff, payoff_p2=-payoff)


def marginalize(mix, actions, n_types):
    """Per-type action distributions of a mix over type-contingent strategies."""
    pures = pure_type_strategies(actions, n_types)
    probs = np.zeros((n_types, len(actions)))
    for w, pure in zip(mix, pures):
        for t, ai in enumerate(pure):
            probs[t, ai] += w
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    return TypeStrategy(probs=probs)


def solve_bayesian(spec):
    """Expand, solve the matrix game, marginalize; uncertified."""
    res = solve_zero_sum(expand_matrix(spec))
    k = len(spec.types)
    attacker = marginalize(res.strat_p1.probs, spec.actions_attacker, k)
    sensor = marginalize(res.strat_p2.probs, spec.actions_sensor, k)
    return BayesResult(
        attacker=attacker,
        sensor=sensor,
        value_attacker=res.value_p1,
        deviation_gap=bayes_deviation_gap(spec, attacker, sensor),
    )
