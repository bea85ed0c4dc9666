"""The per-tuple Bayesian expansion and structure loops, kept as references.

Before the Bayesian game and the structure checks read ``spec.compiled``,
they evaluated the model one tuple at a time: a ``payoff(m, a, b, g_s,
g_a)`` callable built on ``reward_attacker`` and the erfc arrival law,
the expanded matrix and the per-type deviation gaps as nested loops over
it, and the ratio bound, the continuation difference and the reward
residue as loops over every gain and action tuple. The order checks
walked every pair of points: supermodularity as four nested products,
policy monotonicity as a double loop over states, and the exact reward
cancellation as a generator of ``Fraction`` sums. The tests check that
the array code reproduces these loops bit for bit.
"""

import itertools
from fractions import Fraction

import numpy as np

from jamgame.channel import packet_arrival_prob
from jamgame.game import reward_attacker


def payoff_function(spec, payoff_mode="stage", holding_values=None):
    """Attacker payoff ``payoff(m, a, b, g_s, g_a)`` of the Bayesian game."""
    if payoff_mode == "stage":
        def payoff(m, a, b, g_s, g_a):
            return reward_attacker(spec, m, a, b)
        return payoff

    vals = np.asarray(holding_values, dtype=float)

    def payoff(m, a, b, g_s, g_a):
        q = packet_arrival_prob(spec.channel, b, g_s, a, g_a)
        nxt = min(m + 1, spec.tau_max)
        cont = q * vals[0] + (1.0 - q) * vals[nxt]
        return reward_attacker(spec, m, a, b) + spec.beta * cont
    return payoff


def payoff_array(types, actions_attacker, actions_sensor, payoff, m=0):
    """``payoff[t_attacker, t_sensor, a, b]`` tabulated from a callable."""
    return np.array([
        [[[payoff(m, a, b, ts, ta) for b in actions_sensor] for a in actions_attacker]
         for ts in types]
        for ta in types
    ])


def _pure(actions, k):
    return list(itertools.product(range(len(actions)), repeat=k))


def expand_matrix(bspec, payoff, m):
    """Belief-weighted matrix over type-contingent pure strategies, entry by entry."""
    k = len(bspec.types)
    rows = _pure(bspec.actions_attacker, k)
    cols = _pure(bspec.actions_sensor, k)
    out = np.empty((len(rows), len(cols)))
    for ri, f in enumerate(rows):
        for ci, g in enumerate(cols):
            total = 0.0
            for ti in range(k):
                for tj in range(k):
                    w = bspec.belief[ti, tj]
                    if w == 0.0:
                        continue
                    a = bspec.actions_attacker[f[ti]]
                    b = bspec.actions_sensor[g[tj]]
                    total += w * payoff(m, a, b, bspec.types[tj], bspec.types[ti])
            out[ri, ci] = total
    return out


def bayes_deviation_gap(bspec, payoff, m, s_attacker, s_sensor):
    """Largest conditional improvement of any type, one payoff call per term."""
    k = len(bspec.types)
    na, nb = len(bspec.actions_attacker), len(bspec.actions_sensor)
    belief = bspec.belief
    cond_a = belief / belief.sum(axis=1, keepdims=True)
    cond_s = (belief / belief.sum(axis=0, keepdims=True)).T
    worst = 0.0
    for ti in range(k):
        by_action = np.zeros(na)
        for ai, a in enumerate(bspec.actions_attacker):
            for tj in range(k):
                w = cond_a[ti, tj]
                if w == 0.0:
                    continue
                for bi, b in enumerate(bspec.actions_sensor):
                    pb = s_sensor.probs[tj, bi]
                    if pb == 0.0:
                        continue
                    by_action[ai] += w * pb * payoff(m, a, b, bspec.types[tj], bspec.types[ti])
        have = float(s_attacker.probs[ti] @ by_action)
        worst = max(worst, float(by_action.max()) - have)
    for tj in range(k):
        by_action = np.zeros(nb)
        for bi, b in enumerate(bspec.actions_sensor):
            for ti in range(k):
                w = cond_s[tj, ti]
                if w == 0.0:
                    continue
                for ai, a in enumerate(bspec.actions_attacker):
                    pa = s_attacker.probs[ti, ai]
                    if pa == 0.0:
                        continue
                    by_action[bi] -= w * pa * payoff(m, a, b, bspec.types[tj], bspec.types[ti])
        have = float(s_sensor.probs[tj] @ by_action)
        worst = max(worst, float(by_action.max()) - have)
    return max(worst, 0.0)


def _arrival(spec, a, b, g_s, g_a):
    return packet_arrival_prob(spec.channel, b, g_s, a, g_a)


def epsilon_max(spec):
    """``(values, epsilon_max, condition_holds, witness, excluded)`` by enumeration."""
    gains = spec.channel.gains
    mu = spec.mu
    values = {}
    excluded = []
    cond = True
    witness = None
    pairs_a = [(hi, lo) for lo, hi in itertools.combinations(spec.actions_attacker, 2)]
    pairs_b = [(hi, lo) for lo, hi in itertools.combinations(spec.actions_sensor, 2)]

    def qdiff(apair, bpair, gs, ga):
        return _arrival(spec, apair[0], bpair[0], gs, ga) - _arrival(spec, apair[1], bpair[1], gs, ga)

    for (a_hi, a_lo), (b_hi, b_lo) in itertools.product(pairs_a, pairs_b):
        for gs, ga, gps, gpa in itertools.product(gains, repeat=4):
            num = mu[gains.index(ga)] * mu[gains.index(gs)] * qdiff((a_hi, a_lo), (b_hi, b_lo), gs, ga)
            den = mu[gains.index(gpa)] * mu[gains.index(gps)] * qdiff((a_hi, a_lo), (b_hi, b_lo), gps, gpa)
            key = (gs, ga, gps, gpa, a_hi, a_lo, b_hi, b_lo)
            if num <= 0 and cond:
                cond = False
                witness = key
            if den == 0.0:
                excluded.append(key)
                continue
            values[key] = float(num / den)
    return values, max(values.values()), cond, witness, tuple(excluded)


def continuation_difference_positive(spec, vbar):
    """``(ok, witness)`` over gain-averaged values ``vbar``, tuple by tuple."""
    gains = spec.channel.gains
    mu = spec.mu
    for m in range(spec.tau_max - 1):
        gap1 = vbar[0] - vbar[m + 1]
        gap2 = vbar[0] - vbar[m + 2]
        for a_lo, a_hi in itertools.combinations(spec.actions_attacker, 2):
            for b_lo, b_hi in itertools.combinations(spec.actions_sensor, 2):
                for gs, ga, gps, gpa in itertools.product(gains, repeat=4):
                    d = _arrival(spec, a_hi, b_hi, gs, ga) - _arrival(spec, a_lo, b_lo, gs, ga)
                    dp = _arrival(spec, a_hi, b_hi, gps, gpa) - _arrival(spec, a_lo, b_lo, gps, gpa)
                    u = mu[gains.index(gs)] * mu[gains.index(ga)]
                    up = mu[gains.index(gps)] * mu[gains.index(gpa)]
                    val = up * dp * gap2 - u * d * gap1
                    if val <= 0:
                        return False, (m, gs, ga, gps, gpa, a_hi, a_lo, b_hi, b_lo, val)
    return True, None


def reward_float_residue(spec):
    """Worst float residue of the alternating reward sum over ``reward_attacker``."""
    worst = 0.0
    for m in range(spec.tau_max):
        for a_lo, a_hi in itertools.combinations(spec.actions_attacker, 2):
            for b_lo, b_hi in itertools.combinations(spec.actions_sensor, 2):
                d = (
                    reward_attacker(spec, m + 1, a_hi, b_hi)
                    + reward_attacker(spec, m, a_lo, b_lo)
                    - reward_attacker(spec, m + 1, a_lo, b_lo)
                    - reward_attacker(spec, m, a_hi, b_hi)
                )
                worst = max(worst, abs(d))
    return worst


def reward_cancellation_exact(spec):
    """Whether the alternating reward sum is zero in rational arithmetic."""
    tt = [Fraction(t) for t in spec.steady.trace_table]
    a_s = Fraction(spec.alpha_s)
    a_a = Fraction(spec.alpha_a)

    def r_exact(m, a, b):
        return tt[m] + a_s * Fraction(b) - a_a * Fraction(a)

    return all(
        r_exact(m + 1, a_hi, b_hi) + r_exact(m, a_lo, b_lo)
        - r_exact(m + 1, a_lo, b_lo) - r_exact(m, a_hi, b_hi) == 0
        for m in range(spec.tau_max)
        for a_lo, a_hi in itertools.combinations(spec.actions_attacker, 2)
        for b_lo, b_hi in itertools.combinations(spec.actions_sensor, 2)
    )


def check_supermodular(table, n_state_axes):
    """``(ok, witness)`` of the strict four-point inequality, pair by pair."""
    table = np.asarray(table, dtype=float)
    state_ranges = [range(s) for s in table.shape[:n_state_axes]]
    act_ranges = [range(s) for s in table.shape[n_state_axes:]]
    for s_hi in itertools.product(*state_ranges):
        for s_lo in itertools.product(*state_ranges):
            if not all(h > l for h, l in zip(s_hi, s_lo)):
                continue
            for a_hi in itertools.product(*act_ranges):
                for a_lo in itertools.product(*act_ranges):
                    if not all(h > l for h, l in zip(a_hi, a_lo)):
                        continue
                    lhs = table[s_hi + a_hi] + table[s_lo + a_lo]
                    rhs = table[s_hi + a_lo] + table[s_lo + a_hi]
                    if lhs <= rhs:
                        return False, (s_hi + a_lo, s_lo + a_hi, float(lhs - rhs))
    return True, None


def check_monotone_policy(spec, policies, min_tau=0):
    """``(expected_ok, expected_witnesses, argmax_ok, argmax_witnesses)`` over
    every ordered pair of states."""
    acts_a = np.array(spec.actions_attacker)
    acts_b = np.array(spec.actions_sensor)
    exp_a = np.array([float(p.strat_p1.probs @ acts_a) for p in policies])
    exp_b = np.array([float(p.strat_p2.probs @ acts_b) for p in policies])
    arg_a = np.array([acts_a[int(np.argmax(p.strat_p1.probs))] for p in policies])
    arg_b = np.array([acts_b[int(np.argmax(p.strat_p2.probs))] for p in policies])
    exp_wit = []
    arg_wit = []
    for i, hi in enumerate(spec.states):
        if hi.tau < min_tau:
            continue
        for j, lo in enumerate(spec.states):
            if lo.tau < min_tau or not (hi.tau > lo.tau and hi.g_s > lo.g_s and hi.g_a > lo.g_a):
                continue
            if not (exp_a[i] > exp_a[j] and exp_b[i] > exp_b[j]):
                exp_wit.append((i, j))
            if not (arg_a[i] >= arg_a[j] and arg_b[i] >= arg_b[j]):
                arg_wit.append((i, j))
    return not exp_wit, tuple(exp_wit), not arg_wit, tuple(arg_wit)
