"""The learner's numpy loop, kept as the reference the float loop must match.

This is the Nash-Q learner as it ran on numpy arrays: the stage-game
closed form on an ndarray, the exploring CDFs from ``np.add.accumulate``,
the tables indexed as arrays, and a stepper that calls ``rng.random()``
three times per step. The tests check that ``nash_q_learn``, ``play`` and
the scalar saddle scan and closed form (``equilibria._saddle`` and
``equilibria._closed_form``) reproduce it bit for bit.
"""

from types import SimpleNamespace

import numpy as np

from scalar_law_reference import learning_rate

from jamgame.channel import draw_index
from jamgame.equilibria import StageGame, zero_sum_value


def closed_form(a: np.ndarray):
    """Saddle scan (lowest-index ties), then the 2x2 mixing formula, else None."""
    m, n = a.shape
    row_min = a.min(axis=1)
    col_max = a.max(axis=0)
    if row_min.max() == col_max.min():
        x = np.zeros(m)
        y = np.zeros(n)
        x[np.argmax(row_min)] = 1.0
        y[np.argmin(col_max)] = 1.0
        return x, y
    if (m, n) == (2, 2):
        (p11, p12), (p21, p22) = a
        den = (p11 - p12) + (p22 - p21)
        if den != 0.0:
            p = (p22 - p21) / den
            q = (p22 - p12) / den
            if 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0:
                return np.array([p, 1.0 - p]), np.array([q, 1.0 - q])
    return None


def next_state(model, si, ai, bi, u):
    n = model.n_pairs
    tau, p = divmod(si, n)
    k = draw_index(model.cdf_rows[p][ai][bi], u)
    if k < n:
        return k
    return min(tau + 1, model.tau_max) * n + k - n


def play(spec, policy, start, steps, rng):
    """One scalar ``rng.random()`` each for the attacker, the sensor and the next state."""
    si = start
    for _ in range(steps):
        cdf_a, cdf_b = policy(si)
        ai = draw_index(cdf_a, rng.random())
        bi = draw_index(cdf_b, rng.random())
        nxt = next_state(spec.compiled, si, ai, bi, rng.random())
        yield si, ai, bi, nxt
        si = nxt


def bilinear(x, matrix, y):
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


def nash_q_learn(spec, cfg, snapshot_episodes=()):
    """Tables, state 0's curve and snapshots of the numpy loop, plus its LP
    fallback count."""
    rng = np.random.default_rng(cfg.seed)
    r1 = spec.compiled.reward
    ns, na, nb = r1.shape
    q1 = np.zeros((ns, na, nb))
    visits = np.zeros((ns, na, nb), dtype=np.int64)
    uniform_a = np.full(na, 1.0 / na)
    uniform_b = np.full(nb, 1.0 / nb)
    eps = cfg.exploration
    cache = [None] * ns
    lp_calls = 0

    def stage(si):
        nonlocal lp_calls
        if cache[si] is None:
            sol = closed_form(q1[si])
            if sol is None:
                lp_calls += 1
                res = zero_sum_value(StageGame(payoff_p1=q1[si], payoff_p2=-q1[si]))
                sol = res.strat_p1.probs, res.strat_p2.probs
            pi1, pi2 = sol
            if eps > 0.0:
                pa = (1.0 - eps) * pi1 + eps * uniform_a
                pb = (1.0 - eps) * pi2 + eps * uniform_b
            else:
                pa, pb = pi1, pi2
            cache[si] = (pi1, pi2, np.add.accumulate(pa), np.add.accumulate(pb))
        return cache[si]

    curve = np.empty((cfg.episodes + 1, na * nb))
    curve[0] = q1[0].ravel()
    snapshots = {}
    for ep in range(cfg.episodes):
        start = int(rng.integers(ns))
        for si, ai, bi, nxt in play(spec, lambda s: stage(s)[2:], start,
                                    cfg.steps_per_episode, rng):
            npi1, npi2 = stage(nxt)[:2]
            target = r1[si, ai, bi] + spec.beta * bilinear(npi1, q1[nxt], npi2)
            visits[si, ai, bi] += 1
            lr = learning_rate(cfg, int(visits[si, ai, bi]))
            q1[si, ai, bi] = (1.0 - lr) * q1[si, ai, bi] + lr * target
            cache[si] = None
        curve[ep + 1] = q1[0].ravel()
        if ep + 1 in snapshot_episodes:
            snapshots[ep + 1] = q1.copy()
    return SimpleNamespace(q1=q1, visits=visits, curve=curve, snapshots=snapshots,
                           lp_calls=lp_calls)
