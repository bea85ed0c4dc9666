"""Independent reference checks for the benchmark's outputs.

Everything here is rebuilt from the paper's formulas and the profile
document (the JSON config the program reads), never from ``jamgame``:

* the scalar Riccati root and the trace table from ``h(p) = A^2 p + Q``;
* the arrival probability ``q = 1 - erfc(sqrt(alpha * SINR / 2))``;
* the factored Bellman operator
  ``r + beta (q E_g V(0, .) + (1 - q) E_g V(min(tau + 1, tau_max), .))``
  with stationary or kernel gain weights per ``gain_mode``;
* a numpy deviation gap, a ``linprog`` zero-sum value, the Bayesian
  conditional gap and vectorised supermodularity / monotonicity verdicts.

Each check returns a list of failure messages (empty when it passes) so
the benchmark can report every problem of a run at once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import erfc

# Certified equilibria have a deviation gap at most this (the paper's
# acceptance tolerance, stated absolutely like the program's).
GAP_TOL = 1e-8
# Zero-sum values from two LP formulations agree within this.
VALUE_TOL = 1e-7
# Bellman residual allowed, relative to 1 + max|Q*|: value iteration stops
# at a sweep change of 1e-10, and the iterated Riccati fixed point differs
# from the closed-form root by ~1e-12 relative, amplified by A^(2 tau).
BELLMAN_RTOL = 1e-9
# Standard deviations allowed for sampled statistics; a false alarm at 6
# sigma has probability ~2e-9 per group, so no seed trips it by chance.
Z_BOUND = 6.0


# ---------------------------------------------------------------------------
# Plant and channel
# ---------------------------------------------------------------------------

def _scalar(mat, name) -> float:
    arr = np.asarray(mat, dtype=float)
    if arr.shape != (1, 1):
        raise ValueError(f"reference checks cover scalar plants only; {name} is {arr.shape}")
    return float(arr[0, 0])


def riccati_root(a: float, c: float, q: float, r: float) -> float:
    """Posterior steady variance of the scalar Kalman filter.

    ``p = g(h(p))`` with ``h(p) = a^2 p + q`` and ``g(x) = x r / (c^2 x + r)``
    rearranges to ``c^2 a^2 p^2 + (c^2 q + r - a^2 r) p - q r = 0``; the
    positive root is taken in the cancellation-free form.
    """
    qa = c * c * a * a
    qb = c * c * q + r - a * a * r
    disc = math.sqrt(qb * qb + 4.0 * qa * q * r)
    if qb >= 0:
        return 2.0 * q * r / (qb + disc)
    return (disc - qb) / (2.0 * qa)


def trace_table(a: float, q: float, p0: float, tau_max: int) -> np.ndarray:
    """``Tr[h^m(p0)]`` for ``m = 0..tau_max`` with ``h(p) = a^2 p + q``."""
    out = np.empty(tau_max + 1)
    out[0] = p0
    for m in range(tau_max):
        out[m + 1] = a * a * out[m] + q
    return out


def arrival_prob(b, g_s, a, g_a, sigma2: float, alpha: float):
    """``1 - erfc(sqrt(alpha * SINR / 2))`` with ``SINR = b g_s / (a g_a + sigma2)``."""
    sinr = np.asarray(b) * np.asarray(g_s) / (np.asarray(a) * np.asarray(g_a) + sigma2)
    return np.clip(1.0 - erfc(np.sqrt(0.5 * alpha * sinr)), 0.0, 1.0)


def stationary(kernel: np.ndarray) -> np.ndarray:
    """Left Perron vector of a row-stochastic kernel, by least squares."""
    n = kernel.shape[0]
    lhs = np.vstack([kernel.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    mu = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return mu / mu.sum()


# ---------------------------------------------------------------------------
# The game model, rebuilt from the profile document
# ---------------------------------------------------------------------------

class Model:
    """Rewards, arrival probabilities and gain weights of a profile.

    States run holding time major, then sensor gain and attacker gain,
    both descending (the order documented for the program's dumps);
    ``states`` lets callers compare against the order a dump reports.
    """

    def __init__(self, doc: dict):
        m, ch, g = doc["model"], doc["channel"], doc["game"]
        a = _scalar(m["A"], "A")
        c = _scalar(m["C"], "C")
        q = _scalar(m["Q"], "Q")
        r = _scalar(m["R"], "R")
        self.gains = np.array(ch["gains"], dtype=float)
        self.kernel = np.array(ch["kernel"], dtype=float)
        self.sigma2 = float(ch["sigma2"])
        self.alpha = float(ch.get("alpha", 1.0))
        self.acts_a = np.array(g["actions_attacker"], dtype=float)
        self.acts_b = np.array(g["actions_sensor"], dtype=float)
        self.alpha_s = float(g["alpha_s"])
        self.alpha_a = float(g["alpha_a"])
        self.beta = float(g["beta"])
        self.tau_max = int(g["tau_max"])
        self.gain_mode = g.get("gain_mode", "stationary")
        self.trace = trace_table(a, q, riccati_root(a, c, q, r), self.tau_max)
        self.mu = stationary(self.kernel)

        n_g = len(self.gains)
        desc = np.arange(n_g)[::-1]  # gain indices, descending gains
        self.states = [
            (tau, float(self.gains[i]), float(self.gains[j]))
            for tau in range(self.tau_max + 1) for i in desc for j in desc
        ]
        tau = np.array([s[0] for s in self.states])
        gs = np.array([s[1] for s in self.states])
        ga = np.array([s[2] for s in self.states])
        self.tau = tau
        self.q = arrival_prob(
            self.acts_b[None, None, :], gs[:, None, None],
            self.acts_a[None, :, None], ga[:, None, None], self.sigma2, self.alpha,
        )
        self.r = (self.trace[tau][:, None, None]
                  + self.alpha_s * self.acts_b[None, None, :]
                  - self.alpha_a * self.acts_a[None, :, None])
        # Next-gain weights in state (descending) order, per state.
        gi_s = np.searchsorted(self.gains, gs)
        gi_a = np.searchsorted(self.gains, ga)
        if self.gain_mode == "stationary":
            w_s = np.tile(self.mu, (len(tau), 1))
            w_a = w_s
        else:
            w_s = self.kernel[gi_s]
            w_a = self.kernel[gi_a]
        self.w_s = w_s[:, desc]
        self.w_a = w_a[:, desc]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def value_bound(self) -> float:
        return float(np.abs(self.r).max()) / (1.0 - self.beta)

    def bellman(self, values: np.ndarray) -> np.ndarray:
        """Factored Bellman image ``r + beta E[V(s')]`` for attacker values."""
        n_g = len(self.gains)
        v = np.asarray(values, dtype=float).reshape(self.tau_max + 1, n_g, n_g)
        nxt = np.minimum(self.tau + 1, self.tau_max)
        ev_ok = np.einsum("si,sij,sj->s", self.w_s, v[np.zeros_like(self.tau)], self.w_a)
        ev_fail = np.einsum("si,sij,sj->s", self.w_s, v[nxt], self.w_a)
        cont = self.q * ev_ok[:, None, None] + (1.0 - self.q) * ev_fail[:, None, None]
        return self.r + self.beta * cont

    def holding_values(self, values: np.ndarray) -> np.ndarray:
        """Per-holding-time values averaged over stationary gain pairs."""
        n_g = len(self.gains)
        v = np.asarray(values, dtype=float).reshape(self.tau_max + 1, n_g, n_g)
        w = self.mu[::-1]
        return np.einsum("tij,i,j->t", v, w, w)


# ---------------------------------------------------------------------------
# Stage games
# ---------------------------------------------------------------------------

def deviation_gap(p1: np.ndarray, p2: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Largest gain from a unilateral pure deviation in the bimatrix game."""
    u1 = p1 @ y
    u2 = x @ p2
    return max(float(u1.max() - x @ u1), float(u2.max() - u2 @ y), 0.0)


def zero_sum_lp_value(a: np.ndarray) -> float:
    """Row player's value of ``a`` from the normalised covering LP.

    With ``a`` shifted positive, ``min 1'u`` s.t. ``a' u >= 1, u >= 0``
    has optimum ``1 / value`` -- a different formulation from the
    program's maximin LP.
    """
    a = np.asarray(a, dtype=float)
    shift = 1.0 - float(a.min())
    pos = a + shift
    m, n = pos.shape
    res = linprog(np.ones(m), A_ub=-pos.T, b_ub=-np.ones(n), bounds=[(0, None)] * m,
                  method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return 1.0 / float(res.fun) - shift


# ---------------------------------------------------------------------------
# Oracle and learner
# ---------------------------------------------------------------------------

def check_states(model: Model, states) -> list:
    got = [tuple(s) for s in states]
    want = [(t, gs, ga) for t, gs, ga in model.states]
    if [(int(t), float(gs), float(ga)) for t, gs, ga in got] != want:
        return ["state order in the dump differs from (tau, g_s desc, g_a desc)"]
    return []


def check_oracle(model: Model, q1: np.ndarray, q2: np.ndarray, pa: np.ndarray,
                 ps: np.ndarray) -> tuple:
    """Bellman residual, certified policies and the value bound.

    Returns ``(failures, stats)``; the state values come from the given
    policies (``x' Q1 y``), so a wrong policy shows in the residual too.
    """
    fails = []
    scale = 1.0 + float(np.abs(q1).max())
    mirror = float(np.abs(q1 + q2).max())
    if mirror > 1e-9:
        fails.append(f"oracle tables are not mirrored: max|q1+q2| = {mirror:.3g}")
    gaps = np.array([deviation_gap(q1[s], q2[s], pa[s], ps[s]) for s in range(len(q1))])
    worst_gap = float(gaps.max())
    if worst_gap > GAP_TOL:
        fails.append(f"oracle policy at state {int(gaps.argmax())} has gap {worst_gap:.3g}")
    v1 = np.einsum("si,sij,sj->s", pa, q1, ps)
    residual = float(np.abs(model.bellman(v1) - q1).max())
    if residual > BELLMAN_RTOL * scale:
        fails.append(f"Bellman residual {residual:.3g} exceeds {BELLMAN_RTOL:g} x {scale:.4g}")
    bound = model.value_bound()
    if float(np.abs(q1).max()) > bound:
        fails.append(f"max|Q*| {np.abs(q1).max():.6g} exceeds max|r|/(1-beta) = {bound:.6g}")
    return fails, {"bellman_residual": residual, "max_gap": worst_gap,
                   "max_abs_q": scale - 1.0, "value_bound": bound}


def check_learner(model: Model, q1, q2, visits, qstar, steps: int) -> tuple:
    fails = []
    mirror = float(np.abs(q1 + q2).max())
    if mirror > 1e-9:
        fails.append(f"learned tables not mirrored: max|q1+q2| = {mirror:.3g}")
    if int(visits.sum()) != steps:
        fails.append(f"visit total {int(visits.sum())} != episodes x steps = {steps}")
    bound = model.value_bound()
    if float(np.abs(q1).max()) > bound or float(np.abs(q2).max()) > bound:
        fails.append(f"learned |Q| exceeds max|r|/(1-beta) = {bound:.6g}")
    gap = float(np.abs(q1 - qstar).max())
    tol = 0.05 * (1.0 + float(np.abs(qstar).max()))
    if gap > tol:
        fails.append(f"sup-norm gap to the oracle {gap:.4g} exceeds {tol:.4g}")
    return fails, {"gap_to_oracle": gap, "gap_tolerance": tol, "mirror": mirror}


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def binomial_z(counts: np.ndarray, hits: np.ndarray, probs: np.ndarray) -> float:
    """Worst standardised deviation of hit counts from ``n q`` over groups."""
    var = counts * probs * (1.0 - probs)
    dev = np.abs(hits - counts * probs)
    z = np.where(var > 0, dev / np.sqrt(np.where(var > 0, var, 1.0)),
                 np.where(dev > 0, np.inf, 0.0))
    return float(z.max()) if z.size else 0.0


def check_trajectory(model: Model, cols: dict) -> tuple:
    """Holding-time law (exact), per-step columns, and arrival frequencies."""
    fails = []
    tau, gamma = cols["tau"].astype(int), cols["gamma"].astype(int)
    a, b, g_s, g_a = cols["a"], cols["b"], cols["g_s"], cols["g_a"]
    want_next = np.where(gamma[:-1] == 1, 0, np.minimum(tau[:-1] + 1, model.tau_max))
    bad = np.nonzero(tau[1:] != want_next)[0]
    if bad.size:
        fails.append(f"holding-time law broken at step {int(bad[0]) + 1}")
    if not (np.isin(a, model.acts_a).all() and np.isin(b, model.acts_b).all()
            and np.isin(g_s, model.gains).all() and np.isin(g_a, model.gains).all()):
        fails.append("trajectory leaves the action or gain sets")
    q = arrival_prob(b, g_s, a, g_a, model.sigma2, model.alpha)
    if float(np.abs(q - cols["q"]).max()) > 1e-12:
        fails.append("trajectory q column differs from the erfc formula")
    tr = model.trace[tau]
    if float(np.abs(cols["trace_P"] - tr).max()) > 1e-9 * (1.0 + float(tr.max())):
        fails.append("trajectory trace column differs from the trace table")
    r1 = tr + model.alpha_s * b - model.alpha_a * a
    if float(np.abs(cols["r1"] - r1).max()) > 1e-9 * (1.0 + float(np.abs(r1).max())):
        fails.append("trajectory reward column differs from the reward formula")
    # Arrival frequencies per (a, b, g_s, g_a) group against q.
    keys = np.stack([a, b, g_s, g_a], axis=1)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.ravel()
    counts = np.bincount(inv).astype(float)
    hits = np.bincount(inv, weights=gamma).astype(float)
    qg = arrival_prob(uniq[:, 1], uniq[:, 2], uniq[:, 0], uniq[:, 3], model.sigma2, model.alpha)
    z = binomial_z(counts, hits, qg)
    if z > Z_BOUND:
        fails.append(f"arrival frequency {z:.2f} sigma from the erfc formula")
    return fails, {"arrival_worst_z": z, "groups": int(len(uniq))}


def check_rollouts(model: Model, samples: np.ndarray, v0: float, horizon: int) -> tuple:
    se = float(samples.std(ddof=1) / math.sqrt(len(samples)))
    trunc = model.beta ** horizon * model.value_bound()
    diff = abs(float(samples.mean()) - v0)
    fails = []
    if diff > Z_BOUND * se + trunc:
        fails.append(f"rollout mean off V(s0) by {diff:.4g} > {Z_BOUND:g} x se {se:.3g}")
    return fails, {"rollout_diff": diff, "rollout_se": se}


# ---------------------------------------------------------------------------
# Monotone structure
# ---------------------------------------------------------------------------

def _lattice(model: Model, table: np.ndarray) -> np.ndarray:
    """``(state, ...)`` rows onto (tau, g_s asc, g_a asc, ...) axes."""
    n_g = len(model.gains)
    out = table.reshape((model.tau_max + 1, n_g, n_g) + table.shape[1:])
    return out[:, ::-1, ::-1]


def _offsets(shape) -> list:
    """Slice pairs (hi, lo) for every strictly positive offset on a 3-D grid."""
    out = []
    for d in itertools.product(*(range(1, n) for n in shape)):
        hi = tuple(slice(k, None) for k in d)
        lo = tuple(slice(None, n - k) for n, k in zip(shape, d))
        out.append((hi, lo))
    return out


def supermodular(model: Model, q: np.ndarray) -> bool:
    """Strict four-point inequality on (state) x (joint action) crossings.

    The saturated holding time is excluded. Sums are formed as
    ``f(join) + f(meet)`` against ``f(x) + f(y)``, one array slice per
    strictly positive state offset.
    """
    lat = _lattice(model, q)[: model.tau_max]
    ia_lo, ia_hi = np.triu_indices(len(model.acts_a), 1)
    ib_lo, ib_hi = np.triu_indices(len(model.acts_b), 1)
    if min(lat.shape[:3]) < 2 or not (ia_lo.size and ib_lo.size):
        return True  # no strictly ordered pair: the inequality holds vacuously
    # Values at the higher and lower joint action of every strictly
    # ordered pair: axes (tau, g_s, g_a, attacker pair, sensor pair).
    f_hi_act = lat[:, :, :, ia_hi[:, None], ib_hi[None, :]]
    f_lo_act = lat[:, :, :, ia_lo[:, None], ib_lo[None, :]]
    for hi, lo in _offsets(lat.shape[:3]):
        lhs = f_hi_act[hi] + f_lo_act[lo]
        rhs = f_lo_act[hi] + f_hi_act[lo]
        if np.any(lhs <= rhs):
            return False
    return True


def supermodular_witness_margin(model: Model, q: np.ndarray, witness) -> float:
    """``f(join) + f(meet) - f(x) - f(y)`` of a reported violating pair.

    ``witness`` is ``[x, y]`` on the (tau, g_s asc, g_a asc, a, b) lattice
    without the saturated holding time: ``x`` takes the higher state and
    the lower joint action, ``y`` the lower state and the higher joint
    action. A real violation of the strict inequality has margin ``<= 0``;
    returns None when the points are not such a crossed pair.
    """
    lat = _lattice(model, q)[: model.tau_max]
    x, y = (tuple(int(k) for k in p) for p in witness)
    if len(x) != lat.ndim or len(y) != lat.ndim:
        return None
    if any(not 0 <= k < n for p in (x, y) for k, n in zip(p, lat.shape)):
        return None
    if not (all(h > l for h, l in zip(x[:3], y[:3]))
            and all(h > l for h, l in zip(y[3:], x[3:]))):
        return None
    join, meet = x[:3] + y[3:], y[:3] + x[3:]
    return float((lat[join] + lat[meet]) - (lat[x] + lat[y]))


def _expected_actions(model: Model, pa: np.ndarray, ps: np.ndarray) -> tuple:
    # One dot product per state, as a per-state summary is formed.
    return (np.array([float(p @ model.acts_a) for p in pa]),
            np.array([float(p @ model.acts_b) for p in ps]))


def monotone_witnesses(model: Model, pa: np.ndarray, ps: np.ndarray,
                       min_tau: int) -> tuple:
    """Failing pairs ``W[i, j]`` of the expected- and argmax-action summaries.

    ``W[i, j]`` is true when state ``i`` strictly dominates ``j`` (every
    coordinate larger, both at holding time ``min_tau`` or more) but some
    player's summary does not increase from ``j`` to ``i``: strictly for
    expected actions, weakly for max-probability actions. A verdict holds
    when its matrix has no true entry.
    """
    exp_a, exp_b = _expected_actions(model, pa, ps)
    arg_a = model.acts_a[np.argmax(pa, axis=1)]
    arg_b = model.acts_b[np.argmax(ps, axis=1)]
    tau = model.tau
    gs = np.array([s[1] for s in model.states])
    ga = np.array([s[2] for s in model.states])
    above = tau >= min_tau
    dom = ((tau[:, None] > tau[None, :]) & (gs[:, None] > gs[None, :])
           & (ga[:, None] > ga[None, :]) & above[:, None] & above[None, :])
    exp_up = (exp_a[:, None] > exp_a[None, :]) & (exp_b[:, None] > exp_b[None, :])
    arg_up = (arg_a[:, None] >= arg_a[None, :]) & (arg_b[:, None] >= arg_b[None, :])
    return dom & ~exp_up, dom & ~arg_up


# ---------------------------------------------------------------------------
# Bayesian game
# ---------------------------------------------------------------------------

def bayes_payoffs(model: Model, holding_time: int, vbar: np.ndarray) -> np.ndarray:
    """``P[ti, tj, a, b]``: attacker type ``ti``, sensor type ``tj`` (ascending)."""
    g_a = model.gains[:, None, None, None]
    g_s = model.gains[None, :, None, None]
    a = model.acts_a[None, None, :, None]
    b = model.acts_b[None, None, None, :]
    q = arrival_prob(b, g_s, a, g_a, model.sigma2, model.alpha)
    m = holding_time
    nxt = min(m + 1, model.tau_max)
    r = model.trace[m] + model.alpha_s * b - model.alpha_a * a
    return r + model.beta * (q * vbar[0] + (1.0 - q) * vbar[nxt])


def belief(model: Model, mode: str) -> np.ndarray:
    if mode == "stationary":
        return np.outer(model.mu, model.mu)
    return model.mu[:, None] * model.kernel


def bayes_gaps(payoff: np.ndarray, prior: np.ndarray, s_att: np.ndarray,
               s_sen: np.ndarray) -> np.ndarray:
    """Conditional deviation gap of every type: attacker types, then sensor types."""
    cond_a = prior / prior.sum(axis=1, keepdims=True)  # P(tj | ti)
    cond_s = prior / prior.sum(axis=0, keepdims=True)  # P(ti | tj)
    by_a = np.einsum("ij,ijab,jb->ia", cond_a, payoff, s_sen)
    by_s = -np.einsum("ij,ijab,ia->jb", cond_s, payoff, s_att)
    gap_a = by_a.max(axis=1) - np.einsum("ia,ia->i", s_att, by_a)
    gap_s = by_s.max(axis=1) - np.einsum("jb,jb->j", s_sen, by_s)
    return np.maximum(np.concatenate([gap_a, gap_s]), 0.0)


def bayes_value(payoff: np.ndarray, prior: np.ndarray) -> float:
    """Value of the type-contingent expansion by the reference LP."""
    k, _, na, nb = payoff.shape
    rows = np.array(list(itertools.product(range(na), repeat=k)))
    cols = np.array(list(itertools.product(range(nb), repeat=k)))
    mat = np.zeros((len(rows), len(cols)))
    for ti in range(k):
        for tj in range(k):
            mat += prior[ti, tj] * payoff[ti, tj][np.ix_(rows[:, ti], cols[:, tj])]
    return zero_sum_lp_value(mat)
