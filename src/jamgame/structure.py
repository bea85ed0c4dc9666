"""Monotone-structure checks for the learned/solved game.

Verifies, by exhaustive enumeration over the finite grids, the chain of
facts behind "larger state implies larger equilibrium power":

* the channel ratio bound ``epsilon_max`` over all gain/action tuples;
* the value-gap ratio condition that, together with the action-product
  inequality, is sufficient for strict supermodularity;
* strict supermodularity of a Q-table via the four-point inequality on
  (state block) x (action block) crossed pairs;
* strict monotonicity of per-state equilibrium strategies, summarized
  both by expected action and by the max-probability action.

The checks read the game off ``spec.compiled``: the ratio bound and the
continuation difference share one table of weighted arrival-probability
increments. The ratio bound is one reduction over that table: the max,
the count of excluded tuples and whether every increment is positive.
The ratio condition and the continuation difference read one array of
value gaps. The reward cancellation's float residue comes from
the compiled rewards. Its exact check evaluates the alternating sum of the
reward formula in rational arithmetic over the stored float parameters,
so "equals zero" is not a round-off accident. Supermodularity scans
one point at a time against the points it strictly dominates, so memory
stays linear in the number of states; policy monotonicity compares each
state with a running maximum over earlier holding times, so its memory
is linear in ``tau_max``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .game import GameSpec
from .nashq import policy_arrays

__all__ = [
    "EpsilonReport",
    "MonotoneConditionReport",
    "MonotoneReport",
    "require_two_actions",
    "epsilon_max",
    "check_supermodular",
    "game_q_lattice",
    "check_q_supermodular",
    "gain_averaged_values",
    "check_monotone_sufficient_condition",
    "check_monotone_policy",
    "reward_cancellation_residual",
    "continuation_difference_positive",
    "structure_report",
    "render_report",
]


@dataclass(frozen=True, eq=False)
class EpsilonReport:
    """Channel ratio bound over every gain/action tuple.

    ``epsilon_max`` is the largest ratio of arrival-probability increments
    weighted by the stationary masses, over the tuples ``(g_s, g_a, g_s',
    g_a', a+, a-, b+, b-)`` whose denominator is nonzero; ``n_excluded``
    counts the tuples whose denominator vanished. ``condition_holds``
    states whether every arrival-probability increment was strictly
    positive (the premise under which the bound is usable).
    """

    epsilon_max: float
    condition_holds: bool
    n_excluded: int


@dataclass(frozen=True, eq=False)
class MonotoneConditionReport:
    """Value-gap ratio condition per holding time plus the action product."""

    ratios: dict  # m -> ratio or None when undefined
    holds: dict  # m -> bool
    undefined: tuple
    action_product_ok: bool
    threshold_tau: int = None  # smallest m from which the condition holds onward


# A monotone-policy report lists at most this many witnesses per summary.
WITNESS_CAP = 10


@dataclass(frozen=True, eq=False)
class MonotoneReport:
    """Strict-increase verdict for both players under both summaries, and
    the first ``WITNESS_CAP`` failing expected-action pairs."""

    expected_ok: bool
    expected_witnesses: tuple
    argmax_ok: bool


def _action_pairs(n: int) -> np.ndarray:
    """Index pairs ``(low, high)`` of one player's actions, in combination order."""
    return np.array(list(itertools.combinations(range(n), 2)), dtype=int).reshape(-1, 2)


def _increments(spec: GameSpec) -> np.ndarray:
    """Weighted arrival-probability increments.

    ``inc[i, j, s, t] = (mu_s mu_t) (q_hi - q_lo)`` for the ``i``-th
    attacker and ``j``-th sensor action pair, raised from low to high
    together, at the ``s``-th sensor and ``t``-th attacker gain
    (ascending); ``q`` comes from ``spec.compiled.arrival``.
    """
    l = spec.channel.n_gains
    na, nb = len(spec.actions_attacker), len(spec.actions_sensor)
    # State pairs run (g_s, g_a) with gains descending.
    q = spec.compiled.arrival.reshape(l, l, na, nb)[::-1, ::-1]
    pa, pb = _action_pairs(na), _action_pairs(nb)
    hi = q[:, :, pa[:, 1, None], pb[None, :, 1]]
    lo = q[:, :, pa[:, 0, None], pb[None, :, 0]]
    return (np.outer(spec.mu, spec.mu)[:, :, None, None] * (hi - lo)).transpose(2, 3, 0, 1)


def require_two_actions(spec: GameSpec) -> None:
    """Raise ``ValueError`` unless each player has an action pair to compare."""
    if len(spec.actions_attacker) < 2 or len(spec.actions_sensor) < 2:
        raise ValueError("need at least two actions per player")


def epsilon_max(spec: GameSpec) -> EpsilonReport:
    """Enumerate the ratio bound over all gain quadruples and action pairs.

    Each tuple compares the weighted arrival-probability increment at the
    lower state's gains against the higher state's. Tuples with a zero
    denominator are excluded from the max and counted. The premise reads
    the increment table itself: every increment must be positive.
    """
    require_two_actions(spec)
    inc = _increments(spec)
    num = inc[:, :, :, :, None, None]
    den = inc[:, :, None, None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    zero = np.broadcast_to(den == 0.0, ratio.shape)
    if zero.all():
        raise ValueError("all denominators vanished; channel is degenerate")
    return EpsilonReport(float(ratio[~zero].max()), bool((inc > 0).all()), int(zero.sum()))


# ---------------------------------------------------------------------------
# Supermodularity
# ---------------------------------------------------------------------------

def _strictly_below(points: np.ndarray, i: int) -> np.ndarray:
    """Indices, ascending, of the rows of ``points`` that row ``i`` strictly
    dominates; column-major ``points`` make the row reduction several times faster."""
    return np.flatnonzero((points < points[i]).all(axis=1))


def check_supermodular(table: np.ndarray, n_state_axes: int):
    """Four-point inequality over (state block) x (action block) crossings.

    Axes of ``table`` must be ordered coordinates, the first
    ``n_state_axes`` forming the state block and the rest the action
    block. For every pair of points with the state block strictly higher
    on one side and the action block strictly higher on the other,
    requires ``f(join) + f(meet) > f(x) + f(y)``. Returns ``(ok,
    witness)`` where the witness is the first violating pair ``(x, y)``,
    in row-major order of (higher state, lower state, higher action,
    lower): ``x`` takes the higher state and the lower action, ``y`` the
    lower state and the higher action.
    """
    table = np.asarray(table, dtype=float)
    if not 0 < n_state_axes < table.ndim:
        raise ValueError("state block must be a proper prefix of the axes")
    # Every index of each block, one row each in row-major order, column-major.
    states, acts = (np.indices(shape).reshape(len(shape), -1).T
                    for shape in (table.shape[:n_state_axes], table.shape[n_state_axes:]))
    flat = table.reshape(len(states), len(acts))
    # Every (higher, lower) action pair, higher action outermost.
    pairs = [(h, l) for h in range(len(acts)) for l in _strictly_below(acts, h)]
    a_hi, a_lo = np.array(pairs, dtype=int).reshape(-1, 2).T
    for i in range(len(states)):
        lo = _strictly_below(states, i)
        lhs = flat[i, a_hi] + flat[lo][:, a_lo]  # join + meet
        rhs = flat[i, a_lo] + flat[lo][:, a_hi]  # x + y
        bad = np.flatnonzero(lhs <= rhs)
        if bad.size:
            r, c = divmod(int(bad[0]), a_hi.size)
            wit_hi = tuple(states[i].tolist() + acts[a_lo[c]].tolist())
            wit_lo = tuple(states[lo[r]].tolist() + acts[a_hi[c]].tolist())
            return False, (wit_hi, wit_lo)
    return True, None


def game_q_lattice(spec: GameSpec, q: np.ndarray, max_tau: int = None) -> np.ndarray:
    """Rearrange a ``(state, a, b)`` table onto ascending lattice axes.

    Output axes: (tau, sensor gain asc, attacker gain asc, attacker action
    asc, sensor action asc). State indexing stores gains descending, so the
    gain axes are flipped here. ``max_tau`` truncates the holding-time axis.
    """
    l = spec.channel.n_gains
    na = len(spec.actions_attacker)
    nb = len(spec.actions_sensor)
    out = q.reshape(spec.tau_max + 1, l, l, na, nb)
    if max_tau is not None:
        out = out[: max_tau + 1]
    return out[:, ::-1, ::-1, :, :]


def check_q_supermodular(spec: GameSpec, q: np.ndarray):
    """Supermodularity of a per-state Q-table on the game lattice.

    The saturated holding time ``tau_max`` is excluded: failures there
    stay in place instead of advancing, which breaks the four-point
    structure the sufficient condition speaks about (its ratio test only
    reaches ``m + 2 = tau_max``).
    """
    return check_supermodular(game_q_lattice(spec, q, max_tau=spec.tau_max - 1), n_state_axes=3)


# ---------------------------------------------------------------------------
# Sufficient condition and policy monotonicity
# ---------------------------------------------------------------------------

def gain_averaged_values(spec: GameSpec, values: np.ndarray) -> np.ndarray:
    """Average per-state values over the stationary gain pair, per tau."""
    values = np.asarray(values, dtype=float)
    l = spec.channel.n_gains
    v = values.reshape(spec.tau_max + 1, l, l)
    w = np.outer(spec.mu[::-1], spec.mu[::-1])  # state gains run descending
    return np.einsum("tij,ij->t", v, w)


def _value_gaps(spec: GameSpec, values: np.ndarray) -> np.ndarray:
    """Gain-averaged value gaps ``gap[m] = vbar(0) - vbar(m + 1)``, ``m < tau_max``."""
    vbar = gain_averaged_values(spec, values)
    return vbar[0] - vbar[1:]


def check_monotone_sufficient_condition(
    spec: GameSpec, values: np.ndarray, epsilon_max: float
) -> MonotoneConditionReport:
    """Ratio and action-product sufficient condition for supermodularity.

    ``values`` are the sensor's per-state equilibrium values (their gaps
    ``v(0) - v(m)`` are positive; the ratio is identical for either player
    of the zero-sum game). The condition at holding time ``m`` compares
    ``(v(0) - v(m+2)) / (v(0) - v(m+1))`` against ``epsilon_max``; a zero
    denominator leaves the ratio undefined and the condition false. The
    report also records the smallest ``m`` from which it holds onward.
    """
    # Attacker values work equally: both gaps flip sign, the ratio does not.
    gap = _value_gaps(spec, values)
    undefined = gap[:-1] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = gap[1:] / gap[:-1]
    holds = ~undefined & (ratio > epsilon_max)
    product_ok = all(
        b_hi * a_lo >= b_lo * a_hi
        for a_lo, a_hi in itertools.combinations(spec.actions_attacker, 2)
        for b_lo, b_hi in itertools.combinations(spec.actions_sensor, 2)
    )
    # onward[m]: the condition holds at every holding time from m on.
    onward = np.logical_and.accumulate(holds[::-1])[::-1]
    return MonotoneConditionReport(
        ratios=dict(enumerate(np.where(undefined, None, ratio).tolist())),
        holds=dict(enumerate(holds.tolist())),
        undefined=tuple(np.flatnonzero(undefined).tolist()),
        action_product_ok=product_ok,
        threshold_tau=int(onward.argmax()) if onward.any() else None,
    )


def check_monotone_policy(
    spec: GameSpec, policies, min_tau: int = 0
) -> MonotoneReport:
    """Strictly increasing strategies across all comparable state pairs.

    A state dominates another when every coordinate (tau and both gains)
    is strictly larger. Each player's mixed strategy is summarized two
    ways. The expected action of the dominating state must be strictly
    larger, so ties fail; the max-probability action must be at least as
    large, so ties pass. Pairs with either state below ``min_tau`` are
    skipped. A state fails iff a summary does not rise above the running
    maximum, over earlier holding times, of some gain pair it dominates.
    The first ``WITNESS_CAP`` failing expected-action pairs are the
    witnesses ``(i, j)``, ordered by the dominating state ``i``, then the
    dominated ``j``. ``policies`` must hold one strategy pair per state.
    """
    if len(policies) != spec.n_states:
        raise ValueError(f"expected {spec.n_states} policies, one per state, got {len(policies)}")
    acts_a = np.array(spec.actions_attacker)
    acts_b = np.array(spec.actions_sensor)
    pa, pb = policy_arrays(policies)
    n_pairs = spec.compiled.n_pairs
    exp_a, exp_b, arg_a, arg_b = (np.array(v).reshape(-1, n_pairs) for v in (
        [float(row @ acts_a) for row in pa], [float(row @ acts_b) for row in pb],
        acts_a[pa.argmax(axis=1)], acts_b[pb.argmax(axis=1)]))
    gains = np.array([(s.g_s, s.g_a) for s in spec.states[:n_pairs]])
    dom = (gains[:, None] > gains[None, :]).all(axis=2)  # dom[h, l]: h above l in both gains
    t0 = max(min_tau, 0)

    def failing(a, b, rises):
        """Indices of the states from holding time ``t0 + 1`` on that fail."""
        top_a, top_b = (np.maximum.accumulate(v[t0:], axis=0)[:-1, None] for v in (a, b))
        ok = rises(a[t0 + 1:, :, None], top_a) & rises(b[t0 + 1:, :, None], top_b)
        return np.flatnonzero((dom & ~ok).any(axis=2)) + (t0 + 1) * n_pairs

    witnesses = []
    for i in failing(exp_a, exp_b, np.greater)[:WITNESS_CAP].tolist():
        t, h = divmod(i, n_pairs)
        ok = (exp_a[t, h] > exp_a[t0:t]) & (exp_b[t, h] > exp_b[t0:t])
        witnesses += [(i, j) for j in (np.flatnonzero(dom[h] & ~ok) + t0 * n_pairs).tolist()]
    return MonotoneReport(
        expected_ok=not witnesses,
        expected_witnesses=tuple(witnesses[:WITNESS_CAP]),
        argmax_ok=not failing(arg_a, arg_b, np.greater_equal).size,
    )


# ---------------------------------------------------------------------------
# Reward-difference identities
# ---------------------------------------------------------------------------

def _alternating_sum(r: np.ndarray) -> np.ndarray:
    """``r(m+1, hi) + r(m, lo) - r(m+1, lo) - r(m, hi)`` over a ``[tau, a, b]``
    table, per ``[m, attacker pair, sensor pair]`` with both pairs raised together."""
    pa = _action_pairs(r.shape[1])
    pb = _action_pairs(r.shape[2])
    hh = r[:, pa[:, 1, None], pb[None, :, 1]]
    ll = r[:, pa[:, 0, None], pb[None, :, 0]]
    return hh[1:] + ll[:-1] - ll[1:] - hh[:-1]


def reward_cancellation_residual(spec: GameSpec):
    """Alternating reward sum over (m, m+1) x (low, high) action pairs.

    Returns ``(exact_zero, float_max_abs)``. The flag evaluates the sum in
    rational arithmetic over the stored float parameters, on the reward
    formula ``Tr[h^m] + alpha_s b - alpha_a a`` retyped here. The trace
    terms cancel within each ``(m, m+1)`` pair, so every holding time
    gives the same rational and holding times 0 and 1 stand for all; the
    formula is separable, so the flag is true on every input. It cannot
    see a wrong ``spec.compiled.reward``: only the float residue, the
    worst residue of the same sum over the compiled rewards, reads them.
    """
    tt, acts_a, acts_b = (
        np.array([Fraction(v) for v in values], dtype=object)
        for values in (spec.steady.trace_table[:2], spec.actions_attacker, spec.actions_sensor)
    )
    r_exact = (tt[:, None, None] + Fraction(spec.alpha_s) * acts_b[None, None, :]
               - Fraction(spec.alpha_a) * acts_a[None, :, None])
    exact = not _alternating_sum(r_exact).any()
    d_float = _alternating_sum(spec.compiled.reward[:: spec.compiled.n_pairs])
    return exact, float(np.abs(d_float).max()) if d_float.size else 0.0


def continuation_difference_positive(spec: GameSpec, values: np.ndarray):
    """Continuation-difference positivity over every enumerated tuple.

    ``values`` are the sensor's per-state values. For each holding time
    and tuple of gains/actions, assembles the weighted difference of
    arrival-probability increments against the value gaps and requires it
    to be strictly positive. Returns whether it is, stopping at the first
    holding time where it is not.
    """
    gap = _value_gaps(spec, values)
    inc = _increments(spec)
    return not any(
        (inc[:, :, None, None, :, :] * gap2 - inc[:, :, :, :, None, None] * gap1 <= 0).any()
        for gap1, gap2 in zip(gap[:-1], gap[1:]))


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

def structure_report(spec: GameSpec, oracle) -> dict:
    """Full pipeline: ratio bound, sufficient condition, supermodularity,
    policy monotonicity and the reward cancellation, as one JSON-ready dict.

    ``oracle`` is a ``ValueIterationResult``; the sensor's table and values
    are the ones whose gaps are positive, so they drive the checks.
    """
    eps = epsilon_max(spec)
    v2 = np.array([p.value_p2 for p in oracle.policies])
    t3 = check_monotone_sufficient_condition(spec, v2, eps.epsilon_max)
    sup_ok, sup_wit = check_q_supermodular(spec, oracle.tables.q2)
    min_tau = t3.threshold_tau if t3.threshold_tau is not None else 0
    mono = check_monotone_policy(spec, oracle.policies, min_tau=min_tau)
    d1_exact, d1_float = reward_cancellation_residual(spec)
    d2_ok = continuation_difference_positive(spec, v2)
    return {
        "epsilon_max": eps.epsilon_max,
        "epsilon_condition_holds": eps.condition_holds,
        "epsilon_excluded_tuples": eps.n_excluded,
        "ratio_per_holding_time": {str(m): t3.ratios[m] for m in t3.ratios},
        "ratio_holds": {str(m): t3.holds[m] for m in t3.holds},
        "ratio_undefined": list(t3.undefined),
        "action_product_ok": t3.action_product_ok,
        "threshold_tau": t3.threshold_tau,
        "supermodular_sensor_q": sup_ok,
        "supermodular_witness": list(map(list, sup_wit)) if sup_wit else None,
        "monotone_expected_action": mono.expected_ok,
        "monotone_argmax_action": mono.argmax_ok,
        "monotone_witnesses": [list(w) for w in mono.expected_witnesses],
        "reward_cancellation_exact": d1_exact,
        "reward_cancellation_float_residue": d1_float,
        "continuation_difference_positive": d2_ok,
    }


def render_report(report: dict) -> str:
    lines = [
        f"epsilon_max: {report['epsilon_max']:.6f} "
        f"(increments positive: {report['epsilon_condition_holds']})",
        f"action product condition: {report['action_product_ok']}",
        f"threshold tau: {report['threshold_tau']}",
    ]
    for m in sorted(report["ratio_per_holding_time"], key=int):
        r = report["ratio_per_holding_time"][m]
        shown = "undefined" if r is None else f"{r:.6f}"
        lines.append(f"  gap ratio at m={m}: {shown} -> {report['ratio_holds'][m]}")
    lines += [
        f"sensor Q supermodular: {report['supermodular_sensor_q']}",
        f"policies strictly increasing (expected action): "
        f"{report['monotone_expected_action']}",
        f"policies increasing (argmax action): {report['monotone_argmax_action']}",
        f"reward cancellation exact: {report['reward_cancellation_exact']} "
        f"(float residue {report['reward_cancellation_float_residue']:.3g})",
        f"continuation difference positive: {report['continuation_difference_positive']}",
    ]
    return "\n".join(lines)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
