"""The benchmark's reference checks on games solvable by hand.

Run with ``python3 -m pytest bench/test_checks.py``; the module needs
only numpy, scipy and the benchmark's own ``checks``.
"""

import itertools
import math
import os

import numpy as np
import pytest

import checks

DEMO = os.path.join(os.path.dirname(__file__), "..", "configs", "stage_game_demo.txt")


def profile(gains=(0.6, 0.8), kernel=((0.5, 0.5), (0.5, 0.5)), tau_max=4,
            gain_mode="stationary"):
    return {
        "model": {"A": [[1.2]], "C": [[0.7]], "Q": [[0.8]], "R": [[0.8]], "Pi0": [[0.8]]},
        "channel": {"gains": list(gains), "kernel": [list(r) for r in kernel],
                    "sigma2": 0.5, "alpha": 1.0},
        "game": {"actions_attacker": [1, 6], "actions_sensor": [2, 5], "alpha_s": 1.0,
                 "alpha_a": 1.0, "beta": 0.75, "tau_max": tau_max, "gain_mode": gain_mode},
    }


def read_demo():
    blocks = [b for b in open(DEMO).read().split("\n\n") if b.strip()]
    return [np.array([[float(t) for t in ln.split()] for ln in b.strip().splitlines()])
            for b in blocks]


def test_demo_stage_game_unique_pure_point():
    a, b = read_demo()
    pure = np.array([0.0, 1.0])
    assert checks.deviation_gap(a, b, pure, pure) == 0.0
    # Every other pure profile is beaten by a unilateral deviation.
    for i, j in itertools.product(range(2), repeat=2):
        if (i, j) != (1, 1):
            assert checks.deviation_gap(a, b, np.eye(2)[i], np.eye(2)[j]) > 0.1
    assert checks.zero_sum_lp_value(a) == pytest.approx(a[1, 1], abs=1e-9)
    mixed_gap = checks.deviation_gap(a, b, np.array([0.2297, 0.7703]),
                                     np.array([0.4718, 0.5282]))
    assert mixed_gap > 0.1


def test_matching_pennies():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    half = np.array([0.5, 0.5])
    assert checks.zero_sum_lp_value(a) == pytest.approx(0.0, abs=1e-9)
    assert checks.deviation_gap(a, -a, half, half) == 0.0
    assert checks.deviation_gap(a, -a, np.eye(2)[0], np.eye(2)[0]) == pytest.approx(2.0)


def test_riccati_root_and_trace_table():
    p = checks.riccati_root(1.2, 0.7, 0.8, 0.8)
    roots = np.roots((0.7056, 0.04, -0.64))
    assert p == pytest.approx(float(roots[roots > 0][0]), rel=1e-14)
    x = 1.44 * p + 0.8
    assert x * 0.8 / (0.49 * x + 0.8) == pytest.approx(p, rel=1e-14)
    table = checks.trace_table(1.2, 0.8, p, 3)
    assert table[0] == p and table[2] == pytest.approx(1.44 * (1.44 * p + 0.8) + 0.8)


def test_arrival_probability_formula():
    sinr = 2 * 0.6 / (6 * 0.8 + 0.5)
    want = 1.0 - math.erfc(math.sqrt(sinr / 2))
    assert checks.arrival_prob(2.0, 0.6, 6.0, 0.8, 0.5, 1.0) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("gain_mode", ["stationary", "markov"])
def test_factored_bellman_matches_dense_transitions(gain_mode):
    model = checks.Model(profile(gains=(0.4, 0.6, 0.9), kernel=((0.6, 0.3, 0.1),
                                 (0.2, 0.5, 0.3), (0.1, 0.3, 0.6)), tau_max=3,
                                 gain_mode=gain_mode))
    values = np.random.default_rng(0).normal(size=model.n_states)
    index = {s: i for i, s in enumerate(model.states)}
    g = list(model.gains)
    want = np.empty_like(model.r)
    for si, (tau, gs, ga) in enumerate(model.states):
        for ai, bi in itertools.product(range(2), repeat=2):
            q = model.q[si, ai, bi]
            ws = model.mu if gain_mode == "stationary" else model.kernel[g.index(gs)]
            wa = model.mu if gain_mode == "stationary" else model.kernel[g.index(ga)]
            ev = 0.0
            for i, j in itertools.product(range(len(g)), repeat=2):
                ok = index[(0, g[i], g[j])]
                fail = index[(min(tau + 1, model.tau_max), g[i], g[j])]
                ev += ws[i] * wa[j] * (q * values[ok] + (1 - q) * values[fail])
            want[si, ai, bi] = model.r[si, ai, bi] + model.beta * ev
    np.testing.assert_allclose(model.bellman(values), want, rtol=1e-13, atol=1e-13)


def test_single_gain_bayesian_game_is_the_complete_one():
    model = checks.Model(profile(gains=(0.7,), kernel=((1.0,),)))
    vbar = np.array([10.0, 12.0, 15.0, 19.0, 24.0])
    payoff = checks.bayes_payoffs(model, 1, vbar)
    q = checks.arrival_prob(model.acts_b[None, :], 0.7, model.acts_a[:, None], 0.7, 0.5, 1.0)
    full = (model.trace[1] + model.alpha_s * model.acts_b[None, :]
            - model.alpha_a * model.acts_a[:, None]
            + model.beta * (q * vbar[0] + (1 - q) * vbar[2]))
    np.testing.assert_allclose(payoff[0, 0], full, rtol=1e-14)
    prior = checks.belief(model, "kernel")
    assert checks.bayes_value(payoff, prior) == pytest.approx(
        checks.zero_sum_lp_value(full), abs=1e-9)


def brute_supermodular(lat):
    """(verdict, first violating pair [x, y] or None) by plain loops."""
    shape = lat.shape
    states = list(itertools.product(*(range(n) for n in shape[:3])))
    acts = list(itertools.product(*(range(n) for n in shape[3:])))
    for sh, sl in itertools.product(states, repeat=2):
        if not all(h > l for h, l in zip(sh, sl)):
            continue
        for ah, al in itertools.product(acts, repeat=2):
            if all(h > l for h, l in zip(ah, al)):
                if lat[sh + ah] + lat[sl + al] <= lat[sh + al] + lat[sl + ah]:
                    return False, [list(sh + al), list(sl + ah)]
    return True, None


def test_vectorised_verdicts_match_brute_force():
    model = checks.Model(profile(tau_max=3))
    rng = np.random.default_rng(3)
    tau = np.array([s[0] for s in model.states], dtype=float)
    # Rank of a state on the lattice: strictly larger when every coordinate is.
    rank = np.array([s[0] + s[1] + s[2] for s in model.states])
    verdicts = set()
    for trial in range(8):
        # Supermodular by construction (tau * a * b); noise breaks it on odd trials.
        q = tau[:, None, None] * np.outer([1.0, 2.0], [1.0, 3.0])[None]
        q = q + (3.0 * rng.normal(size=q.shape) if trial % 2 else 0.0)
        lat = checks._lattice(model, q)[: model.tau_max]
        sup = checks.supermodular(model, q)
        brute, witness = brute_supermodular(lat)
        assert sup == brute
        if witness is not None:
            assert checks.supermodular_witness_margin(model, q, witness) <= 0
            # The same points in the wrong roles are no crossed pair.
            assert checks.supermodular_witness_margin(model, q, witness[::-1]) is None
        if trial % 2:
            pa = rng.dirichlet([1, 1], size=model.n_states)
            ps = rng.dirichlet([1, 1], size=model.n_states)
        else:  # high action more likely in higher states: increasing
            hi = 0.1 + 0.8 * rank / rank.max()
            pa = ps = np.stack([1 - hi, hi], axis=1)
        exp_a, exp_b = pa @ model.acts_a, ps @ model.acts_b
        arg_a, arg_b = pa.argmax(axis=1), ps.argmax(axis=1)
        bad = np.zeros((2, model.n_states, model.n_states), dtype=bool)
        for i, hi_s in enumerate(model.states):
            for j, lo_s in enumerate(model.states):
                if all(h > l for h, l in zip(hi_s, lo_s)):
                    bad[0, i, j] = not (exp_a[i] > exp_a[j] and exp_b[i] > exp_b[j])
                    bad[1, i, j] = not (arg_a[i] >= arg_a[j] and arg_b[i] >= arg_b[j])
        ok = not bad[0].any()
        np.testing.assert_array_equal(checks.monotone_witnesses(model, pa, ps, 0), bad)
        verdicts.add((sup, ok))
    assert {(True, True), (False, False)} <= verdicts
