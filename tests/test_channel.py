import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from jamgame.channel import (
    ChannelSpec,
    draw_index,
    packet_arrival_prob,
    sinr,
    stationary_distribution,
)


def paper_channel(**kw):
    args = dict(gains=(0.6, 0.8), kernel=[[0.5, 0.5], [0.5, 0.5]],
                sigma2=0.5, alpha=1.0)
    args.update(kw)
    return ChannelSpec(**args)


def graph_verdict(adj):
    """``None`` for an irreducible aperiodic pattern, else the rejection reason.

    Reference by graph search: reachability from node 0 along the edges and
    against them, then the period as the gcd over all edges ``(u, v)`` of
    ``level(u) + 1 - level(v)`` with BFS levels from node 0.
    """
    n = len(adj)

    def reach(mat):
        seen, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(mat[u]).tolist():
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen)

    if reach(adj) < n or reach(adj.T) < n:
        return "irreducible"
    level = [-1] * n
    level[0] = 0
    queue = [0]
    for u in queue:
        for v in np.flatnonzero(adj[u]).tolist():
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in range(n):
        for v in np.flatnonzero(adj[u]).tolist():
            g = math.gcd(g, level[u] + 1 - level[v])
    return None if g == 1 else "periodic"


def normal_upper_tail(x):
    # Independent evaluation by quadrature of the standard normal density.
    val, err = integrate.quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                              x, np.inf)
    assert err < 1e-8
    return val


class TestChannelSpec:
    def test_accepts_paper_kernel(self):
        paper_channel()

    def test_rejects_reducible_kernel(self):
        with pytest.raises(ValueError, match="irreducible"):
            paper_channel(kernel=[[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_periodic_kernel(self):
        with pytest.raises(ValueError, match="periodic"):
            paper_channel(kernel=[[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="sum"):
            paper_channel(kernel=[[0.5, 0.6], [0.5, 0.5]])

    def test_rejects_unsorted_gains(self):
        with pytest.raises(ValueError, match="increasing"):
            paper_channel(gains=(0.8, 0.6))

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match="sigma2"):
            paper_channel(sigma2=0.0)

    @pytest.mark.parametrize("field, value", [
        ("gains", (0.6, float("nan"))), ("gains", (0.6, math.inf)),
        ("sigma2", math.inf), ("sigma2", math.nan),
        ("alpha", math.inf), ("alpha", math.nan),
        ("kernel", [[0.5, math.nan], [0.5, 0.5]]),
    ])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="gains|sigma2|alpha|kernel"):
            paper_channel(**{field: value})

    @pytest.mark.parametrize("n, stride", [(1, 1), (2, 1), (3, 1), (4, 7)])
    def test_walk_counts_match_graph_search(self, n, stride):
        # Adjacency patterns on n gains with no empty row: all of them up to
        # three gains, every seventh of the 50,625 on four.
        rows = [r for r in itertools.product((False, True), repeat=n) if any(r)]
        gains = tuple(0.5 + 0.1 * i for i in range(n))
        for pattern in itertools.islice(itertools.product(rows, repeat=n), 0, None, stride):
            adj = np.array(pattern)
            want = graph_verdict(adj)
            kernel = adj / adj.sum(axis=1, keepdims=True)
            if want is None:
                ChannelSpec(gains=gains, kernel=kernel, sigma2=1.0)
            else:
                with pytest.raises(ValueError, match=want):
                    ChannelSpec(gains=gains, kernel=kernel, sigma2=1.0)

    def test_aperiodic_three_state_cycle_with_shortcut(self):
        # A 3-cycle plus one self-loop has gcd(3, 1) = 1.
        kernel = [[0.1, 0.9, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        ChannelSpec(gains=(0.5, 0.7, 0.9), kernel=kernel, sigma2=1.0)

    def test_periodic_three_cycle_rejected(self):
        kernel = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match="periodic"):
            ChannelSpec(gains=(0.5, 0.7, 0.9), kernel=kernel, sigma2=1.0)


class TestStationaryDistribution:
    def test_paper_kernel_is_exactly_uniform(self):
        mu = stationary_distribution(paper_channel()).mu
        assert mu[0] == 0.5 and mu[1] == 0.5

    def test_symmetric_kernel(self):
        mu = stationary_distribution(paper_channel(kernel=[[0.9, 0.1], [0.1, 0.9]])).mu
        assert np.allclose(mu, [0.5, 0.5], atol=1e-12)

    def test_hand_solved_two_state_balance(self):
        # mu1 = 0.7 mu1 + 0.6 mu2 gives mu = (2/3, 1/3).
        mu = stationary_distribution(paper_channel(kernel=[[0.7, 0.3], [0.6, 0.4]])).mu
        assert np.allclose(mu, [2 / 3, 1 / 3], atol=1e-12)

    def test_left_eigenvector_property(self):
        spec = paper_channel(kernel=[[0.2, 0.8], [0.5, 0.5]])
        mu = stationary_distribution(spec).mu
        assert np.abs(mu @ spec.kernel - mu).max() < 1e-10
        assert mu.min() > 0


class TestSinr:
    def test_no_jamming_reduces_to_snr(self):
        assert sinr(2.0, 0.5, 0.0, 0.7, 1.0) == pytest.approx(1.0)

    def test_paper_parameter_arithmetic(self):
        assert sinr(5.0, 0.8, 1.0, 0.6, 0.5) == pytest.approx(4.0 / 1.1, abs=1e-12)

    def test_scale_invariance_in_noiseless_limit(self):
        base = sinr(5.0, 0.8, 1.0, 0.6, 1e-12)
        doubled = sinr(10.0, 0.8, 2.0, 0.6, 1e-12)
        assert doubled == pytest.approx(base, rel=1e-9)

    def test_rejects_nonpositive_sensor_power(self):
        with pytest.raises(ValueError):
            sinr(0.0, 0.5, 1.0, 0.5, 1.0)


class TestPacketArrivalProb:
    def test_saturates_to_one(self):
        spec = paper_channel()
        assert packet_arrival_prob(spec, 1e9, 0.8, 0.0, 0.6) == pytest.approx(1.0)

    def test_zero_sinr_limit_is_zero(self):
        spec = paper_channel(sigma2=1e12)
        assert packet_arrival_prob(spec, 1e-6, 0.6, 0.0, 0.6) == pytest.approx(0.0, abs=1e-6)

    def test_against_quadrature_oracle(self):
        spec = paper_channel()
        snr = sinr(5.0, 0.8, 1.0, 0.6, 0.5)
        expect = 1.0 - 2.0 * normal_upper_tail(math.sqrt(snr))
        got = packet_arrival_prob(spec, 5.0, 0.8, 1.0, 0.6)
        assert got == pytest.approx(expect, abs=2e-8)
        assert got == pytest.approx(0.9434, abs=1e-4)

    def test_monotone_over_full_grid(self):
        spec = paper_channel()
        powers_s = (1.0, 2.0, 5.0)
        powers_a = (0.5, 1.0, 6.0)
        for g_s, g_a in itertools.product(spec.gains, repeat=2):
            for p_a in powers_a:
                qs = [packet_arrival_prob(spec, p, g_s, p_a, g_a) for p in powers_s]
                assert qs == sorted(qs)
            for p_s in powers_s:
                qs = [packet_arrival_prob(spec, p_s, g_s, p, g_a) for p in powers_a]
                assert qs == sorted(qs, reverse=True)
        # gains and noise directions
        assert packet_arrival_prob(spec, 2, 0.8, 1, 0.6) > packet_arrival_prob(spec, 2, 0.6, 1, 0.6)
        assert packet_arrival_prob(spec, 2, 0.6, 1, 0.8) < packet_arrival_prob(spec, 2, 0.6, 1, 0.6)
        noisier = paper_channel(sigma2=1.5)
        assert packet_arrival_prob(noisier, 2, 0.6, 1, 0.6) < packet_arrival_prob(spec, 2, 0.6, 1, 0.6)

    def test_range_over_grid(self):
        spec = paper_channel(alpha=3.7)
        for g_s, g_a in itertools.product(spec.gains, repeat=2):
            for p_s in (0.1, 2.0, 50.0):
                for p_a in (0.0, 1.0, 20.0):
                    q = packet_arrival_prob(spec, p_s, g_s, p_a, g_a)
                    assert 0.0 <= q <= 1.0

    @settings(max_examples=80, deadline=None)
    @given(
        p_s=st.floats(0.01, 100),
        p_a=st.floats(0.0, 100),
        bump=st.floats(0.01, 50),
        alpha=st.floats(0.05, 10),
        sigma2=st.floats(0.01, 20),
    )
    def test_monotone_in_powers_property(self, p_s, p_a, bump, alpha, sigma2):
        spec = paper_channel(alpha=alpha, sigma2=sigma2)
        q0 = packet_arrival_prob(spec, p_s, 0.8, p_a, 0.6)
        assert packet_arrival_prob(spec, p_s + bump, 0.8, p_a, 0.6) >= q0
        assert packet_arrival_prob(spec, p_s, 0.8, p_a + bump, 0.6) <= q0
        assert 0.0 <= q0 <= 1.0


class TestSampling:
    """``draw_index`` on a kernel row draws the next block's gain."""

    def test_deterministic_kernel_row(self):
        spec = paper_channel(kernel=[[1.0 - 1e-13, 1e-13], [0.5, 0.5]])
        cdf = np.cumsum(spec.kernel[0])
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert draw_index(cdf, rng.random()) == 0

    def test_step_gain_frequency(self):
        cdf = np.cumsum(paper_channel().kernel[0])
        rng = np.random.default_rng(11)
        hits = sum(draw_index(cdf, rng.random()) == 0 for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01

    def test_seed_replay_identical(self):
        spec = paper_channel(kernel=[[0.3, 0.7], [0.6, 0.4]])
        cdf = np.cumsum(spec.kernel[1])
        rng = np.random.default_rng(5)
        seq1 = [draw_index(cdf, rng.random()) for _ in range(100)]
        rng = np.random.default_rng(5)
        seq2 = [draw_index(cdf, rng.random()) for _ in range(100)]
        assert seq1 == seq2
