"""Finite-state Markov fading channel and packet-arrival statistics.

The fading gain lives on a finite ascending set and evolves by an
ergodic Markov kernel. A transmission with sensor power ``p_s`` against
jamming power ``p_a`` succeeds with probability ``q = 1 - SER`` where
``SER = 2 * Phi_c(sqrt(alpha * SINR))`` and ``Phi_c`` is the standard
normal upper tail.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelSpec",
    "StationaryDist",
    "stationary_distribution",
    "sinr",
    "packet_arrival_prob",
    "draw_index",
]

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10


def _strongly_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]

    def reach(mat):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in np.nonzero(mat[u])[0]:
                if v not in seen:
                    seen.add(v)
                    stack.append(int(v))
        return seen

    return len(reach(adj)) == n and len(reach(adj.T)) == n


def _aperiodic(adj: np.ndarray) -> bool:
    # Period of a strongly connected graph: gcd over all edges (u, v) of
    # level(u) + 1 - level(v), levels from a BFS rooted anywhere.
    n = adj.shape[0]
    level = [-1] * n
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in np.nonzero(adj[u])[0]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(int(v))
    g = 0
    for u in range(n):
        for v in np.nonzero(adj[u])[0]:
            g = math.gcd(g, level[u] + 1 - level[v])
    return g == 1


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Gain set, transition kernel, noise variance and SER parameter.

    The kernel must be row-stochastic, irreducible and aperiodic; the
    gain list strictly increasing and positive.
    """

    gains: tuple
    kernel: np.ndarray
    sigma2: float
    alpha: float = 1.0

    def __post_init__(self):
        gains = tuple(float(g) for g in self.gains)
        if not gains:
            raise ValueError("gains must be nonempty")
        if any(g <= 0 for g in gains):
            raise ValueError("gains must be positive")
        if any(b <= a for a, b in zip(gains, gains[1:])):
            raise ValueError("gains must be strictly increasing")
        object.__setattr__(self, "gains", gains)
        kernel = np.array(self.kernel, dtype=float)
        l = len(gains)
        if kernel.shape != (l, l):
            raise ValueError(f"kernel must be {l}x{l}, got {kernel.shape}")
        if kernel.min() < 0:
            raise ValueError("kernel entries must be nonnegative")
        if np.abs(kernel.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("kernel rows must sum to 1")
        adj = kernel > 0
        if not _strongly_connected(adj):
            raise ValueError("kernel is not irreducible")
        if not _aperiodic(adj):
            raise ValueError("kernel is periodic")
        kernel.flags.writeable = False
        object.__setattr__(self, "kernel", kernel)
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    @property
    def n_gains(self) -> int:
        return len(self.gains)

    def gain_index(self, g: float) -> int:
        try:
            return self.gains.index(float(g))
        except ValueError:
            raise ValueError(f"gain {g} not in {self.gains}") from None


@dataclass(frozen=True, eq=False)
class StationaryDist:
    """Stationary distribution of the gain chain; all entries positive."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        if mu.min() <= 0:
            raise ValueError("stationary distribution must be positive")
        if abs(mu.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError("stationary distribution must sum to 1")
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)


def stationary_distribution(spec: ChannelSpec) -> StationaryDist:
    """Left eigenvector of the kernel for eigenvalue 1, normalized to sum 1."""
    l = spec.n_gains
    # mu (K - I) = 0 with the last balance equation replaced by sum(mu) = 1.
    a = (spec.kernel.T - np.eye(l)).copy()
    a[-1, :] = 1.0
    b = np.zeros(l)
    b[-1] = 1.0
    mu = np.linalg.solve(a, b)
    residual = float(np.abs(mu @ spec.kernel - mu).max())
    if residual > STATIONARY_TOL:
        raise ValueError(f"stationary solve residual {residual} too large")
    return StationaryDist(mu=mu)


def sinr(p_s: float, g_s: float, p_a: float, g_a: float, sigma2: float) -> float:
    """Signal-to-interference-plus-noise ratio ``p_s g_s / (p_a g_a + sigma2)``."""
    if p_s <= 0 or g_s <= 0 or g_a <= 0 or sigma2 <= 0 or p_a < 0:
        raise ValueError("powers/gains must be positive (p_a may be zero)")
    return (p_s * g_s) / (p_a * g_a + sigma2)


def packet_arrival_prob(
    spec: ChannelSpec, p_s: float, g_s: float, p_a: float, g_a: float
) -> float:
    """Probability that the packet is decoded error-free.

    ``q = 1 - 2 Phi_c(sqrt(alpha * SINR))``, clamped to [0, 1]; the upper
    tail is evaluated through ``erfc`` at full double precision.
    """
    snr = sinr(p_s, g_s, p_a, g_a, spec.sigma2)
    # Phi_c(x) = erfc(x / sqrt(2)) / 2, so q = 1 - erfc(sqrt(alpha*snr/2)).
    q = 1.0 - math.erfc(math.sqrt(0.5 * spec.alpha * snr))
    return min(1.0, max(0.0, q))


def draw_index(cdf: np.ndarray, u: float) -> int:
    """Inverse-CDF draw: ``searchsorted(cdf, u, "right")`` for uniform ``u``.

    ``bisect`` does the search: on rows of a few entries it costs a fraction
    of a numpy call. When rounding leaves ``cdf[-1] <= u`` the draw falls
    back to the last entry with positive mass, never outside the support.
    """
    k = bisect_right(cdf, u)
    if k < len(cdf):
        return k
    k -= 1
    while k > 0 and cdf[k] <= cdf[k - 1]:
        k -= 1
    return k
