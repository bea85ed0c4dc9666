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


def _all_walks(adj: np.ndarray, steps: int) -> bool:
    """Whether every ordered pair of nodes is joined by a walk of exactly ``steps`` edges."""
    return bool(np.linalg.matrix_power(adj, steps).all())


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
        if not all(0 < g < math.inf for g in gains):
            raise ValueError("gains must be positive and finite")
        if any(b <= a for a, b in zip(gains, gains[1:])):
            raise ValueError("gains must be strictly increasing")
        object.__setattr__(self, "gains", gains)
        kernel = np.array(self.kernel, dtype=float)
        l = len(gains)
        if kernel.shape != (l, l):
            raise ValueError(f"kernel must be {l}x{l}, got {kernel.shape}")
        if not (kernel >= 0).all():
            raise ValueError("kernel entries must be nonnegative")
        if np.abs(kernel.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("kernel rows must sum to 1")
        # Boolean walk counts: irreducible iff (I + A)^(l-1) > 0; an
        # irreducible A is aperiodic iff A^((l-1)^2 + 1) > 0 (Wielandt).
        adj = kernel > 0
        if not _all_walks(adj | np.eye(l, dtype=bool), l - 1):
            raise ValueError("kernel is not irreducible")
        if not _all_walks(adj, (l - 1) ** 2 + 1):
            raise ValueError("kernel is periodic")
        kernel.flags.writeable = False
        object.__setattr__(self, "kernel", kernel)
        if not 0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be positive and finite")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")

    @property
    def n_gains(self) -> int:
        return len(self.gains)


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
