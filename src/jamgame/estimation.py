"""Plant model and steady-state Kalman error covariance.

The remote-estimation side of the problem only needs the covariance
recursion: the prediction map ``h(X) = A X A' + Q``, the measurement
update ``g(X) = X - X C' (C X C' + R)^-1 C X``, their fixed point, and
the trace of ``h^m`` applied to that fixed point for each holding time
``m``. Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemModel",
    "SteadySummary",
    "ConvergenceError",
    "lyapunov_step",
    "riccati_step",
    "steady_state_covariance",
    "boundedness_threshold",
]

# Relative singular-value cutoff for the rank tests at construction.
RANK_RTOL = 1e-9
# Relative slack allowed when checking symmetry / definiteness of inputs.
SYM_RTOL = 1e-9


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not converge within the iteration budget."""


def _as_matrix(x, name: str) -> np.ndarray:
    m = np.array(x, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    m.flags.writeable = False
    return m


def _check_symmetric(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > SYM_RTOL * scale:
        raise ValueError(f"{name} must be symmetric")


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m).min())


def _rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


@dataclass(frozen=True, eq=False)
class SystemModel:
    """LTI plant ``x' = A x + w``, ``y = C x + v`` with noise covariances.

    ``Q`` (process noise) must be symmetric PSD, ``R`` (measurement
    noise) symmetric PD, and ``Pi0`` (initial covariance) symmetric PSD.
    ``(A, C)`` must be observable and ``(A, sqrt(Q))`` controllable;
    violations raise ``ValueError`` at construction.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Pi0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        object.__setattr__(self, "Q", _as_matrix(self.Q, "Q"))
        object.__setattr__(self, "R", _as_matrix(self.R, "R"))
        object.__setattr__(self, "Pi0", _as_matrix(self.Pi0, "Pi0"))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.C.shape[1] != n:
            raise ValueError("C must have as many columns as A has rows")
        ny = self.C.shape[0]
        for name, m, shape in (
            ("Q", self.Q, (n, n)),
            ("R", self.R, (ny, ny)),
            ("Pi0", self.Pi0, (n, n)),
        ):
            if m.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {m.shape}")
            _check_symmetric(m, name)
        scale_q = max(1.0, float(np.abs(self.Q).max()))
        if _min_eig(self.Q) < -SYM_RTOL * scale_q:
            raise ValueError("Q must be positive semidefinite")
        if _min_eig(self.R) <= 0.0:
            raise ValueError("R must be positive definite")
        scale_p = max(1.0, float(np.abs(self.Pi0).max()))
        if _min_eig(self.Pi0) < -SYM_RTOL * scale_p:
            raise ValueError("Pi0 must be positive semidefinite")
        obs = np.vstack([self.C @ np.linalg.matrix_power(self.A, k) for k in range(n)])
        if _rank(obs) != n:
            raise ValueError("(A, C) is not observable")
        sq = _sqrt_psd(self.Q)
        ctrb = np.hstack([np.linalg.matrix_power(self.A, k) @ sq for k in range(n)])
        if _rank(ctrb) != n:
            raise ValueError("(A, sqrt(Q)) is not controllable")


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return v @ np.diag(np.sqrt(w)) @ v.T


@dataclass(frozen=True, eq=False)
class SteadySummary:
    """Converged steady-state covariance plus the trace table the game reads.

    ``trace_table[m]`` holds ``Tr[h^m(p_bar)]`` for ``m = 0..tau_max``.
    """

    p_bar: np.ndarray
    rho_a: float
    trace_table: tuple = field(repr=False)
    iterations: int = 0
    tol: float = 1e-12


def lyapunov_step(x, model: SystemModel) -> np.ndarray:
    """One covariance prediction step ``A X A' + Q``."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.Q.shape:
        raise ValueError(f"X must have shape {model.Q.shape}, got {x.shape}")
    return model.A @ x @ model.A.T + model.Q


def riccati_step(x, model: SystemModel) -> np.ndarray:
    """One measurement update ``X - X C' (C X C' + R)^-1 C X``.

    The output never exceeds the input in the PSD order.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != model.Q.shape:
        raise ValueError(f"X must have shape {model.Q.shape}, got {x.shape}")
    cx = model.C @ x
    gain = np.linalg.solve(cx @ model.C.T + model.R, cx)
    out = x - cx.T @ gain
    # Symmetrize to keep round-off from accumulating across iterations.
    return 0.5 * (out + out.T)


def steady_state_covariance(
    model: SystemModel,
    tol: float = 1e-12,
    max_iter: int = 10**6,
    tau_max: int = 4,
) -> SteadySummary:
    """Iterate ``P <- g(h(P))`` from ``Pi0`` until the fixed point.

    Stops when the sup-norm change between successive iterates drops to
    ``tol``; raises ``ConvergenceError`` past ``max_iter``. The returned
    summary carries the spectral radius of ``A`` and the trace table up
    to ``tau_max``; raises ``ValueError`` when an entry of that table is
    not finite in float64.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter <= 0:
        raise ValueError("max_iter must be positive")
    if tau_max < 0:
        raise ValueError("tau_max must be nonnegative")
    p = np.array(model.Pi0, dtype=float)
    for it in range(1, max_iter + 1):
        nxt = riccati_step(lyapunov_step(p, model), model)
        delta = float(np.abs(nxt - p).max())
        p = nxt
        if delta <= tol:
            break
    else:
        raise ConvergenceError(
            f"covariance iteration did not reach tol={tol} in {max_iter} steps"
        )
    rho_a = float(np.abs(np.linalg.eigvals(model.A)).max())
    traces = []
    hm = p
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(tau_max + 1):
            traces.append(float(np.trace(hm)))
            if not np.isfinite(traces[-1]):
                raise ValueError(
                    f"trace table overflows float64 at holding time {m}: "
                    f"tau_max={tau_max} is too large for rho(A)={rho_a:.6g}"
                )
            hm = lyapunov_step(hm, model)
    p.flags.writeable = False
    return SteadySummary(
        p_bar=p, rho_a=rho_a, trace_table=tuple(traces), iterations=it, tol=tol
    )


def boundedness_threshold(summary: SteadySummary) -> float:
    """Arrival-probability floor ``1 - 1/rho(A)^2`` for a bounded covariance.

    Negative for a stable plant, in which case the condition is vacuous;
    ``-inf`` for rho(A) = 0 (a nilpotent ``A``), the limit of the formula.
    """
    rho2 = summary.rho_a**2
    return 1.0 - 1.0 / rho2 if rho2 > 0.0 else -math.inf
