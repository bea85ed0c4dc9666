import numpy as np
import pytest

from jamgame.estimation import (
    ConvergenceError,
    SystemModel,
    boundedness_threshold,
    lyapunov_step,
    riccati_step,
    steady_state_covariance,
)


def scalar_model(a=1.2, c=0.7, q=0.8, r=0.8, pi0=0.8):
    return SystemModel(A=[[a]], C=[[c]], Q=[[q]], R=[[r]], Pi0=[[pi0]])


def quadratic_root_p_bar():
    # Substituting the prediction step into the update step for scalars
    # collapses the fixed point to 0.7056 P^2 + 0.04 P - 0.64 = 0.
    coeffs = (0.7056, 0.04, -0.64)
    roots = np.roots(coeffs)
    root = float(roots[roots > 0][0])
    # Sanity: it really is a root.
    assert abs(coeffs[0] * root**2 + coeffs[1] * root + coeffs[2]) < 1e-12
    return root


class TestSystemModel:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            SystemModel(A=np.eye(2), C=np.eye(2), Q=[[1, 0.5], [0, 1]],
                        R=np.eye(2), Pi0=np.eye(2))

    def test_rejects_semidefinite_r(self):
        with pytest.raises(ValueError, match="positive definite"):
            scalar_model(r=0.0)

    def test_rejects_unobservable_pair(self):
        # C sees only the first state of a decoupled two-state plant.
        with pytest.raises(ValueError, match="observable"):
            SystemModel(A=np.diag([1.1, 1.2]), C=[[1.0, 0.0]],
                        Q=np.eye(2), R=[[1.0]], Pi0=np.eye(2))

    def test_rejects_uncontrollable_noise(self):
        with pytest.raises(ValueError, match="controllable"):
            SystemModel(A=np.diag([1.1, 1.2]), C=np.eye(2),
                        Q=np.diag([1.0, 0.0]), R=np.eye(2), Pi0=np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SystemModel(A=np.eye(2), C=np.eye(2), Q=np.eye(3), R=np.eye(2),
                        Pi0=np.eye(2))


class TestOperators:
    def test_lyapunov_zero_input_returns_q(self):
        out = lyapunov_step(np.zeros((1, 1)), scalar_model())
        assert out[0, 0] == 0.8

    def test_lyapunov_identity_case(self):
        # Q = 0 exactly would fail the controllability test, so use a Q
        # small enough not to disturb the identity check.
        m = SystemModel(A=np.eye(2), C=np.eye(2), Q=1e-9 * np.eye(2),
                        R=np.eye(2), Pi0=np.eye(2))
        out = lyapunov_step(np.eye(2), m)
        assert np.allclose(out, np.eye(2), atol=1e-8)

    def test_lyapunov_at_fixed_point(self):
        p_bar = quadratic_root_p_bar()
        out = lyapunov_step([[p_bar]], scalar_model())
        assert out[0, 0] == pytest.approx(1.44 * p_bar + 0.8, abs=1e-12)

    def test_riccati_zero_is_fixed(self):
        out = riccati_step(np.zeros((1, 1)), scalar_model())
        assert out[0, 0] == 0.0

    def test_riccati_hand_value(self):
        m = scalar_model(a=1.0, c=1.0, q=1.0, r=1.0, pi0=1.0)
        out = riccati_step([[1.0]], m)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_riccati_inverts_prediction_at_fixed_point(self):
        p_bar = quadratic_root_p_bar()
        model = scalar_model()
        out = riccati_step(lyapunov_step([[p_bar]], model), model)
        assert out[0, 0] == pytest.approx(p_bar, abs=1e-9)

    def test_riccati_never_exceeds_input(self):
        rng = np.random.default_rng(3)
        m = SystemModel(A=[[1.1, 0.2], [0.0, 0.9]], C=[[1.0, 0.3]],
                        Q=0.5 * np.eye(2), R=[[0.4]], Pi0=np.eye(2))
        for _ in range(25):
            b = rng.normal(size=(2, 2))
            x = b @ b.T
            out = riccati_step(x, m)
            assert np.linalg.eigvalsh(x - out).min() > -1e-10


class TestSteadyState:
    def test_matches_quadratic_oracle(self):
        summary = steady_state_covariance(scalar_model(), tau_max=4)
        assert summary.p_bar[0, 0] == pytest.approx(quadratic_root_p_bar(), abs=1e-6)

    def test_fixed_point_residual(self):
        model = scalar_model()
        summary = steady_state_covariance(model, tol=1e-12)
        back = riccati_step(lyapunov_step(summary.p_bar, model), model)
        assert np.abs(back - summary.p_bar).max() <= 10 * summary.tol

    def test_zero_dynamics_reduces_to_one_update(self):
        # With A = 0 the prediction is constantly Q, so the fixed point is
        # the measurement update applied to Q. A = 0 is not observable for
        # n = 1? It is: O = [C]. Controllability: [sqrt(Q)] full rank.
        model = scalar_model(a=0.0, q=0.9)
        summary = steady_state_covariance(model)
        expect = riccati_step([[0.9]], model)[0, 0]
        assert summary.p_bar[0, 0] == pytest.approx(expect, abs=1e-10)

    def test_unique_fixed_point_ignores_start(self):
        tol = 1e-12
        a = steady_state_covariance(scalar_model(pi0=0.0), tol=tol)
        b = steady_state_covariance(scalar_model(pi0=10.0), tol=tol)
        assert abs(a.p_bar[0, 0] - b.p_bar[0, 0]) <= 2 * tol

    def test_monotone_iteration_from_zero(self):
        model = scalar_model(pi0=0.0)
        p = np.zeros((1, 1))
        prev = -1.0
        for _ in range(40):
            p = riccati_step(lyapunov_step(p, model), model)
            assert p[0, 0] >= prev - 1e-15
            prev = p[0, 0]

    def test_nonconvergence_raises(self):
        with pytest.raises(ConvergenceError):
            steady_state_covariance(scalar_model(), tol=1e-16, max_iter=3)

    def test_matrix_model_converges(self):
        m = SystemModel(A=[[1.05, 0.1], [0.0, 0.95]], C=[[1.0, 0.0]],
                        Q=0.3 * np.eye(2), R=[[0.5]], Pi0=np.eye(2))
        summary = steady_state_covariance(m)
        back = riccati_step(lyapunov_step(summary.p_bar, m), m)
        assert np.abs(back - summary.p_bar).max() < 1e-10
        assert summary.rho_a == pytest.approx(1.05, abs=1e-12)


class TestTraceTable:
    def test_entries_compose_lyapunov_steps_exactly(self):
        model = scalar_model()
        summary = steady_state_covariance(model, tau_max=6)
        p = np.array(summary.p_bar)
        for m in range(7):
            assert summary.trace_table[m] == float(np.trace(p))
            p = lyapunov_step(p, model)

    def test_strictly_increasing_for_unstable_plant(self):
        summary = steady_state_covariance(scalar_model(), tau_max=5)
        diffs = np.diff(summary.trace_table)
        assert (diffs > 0).all()


class TestBoundednessThreshold:
    def test_paper_plant_value(self):
        summary = steady_state_covariance(scalar_model())
        assert boundedness_threshold(summary) == pytest.approx(1 - 1 / 1.44, abs=1e-12)

    def test_marginally_stable_plant_gives_zero(self):
        m = scalar_model(a=1.0)
        summary = steady_state_covariance(m)
        assert boundedness_threshold(summary) == pytest.approx(0.0, abs=1e-12)

    def test_stable_plant_is_negative(self):
        summary = steady_state_covariance(scalar_model(a=0.8))
        assert boundedness_threshold(summary) < 0
