import signal
from contextlib import contextmanager

import numpy as np
import pytest

from hombeat import LMResult, levenberg_marquardt
from hombeat.lm import GRADIENT_TOL, _clipped_pinv


def quadratic_residual(design, target):
    return lambda x: design @ x - target


class TestLinearProblems:
    def test_exact_in_two_iterations(self):
        rng = np.random.default_rng(11)
        design = rng.normal(size=(12, 4))
        target = rng.normal(size=12)
        res = levenberg_marquardt(quadratic_residual(design, target),
                                  np.zeros(4))
        exact = np.linalg.lstsq(design, target, rcond=None)[0]
        assert res.converged
        assert res.n_iterations <= 2
        assert np.max(np.abs(res.params - exact)) < 1e-9

    def test_overdetermined_consistent_system(self):
        design = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        truth = np.array([0.7, -1.3])
        res = levenberg_marquardt(
            quadratic_residual(design, design @ truth), [10.0, 10.0])
        assert res.converged and res.n_iterations <= 2
        assert np.max(np.abs(res.params - truth)) < 1e-9
        assert res.residual_norm < 1e-9


class TestNonlinearProblems:
    def test_rosenbrock_valley(self):
        def residual(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        res = levenberg_marquardt(residual, [-1.2, 1.0])
        assert res.converged
        assert np.max(np.abs(res.params - 1.0)) < 1e-6

    def test_exponential_decay_recovery(self):
        t = np.linspace(0.0, 5.0, 60)
        truth = np.array([2.5, 1.3])
        data = truth[0] * np.exp(-truth[1] * t)

        def residual(x):
            return x[0] * np.exp(-x[1] * t) - data

        res = levenberg_marquardt(residual, [1.0, 0.5])
        assert res.converged
        assert np.max(np.abs(res.params - truth)) < 1e-7


class TestRobustness:
    def test_singular_normal_equations_no_crash(self):
        # duplicated column makes J^T J exactly singular along one direction
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        target = np.array([1.0, 2.0, 3.0])
        res = levenberg_marquardt(quadratic_residual(design, target),
                                  [0.3, -0.2])
        assert isinstance(res, LMResult)
        fit = design @ res.params
        assert np.max(np.abs(fit - target)) < 1e-8

    def test_nonfinite_trial_treated_as_rejection(self):
        def residual(x):
            if x[0] > 10.0:
                return np.array([np.nan, np.nan])
            return np.array([x[0] - 3.0, 0.1 * (x[0] - 3.0)])

        res = levenberg_marquardt(residual, [0.5])
        assert res.converged
        assert abs(res.params[0] - 3.0) < 1e-8

    def test_iteration_cap_reports_nonconverged(self):
        t = np.linspace(0.0, 5.0, 40)
        data = 2.0 * np.exp(-0.7 * t)

        def residual(x):
            return x[0] * np.exp(-x[1] * t) - data

        res = levenberg_marquardt(residual, [20.0, 5.0], max_iterations=1)
        assert not res.converged
        assert "iteration limit" in res.message

    def test_invalid_start_rejected(self):
        with pytest.raises(ValueError):
            levenberg_marquardt(lambda x: x, [np.nan])
        with pytest.raises(ValueError):
            levenberg_marquardt(lambda x: x, [])


@contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def finite_only_at_zero(x):
    return x - 1.0 if not np.any(x) else np.full(x.size, np.nan)


class TestUnconvergedExits:
    # Each exit returns the start unchanged with converged=False, in well
    # under a second, instead of raising or looping.
    @pytest.mark.parametrize("residual, jacobian, message", [
        (lambda x: x - 1.0, lambda x: np.full((2, 2), np.nan),
         "non-finite gradient, no step possible"),
        (lambda x: np.sqrt(x) - 1.0, None,
         "non-finite gradient, no step possible"),
        (finite_only_at_zero, None, "non-finite gradient, no step possible"),
        (finite_only_at_zero, lambda x: np.eye(2),
         "damping overflow, no acceptable step found"),
        (lambda x: x - 1.0, lambda x: np.full((2, 2), 1e200),
         "damping overflow on singular normal equations"),
    ], ids=["nan-jacobian", "sqrt-differences", "finite-only-at-x0",
            "no-acceptable-step", "normal-matrix-overflows"])
    def test_exit_returns_start(self, residual, jacobian, message):
        with deadline(1.0), np.errstate(over="ignore", invalid="ignore"):
            res = levenberg_marquardt(residual, np.zeros(2), jacobian=jacobian)
        assert not res.converged
        assert res.message == message
        assert np.array_equal(res.params, np.zeros(2))


class TestDiagnostics:
    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(4)
        design = rng.normal(size=(20, 3))
        target = rng.normal(size=20)
        res = levenberg_marquardt(quadratic_residual(design, target),
                                  np.zeros(3))
        cov = res.covariance
        assert np.allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_converged_gradient_below_tolerance(self):
        design = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        target = np.array([0.2, -0.4, 0.1])
        res = levenberg_marquardt(quadratic_residual(design, target),
                                  np.zeros(2))
        assert res.converged
        assert res.message == "gradient tolerance reached"
        assert res.gradient_norm < GRADIENT_TOL

    def test_jacobian_matches_halved_stencil(self):
        # central finite differences at the default step agree with an
        # independent halved-step stencil to 1e-4 relative
        t = np.linspace(0.0, 2.0, 30)

        def residual(x):
            return x[0] * np.sin(x[1] * t + x[2]) - 0.3 * t

        from hombeat.lm import _fd_jacobian

        rng = np.random.default_rng(9)
        for _ in range(5):
            x = rng.uniform(0.5, 2.0, size=3)
            r0 = residual(x)
            j1 = _fd_jacobian(residual, x, r0.size, 1e-6)
            j2 = _fd_jacobian(residual, x, r0.size, 5e-7)
            scale = np.max(np.abs(j1))
            assert np.max(np.abs(j1 - j2)) < 1e-4 * scale


DECAY_T = np.linspace(0.0, 5.0, 40)


def decay_residual(data):
    return lambda x: x[0] * np.exp(-x[1] * DECAY_T) - data


def decay_jacobian(x):
    e = np.exp(-x[1] * DECAY_T)
    return np.column_stack([e, -x[0] * DECAY_T * e])


class TestSuppliedJacobian:
    def test_linear_problem_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        design = rng.normal(size=(30, 4))
        target = rng.normal(size=30)
        residual = quadratic_residual(design, target)
        fd = levenberg_marquardt(residual, np.zeros(4))
        exact = levenberg_marquardt(residual, np.zeros(4),
                                    jacobian=lambda x: design)
        assert exact.converged and exact.n_iterations <= 2
        assert np.max(np.abs(exact.params - fd.params)) < 1e-9

    def test_counts_only_residual_calls(self):
        residual = decay_residual(2.0 * np.exp(-0.7 * DECAY_T))
        calls = {"fd": 0, "analytic": 0}

        def counted(key):
            def count(x):
                calls[key] += 1
                return residual(x)
            return count

        fd = levenberg_marquardt(counted("fd"), [1.0, 0.3])
        exact = levenberg_marquardt(counted("analytic"), [1.0, 0.3],
                                    jacobian=decay_jacobian)
        assert fd.converged and exact.converged
        assert fd.n_residual_evals == calls["fd"]
        assert exact.n_residual_evals == calls["analytic"]
        # each finite-difference Jacobian costs 2 * n_params evaluations
        assert fd.n_residual_evals >= 1 + 4 * fd.n_iterations
        assert exact.n_residual_evals < fd.n_residual_evals - 4 * exact.n_iterations


class TestCovarianceAtReturnedParameters:
    @pytest.mark.parametrize("max_iterations", [2, 500])
    @pytest.mark.parametrize("analytic", [False, True])
    def test_covariance_from_final_jacobian(self, max_iterations, analytic):
        # Whether the loop ends on the iteration limit or on a small cost
        # change, it ends right after an accepted step: the covariance must
        # come from the Jacobian at the returned parameters, not the one
        # taken before that step.
        noise = 0.05 * np.random.default_rng(3).normal(size=DECAY_T.size)
        residual = decay_residual(2.0 * np.exp(-0.7 * DECAY_T) + noise)
        res = levenberg_marquardt(residual, [1.0, 0.3],
                                  max_iterations=max_iterations,
                                  jacobian=decay_jacobian if analytic else None)
        assert res.n_iterations >= 1
        jac = decay_jacobian(res.params)
        want = _clipped_pinv(jac.T @ jac)
        assert np.allclose(res.covariance, want, rtol=1e-6, atol=0.0)
