"""Self-contained damped least-squares solver.

A compact Levenberg-Marquardt implementation over a user-supplied residual
function. The Jacobian comes from a caller-supplied closed form when one is
given, and from central finite differences of the residual otherwise; damping
follows the gain-ratio update of Nielsen, and the initial damping is zero so
that linear problems are solved exactly in the first Gauss-Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LMResult", "levenberg_marquardt"]

# Damping at the start (see above) and past which the solver gives up, and
# the relative step of the central-difference Jacobian.
LAMBDA_INIT = 0.0
LAMBDA_MAX = 1e12
FD_STEP = 1e-6
# Stop rule: the gradient's infinity norm is below GRADIENT_TOL, or a trial
# step (accepted or not) changes the cost by less than COST_TOL relatively.
GRADIENT_TOL = 1e-8
COST_TOL = 1e-10
MAX_ITERATIONS = 500


@dataclass
class LMResult:
    params: np.ndarray
    cost: float
    residual_norm: float
    gradient_norm: float
    n_iterations: int
    converged: bool
    message: str
    covariance: np.ndarray = field(repr=False, default=None)
    n_residual_evals: int = 0


def _fd_jacobian(residual_fn, x: np.ndarray, r0_size: int, step: float) -> np.ndarray:
    jac = np.empty((r0_size, x.size))
    for k in range(x.size):
        h = step * max(1.0, abs(x[k]))
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        jac[:, k] = (np.asarray(residual_fn(xp)) - np.asarray(residual_fn(xm))) / (2.0 * h)
    return jac


def _clipped_pinv(h: np.ndarray) -> np.ndarray:
    """Pseudo-inverse through an eigendecomposition with small-mode clipping.

    Keeps the covariance symmetric positive semidefinite even when the
    normal matrix is numerically singular along unidentifiable directions.
    """
    hs = 0.5 * (h + h.T)
    vals, vecs = np.linalg.eigh(hs)
    cut = max(vals.max(), 0.0) * 1e-12
    inv = np.where(vals > cut, 1.0 / np.where(vals > cut, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def levenberg_marquardt(residual_fn, x0, max_iterations: int = MAX_ITERATIONS,
                        jacobian=None) -> LMResult:
    """Minimize 0.5 * sum(residual_fn(x)^2) from the starting point x0.

    Parameters
    ----------
    residual_fn:
        Callable mapping a parameter vector to a 1D residual array. Must be
        finite at ``x0``; non-finite values during iteration are treated as
        a rejected trial step rather than an error.
    x0:
        Initial parameter vector, finite, at least one entry.
    max_iterations:
        Accepted steps after which the solver stops unconverged.
    jacobian:
        Optional callable mapping a parameter vector to the
        (n_residuals, n_params) matrix of residual derivatives. Without it
        the Jacobian is taken by central finite differences, at
        2 * n_params residual evaluations each.

    Returns
    -------
    LMResult
        Never raises for numerical trouble after a valid start: singular
        normal equations increase the damping, and a runaway damping factor
        or a non-finite gradient returns ``converged=False`` with a
        diagnostic message.
        ``n_residual_evals`` counts calls of ``residual_fn`` only, and
        ``covariance`` is (J^T J)^+ at the returned parameters.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.size == 0:
        raise ValueError("need at least one free parameter")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess must be finite")
    n_evals = 0

    def residual(xk):
        nonlocal n_evals
        n_evals += 1
        return np.asarray(residual_fn(xk), dtype=float)

    r = residual(x)
    if r.ndim != 1 or not np.all(np.isfinite(r)):
        raise ValueError("residual at the initial guess must be a finite 1D array")
    cost = 0.5 * float(r @ r)
    lam = LAMBDA_INIT
    nu = 2.0
    n_accepted = 0
    grad_norm = np.inf
    message = "iteration limit reached"
    converged = False
    if jacobian is None:
        n_res = r.size

        def jacobian(xk):
            return _fd_jacobian(residual, xk, n_res, FD_STEP)
    jac_x = None

    for _ in range(max_iterations):
        jac, jac_x = np.asarray(jacobian(x), dtype=float), x
        grad = jac.T @ r
        grad_norm = float(np.max(np.abs(grad)))
        if not np.isfinite(grad_norm):
            message = "non-finite gradient, no step possible"
            break
        if grad_norm < GRADIENT_TOL:
            converged = True
            message = "gradient tolerance reached"
            break
        hess = jac.T @ jac
        diag_scale = float(np.max(np.diag(hess))) or 1.0

        accepted = False
        while not accepted:
            try:
                step = np.linalg.solve(hess + lam * np.eye(x.size), -grad)
                if not np.all(np.isfinite(step)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                lam = max(lam * 10.0, 1e-3 * diag_scale)
                if lam > LAMBDA_MAX:
                    message = "damping overflow on singular normal equations"
                    break
                continue
            r_try = residual(x + step)
            cost_try = 0.5 * float(r_try @ r_try) if np.all(np.isfinite(r_try)) else np.inf
            predicted = -(grad @ step + 0.5 * step @ hess @ step)
            if cost_try < cost:
                gain = (cost - cost_try) / predicted if predicted > 0 else 1.0
                rel_drop = (cost - cost_try) / max(cost, 1e-300)
                x = x + step
                r = r_try
                cost = cost_try
                n_accepted += 1
                lam = lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu = 2.0
                accepted = True
                if rel_drop < COST_TOL:
                    converged = True
                    message = "relative cost change below tolerance"
            else:
                # A rejected step whose cost matches the current cost to
                # within the relative tolerance means the surface is flat at
                # numerical resolution: no further progress is possible.
                if np.isfinite(cost_try) and \
                        abs(cost_try - cost) < COST_TOL * max(cost, 1e-300):
                    converged = True
                    message = "relative cost change below tolerance"
                    break
                lam = lam * nu if lam > 0 else 1e-3 * diag_scale
                nu *= 2.0
                if lam > LAMBDA_MAX:
                    message = "damping overflow, no acceptable step found"
                    break
        if not accepted or converged:
            break

    if jac_x is not x:
        # An accepted step moved x after the last Jacobian was taken.
        jac = np.asarray(jacobian(x), dtype=float)
    covariance = _clipped_pinv(jac.T @ jac)
    return LMResult(
        params=x,
        cost=cost,
        residual_norm=float(np.sqrt(2.0 * cost)),
        gradient_norm=grad_norm,
        n_iterations=n_accepted,
        converged=converged,
        message=message,
        covariance=covariance,
        n_residual_evals=n_evals,
    )
