"""Robust sparse coding of region coefficients by forward-backward splitting.

For fixed region correspondence the matching problem reduces to

    min_{C, O}  1/2 ||Bp - A C - O||_F^2 + lam ||W o C||_1 + mu ||O||_{2,1}

where A (q, n) holds the source-shape region coefficients, Bp (q, n) the
reordered target coefficients, C (n, n) is the sought coefficient-space
transport, W an elementwise penalty weight favoring near-diagonal C, and
the row-wise l2,1 norm lets whole rows of the residual be written off as
outliers O.  Both penalties have closed-form proximal maps, so the problem
splits into a joint gradient step on the quadratic followed by two
independent shrinkages.  The step length is the reciprocal of the largest
eigenvalue of the joint quadratic's Hessian

    H = [[A^T A, A^T], [A, I]],

the Lipschitz constant of its gradient.  H is the Gram matrix of [A I],
whose nonzero spectrum is that of A A^T + I, so the top eigenvalue is
sigma_max(A)^2 + 1 in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverOptions",
    "PursuitResult",
    "default_weights",
    "prox_weighted_l1",
    "prox_l21_rows",
    "step_size",
    "objective",
    "resolve_penalties",
    "solve_robust_sparse_coding",
]


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs.  ``lam`` and ``mu`` default to data-scaled values.

    ``accelerated`` turns on momentum extrapolation; convergence is then
    faster but the objective trace is no longer monotone.
    """

    lam: float | None = None
    mu: float | None = None
    tol: float = 1e-8
    max_iter: int = 2000
    accelerated: bool = True

    def __post_init__(self):
        if self.lam is not None and self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.mu is not None and self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class PursuitResult:
    """Final iterates plus the objective value of every iterate."""

    functional_map: np.ndarray
    outliers: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    lam: float
    mu: float


def default_weights(n, power=1.0):
    """Penalty weights (1 + |i - j|)^power, cheapest on the diagonal.

    ``power = 0`` gives uniform weights; larger powers push C toward the
    diagonal, reflecting how close to isometric the pair is believed to be.
    """
    if n < 1:
        raise ValueError("n must be positive")
    idx = np.arange(n)
    return (1.0 + np.abs(idx[:, None] - idx[None, :])) ** power


def prox_weighted_l1(values, weights, step):
    """Elementwise weighted soft threshold.

    Returns argmin_U 1/2 ||U - values||_F^2 + step * ||weights o U||_1,
    i.e. sign(values) * max(|values| - step * weights, 0).
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.shape != weights.shape:
        raise ValueError(f"shape mismatch: values {values.shape}, weights {weights.shape}")
    if step < 0:
        raise ValueError("step must be nonnegative")
    return np.sign(values) * np.maximum(np.abs(values) - step * weights, 0.0)


def prox_l21_rows(values, step):
    """Row-wise group shrinkage.

    Returns argmin_U 1/2 ||U - values||_F^2 + step * sum_i ||row_i(U)||_2:
    each row is scaled by max(||row||_2 - step, 0) / ||row||_2, so rows at
    or below the threshold vanish exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be a 2-d array")
    if step < 0:
        raise ValueError("step must be nonnegative")
    norms = np.linalg.norm(values, axis=1)
    scale = np.zeros_like(norms)
    alive = norms > step
    scale[alive] = (norms[alive] - step) / norms[alive]
    return values * scale[:, None]


def step_size(dictionary):
    """Largest eigenvalue of the joint Hessian [[A^T A, A^T], [A, I]].

    Exactly sigma_max(A)^2 + 1: the Hessian is the Gram matrix of [A I],
    whose nonzero eigenvalues are those of A A^T + I.
    """
    A = np.asarray(dictionary, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("dictionary must be a nonempty 2-d array")
    return float(np.linalg.norm(A, 2)) ** 2 + 1.0


def objective(dictionary, target, functional_map, outliers, weights, lam, mu):
    """Value of the robust sparse-coding objective at (C, O)."""
    residual = target - dictionary @ functional_map - outliers
    return (0.5 * float(np.sum(residual * residual))
            + lam * float(np.sum(weights * np.abs(functional_map)))
            + mu * float(np.sum(np.linalg.norm(outliers, axis=1))))


def resolve_penalties(dictionary, target, lam=None, mu=None):
    """``lam`` and ``mu``, each data-scaled when None.

    The default lam is a tenth of the largest correlation |A^T Bp|, the
    default mu a tenth of the largest row norm of Bp, so both shrinkages
    engage at comparable magnitudes regardless of input scaling.  A given
    value passes through unchanged.
    """
    A = np.asarray(dictionary, dtype=np.float64)
    Bp = np.asarray(target, dtype=np.float64)
    if lam is None:
        lam = 0.1 * float(np.abs(A.T @ Bp).max())
    if mu is None:
        mu = 0.1 * float(np.linalg.norm(Bp, axis=1).max())
    return lam, mu


def solve_robust_sparse_coding(dictionary, target, weights=None, options=None,
                               initial_map=None, initial_outliers=None):
    """Minimize the robust sparse-coding objective for fixed correspondence.

    Starts from C = 0 and O = Bp unless warm-start iterates are supplied.
    Each iteration takes one gradient step on the quadratic part at the
    current (or extrapolated) point and applies the two proximal maps.
    Stops when the relative objective change falls below ``options.tol``
    or after ``options.max_iter`` iterations.

    Without acceleration every step is guaranteed not to increase the
    objective; with acceleration the trace simply records the raw values.
    """
    A = np.asarray(dictionary, dtype=np.float64)
    Bp = np.asarray(target, dtype=np.float64)
    if A.ndim != 2 or Bp.ndim != 2:
        raise ValueError("dictionary and target must be 2-d arrays")
    q, n = A.shape
    if Bp.shape[0] != q:
        raise ValueError(f"target has {Bp.shape[0]} rows, dictionary has {q}")
    if weights is None:
        weights = default_weights(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n, n):
        raise ValueError(f"weights must be ({n}, {n}), got {weights.shape}")
    options = options or SolverOptions()
    lam, mu = resolve_penalties(A, Bp, options.lam, options.mu)

    C = np.zeros((n, n)) if initial_map is None else np.array(initial_map, dtype=np.float64)
    O = Bp.copy() if initial_outliers is None else np.array(initial_outliers, dtype=np.float64)
    if C.shape != (n, n):
        raise ValueError(f"initial map must be ({n}, {n}), got {C.shape}")
    if O.shape != Bp.shape:
        raise ValueError(f"initial outliers must be {Bp.shape}, got {O.shape}")

    alpha = step_size(A)
    trace = [objective(A, Bp, C, O, weights, lam, mu)]
    extr_C, extr_O = C, O  # extrapolated point when accelerated
    momentum = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, options.max_iter + 1):
        base_C, base_O = (extr_C, extr_O) if options.accelerated else (C, O)
        residual = A @ base_C + base_O - Bp
        step_C = base_C - (A.T @ residual) / alpha
        step_O = base_O - residual / alpha
        new_C = prox_weighted_l1(step_C, weights, lam / alpha)
        new_O = prox_l21_rows(step_O, mu / alpha)
        if options.accelerated:
            momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
            beta = (momentum - 1.0) / momentum_next
            extr_C = new_C + beta * (new_C - C)
            extr_O = new_O + beta * (new_O - O)
            momentum = momentum_next
        C, O = new_C, new_O
        value = objective(A, Bp, C, O, weights, lam, mu)
        if not np.isfinite(value):
            raise FloatingPointError(
                f"objective diverged at iteration {iterations}")
        trace.append(value)
        if abs(trace[-2] - trace[-1]) <= options.tol * max(abs(trace[-2]), 1e-300):
            converged = True
            break
    return PursuitResult(functional_map=C, outliers=O,
                         objective_trace=np.array(trace),
                         iterations=iterations, converged=converged,
                         lam=lam, mu=mu)
