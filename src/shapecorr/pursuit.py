"""Robust sparse coding of region coefficients by forward-backward splitting.

For fixed region correspondence the matching problem reduces to

    min_{C, O}  1/2 ||Bp - A C - O||_F^2 + lam ||W o C||_1 + mu ||O||_{2,1}

where A (q, n) holds the source-shape region coefficients, Bp (q, n) the
reordered target coefficients, C (n, n) is the sought coefficient-space
transport, W a finite, nonnegative elementwise weight favoring
near-diagonal C, and the row-wise l2,1 norm lets whole rows of the
residual be written off as outliers O.  For fixed C the best O is the row
shrinkage by mu of the residual R = Bp - A C; eliminating it leaves sum_i
h_mu(||r_i||) + lam ||W o C||_1, with h_mu the Huber function (the Moreau
envelope of mu ||.||).  Its gradient -A^T (r_i min(1, mu / ||r_i||))_i is
Lipschitz with constant exactly sigma_max(A)^2, as the row projection onto
the mu-ball is nonexpansive.  The solver runs FISTA on C alone with that
step bound and returns O in closed form; its trace is the reduced value,
which equals the joint objective above at that O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import _positive_int

__all__ = [
    "SolverOptions",
    "PursuitResult",
    "default_weights",
    "prox_weighted_l1",
    "prox_l21_rows",
    "step_size",
    "resolve_penalties",
    "solve_robust_sparse_coding",
]


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs.  ``lam`` and ``mu`` default to ``resolve_penalties``.

    ``accelerated`` turns on FISTA momentum on C; convergence is then
    faster but the objective trace is no longer monotone.
    """

    lam: float | None = None
    mu: float | None = None
    tol: float = 1e-8
    max_iter: int = 2000
    accelerated: bool = True

    def __post_init__(self):
        if self.lam is not None and not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative")
        if self.mu is not None and not 0 <= self.mu < np.inf:
            raise ValueError("mu must be finite and nonnegative")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")
        _positive_int(self.max_iter, "max_iter")


@dataclass(frozen=True)
class PursuitResult:
    """Final map, its best outliers, and the objective of every iterate."""

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
    A negative power would make the off-diagonal entries the cheap ones.
    """
    _positive_int(n, "n")
    if not power >= 0:
        raise ValueError("power must be nonnegative")
    idx = np.arange(n)
    with np.errstate(over="ignore"):
        weights = (1.0 + np.abs(idx[:, None] - idx[None, :])) ** power
    if not np.isfinite(weights).all():
        raise ValueError(f"weights overflow: {n}^power is not finite")
    return weights


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
    """Lipschitz constant of the reduced problem's gradient, sigma_max(A)^2.

    An all-zero dictionary has a constant gradient, so any step is valid
    there and 1.0 is returned.
    """
    A = np.asarray(dictionary, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("dictionary must be a nonempty 2-d array")
    return float(np.linalg.norm(A, 2)) ** 2 or 1.0


def resolve_penalties(coeffs_x, coeffs_y, lam=None, mu=None):
    """``lam`` and ``mu``, each scaled from the coefficients when None.

    The default lam is 0.3 max|A^T A| / q for the q rows of A =
    ``coeffs_x``, the default mu 0.3 times the median row norm of
    ``coeffs_y``; both stay balanced against the data term as the region
    count grows.  A given value passes through unchanged.  Either set
    empty or not finite raises ValueError.
    """
    A = np.asarray(coeffs_x, dtype=np.float64)
    B = np.asarray(coeffs_y, dtype=np.float64)
    if not (A.size and B.size):
        raise ValueError(f"empty coefficient set: shapes {A.shape} and {B.shape}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("coefficients must be finite")
    if lam is None:
        lam = 0.3 * float(np.abs(A.T @ A).max()) / A.shape[0]
    if mu is None:
        mu = 0.3 * float(np.median(np.linalg.norm(B, axis=1)))
    return lam, mu


def solve_robust_sparse_coding(dictionary, target, weights=None, options=None,
                               initial_map=None):
    """Minimize the robust sparse-coding objective for fixed correspondence.

    Starts from C = 0 unless a warm-start map is supplied.  Each iteration
    takes one gradient step on the Huber term at the extrapolated point
    (the current one without acceleration) and applies the weighted soft
    threshold; trace entries and the returned outliers use the best O for
    each C.  Stops when the relative objective change falls below
    ``options.tol`` or after ``options.max_iter`` iterations.

    Without acceleration every step is guaranteed not to increase the
    objective; with acceleration the trace simply records the raw values.
    ``weights`` must be finite and nonnegative: a negative one makes the
    l1 term concave.
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
    if not ((weights >= 0) & (weights < np.inf)).all():
        raise ValueError("weights must be finite and nonnegative")
    options = options or SolverOptions()
    lam, mu = resolve_penalties(A, Bp, options.lam, options.mu)

    C = np.zeros((n, n)) if initial_map is None else np.array(initial_map, dtype=np.float64)
    if C.shape != (n, n):
        raise ValueError(f"initial map must be ({n}, {n}), got {C.shape}")

    def reduced_objective(C, residual):
        # 1/2 min(r, mu)^2 + mu max(r - mu, 0): the Huber value of each row
        norms = np.linalg.norm(residual, axis=1)
        kept = np.minimum(norms, mu)
        return (float(np.sum(kept * (norms - 0.5 * kept)))
                + lam * float(np.sum(weights * np.abs(C))))

    alpha = step_size(A)
    residual = Bp - A @ C
    trace = [reduced_objective(C, residual)]
    extr_C, extr_residual = C, residual  # extrapolated point
    momentum = 1.0
    converged = False
    for iterations in range(1, options.max_iter + 1):
        # min(1, mu / ||r_i||) projects residual rows onto the mu-ball; the
        # floor 1.0 keeps zero rows finite when mu = 0 (all rows outliers)
        scale = mu / np.maximum(np.linalg.norm(extr_residual, axis=1), mu or 1.0)
        step = extr_C + (A.T @ (extr_residual * scale[:, None])) / alpha
        new_C = prox_weighted_l1(step, weights, lam / alpha)
        new_residual = Bp - A @ new_C
        # momentum stays 1 without acceleration, so beta is 0
        momentum_next = (0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
                         if options.accelerated else 1.0)
        beta = (momentum - 1.0) / momentum_next
        extr_C = new_C + beta * (new_C - C)
        extr_residual = new_residual + beta * (new_residual - residual)
        momentum = momentum_next
        C, residual = new_C, new_residual
        value = reduced_objective(C, residual)
        if not np.isfinite(value):
            raise FloatingPointError(
                f"objective diverged at iteration {iterations}")
        trace.append(value)
        if abs(trace[-2] - trace[-1]) <= options.tol * max(abs(trace[-2]), 1e-300):
            converged = True
            break
    return PursuitResult(functional_map=C, outliers=prox_l21_rows(residual, mu),
                         objective_trace=np.array(trace),
                         iterations=iterations, converged=converged,
                         lam=lam, mu=mu)
