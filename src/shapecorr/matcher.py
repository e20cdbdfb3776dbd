"""Alternating region matcher: sparse coding against injective reassignment.

Starting from the uninformative uniform correspondence, the matcher
alternates two exact subproblem solves: fit a coefficient-space transport
C and outlier rows O to the currently ordered targets, then reassign
regions by maximizing the linear profit (A C) B^T.  On near-isometric
pairs the loop settles in very few rounds; each pursuit after the first
warm-starts from the previous map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .assignment import Assignment, build_profit, prune, solve_assignment
from .mesh import _positive_int
from .pursuit import SolverOptions, resolve_penalties, solve_robust_sparse_coding

__all__ = [
    "MatchResult",
    "match",
    "write_match_report",
]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of the alternating solve.

    ``assignment_matrix`` is the q x r binary correspondence; ``assignment``
    carries the same content as an index map and is None when the inputs
    were swapped internally to restore q <= r (the matrices returned are
    then transposed back into the caller's orientation, and ``outliers``
    refers to the swapped source side).  ``objective_trace`` holds the
    joint objective after each outer alternation.  The loop stops on one
    of two conditions: the pairing repeats, or ``max_outer`` rounds have
    run.  ``converged`` holds when it stopped on a repeated pairing and its
    last pursuit met its tolerance before ``options.max_iter``.  ``lam``
    and ``mu`` are the penalties used, given or resolved from the caller's
    coefficients.
    """

    functional_map: np.ndarray
    outliers: np.ndarray
    assignment: Assignment | None
    assignment_matrix: np.ndarray
    objective_trace: np.ndarray
    outer_iterations: int
    converged: bool
    swapped: bool
    lam: float
    mu: float

    @property
    def degenerate(self):
        """C is all zero: the penalties priced the map out."""
        return not self.functional_map.any()


def match(coeffs_x, coeffs_y, regions_x=None, regions_y=None, weights=None,
          options=None, prune_ratio=3.0, max_outer=10):
    """Jointly recover transport C, outliers O, and region assignment.

    Parameters
    ----------
    coeffs_x, coeffs_y : (q, n), (r, n) ndarray
        Region indicator coefficients of the two shapes.
    regions_x, regions_y : RegionSet, optional
        When both are given, pairs whose areas differ more than
        ``prune_ratio``-fold are excluded from assignment.
    weights, options
        Forwarded to the pursuit solver; penalties left None resolve once
        from ``coeffs_x`` and ``coeffs_y`` as given (``resolve_penalties``,
        before any swap) and stay fixed across alternations.
    max_outer
        The loop stops when the pairing repeats, which counts as settled,
        or after ``max_outer`` alternations without a repeat, which does not.
    """
    _positive_int(max_outer, "max_outer")
    A = np.asarray(coeffs_x, dtype=np.float64)
    B = np.asarray(coeffs_y, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"incompatible coefficient shapes {A.shape} and {B.shape}")
    options = options or SolverOptions()
    lam, mu = resolve_penalties(A, B, options.lam, options.mu)
    options = replace(options, lam=lam, mu=mu)
    q = A.shape[0]
    r = B.shape[0]
    if q > r:
        inner = match(B, A, regions_y, regions_x, weights=weights,
                      options=options, prune_ratio=prune_ratio, max_outer=max_outer)
        return replace(inner,
                       functional_map=inner.functional_map.T.copy(),
                       assignment=None,
                       assignment_matrix=inner.assignment_matrix.T.copy(),
                       swapped=True)

    mask = None
    if regions_x is not None and regions_y is not None and prune_ratio is not None:
        mask = prune(regions_x, regions_y, prune_ratio)

    # uniform row-stochastic start: every reordered row is the column mean
    target = np.full((q, r), 1.0 / r) @ B

    previous_cols = None
    trace = []
    result = None
    converged = False
    for outer in range(1, max_outer + 1):
        result = solve_robust_sparse_coding(
            A, target, weights, options,
            initial_map=None if result is None else result.functional_map)
        trace.append(result.objective_trace[-1])
        profit = build_profit(A, result.functional_map, B)
        assignment = solve_assignment(profit, mask)
        target = B[assignment.cols]
        if previous_cols is not None and np.array_equal(assignment.cols, previous_cols):
            converged = True
            break
        previous_cols = assignment.cols
    return MatchResult(functional_map=result.functional_map,
                       outliers=result.outliers,
                       assignment=assignment,
                       assignment_matrix=assignment.matrix,
                       objective_trace=np.array(trace),
                       outer_iterations=outer,
                       converged=converged and result.converged,
                       swapped=False,
                       lam=lam, mu=mu)


def write_match_report(result, path):
    """Structured text report of a match; deterministic for fixed inputs."""
    q, r = result.assignment_matrix.shape
    lines = [
        "# region match report",
        f"rows = {q}",
        f"cols = {r}",
        f"swapped = {str(result.swapped).lower()}",
        f"outer_iterations = {result.outer_iterations}",
        f"converged = {str(result.converged).lower()}",
        f"lambda = {result.lam:.12e}",
        f"mu = {result.mu:.12e}",
        "objective_trace = " + " ".join(f"{v:.12e}" for v in result.objective_trace),
        "assignment_pairs:",
    ]
    rows, cols = np.nonzero(result.assignment_matrix)
    lines.extend(f"{i} {j}" for i, j in zip(rows, cols))
    lines.append("outlier_row_norms:")
    norms = np.linalg.norm(result.outliers, axis=1)
    lines.extend(f"{i} {v:.12e}" for i, v in enumerate(norms))
    Path(path).write_text("\n".join(lines) + "\n")
