"""Injective region assignment from a linear profit matrix.

The correspondence step maximizes <E, Pi> over assignments Pi that give
every source region exactly one target region and every target region at
most one source (q <= r).  The constraint matrix of the linear relaxation
is totally unimodular, so its vertices are integral and the combinatorial
solve and the LP agree.  The solve is a minimum-weight full matching of
the bipartite graph of allowed pairs (``scipy.sparse.csgraph``, LAPJVsp:
Jonker & Volgenant, Computing 1987).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "Assignment",
    "AssignmentInfeasibleError",
    "build_profit",
    "prune",
    "solve_assignment",
]


class AssignmentInfeasibleError(ValueError):
    """No injective assignment satisfies the feasibility mask."""


@dataclass(frozen=True)
class Assignment:
    """Injective map of q rows onto distinct columns out of num_cols."""

    cols: np.ndarray
    num_cols: int

    def __post_init__(self):
        cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        object.__setattr__(self, "cols", cols)
        if cols.ndim != 1 or len(cols) == 0:
            raise ValueError("cols must be a nonempty 1-d index array")
        if len(cols) > self.num_cols:
            raise ValueError(
                f"{len(cols)} rows cannot map injectively into "
                f"{self.num_cols} columns")
        if cols.min() < 0 or cols.max() >= self.num_cols:
            raise ValueError("column index out of range")
        if len(np.unique(cols)) != len(cols):
            raise ValueError("columns must be distinct (injective map)")
        cols.setflags(write=False)

    @property
    def num_rows(self):
        return len(self.cols)

    @property
    def matrix(self):
        """Dense 0/1 matrix view, shape (num_rows, num_cols)."""
        out = np.zeros((self.num_rows, self.num_cols))
        out[np.arange(self.num_rows), self.cols] = 1.0
        return out


def build_profit(coeffs_x, functional_map, coeffs_y):
    """Profit matrix E = (A C) B^T.

    Entry (i, j) scores how well transporting source region i through the
    functional map lines up with target region j.
    """
    A = np.asarray(coeffs_x, dtype=np.float64)
    C = np.asarray(functional_map, dtype=np.float64)
    B = np.asarray(coeffs_y, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or C.shape != (A.shape[1], A.shape[1]):
        raise ValueError(
            f"incompatible shapes: A {A.shape}, C {C.shape}, B {B.shape}")
    if B.shape[1] != A.shape[1]:
        raise ValueError(
            f"coefficient width mismatch: A has {A.shape[1]}, B has {B.shape[1]}")
    return (A @ C) @ B.T


def prune(regions_x, regions_y, max_ratio):
    """Feasibility mask keeping pairs whose areas differ at most ``max_ratio``-fold.

    Near-isometries nearly preserve relative region area, so wildly
    different areas cannot correspond.  Raises AssignmentInfeasibleError
    when a source region is left without any candidate.
    """
    if not max_ratio >= 1:  # NaN is not
        raise ValueError("max_ratio must be at least 1")
    ax = np.asarray(regions_x.area_fractions, dtype=np.float64)
    ay = np.asarray(regions_y.area_fractions, dtype=np.float64)
    ratio = ax[:, None] / ay[None, :]
    mask = (ratio <= max_ratio) & (ratio >= 1.0 / max_ratio)
    starving = ~mask.any(axis=1)
    if starving.any():
        row = int(np.flatnonzero(starving)[0])
        raise AssignmentInfeasibleError(
            f"source region {row} (area fraction {ax[row]:.4f}) has no "
            f"feasible target under max_ratio={max_ratio}; relax max_ratio")
    return mask


def solve_assignment(profit, mask=None):
    """Profit-maximizing injective assignment of rows to columns.

    Ties between equally profitable assignments are settled by an
    infinitesimal preference for small column indices: the profit is
    perturbed by -eps * (i * r + j) with eps = 1e-12 * max |E|, which keeps
    the result deterministic without affecting strict optima.  Every
    complete assignment has the same sum of i * r, so the perturbation
    pins the chosen column set, not the order of the rows within it.
    Only pairs the mask allows are edges of the matching graph, so masked
    pairs are never chosen; a mask that admits no complete assignment
    raises AssignmentInfeasibleError.
    """
    E = np.asarray(profit, dtype=np.float64)
    if E.ndim != 2:
        raise ValueError("profit must be a 2-d array")
    q, r = E.shape
    if q > r:
        raise ValueError(f"need q <= r, got {q} rows and {r} columns; swap shapes")
    if not np.isfinite(E).all():
        raise ValueError("profit contains non-finite entries")
    if mask is None:
        mask = np.ones(E.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != E.shape:
        raise ValueError(f"mask shape {mask.shape} != profit shape {E.shape}")
    top = float(np.abs(E).max(initial=0.0))
    i_idx, j_idx = np.nonzero(mask)  # row-major: already in CSR order
    cost = -E[i_idx, j_idx] + (1e-12 * top) * (i_idx * r + j_idx)
    # every complete assignment has q edges, so one common shift keeps the
    # optimum, and weights >= 1 keep sparse storage from dropping a zero.
    # The weights are integers from 1 to 2**44 + 1.  On floats, a price
    # update in LAPJVsp's row reduction can round to a near-tie, and the
    # rows then outbid each other one ulp at a time without end (seen with
    # duplicate target columns and with rounded profits); on integers its
    # arithmetic is exact, so a tie stays a tie.
    cost -= cost.min(initial=0.0)
    unit = np.ldexp(1.0, np.frexp(cost.max(initial=0.0))[1] - 44)
    weights = np.rint(cost / unit) + 1.0
    indptr = np.zeros(q + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    graph = sparse.csr_matrix((weights, j_idx, indptr), shape=(q, r))
    try:
        rows, cols = csgraph.min_weight_full_bipartite_matching(graph)
    except ValueError as exc:  # scipy: "no full matching exists"
        raise AssignmentInfeasibleError(
            "feasibility mask admits no complete assignment; "
            "relax max_ratio") from exc
    assert np.array_equal(rows, np.arange(q))
    return Assignment(cols=cols, num_cols=r)
