"""Point-to-point refinement of a coefficient-space transport.

A plausible transport C makes every target eigenbasis row, pushed through
C, coincide with the source row of its corresponding vertex.  Alternating
exact nearest-row assignment with an orthonormal re-fit of C (a Procrustes
solve) is ICP in the low-frequency coefficient space; it converges because
each half-step cannot increase the sum of squared row distances.  As in
ZoomOut, the n x n map is fitted on a fixed stride sample of at most
``_FIT_ROWS`` target rows, each matched against every source row; only
the final point map queries every source vertex.

The nearest row is the index the linear scan picks: the first minimum of
the float64 squared distances.  A float32 BLAS screen with a proven error
margin finds it for almost every query, and the scan's own expression
decides the rest over the few rows inside the margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import _INDEX_END, _index_vector, _Lines, _positive_int, _spread_sample

__all__ = [
    "PointMap",
    "RefineResult",
    "nearest_rows",
    "orthogonal_procrustes",
    "refine_icp",
    "point_map_from_functional",
    "save_point_map",
    "load_point_map",
]


@dataclass(frozen=True)
class PointMap:
    """Dense vertex correspondence: entry i is the target vertex of source i."""

    indices: np.ndarray

    def __post_init__(self):
        indices = _index_vector(self.indices, None, "point map")
        object.__setattr__(self, "indices", indices)
        indices.setflags(write=False)

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class RefineResult:
    functional_map: np.ndarray
    point_map: PointMap
    iterations: int
    converged: bool
    objective_trace: np.ndarray


def nearest_rows(points, queries):
    """Index of the exact Euclidean nearest row of ``points`` per query row.

    Returns the index the linear scan picks: the first minimum over the
    rows of ``np.sum((points - q) ** 2, axis=1)`` in float64, so exact ties
    resolve to the smallest row index.  A float32 BLAS screen settles
    almost every query with a proven error margin; the few it cannot
    separate are re-decided by that float64 expression over the rows
    inside the margin.
    """
    P = np.ascontiguousarray(points, dtype=np.float64)
    Q = np.ascontiguousarray(queries, dtype=np.float64)
    if P.ndim != 2 or Q.ndim != 2 or P.shape[1] != Q.shape[1]:
        raise ValueError(f"incompatible shapes: points {P.shape}, queries {Q.shape}")
    if len(P) == 0:
        raise ValueError("points must be nonempty")
    if not (np.isfinite(P).all() and np.isfinite(Q).all()):
        raise ValueError("points and queries must be finite")
    best = np.empty(len(Q), dtype=np.int64)
    if len(Q) == 0:
        return best
    m, n = P.shape
    centre = P.mean(axis=0)
    centred_p, centred_q = P - centre, Q - centre
    # a power of two is exact and brings every entry into (-1, 1), so no
    # float32 square overflows
    extent = max(np.abs(centred_p).max(), np.abs(centred_q).max())
    scale = 2.0 ** -int(np.frexp(extent)[1])
    centred_p *= scale
    centred_q *= scale
    # columns [p, |p|^2 / 2] and rows [q, -1]: one matmul scores every
    # pair as q.p - |p|^2 / 2, which is largest for the nearest row
    p32 = np.empty((n + 1, m), dtype=np.float32)
    p32[:n] = centred_p.T
    half = 0.5 * np.square(p32[:n], dtype=np.float64).sum(axis=0)
    p32[n] = half
    q32 = np.empty((len(Q), n + 1), dtype=np.float32)
    q32[:, :n] = centred_q
    q32[:, n] = -1.0
    q_norm = np.sqrt(np.square(q32[:, :n], dtype=np.float64).sum(axis=1))
    p_max, h_max = np.sqrt(2.0 * half.max()), half.max()
    # Why the margin holds.  With u = 2**-24, each entry is stored as
    # x(1 + d), |d| <= u + 2**-52 (float64 centring, float32 cast), and
    # a score is one float32 dot product of n + 1 terms.  Against the
    # exact score of the exact rows, (|q|^2 - |p - q|^2) / 2, its error
    # is at most, to first order, with h = |p|^2 / 2:
    #   dot product, any summation order   (n + 1) u (|q||p| + h)
    #   float32 rounding of h              u h
    #   rounding of the stored q and p     2 u (|q||p| + h)
    # so e = (n + 4) u (|q| p_max + h_max) bounds it.  A row can tie or
    # beat the screen's best only within 2e of it; the float32 threshold
    # best - margin rounds by u (|q| p_max + h_max) more, and one more
    # such term covers every second-order remainder: 2 (n + 5) u.  The
    # scan's own float64 distances d err by at most (n + 2) 2**-53 d with
    # d <= (|q| + p_max)^2, which the second term covers, and 2**-100
    # covers float32 underflow of entries near zero.  So a row outside
    # the margin is never a minimum of the scan, and the scan's first
    # minimum is the screen's best when no other row lies inside it.
    margin = (2 * (n + 5) * 2.0 ** -24 * (q_norm * p_max + h_max)
              + (n + 3) * 2.0 ** -53 * (q_norm + p_max) ** 2
              + 2.0 ** -100).astype(np.float32)

    block = min(len(Q), max(1, _BLOCK_BYTES // (4 * m)))
    scores = np.empty((block, m), dtype=np.float32)
    inside = np.empty((block, m), dtype=bool)
    for start in range(0, len(Q), block):
        stop = min(start + block, len(Q))
        s, near = scores[:stop - start], inside[:stop - start]
        np.matmul(q32[start:stop], p32, out=s)
        top = s.argmax(axis=1)
        local = np.arange(stop - start)
        np.greater_equal(s, (s[local, top] - margin[start:stop])[:, None], out=near)
        near[local, top] = False
        best[start:stop] = top
        for i in np.flatnonzero(near.any(axis=1)):
            near[i, top[i]] = True
            rivals = np.flatnonzero(near[i])
            d2 = np.sum((P[rivals] - Q[start + i]) ** 2, axis=1)
            best[start + i] = rivals[np.argmin(d2)]
    return best


# float32 scores per block of query rows
_BLOCK_BYTES = 1 << 21


def orthogonal_procrustes(targets, sources):
    """Orthonormal C minimizing ||X - Y C^T||_F for row-paired X, Y.

    C = U V^T from the SVD of the cross-covariance X^T Y; reflections are
    allowed (C^T C = I, determinant unconstrained).
    """
    X = np.asarray(targets, dtype=np.float64)
    Y = np.asarray(sources, dtype=np.float64)
    if X.shape != Y.shape or X.ndim != 2:
        raise ValueError(f"row-paired matrices required, got {X.shape} and {Y.shape}")
    u, _, vt = np.linalg.svd(X.T @ Y)
    return u @ vt


def point_map_from_functional(basis_x, basis_y, functional_map):
    """Total source-to-target map: nearest transported row per source row."""
    functional_map = np.asarray(functional_map, dtype=np.float64)
    if not np.isfinite(functional_map).all():
        raise ValueError("functional map must be finite")
    transported = basis_y.functions @ functional_map.T
    return PointMap(indices=nearest_rows(transported, basis_x.functions))


# refine_icp fits C on at most this many stride-sampled target rows.  On
# the six good pipeline-5k twins (2-vCPU host, one BLAS thread) mean
# error read 0.028-0.037 with every row and 0.027-0.035 with 500, and ICP
# took 0.66-0.83 s against 0.13-0.19 s; 1,000 rows took 0.20-0.28 s for
# no better error, and sampling the source rows too raised two twins'
# errors to 0.045.
_FIT_ROWS = 500


def refine_icp(basis_x, basis_y, initial_map, max_iters=30):
    """Iterative closest point in coefficient space.

    Alternates (a) matching each transported target row of a fixed stride
    sample of at most ``_FIT_ROWS`` (500) rows to its nearest row among
    all source rows and (b) re-fitting an orthonormal transport to the
    matched rows, until the matching repeats or ``max_iters`` is hit.
    ``objective_trace`` sums the squared row gaps over the sampled rows.
    The returned point map is total on the source shape: each source row
    queries all the transported target rows in reverse.
    """
    if basis_x.size != basis_y.size:
        raise ValueError(
            f"basis sizes differ: {basis_x.size} vs {basis_y.size}")
    C = np.asarray(initial_map, dtype=np.float64)
    n = basis_x.size
    if C.shape != (n, n):
        raise ValueError(f"initial map must be ({n}, {n}), got {C.shape}")
    if not np.isfinite(C).all():
        raise ValueError("initial map must be finite")
    _positive_int(max_iters, "max_iters")
    phi = basis_x.functions
    psi = basis_y.functions[_spread_sample(basis_y.num_vertices, _FIT_ROWS)]
    trace = []
    previous = None
    converged = False
    for iterations in range(1, max_iters + 1):
        transported = psi @ C.T
        matched = nearest_rows(phi, transported)  # sampled target row -> source row
        gap = phi[matched] - transported
        trace.append(float(np.sum(gap * gap)))
        if previous is not None and np.array_equal(matched, previous):
            iterations -= 1  # no refit happened for this matching
            converged = True
            break
        C = orthogonal_procrustes(phi[matched], psi)
        previous = matched
    point_map = point_map_from_functional(basis_x, basis_y, C)
    return RefineResult(functional_map=C, point_map=point_map,
                        iterations=iterations, converged=converged,
                        objective_trace=np.array(trace))


def save_point_map(point_map, path):
    """One target vertex index per line, line i for source vertex i."""
    Path(path).write_text("\n".join(map(str, point_map.indices.tolist())) + "\n")


def load_point_map(path, num_targets=None, num_sources=None):
    """Read a point map written by :func:`save_point_map`.

    One vertex index per line; ``#`` starts a comment, and blank lines
    are skipped.  A line that is not one integer raises an error naming
    it.  When ``num_targets`` is given, indices are validated against it;
    when ``num_sources`` is given, so is the number of entries.
    """
    end = _INDEX_END if num_targets is None else num_targets
    indices = []
    for lineno, line in _Lines(Path(path).read_text(), cut="#").lines:
        try:
            index = int(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected a vertex index") from None
        if index < 0:
            raise ValueError(f"{path}:{lineno}: vertex index must be nonnegative, "
                             f"got {index}")
        if index >= end:
            raise ValueError(f"{path}:{lineno}: vertex index {index} out of range "
                             f"[0, {end})")
        indices.append(index)
    if not indices:
        raise ValueError(f"{path}: empty point map")
    return PointMap(_index_vector(indices, num_targets, f"{path}: point map", num_sources))
