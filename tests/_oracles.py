"""Slow, independent reference implementations used to check the fast code."""

from itertools import permutations

import numpy as np
from scipy import optimize
from scipy.sparse import csgraph


def grid_prox_scalar(value, weight, step, spacing=1e-4):
    """Grid-search argmin of 1/2 (u - value)^2 + step * weight * |u|."""
    span = abs(value) + step * weight + 1.0
    grid = np.arange(-span, span + spacing, spacing)
    obj = 0.5 * (grid - value) ** 2 + step * weight * np.abs(grid)
    return grid[np.argmin(obj)]


def grid_prox_row(row, step, spacing=1e-5):
    """Grid-search argmin of 1/2 ||u - row||^2 + step * ||u||_2.

    The minimizer is a nonnegative radial rescaling of ``row``, so a 1-d
    grid over the scale is exhaustive.
    """
    row = np.asarray(row, dtype=np.float64)
    norm = np.linalg.norm(row)
    if norm == 0.0:
        return np.zeros_like(row)
    t = np.arange(0.0, 1.0 + spacing, spacing)
    obj = 0.5 * (t - 1.0) ** 2 * norm ** 2 + step * t * norm
    return t[np.argmin(obj)] * row


def brute_force_assignment(profit, mask=None):
    """Exhaustive best column choice; returns (cols array, total profit).

    Infeasible under the mask returns (None, -inf).  Only usable for tiny
    problems: P(r, q) candidate injections.
    """
    profit = np.asarray(profit, dtype=np.float64)
    q, r = profit.shape
    work = profit.copy()
    if mask is not None:
        work[~np.asarray(mask, dtype=bool)] = -np.inf
    perms = np.array(list(permutations(range(r), q)), dtype=np.int64)
    values = work[np.arange(q), perms].sum(axis=1)
    best = int(np.argmax(values))
    if not np.isfinite(values[best]):
        return None, -np.inf
    return perms[best], float(values[best])


def lp_relaxation_solve(profit):
    """Linear-programming relaxation of the assignment step.

    Maximizes <E, Pi> subject to row sums equal one and column sums at
    most one over nonnegative Pi.  The constraint system is totally
    unimodular, so the simplex optimum lands on an integral vertex; this
    is the slow reference route for ``solve_assignment``.
    """
    E = np.asarray(profit, dtype=np.float64)
    if E.ndim != 2:
        raise ValueError("profit must be a 2-d array")
    q, r = E.shape
    if q > r:
        raise ValueError(f"need q <= r, got {q} rows and {r} columns")
    # column-major vectorization: constraint rows stay Kronecker products
    cost = -E.flatten(order="F")
    row_sums = np.kron(np.ones((1, r)), np.eye(q))
    col_sums = np.kron(np.eye(r), np.ones((1, q)))
    res = optimize.linprog(cost, A_ub=col_sums, b_ub=np.ones(r),
                           A_eq=row_sums, b_eq=np.ones(q),
                           bounds=(0.0, 1.0), method="highs")
    if not res.success:
        raise RuntimeError(f"LP relaxation failed: {res.message}")
    return res.x.reshape((q, r), order="F")


def lp_constraint_matrix(q):
    """Constraint matrix [[1^T kron I], [I kron 1^T]] of the square case.

    Acts on the column-major vectorization of Pi: the top block sums rows,
    the bottom block sums columns.  Every square submatrix has determinant
    in {-1, 0, 1}, which is what makes the relaxation integral.
    """
    if q < 1:
        raise ValueError("q must be positive")
    eye = np.eye(q, dtype=np.int64)
    ones = np.ones((1, q), dtype=np.int64)
    return np.vstack([np.kron(ones, eye), np.kron(eye, ones)])


def nearest_rows_scan(points, queries):
    """Linear-scan exact nearest rows with smallest-index tie break."""
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    out = np.empty(len(queries), dtype=np.int64)
    for i, x in enumerate(queries):
        d2 = np.sum((points - x) ** 2, axis=1)
        out[i] = int(np.argmin(d2))  # argmin takes the first minimum
    return out


def stable_components_levelwise(mesh, phi, params):
    """Stable superlevel components with the components rebuilt per level.

    Same contract as ``regions._stable_components``; may yield the same
    component more than once (once per stable window through it).
    """
    lo, hi = float(phi.min()), float(phi.max())
    if hi - lo <= 1e-12 * max(abs(hi), abs(lo), 1.0):
        return  # constant function has no level-set structure
    thresholds = np.linspace(hi, lo, params.levels)
    areas = mesh.vertex_areas
    adjacency = mesh.adjacency

    # per level: full-length component labels (-1 outside the superlevel set)
    labels_per_level = []
    # chain identity is the component's peak vertex: superlevel components
    # only grow as the threshold drops, and when two merge the joint peak
    # is the higher one, so each local maximum traces one component chain
    chain_area = {}  # peak vertex -> {level: area}
    chain_label = {}  # peak vertex -> {level: component label}
    for level, t in enumerate(thresholds):
        active = phi >= t
        idx = np.flatnonzero(active)
        sub = adjacency[idx][:, idx]
        _, sub_labels = csgraph.connected_components(sub, directed=False)
        full = np.full(len(phi), -1, dtype=np.int64)
        full[idx] = sub_labels
        labels_per_level.append(full)

        comp_area = np.bincount(sub_labels, weights=areas[idx])
        # peak per component = active vertex with the largest phi
        order = np.argsort(-phi[idx], kind="stable")
        _, first = np.unique(sub_labels[order], return_index=True)
        peaks = idx[order[first]]
        for label, peak in enumerate(peaks):
            chain_area.setdefault(peak, {})[level] = comp_area[label]
            chain_label.setdefault(peak, {})[level] = label

    w = params.stability_window
    for peak in sorted(chain_area):
        level_map = chain_area[peak]
        levels_present = sorted(level_map)
        for run in _consecutive_runs(levels_present):
            for s in range(len(run) - w + 1):
                window = run[s:s + w]
                vals = [level_map[l] for l in window]
                mid = window[w // 2]
                if (max(vals) - min(vals)) < params.stability_tol * level_map[mid]:
                    members = labels_per_level[mid] == chain_label[peak][mid]
                    yield level_map[mid], members


def greedy_dedup_pairwise(members, overlap):
    """Greedy Jaccard dedup comparing one pair of regions at a time.

    Same contract as ``regions._greedy_dedup``.
    """
    kept = []
    for i, row in enumerate(members):
        dup = False
        for j in kept:
            other = members[j]
            inter = np.count_nonzero(row & other)
            if inter == 0:
                continue
            union = np.count_nonzero(row | other)
            if inter / union > overlap:
                dup = True
                break
        if not dup:
            kept.append(i)
    return kept


def _consecutive_runs(sorted_ints):
    run = []
    for x in sorted_ints:
        if run and x != run[-1] + 1:
            yield run
            run = []
        run.append(x)
    if run:
        yield run


def correspondence_error_dense(point_map, truth, mesh_y, diameter=None):
    """Geodesic error from one full Dijkstra row per distinct true image.

    Same contract as ``evaluate.correspondence_error``; holds a dense
    (distinct images x m) distance matrix.
    """
    from shapecorr.mesh import geodesic_distance_matrix, shape_diameter

    predicted = np.asarray(point_map.indices if hasattr(point_map, "indices")
                           else point_map, dtype=np.int64)
    expected = np.asarray(truth.indices if hasattr(truth, "indices")
                          else truth, dtype=np.int64)
    if diameter is None:
        diameter = shape_diameter(mesh_y)
    sources, inverse = np.unique(expected, return_inverse=True)
    distances = geodesic_distance_matrix(mesh_y, sources)
    return distances[inverse, predicted] / diameter
