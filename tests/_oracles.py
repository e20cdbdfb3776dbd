"""Slow, independent reference implementations used to check the fast code."""

import math
from itertools import permutations

import numpy as np
from scipy import optimize
from scipy.sparse import csgraph

from shapecorr.mesh import MeshParseError
from shapecorr.pursuit import prox_l21_rows, prox_weighted_l1
from shapecorr.regions import RegionSet


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


def hungarian_assignment(profit, mask=None):
    """Columns of the dense Hungarian route (``linear_sum_assignment``).

    The route ``solve_assignment`` took before the sparse matching: the
    same -eps * (i * r + j) tie perturbation, masked pairs at infinite
    cost.  Returns None when the mask admits no complete assignment.
    """
    E = np.asarray(profit, dtype=np.float64)
    q, r = E.shape
    i_idx, j_idx = np.indices((q, r))
    cost = -E + (1e-12 * float(np.abs(E).max(initial=0.0))) * (i_idx * r + j_idx)
    if mask is not None:
        cost = np.where(np.asarray(mask, dtype=bool), cost, np.inf)
    try:
        rows, cols = optimize.linear_sum_assignment(cost)
    except ValueError:  # scipy: "cost matrix is infeasible"
        return None
    assert np.array_equal(rows, np.arange(q))
    return cols


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


def optimality_residual(dictionary, target, functional_map, outliers,
                        weights, lam, mu):
    """Largest entry of the minimum-norm subgradient at (C, O).

    Zero exactly at a minimizer.  For C the per-entry bound is
    |grad| - lam * w off the support and |grad + lam * w * sign(C)| on it;
    for O each row contributes the norm of its smallest subgradient.
    """
    A = np.asarray(dictionary, dtype=np.float64)
    Bp = np.asarray(target, dtype=np.float64)
    C = np.asarray(functional_map, dtype=np.float64)
    O = np.asarray(outliers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    residual = A @ C + O - Bp
    grad_C = A.T @ residual
    on = C != 0
    slack_C = np.where(on,
                       np.abs(grad_C + lam * weights * np.sign(C)),
                       np.maximum(np.abs(grad_C) - lam * weights, 0.0))
    row_norms = np.linalg.norm(O, axis=1)
    grad_norms = np.linalg.norm(residual, axis=1)
    slack_O = np.empty(len(O))
    zero = row_norms == 0
    slack_O[zero] = np.maximum(grad_norms[zero] - mu, 0.0)
    alive = ~zero
    if alive.any():
        direction = O[alive] / row_norms[alive, None]
        slack_O[alive] = np.linalg.norm(residual[alive] + mu * direction, axis=1)
    return float(max(slack_C.max(initial=0.0), slack_O.max(initial=0.0)))


def objective(dictionary, target, functional_map, outliers, weights, lam, mu):
    """Joint robust sparse-coding objective at (C, O).

    1/2 ||Bp - A C - O||_F^2 + lam ||W o C||_1 + mu ||O||_{2,1}; the solver
    computes only its reduced (Huber) form, which equals this at the
    closed-form O.
    """
    residual = target - dictionary @ functional_map - outliers
    return (0.5 * float(np.sum(residual * residual))
            + lam * float(np.sum(weights * np.abs(functional_map)))
            + mu * float(np.sum(np.linalg.norm(outliers, axis=1))))


def solve_joint_pursuit(dictionary, target, weights, lam, mu, tol=1e-8,
                        max_iter=2000):
    """Forward-backward iteration on the pair (C, O) jointly; returns (C, O).

    The route ``solve_robust_sparse_coding`` took before O was eliminated:
    FISTA from C = 0, O = Bp with one step 1 / (sigma_max(A)^2 + 1), the top
    eigenvalue of the joint Hessian [[A^T A, A^T], [A, I]], and the two
    proximal maps applied to the halves of the step.  O's own curvature is
    1, so it crawls when sigma_max(A)^2 is large.
    """
    A = np.asarray(dictionary, dtype=np.float64)
    Bp = np.asarray(target, dtype=np.float64)
    n = A.shape[1]
    alpha = float(np.linalg.norm(A, 2)) ** 2 + 1.0
    C, O = np.zeros((n, n)), Bp.copy()
    extr_C, extr_O = C, O
    momentum = 1.0
    previous = objective(A, Bp, C, O, weights, lam, mu)
    for _ in range(max_iter):
        residual = A @ extr_C + extr_O - Bp
        new_C = prox_weighted_l1(extr_C - (A.T @ residual) / alpha,
                                 weights, lam / alpha)
        new_O = prox_l21_rows(extr_O - residual / alpha, mu / alpha)
        momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / momentum_next
        extr_C = new_C + beta * (new_C - C)
        extr_O = new_O + beta * (new_O - O)
        momentum = momentum_next
        C, O = new_C, new_O
        value = objective(A, Bp, C, O, weights, lam, mu)
        if abs(previous - value) <= tol * max(abs(previous), 1e-300):
            break
        previous = value
    return C, O


def nearest_rows_scan(points, queries):
    """Linear-scan exact nearest rows with smallest-index tie break."""
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    out = np.empty(len(queries), dtype=np.int64)
    for i, x in enumerate(queries):
        d2 = np.sum((points - x) ** 2, axis=1)
        out[i] = int(np.argmin(d2))  # argmin takes the first minimum
    return out


def refine_icp_all_rows(basis_x, basis_y, initial_map, max_iters=30):
    """ICP that fits the map on every target row, not a sample of them.

    Same contract as ``refine.refine_icp``; each iteration queries all
    m_y transported target rows, an O(m^2) search.
    """
    from shapecorr.refine import (RefineResult, nearest_rows,
                                  orthogonal_procrustes,
                                  point_map_from_functional)

    C = np.asarray(initial_map, dtype=np.float64)
    phi = basis_x.functions
    psi = basis_y.functions
    trace = []
    previous = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        transported = psi @ C.T
        matched = nearest_rows(phi, transported)
        gap = phi[matched] - transported
        trace.append(float(np.sum(gap * gap)))
        if previous is not None and np.array_equal(matched, previous):
            iterations -= 1
            converged = True
            break
        C = orthogonal_procrustes(phi[matched], psi)
        previous = matched
    point_map = point_map_from_functional(basis_x, basis_y, C)
    return RefineResult(functional_map=C, point_map=point_map,
                        iterations=iterations, converged=converged,
                        objective_trace=np.array(trace))


def stable_components_levelwise(mesh, phi, params):
    """Stable superlevel components with the components rebuilt per level.

    Yields (area, members) with ``members`` a bool row, in the order of
    the chains ``regions._stable_components`` yields (peak order) and of
    the components within each chain (level order); areas are
    ``math.fsum`` of the members' vertex areas.  May yield the same
    component more than once (once per stable window through it).
    """
    lo, hi = float(phi.min()), float(phi.max())
    if hi - lo <= 1e-12 * max(abs(hi), abs(lo), 1.0):
        return  # constant function has no level-set structure
    thresholds = np.linspace(hi, lo, params.levels)
    areas = mesh.vertex_areas
    adjacency = mesh.edge_graph

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

        # exact sum of each component's vertex areas, rounded once
        by_label = np.argsort(sub_labels, kind="stable")
        comp_area = [math.fsum(part) for part in np.split(
            areas[idx][by_label], np.cumsum(np.bincount(sub_labels))[:-1])]
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

    Indices of the rows kept, in order: a row is dropped when its Jaccard
    overlap with an earlier kept row exceeds ``overlap``.
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


def exact_dedup(members):
    """Indices of the rows that repeat no earlier row, in order."""
    seen, first = set(), []
    for i, row in enumerate(members):
        key = np.packbits(row).tobytes()
        if key not in seen:
            seen.add(key)
            first.append(i)
    return first


def detect_stable_regions_levelwise(mesh, basis, params):
    """``regions.detect_stable_regions`` from the level-wise components.

    The candidates of every function in detection order, exact repeats
    dropped, ranked by descending area with ties in detection order, then
    the pairwise Jaccard dedup and the area floor.
    """
    found = [candidate for fn in range(1, params.num_functions + 1)
             for candidate in stable_components_levelwise(
                 mesh, basis.functions[:, fn], params)]
    found = [found[i] for i in exact_dedup([members for _, members in found])]
    ranked = sorted(range(len(found)), key=lambda i: -found[i][0])
    kept = [ranked[i] for i in greedy_dedup_pairwise(
        [found[i][1] for i in ranked], params.dedup_overlap)]
    large = [i for i in kept if found[i][0] / mesh.total_area >= params.min_area_frac]
    if not large:
        raise ValueError("no regions detected; relax the area or stability limits")
    return RegionSet(members=np.array([found[i][1] for i in large]),
                     area_fractions=np.array([found[i][0] / mesh.total_area for i in large]))


def _consecutive_runs(sorted_ints):
    run = []
    for x in sorted_ints:
        if run and x != run[-1] + 1:
            yield run
            run = []
        run.append(x)
    if run:
        yield run


def geodesic_rows_undirected(mesh, sources, limit=np.inf):
    """Edge-graph distance rows from scipy's undirected Dijkstra.

    Same contract as ``mesh.geodesic_distance_matrix``; the undirected
    route transposes the graph on every call and scans each edge from both
    of its ends.
    """
    return csgraph.dijkstra(mesh.edge_graph, directed=False,
                            indices=np.asarray(sources, dtype=np.int64),
                            limit=limit)


def correspondence_error_dense(point_map, truth, mesh_y, diameter=None):
    """Geodesic error from one full Dijkstra row per distinct searched end.

    Same contract as ``evaluate.correspondence_error``, side rule
    included: each pair (t, p) reads the row of whichever end more wrong
    pairs share, of t on a tie.  Holds a dense (distinct ends x m)
    distance matrix.
    """
    from shapecorr.mesh import geodesic_distance_matrix, shape_diameter

    predicted = np.asarray(point_map.indices if hasattr(point_map, "indices")
                           else point_map, dtype=np.int64)
    expected = np.asarray(truth.indices if hasattr(truth, "indices")
                          else truth, dtype=np.int64)
    if diameter is None:
        diameter = shape_diameter(mesh_y)
    wrong = predicted != expected
    shared = np.bincount(np.concatenate([expected[wrong], predicted[wrong]]),
                         minlength=mesh_y.num_vertices)
    true_side = shared[expected] >= shared[predicted]
    near = np.where(true_side, expected, predicted)
    far = np.where(true_side, predicted, expected)
    sources, inverse = np.unique(near, return_inverse=True)
    distances = geodesic_distance_matrix(mesh_y, sources)
    return distances[inverse, far] / diameter


def connected_flags_per_region(regions, mesh):
    """``RegionSet.connected_flags`` from one induced subgraph per region."""
    flags = np.empty(len(regions), dtype=bool)
    for i, row in enumerate(regions.members):
        sub = mesh.edge_graph[row][:, row]
        n_comp, _ = csgraph.connected_components(sub, directed=False)
        flags[i] = n_comp == 1
    return flags


def filter_by_area(regions, min_area_frac=0.05):
    """Drop regions below the given fraction of total surface area."""
    keep = np.flatnonzero(regions.area_fractions >= min_area_frac)
    if len(keep) == 0:
        raise ValueError(
            f"no region has area fraction >= {min_area_frac}; largest is "
            f"{regions.area_fractions.max():.4f}")
    return RegionSet(regions.members[keep], regions.area_fractions[keep])


# -- line-wise mesh readers and writers ------------------------------------
# ``parse_off``, ``parse_obj`` and ``parse_ply`` have the contract of the
# package's ``mesh._parse_off``, ``_parse_obj`` and ``_parse_ply``: same
# arrays, same errors.
# The writers have that of ``mesh._emit_off``/``_emit_obj``/``_emit_ply``.

# full round-trip precision for float64 text output
FLOAT_FMT = "%.17g"


def _content_lines(text):
    """Strip comments and blanks; yield (lineno, tokens)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _take(lines, what):
    try:
        return next(lines)
    except StopIteration:
        raise MeshParseError(f"unexpected end of file while reading {what}") from None


def _floats(tokens, count, lineno, what):
    if len(tokens) != count:
        raise MeshParseError(
            f"line {lineno}: expected {count} numbers for {what}, got {len(tokens)}")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise MeshParseError(f"line {lineno}: bad number in {what}: {exc}") from None


def parse_off(text):
    lines = _content_lines(text)
    lineno, tokens = _take(lines, "OFF header")
    if tokens[0].upper() != "OFF":
        raise MeshParseError(f"line {lineno}: missing OFF header")
    if len(tokens) > 1:
        counts = tokens[1:]
    else:
        lineno, counts = _take(lines, "OFF element counts")
    if len(counts) not in (2, 3):
        raise MeshParseError(f"line {lineno}: expected 'nv nf [ne]' counts")
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except ValueError:
        raise MeshParseError(f"line {lineno}: non-integer element count") from None
    verts = np.empty((nv, 3))
    for i in range(nv):
        lineno, tokens = _take(lines, f"vertex {i}")
        verts[i] = _floats(tokens, 3, lineno, f"vertex {i}")
    tris = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        lineno, tokens = _take(lines, f"face {i}")
        if len(tokens) != 4 or tokens[0] != "3":
            raise MeshParseError(
                f"line {lineno}: face {i} must be '3 i j k' (triangles only)")
        try:
            tris[i] = [int(t) for t in tokens[1:]]
        except ValueError:
            raise MeshParseError(f"line {lineno}: non-integer index in face {i}") from None
        except OverflowError:
            raise MeshParseError(f"line {lineno}: index out of range in face {i}") from None
    return verts, tris


def parse_obj(text):
    verts = []
    tris = []
    for lineno, tokens in _content_lines(text):
        key = tokens[0]
        if key == "v":
            verts.append(_floats(tokens[1:], 3, lineno, f"vertex {len(verts)}"))
        elif key == "f":
            if len(tokens) != 4:
                raise MeshParseError(
                    f"line {lineno}: face {len(tris)} has {len(tokens) - 1} "
                    "vertices (triangles only)")
            face = []
            for tok in tokens[1:]:
                try:
                    idx = int(tok.split("/", 1)[0])
                except ValueError:
                    raise MeshParseError(
                        f"line {lineno}: bad index {tok!r} in face {len(tris)}") from None
                if idx < 1:
                    raise MeshParseError(
                        f"line {lineno}: face {len(tris)} uses non-positive "
                        f"index {idx}; only 1-based absolute indices are supported")
                if idx > 2**63:  # idx - 1 is stored as int64
                    raise MeshParseError(
                        f"line {lineno}: index out of range in face {len(tris)}")
                face.append(idx - 1)
            tris.append(face)
    return (np.asarray(verts, dtype=np.float64).reshape(-1, 3),
            np.asarray(tris, dtype=np.int64).reshape(-1, 3))


def parse_ply(text):
    lines = iter(enumerate(text.splitlines(), start=1))

    def next_line(what):
        for lineno, raw in lines:
            stripped = raw.strip()
            if stripped and not stripped.startswith("comment"):
                return lineno, stripped
        raise MeshParseError(f"unexpected end of file while reading {what}")

    lineno, magic = next_line("PLY magic")
    if magic != "ply":
        raise MeshParseError(f"line {lineno}: not a PLY file (missing 'ply' magic)")
    elements = []  # (name, count, [property names])
    while True:
        lineno, line = next_line("PLY header")
        tokens = line.split()
        if tokens[0] == "format":
            if tokens[1] != "ascii":
                raise MeshParseError(
                    f"line {lineno}: only ASCII PLY is supported, got {tokens[1]!r}")
        elif tokens[0] == "element":
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise MeshParseError(f"line {lineno}: property before any element")
            elements[-1][2].append(tokens[-1])
        elif tokens[0] == "end_header":
            break
        else:
            raise MeshParseError(f"line {lineno}: unrecognized header line {line!r}")
    names = [e[0] for e in elements]
    if "vertex" not in names or "face" not in names:
        raise MeshParseError("PLY header must declare vertex and face elements")

    verts = tris = None
    for name, count, props in elements:
        if name == "vertex":
            for axis in ("x", "y", "z"):
                if axis not in props:
                    raise MeshParseError(f"PLY vertex element lacks property {axis!r}")
            cols = [props.index(a) for a in ("x", "y", "z")]
            verts = np.empty((count, 3))
            for i in range(count):
                lineno, line = next_line(f"vertex {i}")
                values = _floats(line.split(), len(props), lineno, f"vertex {i}")
                verts[i] = [values[c] for c in cols]
        elif name == "face":
            tris = np.empty((count, 3), dtype=np.int64)
            for i in range(count):
                lineno, line = next_line(f"face {i}")
                tokens = line.split()
                if len(tokens) != 4 or tokens[0] != "3":
                    raise MeshParseError(
                        f"line {lineno}: face {i} must be '3 i j k' (triangles only)")
                try:
                    tris[i] = [int(t) for t in tokens[1:]]
                except ValueError:
                    raise MeshParseError(
                        f"line {lineno}: non-integer index in face {i}") from None
                except OverflowError:
                    raise MeshParseError(
                        f"line {lineno}: index out of range in face {i}") from None
        else:
            for i in range(count):  # skip unknown elements
                next_line(f"{name} {i}")
    return verts, tris


def ply_colors(text):
    """The red, green and blue columns of an ASCII PLY that ``emit_ply``
    wrote with colors: x y z red green blue on each vertex line."""
    lines = text.splitlines()
    count = int(lines[2].split()[2])  # "element vertex m"
    start = lines.index("end_header") + 1
    return np.array([line.split()[3:6] for line in lines[start:start + count]],
                    dtype=np.int64)


def emit_off(mesh):
    out = ["OFF", f"{mesh.num_vertices} {mesh.num_triangles} {len(mesh.edges)}"]
    out.extend(" ".join(FLOAT_FMT % c for c in v) for v in mesh.vertices)
    out.extend(f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles)
    return "\n".join(out) + "\n"


def emit_obj(mesh):
    out = [f"v {FLOAT_FMT % v[0]} {FLOAT_FMT % v[1]} {FLOAT_FMT % v[2]}"
           for v in mesh.vertices]
    out.extend(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in mesh.triangles)
    return "\n".join(out) + "\n"


def emit_ply(mesh, colors=None):
    if colors is not None:
        colors = np.asarray(colors)
        if colors.shape != (mesh.num_vertices, 3):
            raise ValueError(
                f"colors must have shape ({mesh.num_vertices}, 3), got {colors.shape}")
        if colors.dtype != np.uint8:
            if colors.min() < 0 or colors.max() > 255:
                raise ValueError("colors must be 8-bit values in [0, 255]")
            colors = colors.astype(np.uint8)
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.num_vertices}",
        "property float64 x",
        "property float64 y",
        "property float64 z",
    ]
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [
        f"element face {mesh.num_triangles}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    out = header
    for i, v in enumerate(mesh.vertices):
        line = " ".join(FLOAT_FMT % c for c in v)
        if colors is not None:
            line += f" {colors[i, 0]} {colors[i, 1]} {colors[i, 2]}"
        out.append(line)
    out.extend(f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles)
    return "\n".join(out) + "\n"


def vertex_areas_add_at(mesh):
    """Lumped vertex areas accumulated with ``np.add.at``, corner by corner."""
    va = np.zeros(mesh.num_vertices)
    third = mesh.triangle_areas / 3.0
    for c in range(3):
        np.add.at(va, mesh.triangles[:, c], third)
    return va


def cotangent_diagonal_add_at(mesh):
    """Diagonal of the cotangent stiffness accumulated with ``np.add.at``.

    Per corner k of every face, the weight cot(k)/2 goes to the two other
    vertices i then j, corner 0 first.
    """
    v, tris = mesh.vertices, mesh.triangles
    diag = np.zeros(mesh.num_vertices)
    for corner in range(3):
        k = tris[:, corner]
        i = tris[:, (corner + 1) % 3]
        j = tris[:, (corner + 2) % 3]
        e1 = v[i] - v[k]
        e2 = v[j] - v[k]
        cot = np.einsum("ij,ij->i", e1, e2) / np.linalg.norm(np.cross(e1, e2), axis=1)
        w = 0.5 * cot
        np.add.at(diag, i, w)
        np.add.at(diag, j, w)
    return diag
