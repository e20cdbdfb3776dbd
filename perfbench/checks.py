"""Output checks that share no code with the package under test.

Geodesics come from a plain heap Dijkstra over adjacency lists built from
the raw vertex and triangle arrays, region areas from triangle areas, and
the error curve from a direct count.  Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

# criterion 7 of the acceptance gate
MAX_MEAN_ERROR = 0.06
MIN_SHARE_WITHIN = 0.80
# agreement between the package's geodesic errors and the reference ones
GEODESIC_RTOL = 1e-9


def edge_lists(vertices, triangles):
    """Neighbour lists ``[(j, length), ...]`` of every vertex's edges."""
    coords = [tuple(v) for v in np.asarray(vertices, dtype=np.float64).tolist()]
    nbrs = [dict() for _ in coords]
    for a, b, c in np.asarray(triangles, dtype=np.int64).tolist():
        for i, j in ((a, b), (b, c), (c, a)):
            if j not in nbrs[i]:
                length = math.dist(coords[i], coords[j])
                nbrs[i][j] = length
                nbrs[j][i] = length
    return [list(d.items()) for d in nbrs]


def dijkstra(adj, source, target=None):
    """Shortest edge-path lengths from ``source``.

    Returns the full distance list, or only the distance to ``target``
    when one is given; the search then stops as soon as it is settled.
    """
    dist = [math.inf] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == target:
            return d
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist if target is None else math.inf


def diameter(adj, sample_count=32):
    """Largest distance seen from evenly spaced sources (the package's protocol)."""
    m = len(adj)
    sources = np.unique(np.linspace(0, m - 1, min(sample_count, m)).round())
    return max(max(dijkstra(adj, int(s))) for s in sources)


def geodesic_errors(adj, diam, predicted, truth, rows):
    """Reference normalised errors of the given source ``rows``."""
    return np.array([0.0 if predicted[i] == truth[i]
                     else dijkstra(adj, int(truth[i]), int(predicted[i])) / diam
                     for i in rows])


def check_point_map(indices, num_source, num_target):
    indices = np.asarray(indices)
    if indices.shape != (num_source,):
        return [f"point map has shape {indices.shape}, expected ({num_source},)"]
    if indices.min() < 0 or indices.max() >= num_target:
        return [f"point map index outside [0, {num_target})"]
    return []


def check_errors_against_reference(errors, adj, diam, predicted, truth, rows):
    """The package's per-vertex errors agree with the reference on ``rows``."""
    ref = geodesic_errors(adj, diam, predicted, truth, rows)
    got = np.asarray(errors)[rows]
    bad = np.flatnonzero(np.abs(got - ref) > GEODESIC_RTOL * np.maximum(ref, 1e-12))
    if len(bad):
        k = bad[0]
        return [f"error of vertex {rows[k]} is {got[k]!r}, reference gives {ref[k]!r}"]
    return []


def check_curve(thresholds, fractions, errors):
    """Each curve point is the share of errors at or below its threshold."""
    want = np.array([np.count_nonzero(errors <= t) / len(errors)
                     for t in thresholds])
    problems = []
    if (np.diff(fractions) < 0).any():
        problems.append("error curve decreases")
    if fractions[0] != np.count_nonzero(errors == 0.0) / len(errors):
        problems.append("first curve point is not the exact-hit share")
    if not np.array_equal(fractions, want):
        problems.append("error curve disagrees with a direct count")
    return problems


def check_accuracy(errors):
    """Criterion 7: mean error and the share of vertices within the limit."""
    mean = float(np.mean(errors))
    within = float(np.mean(np.asarray(errors) <= MAX_MEAN_ERROR))
    problems = []
    if mean > MAX_MEAN_ERROR:
        problems.append(f"mean geodesic error {mean:.4f} > {MAX_MEAN_ERROR}")
    if within < MIN_SHARE_WITHIN:
        problems.append(f"{within:.3f} of vertices within {MAX_MEAN_ERROR}, "
                        f"need {MIN_SHARE_WITHIN}")
    return problems


def read_ply_colors(path):
    """Vertex colours of an ASCII PLY written with x y z red green blue."""
    with open(path) as fh:
        count = None
        for line in fh:
            if line.startswith("element vertex"):
                count = int(line.split()[2])
            if line.strip() == "end_header":
                break
        rows = [next(fh).split()[3:6] for _ in range(count)]
    return np.array(rows, dtype=np.int64)


def check_colored_export(path_x, path_y, indices):
    """Each source vertex carries the colour of the target vertex it maps to."""
    colors_x = read_ply_colors(path_x)
    colors_y = read_ply_colors(path_y)
    if len(colors_x) != len(indices) or not np.array_equal(colors_x, colors_y[indices]):
        return ["source colours are not the target colours pulled through the map"]
    return []


def vertex_area_fractions(vertices, triangles, members):
    """Area share of each region from barycentric vertex areas."""
    v = np.asarray(vertices, dtype=np.float64)
    t = np.asarray(triangles, dtype=np.int64)
    tri = 0.5 * np.linalg.norm(np.cross(v[t[:, 1]] - v[t[:, 0]],
                                        v[t[:, 2]] - v[t[:, 0]]), axis=1)
    per_vertex = np.zeros(len(v))
    for k in range(3):
        np.add.at(per_vertex, t[:, k], tri / 3.0)
    return np.asarray(members, dtype=np.float64) @ per_vertex / tri.sum()


def check_assignment(matrix, area_x, area_y, max_ratio=3.0):
    """An injective 0/1 pairing that respects the area-ratio prune mask.

    The smaller side is matched exactly once; lines of the larger side
    that nothing matches must stay zero.
    """
    P = np.asarray(matrix)
    if not np.isin(P, (0.0, 1.0)).all():
        return ["assignment matrix is not 0/1"]
    short, long_ = (1, 0) if P.shape[0] <= P.shape[1] else (0, 1)
    problems = []
    if not (P.sum(axis=short) == 1).all():
        problems.append("a region of the smaller side is not matched exactly once")
    if (P.sum(axis=long_) > 1).any():
        problems.append("a region of the larger side is matched twice")
    rows, cols = np.nonzero(P)
    ratio = np.asarray(area_x)[rows] / np.asarray(area_y)[cols]
    if ((ratio > max_ratio) | (ratio < 1.0 / max_ratio)).any():
        problems.append("a matched pair lies outside the area-ratio prune mask")
    return problems


def check_pairing(pairs, want):
    """``pairs`` equals the planted pairing ``want``, both as (x, y) pairs."""
    if sorted(map(tuple, pairs)) != sorted(map(tuple, want)):
        return ["region pairing differs from the planted truth"]
    return []


def check_map_nonzero(functional_map):
    if np.count_nonzero(functional_map) == 0:
        return ["functional map is all zero"]
    return []
