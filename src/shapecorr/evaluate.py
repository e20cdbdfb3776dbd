"""Correspondence quality measures and colored-mesh export.

Errors are geodesic distances on the target shape between predicted and
true images, normalized by the shape diameter; the cumulative curve over
error thresholds is the standard summary.  The color export paints the
target mesh with a smooth coordinate-based RGB field and pulls it back to
the source through the map, making mismatches visible at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import geodesic_distance_matrix, save_mesh, shape_diameter
from .refine import _index_vector

__all__ = [
    "ErrorCurve",
    "DEFAULT_THRESHOLDS",
    "correspondence_error",
    "error_curve",
    "export_colored_ply",
    "save_error_curve",
]

# correspondence_error: Dijkstra output per batch of sources.  Each batch's
# search radius starts at 1.5 times its longest chord, or at the shortest
# edge, and doubles until all pairs land.
# On creature_5k jitter twins 1-4 (medians of 9, three alternations), 4 MiB
# blocks evaluated in 0.04-0.07 s; 1 MiB blocks took 1.04-1.34x as long,
# and 16 MiB ones 1.0-1.3x (1.8-2.3x on twin 2), since a larger block
# searches all its sources to its farthest pair's radius.
_CHUNK_BYTES = 2**22


@dataclass(frozen=True)
class ErrorCurve:
    """Fraction of vertices with error at or below each threshold."""

    thresholds: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        thresholds = np.ascontiguousarray(self.thresholds, dtype=np.float64)
        fractions = np.ascontiguousarray(self.fractions, dtype=np.float64)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "fractions", fractions)
        if thresholds.ndim != 1 or thresholds.shape != fractions.shape:
            raise ValueError("thresholds and fractions must be matching 1-d arrays")
        if thresholds.size == 0:
            raise ValueError("thresholds must not be empty")
        if (np.diff(thresholds) <= 0).any():
            raise ValueError("thresholds must be strictly ascending")
        if thresholds[0] < 0 or thresholds[-1] > 0.5:
            raise ValueError("thresholds must lie in [0, 0.5] (fractions of diameter)")
        if (fractions < 0).any() or (fractions > 1).any():
            raise ValueError("fractions must lie in [0, 1]")
        if (np.diff(fractions) < 0).any():
            raise ValueError("fractions must be nondecreasing")
        thresholds.setflags(write=False)
        fractions.setflags(write=False)


def _threshold_grid(top=0.25, step=0.01):
    """The read-only thresholds 0, step, 2 step, ... up to ``top``."""
    grid = np.arange(0.0, top + 1e-9, step)
    return ErrorCurve(grid, np.zeros_like(grid)).thresholds


DEFAULT_THRESHOLDS = _threshold_grid()


def _indices(point_map, m):
    """A point map's (or raw array's) target vertices, each in [0, m)."""
    indices = _index_vector(getattr(point_map, "indices", point_map))
    if indices.min() < 0 or indices.max() >= m:
        raise ValueError(
            f"point map index out of range for target mesh with {m} vertices")
    return indices


def correspondence_error(point_map, truth, mesh_y, diameter=None):
    """Normalized geodesic error of each source vertex.

    Entry i is the edge-graph distance on the target mesh between the
    predicted image ``point_map[i]`` and the true image ``truth[i]``,
    divided by the target diameter.  Indices must be integers (integral
    floats pass), one per source vertex, each a target vertex.

    Exact images cost nothing.  Graph distance is symmetric, so a wrong
    pair (t, p) is searched from whichever end more wrong pairs share,
    and from its true image t on a tie; Dijkstra runs once from each
    distinct chosen end.  A pair searched from p sums its path's edges
    from the other end, so its error may differ in the last bits (at most
    about 1e-15 relative) from the sum taken from t.

    Sources run in blocks whose distance rows fill at most
    ``_CHUNK_BYTES`` (4 MiB, or one row when a row is larger; never
    O(m^2)), and each search stops at a radius that doubles until every
    pair of the source is reached.  Sources are ordered by the longest
    straight-line distance of their pairs, and a block's radius starts at
    1.5 times its longest one, or at the shortest edge if that is longer:
    a wrong pair is two distinct vertices, at least one edge apart on the
    graph however close they lie in space.  A row does not depend on
    which block its source runs in or at which radius, so the block size
    and the radii move memory and time, never an error.
    """
    m = mesh_y.num_vertices
    predicted, expected = _indices(point_map, m), _indices(truth, m)
    if predicted.shape != expected.shape:
        raise ValueError(
            f"map has {predicted.shape[0]} entries, truth has {expected.shape[0]}")
    if diameter is None:
        diameter = shape_diameter(mesh_y)
    if not 0 < diameter < np.inf:
        raise ValueError(f"diameter must be positive and finite, got {diameter}")
    errors = np.zeros(len(predicted))
    wrong = np.flatnonzero(predicted != expected)
    # graph distance is symmetric: search each pair from the end that more
    # wrong pairs share, from its true image on a tie
    t, p = expected[wrong], predicted[wrong]
    shared = np.bincount(np.concatenate([t, p]))
    true_side = shared[t] >= shared[p]
    near, far = np.where(true_side, t, p), np.where(true_side, p, t)
    sources, pair_source = np.unique(near, return_inverse=True)
    # a graph path is never shorter than the straight line, nor than one
    # edge, so a source needs a radius of at least its farthest pair's
    # chord and the shortest edge; blocks of sources with similar chords
    # start near the radius they need
    chord = np.linalg.norm(mesh_y.vertices[far] - mesh_y.vertices[near], axis=1)
    reach = np.zeros(len(sources))
    np.maximum.at(reach, pair_source, chord)
    order = np.argsort(reach, kind="stable")
    sources, reach = sources[order], reach[order]
    pair_source = np.argsort(order)[pair_source]
    shortest_edge = mesh_y.edge_graph.data.min()
    chunk = max(1, _CHUNK_BYTES // (8 * m))
    for first in range(0, len(sources), chunk):
        pending = np.arange(first, min(first + chunk, len(sources)))
        pairs = np.flatnonzero((pair_source >= first) & (pair_source < first + chunk))
        limit = max(1.5 * reach[pending].max(), shortest_edge)
        while len(pairs):
            rows = geodesic_distance_matrix(mesh_y, sources[pending], limit=limit)
            row = np.searchsorted(pending, pair_source[pairs])
            dist = rows[row, far[pairs]]
            done = np.isfinite(dist) | (limit == np.inf)
            errors[wrong[pairs[done]]] = dist[done] / diameter
            pairs = pairs[~done]
            pending = np.unique(pair_source[pairs])
            limit = 2 * limit if limit > 0 else np.inf
    return errors


def error_curve(errors, thresholds=None):
    """Cumulative accuracy curve of normalized errors.

    The fraction at each threshold counts errors less than or equal to
    it; with the default grid the first point is the exactly-correct rate
    and the curve is nondecreasing by construction.  Each count is a binary
    search in the sorted errors: memory stays linear in both lengths.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1 or len(errors) == 0:
        raise ValueError("errors must be a nonempty 1-d array")
    if not ((errors >= 0) & (errors < np.inf)).all():
        raise ValueError("errors must be finite and nonnegative")
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS
    thresholds = np.asarray(thresholds, dtype=np.float64)
    fractions = np.searchsorted(np.sort(errors), thresholds, side="right") / len(errors)
    return ErrorCurve(thresholds=thresholds.copy(), fractions=fractions)


def save_error_curve(curve, path):
    """Two columns per line: threshold and fraction."""
    lines = ["# threshold fraction"]
    lines.extend(f"{t:.6f} {f:.12f}"
                 for t, f in zip(curve.thresholds, curve.fractions))
    Path(path).write_text("\n".join(lines) + "\n")


def export_colored_ply(mesh_x, mesh_y, point_map, path_x, path_y):
    """Write both meshes as ASCII PLY with matching vertex colors.

    The target mesh is painted by normalizing its vertex coordinates to
    RGB; the source pulls each vertex's color from its mapped target
    vertex, so corresponding patches share colors.
    """
    indices = _indices(point_map, mesh_y.num_vertices)
    if len(indices) != mesh_x.num_vertices:
        raise ValueError(
            f"point map covers {len(indices)} vertices, source mesh has "
            f"{mesh_x.num_vertices}")
    v = mesh_y.vertices
    span = v.max(axis=0) - v.min(axis=0)
    span[span == 0] = 1.0  # flat axes map to a constant channel
    unit = (v - v.min(axis=0)) / span
    colors_y = np.clip(np.round(unit * 255.0), 0, 255).astype(np.uint8)
    colors_x = colors_y[indices]
    save_mesh(mesh_y, path_y, format="ply", colors=colors_y)
    save_mesh(mesh_x, path_x, format="ply", colors=colors_x)
