"""Repeatable surface regions from eigenfunction level sets.

Candidate regions are connected superlevel-set components of the leading
nontrivial eigenfunctions whose area stays nearly constant over a run of
thresholds, the discrete analogue of maximally stable extremal regions.
Each eigenfunction is swept once: a union-find pass over the mesh edges,
in the order they enter the superlevel sets, builds the merge tree of
those components on the whole threshold grid (the component tree of
linear-time MSER, Nister & Stewenius 2008), and the stability test reads
component areas off the tree.  No per-level graph is built, so the
number of levels sets the threshold grid only.

A region's area is the exact sum of its vertex areas, rounded once to
the nearest float, wherever it is computed: the vertex areas are integer
multiples of one power-of-two unit, so the sum does not depend on the
order of its terms.  Every component is a slice of the sweep's vertex
order, and its area a difference of two integer prefix sums in that order.

Regions are plain vertex indicator rows plus their relative areas; no
mesh reference is kept, so a RegionSet stays valid as long as vertex
numbering does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .mesh import _Lines
from .spectral import project

__all__ = [
    "RegionSet",
    "DetectorParams",
    "detect_stable_regions",
    "regions_from_members",
    "region_coefficients",
    "save_regions",
    "load_regions",
]


@dataclass(frozen=True)
class DetectorParams:
    """Knobs of the stable-region sweep.

    num_functions nontrivial eigenfunctions are swept over ``levels``
    uniform thresholds each (one merge-tree pass per function, whatever
    the number of levels); a component is emitted once its relative
    area change across ``stability_window`` consecutive thresholds drops
    below ``stability_tol``.  Near-duplicates above ``dedup_overlap``
    Jaccard overlap collapse to the larger region, and regions below
    ``min_area_frac`` of the total surface are discarded.
    """

    num_functions: int = 8
    levels: int = 64
    stability_tol: float = 0.05
    stability_window: int = 5
    min_area_frac: float = 0.05
    dedup_overlap: float = 0.8

    def __post_init__(self):
        if self.num_functions < 1:
            raise ValueError("num_functions must be positive")
        if self.levels < self.stability_window:
            raise ValueError("levels must be at least stability_window")
        if self.stability_window < 2:
            raise ValueError("stability_window must be at least 2")
        if not 0 < self.dedup_overlap <= 1:
            raise ValueError("dedup_overlap must be in (0, 1]")
        if not 0 <= self.stability_tol < np.inf:
            raise ValueError("stability_tol must be finite and nonnegative")
        if not 0 <= self.min_area_frac <= 1:
            raise ValueError("min_area_frac must be in [0, 1]")


@dataclass(frozen=True)
class RegionSet:
    """Vertex-indicator regions with their share of total surface area.

    members : (q, m) bool ndarray, one region per row, each row nonempty
    area_fractions : (q,) ndarray in (0, 1]
    """

    members: np.ndarray
    area_fractions: np.ndarray

    def __post_init__(self):
        members = np.ascontiguousarray(self.members, dtype=bool)
        fractions = np.ascontiguousarray(self.area_fractions, dtype=np.float64)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "area_fractions", fractions)
        if members.ndim != 2:
            raise ValueError("members must be a (q, m) boolean array")
        if fractions.shape != (members.shape[0],):
            raise ValueError("need one area fraction per region")
        empty = ~members.any(axis=1)
        if empty.any():
            raise ValueError(f"region {int(np.flatnonzero(empty)[0])} is empty")
        if (fractions <= 0).any() or (fractions > 1 + 1e-12).any():
            raise ValueError("area fractions must lie in (0, 1]")
        members.setflags(write=False)
        fractions.setflags(write=False)

    def __len__(self):
        return self.members.shape[0]

    @property
    def num_vertices(self):
        return self.members.shape[1]

    def connected_flags(self, mesh):
        """Whether each region is vertex-connected on the mesh graph."""
        # one graph with a block per region, its induced subgraph: node k
        # is the k-th (region, vertex) pair of the members in row order
        m = self.num_vertices
        region, vertex = np.nonzero(self.members)
        keys = region * m + vertex
        e = mesh.edges
        r, k = np.nonzero(self.members[:, e[:, 0]] & self.members[:, e[:, 1]])
        a = np.searchsorted(keys, r * m + e[k, 0])
        b = np.searchsorted(keys, r * m + e[k, 1])
        n = len(keys)
        graph = sparse.csr_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n))
        _, labels = csgraph.connected_components(graph, directed=False)
        # no component spans two regions: count each region's components
        first = np.unique(labels, return_index=True)[1]
        return np.bincount(region[first], minlength=len(self)) == 1


def regions_from_members(members, mesh):
    """Build a RegionSet, computing area fractions from lumped vertex areas."""
    members = np.ascontiguousarray(members, dtype=bool)
    if members.ndim != 2 or members.shape[1] != mesh.num_vertices:
        raise ValueError(
            f"members must have shape (q, {mesh.num_vertices}), got {members.shape}")
    areas = [math.fsum(mesh.vertex_areas[row]) for row in members]
    return RegionSet(members=members,
                     area_fractions=np.array(areas, dtype=np.float64) / mesh.total_area)


def detect_stable_regions(mesh, basis, params=None):
    """Detect area-stable superlevel regions of the leading eigenfunctions.

    Each eigenfunction costs one union-find sweep over the mesh edges,
    sorted by the threshold level at which they become active; ``levels``
    only sets how fine the threshold grid is, not how many graphs are
    built.  Deterministic: same mesh and basis give the identical
    RegionSet.  Returns regions sorted by descending area, ties in
    detection order.  Raises ValueError when the basis carries fewer than
    ``num_functions`` nontrivial eigenfunctions or when no region survives
    the filters.
    """
    params = params or DetectorParams()
    if basis.num_vertices != mesh.num_vertices:
        raise ValueError("basis and mesh vertex counts differ")
    if basis.size < params.num_functions + 1:
        raise ValueError(
            f"need {params.num_functions} nontrivial eigenfunctions, basis "
            f"has {basis.size - 1}")

    units = _area_units(mesh.vertex_areas)
    areas, candidates = [], []  # in detection order
    seen = set()  # packed memberships, cheap exact dedup before Jaccard
    for fn in range(1, params.num_functions + 1):
        phi = basis.functions[:, fn]
        for area, members in _stable_components(mesh, phi, params, units):
            key = np.packbits(members).tobytes()
            if key not in seen:
                seen.add(key)
                areas.append(area)
                candidates.append(members)

    # greedy Jaccard dedup, larger regions take precedence
    areas = np.array(areas, dtype=np.float64)
    ranked = np.argsort(-areas, kind="stable")
    kept = ranked[_greedy_dedup([candidates[i] for i in ranked], params.dedup_overlap)]
    fractions = areas[kept] / mesh.total_area
    large = fractions >= params.min_area_frac
    if not large.any():
        raise ValueError("no regions detected; relax the area or stability limits")
    return RegionSet(members=np.array([candidates[i] for i in kept[large]]),
                     area_fractions=fractions[large])


def _area_units(vertex_areas):
    """Vertex areas as Python ints n and a power of two d, area i = n[i] / d.

    A sum of areas is then an exact integer sum, and dividing it by ``d``
    rounds it to the nearest float once, as ``math.fsum`` does.
    """
    mantissa, exponent = np.frexp(vertex_areas)
    # area = (mantissa * 2**53) * 2**(exponent - 53), the first factor an
    # integer; 2**low divides every second factor and is below 1
    low = int(exponent.min(initial=0)) - 53
    return ([int(n) << s for n, s in zip((mantissa * 2.0**53).tolist(),
                                          (exponent - 53 - low).tolist())],
            1 << -low)


def _greedy_dedup(members, overlap):
    """Indices of the rows kept by a greedy Jaccard dedup, in order.

    A row is dropped when its Jaccard overlap with an earlier kept row
    exceeds ``overlap``.  The kept rows are held as a 0/1 matrix, so one
    mat-vec gives a row's intersections with all of them; the counts are
    integers, exact in float32 below 2**24 vertices, and the overlaps are
    the same correctly rounded quotients as pairwise integer counts give.
    """
    if not members:
        return []
    m = len(members[0])
    dtype = np.float32 if m < 2**24 else np.float64
    rows = np.empty((16, m), dtype=dtype)
    sizes = np.empty(16)
    kept = []
    for i, row in enumerate(members):
        size = np.count_nonzero(row)
        k = len(kept)
        inter = rows[:k] @ row.astype(dtype)
        if (inter / (size + sizes[:k] - inter) > overlap).any():
            continue
        if k == len(rows):  # grow by doubling
            rows = np.concatenate([rows, np.empty_like(rows)])
            sizes = np.concatenate([sizes, np.empty_like(sizes)])
        rows[k] = row
        sizes[k] = size
        kept.append(i)
    return kept


def _stable_components(mesh, phi, params, units):
    """Yield (area, members) of area-stable superlevel components of phi.

    A component chain is identified by its peak vertex (largest phi,
    smallest index on ties): superlevel components only grow as the
    threshold drops, and when two merge the joint peak is the higher one,
    so each local maximum traces one chain over a contiguous run of
    levels.  Each stable component is yielded once, in (peak, level)
    order.  ``units`` are the vertex areas from :func:`_area_units`; a
    component's area is their exact sum over its members, rounded once.
    """
    lo, hi = float(phi.min()), float(phi.max())
    if hi - lo <= 1e-12 * max(abs(hi), abs(lo), 1.0):
        return  # constant function has no level-set structure
    thresholds = np.linspace(hi, lo, params.levels)
    m = len(phi)
    # first level whose superlevel set phi >= t holds the vertex
    vertex_level = np.searchsorted(-thresholds, -phi)
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(-phi, kind="stable")] = np.arange(m)
    changes, died, order = _merge_sweep(mesh.edges, vertex_level, rank, params.levels)
    position = np.empty(m, dtype=np.int64)
    position[order] = np.arange(m)
    # the component of ``size`` vertices at ``peak`` is order[p:p + size],
    # p = position[peak], with area (prefix[p + size] - prefix[p]) / denominator
    numerators, denominator = units
    prefix = list(accumulate(map(numerators.__getitem__, order.tolist()), initial=0))
    tol = params.stability_tol

    w = params.stability_window
    for peak in sorted(changes):
        chain = changes[peak]
        first = chain[0][0]
        last = died.get(peak, params.levels) - 1
        if last - first + 1 < w:
            continue
        change_levels, sizes = np.array(chain).T
        start = int(position[peak])
        chain_area = np.array([(prefix[start + size] - prefix[start]) / denominator
                               for size in sizes.tolist()])
        area = np.repeat(chain_area, np.diff(np.append(change_levels, last + 1)))
        count = len(area) - w + 1
        # areas only grow along a chain, so a window's spread is last - first
        stable = area[w - 1:] - area[:count] < tol * area[w // 2:w // 2 + count]
        mid_levels = first + w // 2 + np.flatnonzero(stable)
        for j in np.unique(np.searchsorted(change_levels, mid_levels, side="right") - 1):
            members = np.zeros(m, dtype=bool)
            members[order[start:start + sizes[j]]] = True
            yield chain_area[j], members


def _merge_sweep(edges, vertex_level, rank, levels):
    """Superlevel components on every level of a threshold grid, in one pass.

    A union-find sweep adds each level's vertices, then the edges whose
    later endpoint enters at that level (the merge tree of the components,
    as in the component tree of MSER).  The root of a component is its
    peak, the vertex of lowest ``rank``.  Each root keeps its members as a
    linked list headed by itself, and a union appends the lower peak's
    list to the higher one's, so in the final ``order`` every component
    the sweep formed is the slice of ``size`` vertices starting at its peak.

    Returns ``changes`` (peak -> [(level, size)] at every level where the
    peak's component appeared or grew), ``died`` (peak -> level at which
    it joined a higher peak) and ``order``.
    """
    m = len(vertex_level)
    edge_level = np.maximum(vertex_level[edges[:, 0]], vertex_level[edges[:, 1]])
    # a minimum spanning forest under edge level joins the same components
    # at every level as the full edge set, with at most m - 1 edges
    forest = csgraph.minimum_spanning_tree(sparse.csr_matrix(
        (edge_level + 1.0, (edges[:, 0], edges[:, 1])), shape=(m, m))).tocoo()
    edge_level = forest.data.astype(np.int64) - 1
    edge_order = np.argsort(edge_level, kind="stable")
    level_edges = np.column_stack([forest.row, forest.col])[edge_order].tolist()
    edge_split = np.searchsorted(edge_level[edge_order], np.arange(levels + 1)).tolist()
    vertex_order = np.argsort(vertex_level, kind="stable")
    vertex_split = np.searchsorted(vertex_level[vertex_order], np.arange(levels + 1)).tolist()
    vertex_order = vertex_order.tolist()
    rank = rank.tolist()

    parent = list(range(m))
    size = [1] * m
    after = [-1] * m  # next member in the list, -1 at the end
    tail = list(range(m))
    changes, died = {}, {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for level in range(levels):
        touched = vertex_order[vertex_split[level]:vertex_split[level + 1]]
        for u, v in level_edges[edge_split[level]:edge_split[level + 1]]:
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            if rank[rv] < rank[ru]:
                ru, rv = rv, ru
            parent[rv] = ru
            after[tail[ru]] = rv
            tail[ru] = tail[rv]
            size[ru] += size[rv]
            died[rv] = level
            touched.append(ru)
        for r in {find(r) for r in touched}:
            changes.setdefault(r, []).append((level, size[r]))

    order = []
    for root in range(m):
        v = root if parent[root] == root else -1
        while v >= 0:
            order.append(v)
            v = after[v]
    return changes, died, np.array(order, dtype=np.int64)


def region_coefficients(regions, basis):
    """Stack of basis coefficients of each region indicator, shape (q, n)."""
    if regions.num_vertices != basis.num_vertices:
        raise ValueError(
            f"regions live on {regions.num_vertices} vertices, basis on "
            f"{basis.num_vertices}")
    return project(basis, regions.members.T.astype(np.float64)).T


def save_regions(regions, path):
    """Write one region per line as space-separated vertex indices."""
    lines = ["# one region per line: vertex indices"]
    for row in regions.members:
        lines.append(" ".join(map(str, np.flatnonzero(row).tolist())))
    Path(path).write_text("\n".join(lines) + "\n")


def load_regions(path, mesh):
    """Read a region file written by :func:`save_regions`.

    Indices are validated against the mesh; disconnected regions are kept
    with a warning.
    """
    regions = []
    for lineno, line in _Lines(Path(path).read_text(), cut="#").lines:
        try:
            indices = np.unique(np.array(line.split(), dtype=np.int64))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad vertex index: {exc}") from None
        if len(indices) == 0:
            raise ValueError(f"{path}:{lineno}: region {len(regions)} is empty")
        if indices[0] < 0 or indices[-1] >= mesh.num_vertices:
            bad = indices[0] if indices[0] < 0 else indices[-1]
            raise ValueError(
                f"{path}:{lineno}: region {len(regions)} references vertex "
                f"{bad}, mesh has {mesh.num_vertices}")
        members = np.zeros(mesh.num_vertices, dtype=bool)
        members[indices] = True
        regions.append(members)
    if not regions:
        raise ValueError(f"{path}: no regions found")
    out = regions_from_members(np.array(regions), mesh)
    disconnected = np.flatnonzero(~out.connected_flags(mesh))
    if len(disconnected):
        warnings.warn(
            f"{path}: region(s) {disconnected.tolist()} are not connected "
            "on the mesh graph", stacklevel=2)
    return out
