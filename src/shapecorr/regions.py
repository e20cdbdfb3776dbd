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

Regions are plain vertex indicator rows plus their relative areas; no
mesh reference is kept, so a RegionSet stays valid as long as vertex
numbering does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .spectral import project

__all__ = [
    "RegionSet",
    "DetectorParams",
    "detect_stable_regions",
    "regions_from_members",
    "filter_by_area",
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

    def indicator(self, i):
        """Region i as a float 0/1 vertex function."""
        return self.members[i].astype(np.float64)

    def subset(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        return RegionSet(self.members[indices], self.area_fractions[indices])

    def connected_flags(self, mesh):
        """Whether each region is vertex-connected on the mesh graph."""
        flags = np.empty(len(self), dtype=bool)
        for i, row in enumerate(self.members):
            sub = mesh.adjacency[row][:, row]
            n_comp, _ = csgraph.connected_components(sub, directed=False)
            flags[i] = n_comp == 1
        return flags


def regions_from_members(members, mesh):
    """Build a RegionSet, computing area fractions from lumped vertex areas."""
    members = np.ascontiguousarray(members, dtype=bool)
    if members.ndim != 2 or members.shape[1] != mesh.num_vertices:
        raise ValueError(
            f"members must have shape (q, {mesh.num_vertices}), got {members.shape}")
    fractions = (members @ mesh.vertex_areas) / mesh.total_area
    return RegionSet(members=members, area_fractions=fractions)


def detect_stable_regions(mesh, basis, params=None):
    """Detect area-stable superlevel regions of the leading eigenfunctions.

    Each eigenfunction costs one union-find sweep over the mesh edges,
    sorted by the threshold level at which they become active; ``levels``
    only sets how fine the threshold grid is, not how many graphs are
    built.  Deterministic: same mesh and basis give the identical RegionSet.
    Returns regions sorted by descending area.  Raises ValueError when the
    basis carries fewer than ``num_functions`` nontrivial eigenfunctions
    or when no region survives the filters.
    """
    params = params or DetectorParams()
    if basis.num_vertices != mesh.num_vertices:
        raise ValueError("basis and mesh vertex counts differ")
    if basis.size < params.num_functions + 1:
        raise ValueError(
            f"need {params.num_functions} nontrivial eigenfunctions, basis "
            f"has {basis.size - 1}")

    candidates = []  # (area, members) in detection order
    seen = set()  # membership hashes, cheap exact dedup before Jaccard
    for fn in range(1, params.num_functions + 1):
        phi = basis.functions[:, fn]
        for area, members in _stable_components(mesh, phi, params):
            key = members.tobytes()
            if key not in seen:
                seen.add(key)
                candidates.append((area, members))

    # greedy Jaccard dedup, larger regions take precedence
    candidates.sort(key=lambda c: -c[0])
    kept = []
    for area, members in candidates:
        dup = False
        for _, other in kept:
            inter = np.count_nonzero(members & other)
            if inter == 0:
                continue
            union = np.count_nonzero(members | other)
            if inter / union > params.dedup_overlap:
                dup = True
                break
        if not dup:
            kept.append((area, members))

    total = mesh.total_area
    kept = [(a, m) for a, m in kept if a / total >= params.min_area_frac]
    if not kept:
        raise ValueError("no regions detected; relax the area or stability limits")
    members = np.array([m for _, m in kept])
    return RegionSet(members=members,
                     area_fractions=np.array([a for a, _ in kept]) / total)


def _stable_components(mesh, phi, params):
    """Yield (area, members) of area-stable superlevel components of phi.

    A component chain is identified by its peak vertex (largest phi,
    smallest index on ties): superlevel components only grow as the
    threshold drops, and when two merge the joint peak is the higher one,
    so each local maximum traces one chain over a contiguous run of
    levels.  Each stable component is yielded once, in (peak, level)
    order, with its area summed over its members in index order.
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

    def component(peak, size):
        return order[position[peak]:position[peak] + size]

    w = params.stability_window
    for peak in sorted(changes):
        chain = changes[peak]
        first = chain[0][0]
        last = died.get(peak, params.levels) - 1
        if last - first + 1 < w:
            continue
        change_levels = np.array([level for level, _ in chain])
        # term by term in vertex-index order: the same vertex set gives the
        # same float whatever order the sweep joined it in
        chain_area = np.array([np.cumsum(mesh.vertex_areas[np.sort(component(peak, size))])[-1]
                               for _, size in chain])
        # areas only grow along a chain, so a window's spread is last - first
        area = np.repeat(chain_area, np.diff(np.append(change_levels, last + 1)))
        count = len(area) - w + 1
        stable = area[w - 1:] - area[:count] < params.stability_tol * area[w // 2:w // 2 + count]
        mid_levels = first + w // 2 + np.flatnonzero(stable)
        for j in np.unique(np.searchsorted(change_levels, mid_levels, side="right") - 1):
            members = np.zeros(m, dtype=bool)
            members[component(peak, chain[j][1])] = True
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


def filter_by_area(regions, min_area_frac=0.05):
    """Drop regions below the given fraction of total surface area."""
    keep = np.flatnonzero(regions.area_fractions >= min_area_frac)
    if len(keep) == 0:
        raise ValueError(
            f"no region has area fraction >= {min_area_frac}; largest is "
            f"{regions.area_fractions.max():.4f}")
    return regions.subset(keep)


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
        lines.append(" ".join(str(i) for i in np.flatnonzero(row)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_regions(path, mesh):
    """Read a region file written by :func:`save_regions`.

    Indices are validated against the mesh; disconnected regions are kept
    with a warning.
    """
    regions = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            indices = np.unique(np.array([int(t) for t in line.split()], dtype=np.int64))
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
