"""Repeatable surface regions from eigenfunction level sets.

Candidate regions are connected superlevel-set components of the leading
nontrivial eigenfunctions whose area stays nearly constant over a run of
thresholds, the discrete analogue of maximally stable extremal regions.
Each eigenfunction is read off one minimum spanning forest of the mesh
edges: the level at which a vertex joins a local maximum's component is
the largest vertex level on the forest path between the two (minimax
paths, Hu 1961), so a breadth-first pass from each maximum gives its
whole chain of components on the threshold grid (the component tree of
MSER, Nister & Stewenius 2008).  No per-level graph is built, so the
number of levels sets the threshold grid only.

A region's area is the exact sum of its vertex areas, rounded once to
the nearest float, wherever it is computed: the vertex areas are integer
multiples of one power-of-two unit, so the sum does not depend on the
order of its terms.  The sweep yields one chain of components at a
time, each a prefix of the chain's vertex order, its area an integer
prefix sum in that order.  Candidates stay such slices of the chains
put end to end until those the overlap dedup keeps get member rows.

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

from .mesh import _Lines, _positive_int
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
    uniform thresholds each (one spanning-forest pass per function,
    whatever the number of levels); a component is emitted once its
    relative area change across ``stability_window`` consecutive
    thresholds drops below ``stability_tol``.  Near-duplicates above
    ``dedup_overlap`` Jaccard overlap collapse to the larger region, and
    regions below ``min_area_frac`` of the total surface are discarded.
    """

    num_functions: int = 8
    levels: int = 64
    stability_tol: float = 0.05
    stability_window: int = 5
    min_area_frac: float = 0.05
    dedup_overlap: float = 0.8

    def __post_init__(self):
        for name in ("num_functions", "levels", "stability_window"):
            _positive_int(getattr(self, name), name)
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

    Each eigenfunction costs one minimum spanning forest of the mesh
    edges and one breadth-first pass over it per local maximum; ``levels``
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
    # every candidate is a prefix of its chain's vertex order; put the
    # chains end to end, candidates in detection order
    chains = [chain for fn in range(1, params.num_functions + 1)
              for chain in _stable_components(mesh, basis.functions[:, fn], params, units)]
    if not chains:
        raise ValueError("no regions detected; relax the area or stability limits")
    order, sizes, areas = (np.concatenate(part) for part in zip(*chains))
    lengths = [len(chain_order) for chain_order, _, _ in chains]
    starts = np.repeat(np.cumsum(lengths) - lengths,
                       [len(chain_sizes) for _, chain_sizes, _ in chains])

    # the area cut keeps a prefix of the ranking; then a greedy Jaccard
    # dedup, larger regions take precedence
    ranked = np.argsort(-areas, kind="stable")
    ranked = ranked[areas[ranked] / mesh.total_area >= params.min_area_frac]
    if not len(ranked):
        raise ValueError("no regions detected; relax the area or stability limits")
    kept = ranked[_greedy_dedup(mesh.num_vertices, order, starts[ranked], sizes[ranked],
                                params.dedup_overlap)]
    members = np.zeros((len(kept), mesh.num_vertices), dtype=bool)
    for row, start, size in zip(members, starts[kept], sizes[kept]):
        row[order[start:start + size]] = True
    return RegionSet(members=members, area_fractions=areas[kept] / mesh.total_area)


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


def _greedy_dedup(m, order, starts, sizes, overlap):
    """Indices of the slices kept by a greedy Jaccard dedup, in order.

    Slice i is the set of ``sizes[i]`` distinct vertices (of ``m``) at
    ``order[starts[i]:]``.  It is dropped when its Jaccard overlap with an
    earlier kept slice exceeds ``overlap`` or is 1, so exact repeats go
    whatever the limit.  Slices that share a start are prefixes of one
    another: each kept slice marks its vertices, and one running count of
    the marks along every start still in play, up to its longest slice
    not yet decided, gives the intersections with all of those slices.
    The overlaps are the correctly rounded quotients of integer counts.
    """
    inside = np.zeros(m, dtype=bool)
    kept = []
    rest = np.arange(len(starts))
    while len(rest):
        i, rest = rest[0], rest[1:]
        kept.append(int(i))
        if not len(rest):
            break
        inside[:] = False
        inside[order[starts[i]:starts[i] + sizes[i]]] = True
        start, at = np.unique(starts[rest], return_inverse=True)
        length = np.zeros(len(start), dtype=np.int64)
        np.maximum.at(length, at, sizes[rest])
        # the spans end to end; span k begins at base[k]
        base = np.cumsum(length) - length
        span = np.repeat(start - base, length) + np.arange(base[-1] + length[-1])
        count = np.concatenate([[0], np.cumsum(inside[order[span]])])
        inter = count[base[at] + sizes[rest]] - count[base[at]]
        union = sizes[i] + sizes[rest] - inter
        rest = rest[(inter / union <= overlap) & (inter < union)]
    return kept


def _stable_components(mesh, phi, params, units):
    """Area-stable superlevel components of phi, one component chain at a time.

    Yields ``(order, sizes, areas)`` for each chain with a stable
    component: component k is the first ``sizes[k]`` vertices of
    ``order``, its area ``areas[k]``.  A component chain is identified by
    its peak vertex (largest phi, smallest index on ties): superlevel
    components only grow as the threshold drops, and when two merge the
    joint peak is the higher one, so each local maximum traces one chain
    over a contiguous run of levels.  Chains come in peak order, each
    chain's stable components once each, in level order.
    ``units`` are the vertex areas from :func:`_area_units`; a
    component's area is their exact sum over its members, rounded once.

    A minimum spanning forest under edge level (the later level of the
    two endpoints) joins the same components at every level as the whole
    mesh, and holds every minimax path (Hu 1961): a vertex is in a peak's
    component from the largest vertex level on the forest path between
    the two.  Those levels order the chain's members so that each of its
    components is a prefix.
    """
    lo, hi = float(phi.min()), float(phi.max())
    if hi - lo <= 1e-12 * max(abs(hi), abs(lo), 1.0):
        return  # constant function has no level-set structure
    levels, w, tol = params.levels, params.stability_window, params.stability_tol
    thresholds = np.linspace(hi, lo, levels)
    m = len(phi)
    # first level whose superlevel set phi >= t holds the vertex
    vertex_level = np.searchsorted(-thresholds, -phi)
    by_rank = np.argsort(-phi, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[by_rank] = np.arange(m)
    edges = mesh.edges
    edge_level = np.maximum(vertex_level[edges[:, 0]], vertex_level[edges[:, 1]])
    forest = csgraph.minimum_spanning_tree(sparse.csr_matrix(
        (edge_level + 1.0, (edges[:, 0], edges[:, 1])), shape=(m, m))).tocoo()
    tree = (forest + forest.T).tocsr()

    # a chain starts at a plateau (vertices of one level joined by forest
    # edges) that no forest neighbour enters before; its peak is the
    # plateau's vertex of lowest rank.  Any other vertex meets one of lower
    # rank at its own level, so its chain would be empty: this spares passes
    u, v = forest.row, forest.col
    flat = vertex_level[u] == vertex_level[v]
    n_plateaus, plateau = csgraph.connected_components(sparse.csr_matrix(
        (np.ones(np.count_nonzero(flat)), (u[flat], v[flat])), shape=(m, m)),
        directed=False)
    later = np.where(vertex_level[u] > vertex_level[v], u, v)[~flat]
    opens = np.ones(n_plateaus, dtype=bool)
    opens[plateau[later]] = False
    labels, first = np.unique(plateau[by_rank], return_index=True)
    peaks = np.sort(by_rank[first[opens[labels]]])

    numerators, denominator = units
    for peak in peaks.tolist():
        reached, parent = csgraph.breadth_first_order(
            tree, peak, directed=True, return_predecessors=True)
        # join[x]: largest vertex level on the forest path from the peak
        # to x, by pointer doubling up the breadth-first tree
        join = np.full(m, levels, dtype=np.int64)
        join[reached] = vertex_level[reached]
        up = np.arange(m)
        up[reached[1:]] = parent[reached[1:]]
        while True:
            np.maximum(join, join[up], out=join)
            upper = up[up]
            if np.array_equal(upper, up):
                break
            up = upper
        # the chain ends where it meets a vertex of lower rank
        first_level = int(vertex_level[peak])
        last = int(join[rank < rank[peak]].min(initial=levels)) - 1
        if last - first_level + 1 < w:
            continue
        members = np.flatnonzero(join <= last)
        members = members[np.argsort(join[members], kind="stable")]
        # component sizes per level of the chain, and their exact areas
        size = np.cumsum(np.bincount(join[members], minlength=last + 1))[first_level:]
        grown, at_level = np.unique(size, return_inverse=True)
        prefix = list(accumulate(map(numerators.__getitem__, members.tolist()), initial=0))
        chain_area = np.array([prefix[s] / denominator for s in grown.tolist()])
        area = chain_area[at_level]
        count = len(area) - w + 1
        # areas only grow along a chain, so a window's spread is last - first
        stable = area[w - 1:] - area[:count] < tol * area[w // 2:w // 2 + count]
        picked = np.unique(at_level[w // 2 + np.flatnonzero(stable)])
        if len(picked):
            yield members[:grown[picked[-1]]], grown[picked], chain_area[picked]


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
        except OverflowError:
            raise ValueError(f"{path}:{lineno}: region {len(regions)} references a vertex "
                             f"index out of range, mesh has {mesh.num_vertices}") from None
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
