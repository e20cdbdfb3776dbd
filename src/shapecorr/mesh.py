"""Triangle mesh loading, validation, measures, and edge-graph geodesics.

A :class:`Mesh` is immutable after construction: the vertex and triangle
arrays are marked read-only and every derived quantity (areas, adjacency,
edge lengths) is cached on first use, so instances can be shared freely
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "Mesh",
    "GeodesicField",
    "MeshParseError",
    "MeshValidationError",
    "load_mesh",
    "save_mesh",
    "read_ply",
    "geodesic_distances",
    "geodesic_distance_matrix",
    "shape_diameter",
]

# full round-trip precision for float64 text output
_FLOAT_FMT = "%.17g"

_FORMATS = ("off", "obj", "ply")


class MeshParseError(ValueError):
    """A mesh file does not follow its format grammar."""


class MeshValidationError(ValueError):
    """A parsed mesh is structurally unusable."""


class Mesh:
    """An edge-manifold, connected triangle mesh.

    Parameters
    ----------
    vertices : (m, 3) array_like of float
        Vertex positions.
    triangles : (t, 3) array_like of int
        Vertex index triples, zero based.

    Raises
    ------
    MeshValidationError
        If a vertex index is out of range, a triangle has zero area, an
        edge is shared by more than two triangles, or the mesh is not
        connected.  The message names the offending element.
    """

    def __init__(self, vertices, triangles):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshValidationError(
                f"vertices must have shape (m, 3), got {vertices.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshValidationError(
                f"triangles must have shape (t, 3), got {triangles.shape}")
        if not np.isfinite(vertices).all():
            bad = int(np.flatnonzero(~np.isfinite(vertices).all(axis=1))[0])
            raise MeshValidationError(f"vertex {bad} has a non-finite coordinate")
        self.vertices = vertices
        self.triangles = triangles
        self._validate()
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)

    # -- structure ---------------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def _validate(self):
        m = self.num_vertices
        if m < 3:
            raise MeshValidationError(f"mesh needs at least 3 vertices, got {m}")
        if self.num_triangles < 1:
            raise MeshValidationError("mesh has no triangles")
        out = (self.triangles < 0) | (self.triangles >= m)
        if out.any():
            face = int(np.flatnonzero(out.any(axis=1))[0])
            idx = int(self.triangles[face][out[face]][0])
            raise MeshValidationError(
                f"face {face} references vertex {idx}, but the mesh has {m} vertices")
        zero = self.triangle_areas == 0.0
        if zero.any():
            face = int(np.flatnonzero(zero)[0])
            raise MeshValidationError(f"face {face} is degenerate (zero area)")
        # edge-manifold: every undirected edge belongs to at most two faces
        edges = np.sort(self.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        if (counts > 2).any():
            i, j = uniq[np.argmax(counts > 2)]
            raise MeshValidationError(
                f"edge ({i}, {j}) is shared by {int(counts.max())} faces; "
                "the mesh is not edge-manifold")
        n_comp, labels = csgraph.connected_components(self.adjacency, directed=False)
        if n_comp != 1:
            stray = int(np.flatnonzero(labels != labels[0])[0])
            raise MeshValidationError(
                f"mesh has {n_comp} connected components (vertex {stray} is not "
                "reachable from vertex 0)")

    # -- measures ----------------------------------------------------------

    @cached_property
    def triangle_areas(self):
        """Areas of all faces, shape (t,)."""
        v = self.vertices
        t = self.triangles
        cr = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        return 0.5 * np.linalg.norm(cr, axis=1)

    @cached_property
    def vertex_areas(self):
        """Lumped vertex areas: one third of each incident face area."""
        va = np.zeros(self.num_vertices)
        third = self.triangle_areas / 3.0
        for c in range(3):
            np.add.at(va, self.triangles[:, c], third)
        return va

    @cached_property
    def total_area(self):
        return float(self.triangle_areas.sum())

    @cached_property
    def edges(self):
        """Unique undirected edges as sorted index pairs, shape (e, 2)."""
        e = np.sort(self.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        return np.unique(e, axis=0)

    @cached_property
    def adjacency(self):
        """Unweighted vertex adjacency, symmetric CSR of 0/1."""
        e = self.edges
        m = self.num_vertices
        data = np.ones(2 * len(e), dtype=np.int8)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        return sparse.csr_matrix((data, (rows, cols)), shape=(m, m))

    @cached_property
    def edge_graph(self):
        """Vertex adjacency weighted by Euclidean edge length, symmetric CSR."""
        e = self.edges
        m = self.num_vertices
        lengths = np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        data = np.concatenate([lengths, lengths])
        return sparse.csr_matrix((data, (rows, cols)), shape=(m, m))


@dataclass(frozen=True)
class GeodesicField:
    """All distances from one source vertex along the edge graph."""

    source: int
    distances: np.ndarray


def geodesic_distances(mesh, source):
    """Shortest-path distances from ``source`` to every vertex.

    Distances are along the edge graph with Euclidean edge lengths
    (Dijkstra); for a connected mesh every entry is finite.
    """
    source = int(source)
    if not 0 <= source < mesh.num_vertices:
        raise ValueError(
            f"source vertex {source} out of range for mesh with "
            f"{mesh.num_vertices} vertices")
    d = csgraph.dijkstra(mesh.edge_graph, directed=False, indices=source)
    return GeodesicField(source=source, distances=d)


def geodesic_distance_matrix(mesh, sources, limit=np.inf):
    """Rows of edge-graph distances for several source vertices at once.

    Vertices farther than ``limit`` from a source read ``inf`` in its row;
    the distances within it are the same as without a limit.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1 or len(sources) == 0:
        raise ValueError("sources must be a nonempty 1-d index array")
    if sources.min() < 0 or sources.max() >= mesh.num_vertices:
        raise ValueError("source vertex index out of range")
    return csgraph.dijkstra(mesh.edge_graph, directed=False, indices=sources,
                            limit=limit)


def shape_diameter(mesh, sample_count=32):
    """Largest edge-graph distance seen from ``sample_count`` spread sources.

    With ``sample_count >= m`` this is the exact graph diameter; smaller
    counts give a deterministic lower bound that is adequate for
    normalizing correspondence errors.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    m = mesh.num_vertices
    sources = np.unique(np.linspace(0, m - 1, min(sample_count, m)).round().astype(np.int64))
    return float(geodesic_distance_matrix(mesh, sources).max())


# -- file formats ----------------------------------------------------------


def _format_from_path(path):
    ext = Path(path).suffix.lower().lstrip(".")
    if ext not in _FORMATS:
        raise ValueError(
            f"cannot infer mesh format from extension {ext!r}; "
            f"pass format= one of {_FORMATS}")
    return ext


def load_mesh(path, format=None):
    """Read an OFF, OBJ, or ASCII-PLY file and return a validated Mesh.

    ``format`` is inferred from the file extension when omitted.
    """
    fmt = (format or _format_from_path(path)).lower()
    if fmt not in _FORMATS:
        raise ValueError(f"unknown mesh format {format!r}; expected one of {_FORMATS}")
    text = Path(path).read_text()
    if fmt == "off":
        verts, tris = _parse_off(text)
    elif fmt == "obj":
        verts, tris = _parse_obj(text)
    else:
        verts, tris, _ = _parse_ply(text)
    return Mesh(verts, tris)


def save_mesh(mesh, path, format=None, colors=None):
    """Write a mesh as OFF, OBJ, or ASCII PLY.

    Coordinates are written with full float64 round-trip precision, so a
    load after save reproduces them bit for bit.  ``colors`` is an (m, 3)
    uint8 array of per-vertex RGB and is supported for PLY only.
    """
    fmt = (format or _format_from_path(path)).lower()
    if fmt not in _FORMATS:
        raise ValueError(f"unknown mesh format {format!r}; expected one of {_FORMATS}")
    if colors is not None and fmt != "ply":
        raise ValueError("per-vertex colors are only supported by the PLY writer")
    if fmt == "off":
        text = _emit_off(mesh)
    elif fmt == "obj":
        text = _emit_obj(mesh)
    else:
        text = _emit_ply(mesh, colors)
    Path(path).write_text(text)


def read_ply(path):
    """Read an ASCII PLY file, returning (vertices, triangles, colors).

    ``colors`` is an (m, 3) uint8 array when the file carries red, green
    and blue vertex properties, else None.
    """
    return _parse_ply(Path(path).read_text())


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


def _parse_off(text):
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
    return verts, tris


def _parse_obj(text):
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
                face.append(idx - 1)
            tris.append(face)
        # all other directives (vn, vt, usemtl, ...) are ignored
    return np.asarray(verts, dtype=np.float64).reshape(-1, 3), \
        np.asarray(tris, dtype=np.int64).reshape(-1, 3)


def _parse_ply(text):
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

    verts = tris = colors = None
    for name, count, props in elements:
        if name == "vertex":
            for axis in ("x", "y", "z"):
                if axis not in props:
                    raise MeshParseError(f"PLY vertex element lacks property {axis!r}")
            cols = [props.index(a) for a in ("x", "y", "z")]
            has_rgb = all(c in props for c in ("red", "green", "blue"))
            rgb_cols = [props.index(c) for c in ("red", "green", "blue")] if has_rgb else None
            verts = np.empty((count, 3))
            colors = np.empty((count, 3), dtype=np.uint8) if has_rgb else None
            for i in range(count):
                lineno, line = next_line(f"vertex {i}")
                values = _floats(line.split(), len(props), lineno, f"vertex {i}")
                verts[i] = [values[c] for c in cols]
                if has_rgb:
                    colors[i] = [int(values[c]) for c in rgb_cols]
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
        else:
            for i in range(count):  # skip unknown elements
                next_line(f"{name} {i}")
    return verts, tris, colors


def _emit_off(mesh):
    out = ["OFF", f"{mesh.num_vertices} {mesh.num_triangles} {len(mesh.edges)}"]
    out.extend(" ".join(_FLOAT_FMT % c for c in v) for v in mesh.vertices)
    out.extend(f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles)
    return "\n".join(out) + "\n"


def _emit_obj(mesh):
    out = [f"v {_FLOAT_FMT % v[0]} {_FLOAT_FMT % v[1]} {_FLOAT_FMT % v[2]}"
           for v in mesh.vertices]
    out.extend(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in mesh.triangles)
    return "\n".join(out) + "\n"


def _emit_ply(mesh, colors=None):
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
        line = " ".join(_FLOAT_FMT % c for c in v)
        if colors is not None:
            line += f" {colors[i, 0]} {colors[i, 1]} {colors[i, 2]}"
        out.append(line)
    out.extend(f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles)
    return "\n".join(out) + "\n"
