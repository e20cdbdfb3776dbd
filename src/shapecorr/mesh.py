"""Triangle mesh loading, validation, measures, and edge-graph geodesics.

A :class:`Mesh` is immutable after construction: the vertex and triangle
arrays are marked read-only and every derived quantity (areas, edges,
the edge-length graph) is cached on first use, so instances can be shared
freely between threads.  Construction and measures are whole-array numpy:
the edges and their face counts come from one ``np.unique`` over integer
edge keys, and vertex areas from one ``np.bincount``.

The readers take a file's content lines from ``str.splitlines``, with
blanks and comments dropped.  The OFF and ASCII PLY readers hand each
element block to ``np.loadtxt`` as one list of those lines, and the OBJ
reader its ``v`` rows and its ``f`` rows.  A block that is cut short or
does not parse as one table is read again line by line, which raises
the error that names the line and the element (and accepts what
Python's ``int``/``float`` accept but numpy does not, such as ``1_0``).
The writers format each block with a single ``%`` call.  PLY vertex colors
are written for ``export``, each an integer in [0, 255], and not read: the
readers return geometry alone.  Arrays read and text written match, bit
for bit, those of the line-wise routes kept in ``tests/_oracles.py``.
"""

from __future__ import annotations

import numbers
import re
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "Mesh",
    "MeshParseError",
    "MeshValidationError",
    "load_mesh",
    "save_mesh",
    "geodesic_distance_matrix",
    "shape_diameter",
]

# full round-trip precision for float64 text output
_FLOAT_FMT = "%.17g"
_VERTEX_FMT = " ".join([_FLOAT_FMT] * 3)

# one past the largest vertex index an int64 holds
_INDEX_END = 2**63


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
        If a vertex index is not an integer or is out of range, a triangle
        has zero area, an edge is shared by more than two triangles, or the
        mesh is not connected.  The message names the offending element.
    """

    def __init__(self, vertices, triangles):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        triangles = np.asarray(triangles)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshValidationError(
                f"vertices must have shape (m, 3), got {vertices.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshValidationError(
                f"triangles must have shape (t, 3), got {triangles.shape}")
        if not _integers(triangles):
            face = next(i for i, tri in enumerate(triangles) if not _integers(tri))
            raise MeshValidationError(f"face {face} has a non-integer vertex index: "
                                      f"{triangles[face].tolist()}")
        if not np.isfinite(vertices).all():
            bad = int(np.flatnonzero(~np.isfinite(vertices).all(axis=1))[0])
            raise MeshValidationError(f"vertex {bad} has a non-finite coordinate")
        self.vertices = vertices
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
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
        counts = self._edge_counts[1]
        if (counts > 2).any():
            bad = int(np.argmax(counts > 2))
            i, j = self.edges[bad]
            raise MeshValidationError(
                f"edge ({i}, {j}) is shared by {int(counts[bad])} faces; "
                "the mesh is not edge-manifold")
        n_comp, labels = csgraph.connected_components(self.edge_graph, directed=False)
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
        # corner 0 of every face, then corner 1, then corner 2
        third = self.triangle_areas / 3.0
        return np.bincount(self.triangles.T.ravel(), weights=np.tile(third, 3),
                           minlength=self.num_vertices)

    @cached_property
    def total_area(self):
        return float(self.triangle_areas.sum())

    @cached_property
    def _edge_counts(self):
        """Keys i*m + j of the undirected edges (i < j), sorted, and how
        many faces hold each; key order is the lexicographic pair order."""
        t = self.triangles
        t2 = t[:, [1, 2, 0]]
        keys = np.minimum(t, t2) * self.num_vertices + np.maximum(t, t2)
        return np.unique(keys.ravel(), return_counts=True)

    @cached_property
    def edges(self):
        """Unique undirected edges as sorted index pairs, shape (e, 2)."""
        return np.column_stack(np.divmod(self._edge_counts[0], self.num_vertices))

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


def geodesic_distance_matrix(mesh, sources, limit=np.inf):
    """Rows of edge-graph distances for several source vertices at once.

    Vertices farther than ``limit`` from a source read ``inf`` in its row;
    the distances within it are the same as without a limit.
    """
    if not limit >= 0:  # NaN is not
        raise ValueError(f"limit must be nonnegative, got {limit!r}")
    sources = _index_vector(sources, mesh.num_vertices, "source")
    # the edge graph is symmetric, so its directed search is the same graph
    # without the transpose and two-sided edge scans of the undirected one
    return csgraph.dijkstra(mesh.edge_graph, directed=True, indices=sources,
                            limit=limit)


def shape_diameter(mesh, sample_count=32):
    """Largest edge-graph distance seen from ``sample_count`` spread sources.

    With ``sample_count >= m`` this is the exact graph diameter; smaller
    counts give a deterministic lower bound that is adequate for
    normalizing correspondence errors.
    """
    _positive_int(sample_count, "sample_count")
    sources = _spread_sample(mesh.num_vertices, sample_count)
    return float(geodesic_distance_matrix(mesh, sources).max())


def _spread_sample(m, count):
    """At most ``count`` distinct, evenly strided indices of ``range(m)``,
    ascending."""
    return np.unique(np.linspace(0, m - 1, min(count, m)).round().astype(np.int64))


def _positive_int(value, name):
    """ValueError naming ``name`` unless ``value`` is an integer of at least 1;
    a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive")


def _integers(raw):
    """Whether an int64 cast keeps each entry: no fraction, NaN, inf or bool."""
    kind = raw.dtype.kind
    return (kind in "iu"
            or kind == "f" and np.isfinite(raw).all() and (np.trunc(raw) == raw).all()
            or kind == "O" and all(isinstance(v, numbers.Integral)
                                   and not isinstance(v, bool) for v in raw.flat))


def _index_vector(values, n, name, count=None):
    """``values`` as a nonempty 1-d int64 vector of ``count`` entries when
    given, each in [0, n), or in [0, 2**63) when ``n`` is None.

    Entries a cast would truncate (0.5) or make up (NaN, inf, a bool) are
    refused, and the range is checked before the cast: numpy holds
    ``[0, 2**63]`` as float64 and ``[0, 10**20]`` as Python ints.
    """
    raw = np.asarray(values)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError(
            f"{name} indices must be a nonempty 1-d array, got shape {raw.shape}")
    if count is not None and len(raw) != count:
        raise ValueError(f"{name} has {len(raw)} entries, expected {count}")
    if not _integers(raw):
        raise ValueError(f"{name} indices must be integers")
    low, high = int(raw.min()), int(raw.max())
    if n is None and low < 0:
        raise ValueError(f"{name} indices must be nonnegative, got {low}")
    end = _INDEX_END if n is None else n
    if low < 0 or high >= end:
        raise ValueError(f"{name} index {low if low < 0 else high} out of range [0, {end})")
    return np.ascontiguousarray(raw, dtype=np.int64)


# -- file formats ----------------------------------------------------------


def _format(path, format):
    """``format``, else the extension of ``path``, as a known format name."""
    formats = tuple(_READERS)
    fmt = (format or Path(path).suffix.lstrip(".")).lower()
    if fmt in formats:
        return fmt
    if format:
        raise ValueError(f"unknown mesh format {format!r}; expected one of {formats}")
    raise ValueError(f"{path}: cannot infer mesh format from extension {fmt!r}; "
                     f"expected one of {formats}")


def load_mesh(path, format=None):
    """Read an OFF, OBJ, or ASCII-PLY file and return a validated Mesh.

    ``format`` is inferred from the file extension when omitted.  A parse
    or validation error keeps its type and names the file.
    """
    reader = _READERS[_format(path, format)]
    try:
        return Mesh(*reader(Path(path).read_text()))
    except (MeshParseError, MeshValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def save_mesh(mesh, path, format=None, colors=None):
    """Write a mesh as OFF, OBJ, or ASCII PLY.

    Coordinates are written with full float64 round-trip precision, so a
    load after save reproduces them bit for bit.  ``colors`` (PLY only) is
    an (m, 3) array of per-vertex RGB for ``export``, which no reader reads
    back; each must equal its uint8 value, an integer in [0, 255].
    """
    fmt = _format(path, format)
    if colors is not None and fmt != "ply":
        raise ValueError("per-vertex colors are only supported by the PLY writer")
    Path(path).write_text(_WRITERS[fmt](mesh) if colors is None else _emit_ply(mesh, colors))


class _Lines:
    """The content lines of a mesh file, with a cursor over them; config,
    region and point-map files read their lines through it as well.

    Each line, numbered as ``str.splitlines`` counts, keeps its text
    before ``cut`` without surrounding blanks; lines then empty or led by
    ``skip`` are dropped.  An element block goes to ``np.loadtxt`` as one
    list of strings; when the file ends inside it or it does not parse as
    one table, ``rescan`` walks the same lines so the format's own error
    is raised.
    """

    def __init__(self, text, cut=None, skip=None):
        lines = text.splitlines()
        if cut and cut in text:
            lines = [line.split(cut, 1)[0] for line in lines]
        self.lines = [(lineno, line)
                      for lineno, line in enumerate(map(str.strip, lines), 1)
                      if line and not (skip and line.startswith(skip))]
        self.next = 0  # index of the next unread content line
        self.block = []  # the lines of the last table
        self.wanted = 0  # how many lines that table asked for

    def take(self, what):
        """Next content line as (lineno, text)."""
        if self.next == len(self.lines):
            raise MeshParseError(f"unexpected end of file while reading {what}")
        self.next += 1
        return self.lines[self.next - 1]

    def table(self, count, dtype):
        """Next ``count`` content lines as one (count, columns) array.

        None when the file ends first or the lines do not parse as one
        table of ``dtype``; ``rescan`` then reads the same lines.
        """
        self.block = self.lines[self.next:self.next + count]
        self.wanted = count
        self.next += len(self.block)
        if len(self.block) < count or count == 0:
            return None
        return _loadtxt([line for _, line in self.block], dtype)

    def rescan(self, what):
        """Yield (i, lineno, tokens) over the last table's lines.

        Raises the end-of-file error after them when the file ended inside
        the block.
        """
        for i, (lineno, line) in enumerate(self.block):
            yield i, lineno, line.split()
        if len(self.block) < self.wanted:
            self.take(f"{what} {len(self.block)}")  # no line is left: raises


def _loadtxt(rows, dtype):
    """Nonempty whitespace-separated text rows as one 2-d array, or None
    when they do not parse as one table of ``dtype``."""
    try:
        return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None


def _floats(tokens, count, lineno, what):
    if len(tokens) != count:
        raise MeshParseError(
            f"line {lineno}: expected {count} numbers for {what}, got {len(tokens)}")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise MeshParseError(f"line {lineno}: bad number in {what}: {exc}") from None


def _faces(lines, count):
    rows = lines.table(count, np.int64)
    # the grammar takes "3" alone as the first token, not "03" or "+3"
    if (rows is not None and rows.shape[1] == 4
            and all(line.startswith(("3 ", "3\t")) for _, line in lines.block)):
        return np.ascontiguousarray(rows[:, 1:])
    tris = np.empty((len(lines.block), 3), dtype=np.int64)
    for i, lineno, tokens in lines.rescan("face"):
        if len(tokens) != 4 or tokens[0] != "3":
            raise MeshParseError(
                f"line {lineno}: face {i} must be '3 i j k' (triangles only)")
        try:
            tris[i] = [int(t) for t in tokens[1:]]
        except ValueError:
            raise MeshParseError(f"line {lineno}: non-integer index in face {i}") from None
        except OverflowError:
            raise MeshParseError(f"line {lineno}: index out of range in face {i}") from None
    return tris


def _count(token, lineno):
    """An element count from a header line: a nonnegative integer."""
    try:
        count = int(token)
    except ValueError:
        raise MeshParseError(f"line {lineno}: non-integer element count") from None
    if count < 0:
        raise MeshParseError(f"line {lineno}: negative element count {count}")
    return count


def _parse_off(text):
    lines = _Lines(text, cut="#")
    lineno, header = lines.take("OFF header")
    tokens = header.split()
    if tokens[0].upper() != "OFF":
        raise MeshParseError(f"line {lineno}: missing OFF header")
    if len(tokens) > 1:
        counts = tokens[1:]
    else:
        lineno, header = lines.take("OFF element counts")
        counts = header.split()
    if len(counts) not in (2, 3):
        raise MeshParseError(f"line {lineno}: expected 'nv nf [ne]' counts")
    nv, nf = _count(counts[0], lineno), _count(counts[1], lineno)
    return _vertices(lines, nv, ("x", "y", "z")), _faces(lines, nf)


def _parse_obj(text):
    lines = _Lines(text, cut="#").lines
    verts = _obj_table(lines, "v", np.float64)
    tris = _obj_table(lines, "f", np.int64)
    if verts is None or tris is None or (tris < 1).any():
        return _parse_obj_lines(lines)
    return verts, tris - 1


def _obj_table(lines, key, dtype):
    """The rest of each OBJ line led by the directive ``key`` as one (n, 3)
    table, or None when those rows do not parse as one.

    The directive is a line's first token: ``key`` alone, or ``key`` and a
    blank.  A face token "i/t/n" counts as index i; one led by "/" does
    not parse.
    """
    rows = [line[1:] for _, line in lines if line[0] == key and not line[1:2].strip()]
    if not rows:
        return np.empty((0, 3), dtype=dtype)
    if "" in rows:  # a lone key, which np.loadtxt would skip as blank
        return None
    if key == "f" and any("/" in row for row in rows):
        rows = re.sub(r"(?<=\S)/\S*", "", "\n".join(rows)).split("\n")
    table = _loadtxt(rows, dtype)
    return table if table is not None and table.shape[1] == 3 else None


def _parse_obj_lines(lines):
    """The OBJ grammar line by line: the error path of :func:`_parse_obj`."""
    verts = []
    tris = []
    for lineno, line in lines:
        tokens = line.split()
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
                if idx > _INDEX_END:  # idx - 1 must fit in int64
                    raise MeshParseError(
                        f"line {lineno}: index out of range in face {len(tris)}")
                face.append(idx - 1)
            tris.append(face)
        # all other directives (vn, vt, usemtl, ...) are ignored
    return np.asarray(verts, dtype=np.float64).reshape(-1, 3), \
        np.asarray(tris, dtype=np.int64).reshape(-1, 3)


def _parse_ply(text):
    lines = _Lines(text, skip="comment")
    lineno, magic = lines.take("PLY magic")
    if magic != "ply":
        raise MeshParseError(f"line {lineno}: not a PLY file (missing 'ply' magic)")
    elements = []  # (name, count, [property names])
    while True:
        lineno, line = lines.take("PLY header")
        tokens = line.split()
        if len(tokens) < {"format": 2, "element": 3}.get(tokens[0], 1):
            raise MeshParseError(f"line {lineno}: incomplete header line {line!r}")
        if tokens[0] == "format":
            if tokens[1] != "ascii":
                raise MeshParseError(
                    f"line {lineno}: only ASCII PLY is supported, got {tokens[1]!r}")
        elif tokens[0] == "element":
            elements.append((tokens[1], _count(tokens[2], lineno), []))
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

    for name, count, props in elements:
        if name == "vertex":
            verts = _vertices(lines, count, props)
        elif name == "face":
            tris = _faces(lines, count)
        else:  # unknown elements are skipped
            for i in range(count):
                lines.take(f"{name} {i}")
    return verts, tris


def _vertices(lines, count, props):
    for axis in ("x", "y", "z"):
        if axis not in props:
            raise MeshParseError(f"PLY vertex element lacks property {axis!r}")
    cols = [props.index(a) for a in ("x", "y", "z")]
    values = lines.table(count, np.float64)
    if values is not None and values.shape[1] == len(props):
        return values[:, cols]
    verts = np.empty((len(lines.block), 3))
    for i, lineno, tokens in lines.rescan("vertex"):
        row = _floats(tokens, len(props), lineno, f"vertex {i}")
        verts[i] = [row[c] for c in cols]
    return verts


def _format_rows(fmt, rows):
    """One ``fmt % row`` line per row of a 2-d array, in a single format call."""
    return ((fmt + "\n") * len(rows)) % tuple(np.ravel(rows).tolist())


def _emit_off(mesh):
    return (f"OFF\n{mesh.num_vertices} {mesh.num_triangles} {len(mesh.edges)}\n"
            + _format_rows(_VERTEX_FMT, mesh.vertices)
            + _format_rows("3 %d %d %d", mesh.triangles))


def _emit_obj(mesh):
    return (_format_rows("v " + _VERTEX_FMT, mesh.vertices)
            + _format_rows("f %d %d %d", mesh.triangles + 1))


def _emit_ply(mesh, colors=None):
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.num_vertices}",
        "property float64 x",
        "property float64 y",
        "property float64 z",
    ]
    if colors is None:
        vertices = _format_rows(_VERTEX_FMT, mesh.vertices)
    else:
        colors = np.asarray(colors)
        if colors.shape != (mesh.num_vertices, 3):
            raise ValueError(
                f"colors must have shape ({mesh.num_vertices}, 3), got {colors.shape}")
        # each color must equal its uint8 value: NaN, 1.5 and 300 do not
        if not np.isin(colors, np.arange(256)).all():
            raise ValueError("colors must be integers in [0, 255]")
        header += ["property uchar red", "property uchar green", "property uchar blue"]
        # 8-bit channels are exact in float64 and print as integers under %d
        vertices = _format_rows(_VERTEX_FMT + " %d %d %d",
                                np.hstack([mesh.vertices, colors]))
    header += [
        f"element face {mesh.num_triangles}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    return "\n".join(header) + "\n" + vertices + _format_rows("3 %d %d %d", mesh.triangles)


# format name -> text parser returning (vertices, triangles)
_READERS = {"off": _parse_off, "obj": _parse_obj, "ply": _parse_ply}
# format name -> text writer
_WRITERS = {"off": _emit_off, "obj": _emit_obj, "ply": _emit_ply}
