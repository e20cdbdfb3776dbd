"""Synthetic test meshes and independent oracles shared by the test suite."""

import numpy as np

from shapecorr import Mesh

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def single_triangle():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3) / 2, 0.0]])
    return Mesh(v, np.array([[0, 1, 2]]))


def square_diagonal():
    """Unit square split along the diagonal into two right triangles."""
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    t = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(v, t)


def tetrahedron(edge=1.0):
    """Regular tetrahedron with the given edge length (closed surface)."""
    v = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                  [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    v *= edge / (2.0 * np.sqrt(2.0))
    t = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return Mesh(v, t)


def icosahedron():
    """Unit-circumradius icosahedron."""
    a, b = 1.0, GOLDEN
    v = np.array([
        [-a, b, 0], [a, b, 0], [-a, -b, 0], [a, -b, 0],
        [0, -a, b], [0, a, b], [0, -a, -b], [0, a, -b],
        [b, 0, -a], [b, 0, a], [-b, 0, -a], [-b, 0, a],
    ], dtype=float)
    v /= np.linalg.norm(v[0])
    t = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    return Mesh(v, t)


def icosphere(level=2):
    """Unit sphere by repeated 4-way subdivision of the icosahedron.

    Vertex counts by level: 12, 42, 162, 642, 2562, 10242.
    """
    base = icosahedron()
    verts = list(base.vertices)
    tris = base.triangles
    for _ in range(level):
        cache = {}
        new_tris = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                cache[key] = len(verts) - 1
            return cache[key]

        for i, j, k in tris:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_tris += [[i, ij, ki], [j, jk, ij], [k, ki, jk], [ij, jk, ki]]
        tris = np.array(new_tris)
    return Mesh(np.array(verts), tris)


def uv_sphere(n_lat=70, n_lon=72):
    """Latitude-longitude sphere triangulation; n_lat * n_lon + 2 vertices."""
    lat = np.linspace(0.0, np.pi, n_lat + 2)[1:-1]
    lon = np.linspace(0.0, 2.0 * np.pi, n_lon, endpoint=False)
    grid_lat, grid_lon = np.meshgrid(lat, lon, indexing="ij")
    verts = np.column_stack([
        (np.sin(grid_lat) * np.cos(grid_lon)).ravel(),
        (np.sin(grid_lat) * np.sin(grid_lon)).ravel(),
        np.cos(grid_lat).ravel(),
    ])
    north = len(verts)
    south = north + 1
    verts = np.vstack([verts, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])

    def vid(i, j):
        return i * n_lon + j % n_lon

    tris = []
    for j in range(n_lon):
        tris.append([north, vid(0, j), vid(0, j + 1)])
        tris.append([south, vid(n_lat - 1, j + 1), vid(n_lat - 1, j)])
    for i in range(n_lat - 1):
        for j in range(n_lon):
            tris.append([vid(i, j), vid(i + 1, j), vid(i, j + 1)])
            tris.append([vid(i, j + 1), vid(i + 1, j), vid(i + 1, j + 1)])
    return Mesh(verts, np.array(tris))


# fixed bump pattern: directions never aligned with coordinate axes so no
# accidental symmetry survives
_BUMPS = [
    ((0.8, 0.5, 0.33), 0.35, 0.45),
    ((-0.3, 0.9, -0.3), -0.22, 0.35),
    ((-0.6, -0.5, 0.62), 0.28, 0.3),
    ((0.2, -0.7, -0.68), -0.18, 0.5),
    ((0.05, 0.25, 0.97), 0.2, 0.25),
]
_STRETCH = np.array([1.0, 0.84, 0.71])


def blob(level=4, base=None):
    """Asymmetric closed test shape: gently bumpy, stretched sphere.

    Radial Gaussian bumps at fixed skew directions plus an anisotropic
    stretch kill all sphere symmetries, so the low spectrum is simple and
    eigenfunctions are stable under small perturbations.
    """
    sphere = base if base is not None else icosphere(level)
    v = sphere.vertices.copy()
    radius = np.ones(len(v))
    for direction, amplitude, width in _BUMPS:
        d = np.asarray(direction, dtype=float)
        d /= np.linalg.norm(d)
        angle = np.arccos(np.clip(v @ d, -1.0, 1.0))
        radius += amplitude * np.exp(-((angle / width) ** 2))
    return Mesh(v * radius[:, None] * _STRETCH, sphere.triangles)


# limb directions, relative lengths, relative widths: all distinct so every
# limb mode lands at its own eigenvalue
_LIMBS = [
    ((0.8, 0.5, 0.33), 2.2, 0.35),
    ((-0.3, 0.9, -0.3), 2.53, 0.331),
    ((-0.6, -0.5, 0.62), 1.87, 0.352),
    ((0.2, -0.7, -0.68), 2.2, 0.373),
    ((0.05, 0.25, 0.97), 2.53, 0.308),
]
_LIMB_STRETCH = np.array([1.0, 0.92, 0.85])


def creature(level=4, base=None):
    """Five-limbed closed test shape for correspondence experiments.

    Long flat-top protrusions (sixth-power radial profile) give the shape
    limb structure: low eigenfunctions localize on the limbs and level-set
    areas stall at the limb necks, which is what the region detector keys
    on.  All limbs differ in length and width, so the spectrum is simple
    and stable under small perturbations.
    """
    sphere = base if base is not None else icosphere(level)
    v = sphere.vertices.copy()
    radius = np.ones(len(v))
    for direction, amplitude, width in _LIMBS:
        d = np.asarray(direction, dtype=float)
        d /= np.linalg.norm(d)
        angle = np.arccos(np.clip(v @ d, -1.0, 1.0))
        radius += amplitude * np.exp(-((angle / width) ** 6))
    return Mesh(v * radius[:, None] * _LIMB_STRETCH, sphere.triangles)


def seamed_ring(rows=3, cols=13, radius=1.0, width=0.5, gap=0.0):
    """A strip bent into a ring whose ends meet at a seam of duplicates.

    Column ``cols - 1`` lies ``gap`` radians short of column 0 and shares
    no edge with it, so vertex ``r * cols`` and vertex ``r * cols + cols - 1``
    are about ``gap * radius`` apart in space (zero by default) and once
    around the ring apart on the graph.
    """
    angle = np.linspace(0.0, 2.0 * np.pi, cols)
    angle[-1] = -gap  # cos/sin of 2 pi would miss the first column by an ulp
    height = np.linspace(0.0, width, rows)
    v = np.array([[radius * np.cos(a), radius * np.sin(a), h]
                  for h in height for a in angle])
    t = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            a, b = r * cols + c, r * cols + c + 1
            t += [[a, b, b + cols], [a, b + cols, a + cols]]
    return Mesh(v, np.array(t))


def creature_5k():
    """A ~5k-vertex variant of the creature for runtime tests."""
    return creature(base=uv_sphere(70, 72))


def jittered(mesh, scale=0.005, seed=7):
    """Copy of a mesh with vertices perturbed by uniform noise in a ball.

    ``scale`` is relative to the geodesic diameter, matching how
    perturbation strength is quoted for correspondence robustness.
    """
    from shapecorr import shape_diameter

    rng = np.random.default_rng(seed)
    diam = shape_diameter(mesh, 32)
    noise = rng.standard_normal(mesh.vertices.shape)
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, len(noise)) ** (1.0 / 3.0)
    return Mesh(mesh.vertices + noise * radii[:, None] * scale * diam,
                mesh.triangles)


def floyd_warshall(mesh):
    """Dense all-pairs shortest paths on the edge graph; oracle for Dijkstra."""
    m = mesh.num_vertices
    dist = np.full((m, m), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in mesh.edges:
        d = np.linalg.norm(mesh.vertices[i] - mesh.vertices[j])
        dist[i, j] = min(dist[i, j], d)
        dist[j, i] = min(dist[j, i], d)
    for k in range(m):
        dist = np.minimum(dist, dist[:, k][:, None] + dist[k, :][None, :])
    return dist
