"""Laplace-Beltrami eigenbasis of a mesh and coefficient-space transport.

The discretization is the classic cotangent stiffness matrix paired with a
lumped (diagonal) mass matrix of barycentric vertex areas.  Eigenpairs of
the generalized problem  S phi = lambda M phi  give a mass-orthonormal,
low-frequency function basis; smooth functions are carried around as their
first n expansion coefficients.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse.linalg
from scipy import sparse

from .mesh import MeshValidationError

__all__ = [
    "SpectralBasis",
    "cotangent_laplacian",
    "eigenbasis",
    "project",
    "save_basis",
    "load_basis",
    "DEFAULT_BASIS_SIZE",
]

DEFAULT_BASIS_SIZE = 20

_CACHE_MAGIC = b"SCB1"


@dataclass(frozen=True)
class SpectralBasis:
    """Mass-orthonormal eigenbasis of the Laplace-Beltrami operator.

    Attributes
    ----------
    functions : (m, n) ndarray
        Eigenfunctions as columns, ascending eigenvalue order.  Sign fixed
        so each column's largest-magnitude entry is positive.
    eigenvalues : (n,) ndarray
        Nonnegative, nondecreasing.
    masses : (m,) ndarray
        Lumped vertex areas defining the inner product.
    """

    functions: np.ndarray
    eigenvalues: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        phi = np.ascontiguousarray(self.functions, dtype=np.float64)
        ev = np.ascontiguousarray(self.eigenvalues, dtype=np.float64)
        mass = np.ascontiguousarray(self.masses, dtype=np.float64)
        object.__setattr__(self, "functions", phi)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "masses", mass)
        if phi.ndim != 2:
            raise ValueError("functions must be a 2-d array")
        m, n = phi.shape
        if ev.shape != (n,):
            raise ValueError(f"expected {n} eigenvalues, got {ev.shape}")
        if mass.shape != (m,):
            raise ValueError(f"expected {m} vertex masses, got {mass.shape}")
        for name, arr in (("functions", phi), ("eigenvalues", ev), ("masses", mass)):
            if not np.isfinite(arr).all():
                raise ValueError(f"basis {name} must be finite")
        if (mass <= 0).any():
            raise ValueError("vertex masses must be positive")
        if (np.diff(ev) < 0).any():
            raise ValueError("eigenvalues must be nondecreasing")
        if (ev < 0).any():
            raise ValueError("eigenvalues must be nonnegative")
        if n >= 2 and ev[1] > 0 and abs(ev[0]) > 1e-8 * ev[1]:
            raise ValueError(
                f"first eigenvalue {ev[0]:g} is not numerically zero "
                f"(second is {ev[1]:g})")
        gram = phi.T @ (phi * mass[:, None])
        dev = np.abs(gram - np.eye(n)).max()
        if dev > 1e-8:
            raise ValueError(
                f"basis is not mass-orthonormal: max Gram deviation {dev:.3e}")
        for arr in (phi, ev, mass):
            arr.setflags(write=False)

    @property
    def num_vertices(self):
        return self.functions.shape[0]

    @property
    def size(self):
        return self.functions.shape[1]


def cotangent_laplacian(mesh):
    """Cotangent stiffness matrix and lumped vertex masses.

    Returns
    -------
    stiffness : (m, m) CSR matrix
        Symmetric positive semidefinite; off-diagonal entry for edge
        (i, j) is -(cot a + cot b) / 2 over the angles opposite the edge
        (a single cotangent on boundary edges), diagonal makes every row
        sum to zero.
    masses : (m,) ndarray
        One third of the incident face area per vertex.

    Raises
    ------
    MeshValidationError
        If a triangle is so close to degenerate that a cotangent
        overflows.
    """
    v = mesh.vertices
    tris = mesh.triangles
    m = mesh.num_vertices

    rows, cols, vals = [], [], []
    for corner in range(3):
        k = tris[:, corner]
        i = tris[:, (corner + 1) % 3]
        j = tris[:, (corner + 2) % 3]
        e1 = v[i] - v[k]
        e2 = v[j] - v[k]
        cross = np.cross(e1, e2)
        denom = np.linalg.norm(cross, axis=1)
        dots = np.einsum("ij,ij->i", e1, e2)
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = dots / denom
        bad = ~np.isfinite(cot) | (np.abs(cot) > 1e12)
        if bad.any():
            face = int(np.flatnonzero(bad)[0])
            raise MeshValidationError(
                f"face {face} is numerically degenerate (cotangent overflow)")
        w = 0.5 * cot
        rows += [i, j]
        cols += [j, i]
        vals += [-w, -w]
    # each vertex collects the weights of its off-diagonal entries, in the
    # order they were emitted, so every row sums to zero
    diag = np.bincount(np.concatenate(rows), weights=-np.concatenate(vals), minlength=m)
    rows.append(np.arange(m))
    cols.append(np.arange(m))
    vals.append(diag)
    stiffness = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m))
    return stiffness, mesh.vertex_areas.copy()


def eigenbasis(stiffness, masses, n=DEFAULT_BASIS_SIZE):
    """Lowest ``n`` eigenpairs of  S phi = lambda M phi  as a SpectralBasis.

    Every size is solved in standard form (Lehoucq, Sorensen & Yang,
    ARPACK Users' Guide, 1998, sec. 3.2): with D = M^(-1/2), the eigenpairs
    of A = D S D are (lambda, y = M^(1/2) phi).  For n < m shift-invert
    Lanczos runs on A with one symmetric minimum-degree LU of A - sigma I,
    from the start vector M^(1/2) x0, which spans the Krylov spaces of the
    generalized solve from x0; ARPACK needs n < m, so n = m is a dense
    symmetric solve of A.  Then phi = y / sqrt(masses), the pairs sorted by
    ascending eigenvalue, each column scaled to unit mass norm and signed so
    that its largest-magnitude entry is positive.
    """
    m = stiffness.shape[0]
    masses = np.asarray(masses, dtype=np.float64)
    if stiffness.shape != (m, m) or masses.shape != (m,):
        raise ValueError("stiffness must be (m, m) and masses (m,)")
    if not (masses > 0).all():
        raise ValueError("vertex masses must be positive")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 1 <= n <= m:
        raise ValueError(f"basis size {n} out of range [1, {m}]")

    root = np.sqrt(masses)
    scale = sparse.diags(1.0 / root)
    a = (scale @ sparse.csc_matrix(stiffness) @ scale).tocsc()
    if n == m:
        ev, y = np.linalg.eigh(a.toarray())
    else:
        # shift just below zero keeps the factorized matrix nonsingular and
        # targets the bottom of the spectrum at any geometric scale; a fixed
        # start vector makes the basis a deterministic function of the mesh
        sigma = -1.0 / float(masses.sum())
        start = np.random.default_rng(0).uniform(-1.0, 1.0, m)
        # A - sigma I is symmetric positive definite: no pivoting needed
        lu = scipy.sparse.linalg.splu(
            a - sigma * sparse.identity(m, format="csc"),
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True})
        try:
            ev, y = scipy.sparse.linalg.eigsh(
                a, k=n, sigma=sigma, which="LM", v0=root * start,
                OPinv=scipy.sparse.linalg.LinearOperator(
                    (m, m), matvec=lu.solve, dtype=np.float64))
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
        # free the factor before the basis and its checks allocate
        del lu, a
    phi = y / root[:, None]

    order = np.argsort(ev)
    ev = ev[order]
    phi = phi[:, order]
    # numerical noise on the zero eigenvalue of a closed mesh
    tiny = ev < 0
    if tiny.any():
        if ev[tiny].min() < -1e-8 * max(ev[-1], 1.0):
            raise RuntimeError(f"eigensolver returned negative eigenvalue {ev.min():g}")
        ev = np.where(tiny, 0.0, ev)
    # exact unit mass-norm per column, then the deterministic sign
    norms = np.sqrt(np.einsum("ij,ij->j", phi, phi * masses[:, None]))
    phi = phi / norms
    peak = np.argmax(np.abs(phi), axis=0)
    flip = phi[peak, np.arange(phi.shape[1])] < 0
    phi = phi * np.where(flip, -1.0, 1.0)
    return SpectralBasis(functions=phi, eigenvalues=ev, masses=masses)


def project(basis, values):
    """Expansion coefficients of a vertex function: a = Phi^T M f."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != basis.num_vertices:
        raise ValueError(
            f"function has {values.shape[0]} values, basis has "
            f"{basis.num_vertices} vertices")
    return basis.functions.T @ (values.T * basis.masses).T


def save_basis(basis, path):
    """Write a basis cache: header (m, n), masses, eigenvalues, functions.

    Little-endian binary; functions are stored row major as float64.
    """
    m, n = basis.num_vertices, basis.size
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<QQ", m, n))
        fh.write(basis.masses.astype("<f8").tobytes())
        fh.write(basis.eigenvalues.astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(basis.functions, dtype="<f8").tobytes())


def load_basis(path):
    """Read a basis cache written by :func:`save_basis`."""
    blob = Path(path).read_bytes()
    head = 4 + 16
    if len(blob) < head or blob[:4] != _CACHE_MAGIC:
        raise ValueError(f"{path}: not a basis cache file")
    m, n = struct.unpack("<QQ", blob[4:head])
    need = head + 8 * (m + n + m * n)
    if len(blob) != need:
        raise ValueError(
            f"{path}: truncated basis cache (expected {need} bytes, got {len(blob)})")
    masses = np.frombuffer(blob, dtype="<f8", count=m, offset=head).copy()
    eigenvalues = np.frombuffer(blob, dtype="<f8", count=n, offset=head + 8 * m).copy()
    functions = np.frombuffer(
        blob, dtype="<f8", count=m * n, offset=head + 8 * (m + n)).reshape(m, n).copy()
    try:
        return SpectralBasis(functions=functions, eigenvalues=eigenvalues, masses=masses)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
