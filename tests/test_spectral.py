"""Cotangent discretization, eigenbasis, transport, and the cache format."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import _meshes
import _oracles
from shapecorr import (
    Mesh,
    MeshValidationError,
    SpectralBasis,
    cotangent_laplacian,
    eigenbasis,
    load_basis,
    project,
    save_basis,
)


def stiffness_oracle(mesh):
    """Per-triangle angle assembly: cot of the explicit corner angle."""
    out = np.zeros((mesh.num_vertices, mesh.num_vertices))
    for a, b, c in mesh.triangles:
        for k, i, j in ((a, b, c), (b, c, a), (c, a, b)):
            e1 = mesh.vertices[i] - mesh.vertices[k]
            e2 = mesh.vertices[j] - mesh.vertices[k]
            cos = e1 @ e2 / (np.linalg.norm(e1) * np.linalg.norm(e2))
            angle = np.arccos(np.clip(cos, -1.0, 1.0))
            w = 0.5 / np.tan(angle)
            out[i, j] -= w
            out[j, i] -= w
            out[i, i] += w
            out[j, j] += w
    return out


class TestCotangent:
    @pytest.mark.parametrize("make", [
        _meshes.single_triangle, _meshes.square_diagonal,
        _meshes.tetrahedron, _meshes.icosahedron, lambda: _meshes.blob(1),
    ])
    def test_matches_angle_assembly(self, make):
        mesh = make()
        stiffness, masses = cotangent_laplacian(mesh)
        assert np.allclose(stiffness.toarray(), stiffness_oracle(mesh),
                           rtol=1e-10, atol=1e-12)
        assert np.array_equal(masses, mesh.vertex_areas)

    def test_equilateral_triangle_weights(self):
        stiffness, masses = cotangent_laplacian(_meshes.single_triangle())
        dense = stiffness.toarray()
        off = -1.0 / (2.0 * np.sqrt(3.0))  # cot 60 deg / 2
        expect = np.full((3, 3), off)
        np.fill_diagonal(expect, -2 * off)
        assert np.allclose(dense, expect)
        assert masses == pytest.approx(np.full(3, np.sqrt(3) / 12))

    def test_square_diagonal_weights(self):
        # right angles opposite the diagonal make its weight vanish
        dense = cotangent_laplacian(_meshes.square_diagonal())[0].toarray()
        assert dense[0, 2] == pytest.approx(0.0, abs=1e-15)
        assert dense[0, 1] == pytest.approx(-0.5)
        assert dense[1, 2] == pytest.approx(-0.5)

    def test_rows_sum_to_zero_and_symmetric(self, creature4):
        stiffness, _ = cotangent_laplacian(creature4)
        assert np.abs(np.asarray(stiffness.sum(axis=1))).max() < 1e-12
        assert abs(stiffness - stiffness.T).max() < 1e-14

    @pytest.mark.parametrize("make", [
        lambda: _meshes.blob(2), lambda: _meshes.creature(4), _meshes.creature_5k,
    ], ids=["blob2", "creature4", "creature_5k"])
    def test_diagonal_matches_add_at(self, make):
        mesh = make()
        stiffness, _ = cotangent_laplacian(mesh)
        assert np.array_equal(stiffness.diagonal(), _oracles.cotangent_diagonal_add_at(mesh))

    def test_positive_semidefinite(self, ico):
        dense = cotangent_laplacian(ico)[0].toarray()
        assert np.linalg.eigvalsh(dense).min() > -1e-12

    def test_near_degenerate_face_named(self):
        v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-16, 0.0]])
        mesh = Mesh(v, np.array([[0, 1, 2]]))  # passes the area check
        with pytest.raises(MeshValidationError, match="face 0.*cotangent"):
            cotangent_laplacian(mesh)


class TestEigenbasis:
    def test_sphere_spectrum(self):
        mesh = _meshes.icosphere(3)
        stiffness, masses = cotangent_laplacian(mesh)
        basis = eigenbasis(stiffness, masses, 9)
        ev = basis.eigenvalues
        # l(l+1) with multiplicity 2l+1 on the unit sphere
        assert ev[0] <= 1e-10
        assert ev[1:4] == pytest.approx(np.full(3, 2.0), rel=0.02)
        assert ev[4:9] == pytest.approx(np.full(5, 6.0), rel=0.03)

    def test_constant_first_function(self, creature4, creature4_basis):
        expect = 1.0 / np.sqrt(creature4.total_area)
        assert creature4_basis.functions[:, 0] == pytest.approx(
            np.full(creature4.num_vertices, expect), rel=1e-6)

    def test_mass_orthonormal(self, creature4_basis):
        phi = creature4_basis.functions
        gram = phi.T @ (phi * creature4_basis.masses[:, None])
        assert np.abs(gram - np.eye(creature4_basis.size)).max() < 1e-8

    def test_eigen_residual(self, creature4, creature4_basis):
        stiffness, masses = cotangent_laplacian(creature4)
        phi, ev = creature4_basis.functions, creature4_basis.eigenvalues
        resid = stiffness @ phi - (phi * masses[:, None]) * ev
        assert np.abs(resid).max() < 1e-8 * max(ev.max(), 1.0)

    def test_sign_convention(self, creature4_basis):
        phi = creature4_basis.functions
        peak = np.argmax(np.abs(phi), axis=0)
        assert (phi[peak, np.arange(phi.shape[1])] > 0).all()

    def test_dense_and_sparse_paths_agree(self):
        mesh = _meshes.blob(3)  # 642 vertices, simple low spectrum
        stiffness, masses = cotangent_laplacian(mesh)
        sparse = eigenbasis(stiffness, masses, 12)
        ev, phi = scipy.linalg.eigh(stiffness.toarray(), np.diag(masses),
                                    subset_by_index=[0, 11])
        assert sparse.eigenvalues == pytest.approx(np.maximum(ev, 0.0),
                                                   rel=1e-8, abs=1e-8)
        dots = np.einsum("ij,ij->j", phi, sparse.functions * masses[:, None])
        assert np.abs(dots) == pytest.approx(np.ones(12), abs=1e-7)

    def test_deterministic(self, creature4):
        # ARPACK draws its start vector at random unless one is given
        stiffness, masses = cotangent_laplacian(creature4)
        first = eigenbasis(stiffness, masses, 20)
        again = eigenbasis(stiffness, masses, 20)
        assert np.array_equal(first.functions, again.functions)
        assert np.array_equal(first.eigenvalues, again.eigenvalues)

    @pytest.mark.parametrize("drop", [1, 0], ids=["n=m-1", "n=m"])
    def test_basis_of_all_vertices(self, ico, drop):
        # ARPACK takes n up to m - 1; n = m needs the dense solve
        stiffness, masses = cotangent_laplacian(ico)
        n = ico.num_vertices - drop
        basis = eigenbasis(stiffness, masses, n)
        ev = scipy.linalg.eigh(stiffness.toarray(), np.diag(masses),
                               eigvals_only=True)[:n]
        assert basis.eigenvalues == pytest.approx(np.maximum(ev, 0.0),
                                                  rel=1e-10, abs=1e-10)
        phi = basis.functions
        resid = stiffness @ phi - (phi * masses[:, None]) * basis.eigenvalues
        assert np.abs(resid).max() < 1e-8 * basis.eigenvalues.max()

    @pytest.mark.parametrize("n", [9, 16, 20])
    def test_degenerate_sphere_clusters(self, n):
        # eigenvalue clusters of multiplicity 3, 5 and 7; a start vector
        # not mapped into the standard form loses a member of a cluster
        stiffness, masses = cotangent_laplacian(_meshes.icosphere(3))
        basis = eigenbasis(stiffness, masses, n)
        ev = scipy.linalg.eigh(stiffness.toarray(), np.diag(masses),
                               eigvals_only=True, subset_by_index=[0, n - 1])
        assert basis.eigenvalues == pytest.approx(np.maximum(ev, 0.0),
                                                  rel=1e-8, abs=1e-10)
        phi = basis.functions
        resid = stiffness @ phi - (phi * masses[:, None]) * basis.eigenvalues
        assert np.abs(resid).max() < 1e-8 * basis.eigenvalues.max()

    def test_scaling_law(self):
        base = _meshes.blob(2)
        doubled = Mesh(2.0 * base.vertices, base.triangles)
        ev_base = eigenbasis(*cotangent_laplacian(base), 8).eigenvalues
        ev_doubled = eigenbasis(*cotangent_laplacian(doubled), 8).eigenvalues
        assert ev_doubled[1:] == pytest.approx(ev_base[1:] / 4.0, rel=1e-9)

    def test_size_out_of_range(self, tetra):
        stiffness, masses = cotangent_laplacian(tetra)
        with pytest.raises(ValueError, match="out of range"):
            eigenbasis(stiffness, masses, 0)
        with pytest.raises(ValueError, match="out of range"):
            eigenbasis(stiffness, masses, 5)
        with pytest.raises(ValueError, match=r"basis size 2.0 out of range \[1, 4\]"):
            eigenbasis(stiffness, masses, 2.0)
        with pytest.raises(ValueError, match=r"basis size True out of range \[1, 4\]"):
            eigenbasis(stiffness, masses, True)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_nonpositive_mass_rejected(self, ico, bad):
        # the standard form divides by sqrt(masses)
        stiffness, masses = cotangent_laplacian(ico)
        masses = masses.copy()
        masses[3] = bad
        with pytest.raises(ValueError, match="vertex masses must be positive"):
            eigenbasis(stiffness, masses, 5)

    @pytest.mark.parametrize("fault, error, message", [
        ("stiffness", ValueError, r"stiffness must be \(m, m\) and masses \(m,\)"),
        ("masses", ValueError, r"stiffness must be \(m, m\) and masses \(m,\)"),
        ("arpack", RuntimeError, "eigensolver did not converge: ARPACK error -1"),
        ("negative", RuntimeError, "eigensolver returned negative eigenvalue -1"),
    ], ids=["stiffness", "masses", "arpack", "negative"])
    def test_input_checks_and_stalls(self, ico, monkeypatch, fault, error, message):
        stiffness, masses = cotangent_laplacian(ico)
        if fault == "stiffness":
            stiffness = stiffness[:, :-1]
        elif fault == "masses":
            masses = masses[:-1]
        elif fault == "arpack":
            def stalled(*args, **kwargs):
                raise scipy.sparse.linalg.ArpackNoConvergence(
                    "ARPACK error -1: No convergence", np.zeros(0), np.zeros((12, 0)))
            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        else:
            # far below the noise floor -1e-8 max(lambda_max, 1) of a zero eigenvalue
            def negative(*args, **kwargs):
                return np.array([-1.0, 0.0, 1.0, 2.0, 3.0]), np.eye(12)[:, :5]
            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", negative)
        with pytest.raises(error, match=message):
            eigenbasis(stiffness, masses, 5)

    def test_accepts_dense_stiffness(self, tetra):
        stiffness, masses = cotangent_laplacian(tetra)
        a = eigenbasis(stiffness, masses, 3)
        b = eigenbasis(stiffness.toarray(), masses, 3)
        assert np.allclose(a.eigenvalues, b.eigenvalues)


class TestBasisValidation:
    def make_args(self):
        masses = np.array([0.5, 0.5])
        phi = np.array([[1.0, 1.0], [1.0, -1.0]])
        ev = np.array([0.0, 2.0])
        return phi, ev, masses

    def test_valid(self):
        phi, ev, masses = self.make_args()
        basis = SpectralBasis(functions=phi, eigenvalues=ev, masses=masses)
        assert basis.num_vertices == 2
        assert basis.size == 2
        with pytest.raises(ValueError):
            basis.functions[0, 0] = 9.0

    def test_rejects_bad_pieces(self):
        phi, ev, masses = self.make_args()
        with pytest.raises(ValueError, match="eigenvalues"):
            SpectralBasis(functions=phi, eigenvalues=ev[:1], masses=masses)
        with pytest.raises(ValueError, match="masses must be positive"):
            SpectralBasis(functions=phi, eigenvalues=ev, masses=masses * -1)
        with pytest.raises(ValueError, match="nondecreasing"):
            SpectralBasis(functions=phi[:, ::-1], eigenvalues=ev[::-1], masses=masses)
        with pytest.raises(ValueError, match="nonnegative"):
            SpectralBasis(functions=phi, eigenvalues=np.array([-2.0, 0.0]),
                          masses=masses)
        with pytest.raises(ValueError, match="not numerically zero"):
            SpectralBasis(functions=phi, eigenvalues=np.array([1.0, 2.0]),
                          masses=masses)
        with pytest.raises(ValueError, match="not mass-orthonormal"):
            SpectralBasis(functions=phi * 1.1, eigenvalues=ev, masses=masses)

    @pytest.mark.parametrize("cut, message", [
        (lambda phi, ev, masses: (phi[0], ev, masses), "functions must be a 2-d array"),
        (lambda phi, ev, masses: (phi, ev, masses[:1]), r"expected 2 vertex masses, got \(1,\)"),
    ], ids=["1-d-functions", "short-masses"])
    def test_rejects_bad_shapes(self, cut, message):
        phi, ev, masses = cut(*self.make_args())
        with pytest.raises(ValueError, match=message):
            SpectralBasis(functions=phi, eigenvalues=ev, masses=masses)


class TestTransport:
    def test_round_trip_coefficients(self, creature4_basis, rng):
        a = rng.standard_normal((creature4_basis.size, 4))
        back = project(creature4_basis, creature4_basis.functions @ a)
        assert np.allclose(back, a, atol=1e-10)

    def test_constant_projects_to_first(self, creature4, creature4_basis):
        a = project(creature4_basis, np.ones(creature4.num_vertices))
        assert a[0] == pytest.approx(np.sqrt(creature4.total_area))
        assert np.abs(a[1:]).max() < 1e-7

    def test_vector_and_matrix_agree(self, creature4_basis, rng):
        f = rng.standard_normal((creature4_basis.num_vertices, 3))
        batch = project(creature4_basis, f)
        for k in range(3):
            assert batch[:, k] == pytest.approx(project(creature4_basis, f[:, k]),
                                                rel=1e-13, abs=1e-13)

    def test_nested_bases_agree(self, creature4, rng):
        stiffness, masses = cotangent_laplacian(creature4)
        small = eigenbasis(stiffness, masses, 6)
        f = rng.standard_normal(creature4.num_vertices)
        big_coeffs = project(eigenbasis(stiffness, masses, 12), f)
        assert project(small, f) == pytest.approx(big_coeffs[:6], abs=1e-8)

    def test_shape_errors(self, creature4_basis):
        with pytest.raises(ValueError, match="vertices"):
            project(creature4_basis, np.ones(3))


class TestCache:
    def test_round_trip_bit_exact(self, creature4_basis, tmp_path):
        path = tmp_path / "basis.bin"
        save_basis(creature4_basis, path)
        back = load_basis(path)
        assert np.array_equal(back.functions, creature4_basis.functions)
        assert np.array_equal(back.eigenvalues, creature4_basis.eigenvalues)
        assert np.array_equal(back.masses, creature4_basis.masses)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "basis.bin"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError, match="not a basis cache"):
            load_basis(path)

    def test_rejects_truncation(self, creature4_basis, tmp_path):
        path = tmp_path / "basis.bin"
        save_basis(creature4_basis, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_basis(path)
