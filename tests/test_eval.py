"""Error measures, cumulative curves, and the colored-pair export."""

import tracemalloc

import numpy as np
import pytest

import _meshes
import _oracles
from conftest import CREATURE_DETECTOR
from shapecorr import (DEFAULT_THRESHOLDS, ErrorCurve, PointMap, SolverOptions,
                       correspondence_error, cotangent_laplacian,
                       detect_stable_regions, eigenbasis, error_curve,
                       export_colored_ply, match, read_ply, refine_icp,
                       region_coefficients, save_error_curve, shape_diameter)


class TestErrorCurveClass:
    def test_basics(self):
        curve = ErrorCurve(np.array([0.0, 0.1]), np.array([0.5, 1.0]))
        assert curve.thresholds.tolist() == [0.0, 0.1]
        with pytest.raises(ValueError):
            curve.fractions[0] = 0.0

    def test_validation(self):
        good_t = np.array([0.0, 0.1])
        with pytest.raises(ValueError, match="matching 1-d"):
            ErrorCurve(good_t, np.array([0.5]))
        with pytest.raises(ValueError, match="strictly ascending"):
            ErrorCurve(np.array([0.1, 0.1]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
            ErrorCurve(np.array([0.0, 0.6]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ErrorCurve(good_t, np.array([0.5, 1.2]))
        with pytest.raises(ValueError, match="nondecreasing"):
            ErrorCurve(good_t, np.array([1.0, 0.5]))


class TestCorrespondenceError:
    def test_hand_case_on_tetra(self, tetra):
        # every pair of distinct vertices is one unit edge apart
        truth = PointMap(np.array([0, 1, 2, 3]))
        predicted = PointMap(np.array([0, 2, 2, 3]))
        errors = correspondence_error(predicted, truth, tetra, diameter=1.0)
        assert errors == pytest.approx([0.0, 1.0, 0.0, 0.0])

    def test_matches_dense_oracle(self, ico, rng):
        D = _meshes.floyd_warshall(ico)
        diam = D.max()
        truth = rng.integers(0, 12, size=30)
        predicted = rng.integers(0, 12, size=30)
        errors = correspondence_error(predicted, truth, ico)
        expect = D[truth, predicted] / diam
        assert errors == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_diameter_override_rescales(self, ico, rng):
        truth = rng.integers(0, 12, size=10)
        predicted = rng.integers(0, 12, size=10)
        one = correspondence_error(predicted, truth, ico, diameter=1.0)
        two = correspondence_error(predicted, truth, ico, diameter=2.0)
        assert two == pytest.approx(one / 2.0)

    def test_validation(self, tetra):
        with pytest.raises(ValueError, match="entries"):
            correspondence_error(np.array([0, 1]), np.array([0]), tetra)
        with pytest.raises(ValueError, match="out of range"):
            correspondence_error(np.array([0, 9]), np.array([0, 1]), tetra)
        with pytest.raises(ValueError, match="diameter must be positive"):
            correspondence_error(np.array([0]), np.array([1]), tetra, diameter=0.0)


@pytest.fixture(scope="module")
def jitter_pair(creature4, creature4_basis, creature4_regions):
    """A creature4 twin and the refined point map onto it."""
    twin = _meshes.jittered(creature4, scale=0.005, seed=11)
    twin_basis = eigenbasis(*cotangent_laplacian(twin), 20)
    twin_regions = detect_stable_regions(twin, twin_basis, CREATURE_DETECTOR)
    coeffs_x = region_coefficients(creature4_regions, creature4_basis)
    coeffs_y = region_coefficients(twin_regions, twin_basis)
    lam, mu = _meshes.matching_penalties(coeffs_x, coeffs_y)
    result = match(coeffs_x, coeffs_y, creature4_regions, twin_regions,
                   options=SolverOptions(lam=lam, mu=mu))
    refined = refine_icp(creature4_basis, twin_basis, result.functional_map)
    return twin, refined.point_map.indices


class TestMatchesDenseOracle:
    """Bounded, chunked Dijkstra gives the dense route's errors bit for bit."""

    @pytest.mark.parametrize("diameter", [None, 1.0])
    def test_refined_map(self, jitter_pair, diameter):
        twin, predicted = jitter_pair
        truth = np.arange(twin.num_vertices)
        assert (predicted != truth).any()
        got = correspondence_error(predicted, truth, twin, diameter)
        want = _oracles.correspondence_error_dense(predicted, truth, twin, diameter)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("diameter", [None, 1.0])
    def test_far_errors_and_shared_images(self, jitter_pair, rng, diameter):
        # random images land anywhere, up to the diameter and beyond the
        # first search radius; a truth of 40 images gives each source many
        # pairs at different distances
        twin, predicted = jitter_pair
        m = twin.num_vertices
        predicted = predicted.copy()
        scrambled = rng.choice(m, size=m // 4, replace=False)
        predicted[scrambled] = rng.integers(0, m, size=len(scrambled))
        truth = rng.integers(0, 40, size=m)
        got = correspondence_error(predicted, truth, twin, diameter)
        want = _oracles.correspondence_error_dense(predicted, truth, twin, diameter)
        assert np.array_equal(got, want)
        true_diameter = shape_diameter(twin)
        scale = true_diameter if diameter is None else diameter
        assert got.max() * scale > true_diameter / 2  # far past the first radius

    def test_all_exact(self, jitter_pair):
        twin, _ = jitter_pair
        truth = np.arange(twin.num_vertices)
        got = correspondence_error(truth, truth, twin)
        assert np.array_equal(got, _oracles.correspondence_error_dense(truth, truth, twin))
        assert got.dtype == np.float64 and not got.any()

    def test_peak_memory_bounded_at_5k(self):
        # every image is wrong, so all 5,042 rows are needed; the dense
        # route holds them at once (about 200 MB)
        mesh = _meshes.creature_5k()
        truth = np.arange(mesh.num_vertices)
        diameter = shape_diameter(mesh)
        tracemalloc.start()
        try:
            errors = correspondence_error(np.roll(truth, 1), truth, mesh, diameter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (errors > 0).all() and np.isfinite(errors).all()
        assert peak < 64 * 2**20


class TestErrorCurveFunction:
    def test_hand_case(self):
        curve = error_curve(np.array([0.0, 0.05, 0.2]),
                            thresholds=np.array([0.0, 0.1, 0.25]))
        assert curve.fractions == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_threshold_equality_counts(self):
        curve = error_curve(np.array([0.1]), thresholds=np.array([0.05, 0.1]))
        assert curve.fractions.tolist() == [0.0, 1.0]

    def test_default_grid(self):
        assert len(DEFAULT_THRESHOLDS) == 26
        assert DEFAULT_THRESHOLDS[0] == 0.0
        assert DEFAULT_THRESHOLDS[-1] == pytest.approx(0.25)
        assert np.diff(DEFAULT_THRESHOLDS) == pytest.approx(np.full(25, 0.01))
        curve = error_curve(np.array([0.0, 0.3]))
        assert np.array_equal(curve.thresholds, DEFAULT_THRESHOLDS)
        assert curve.fractions[0] == 0.5
        assert curve.fractions[-1] == 0.5  # 0.3 stays above the last threshold

    def test_monotone_on_random_errors(self, rng):
        curve = error_curve(rng.uniform(0.0, 0.4, size=200))
        assert (np.diff(curve.fractions) >= 0).all()

    def test_all_exact(self):
        curve = error_curve(np.zeros(5))
        assert (curve.fractions == 1.0).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            error_curve(np.array([]))
        with pytest.raises(ValueError, match="nonempty"):
            error_curve(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="nonnegative"):
            error_curve(np.array([-0.1]))


class TestSaveCurve:
    def test_round_trip_through_text(self, tmp_path, rng):
        curve = error_curve(rng.uniform(0.0, 0.3, size=50))
        path = tmp_path / "curve.txt"
        save_error_curve(curve, path)
        text = path.read_text().splitlines()
        assert text[0] == "# threshold fraction"
        data = np.loadtxt(path)
        assert data[:, 0] == pytest.approx(curve.thresholds, abs=1e-6)
        assert data[:, 1] == pytest.approx(curve.fractions, abs=1e-12)


class TestExport:
    def test_colors_pull_through_map(self, tmp_path, rng):
        mesh = _meshes.blob(1)
        indices = rng.integers(0, mesh.num_vertices, size=mesh.num_vertices)
        pm = PointMap(indices)
        px, py = tmp_path / "x.ply", tmp_path / "y.ply"
        export_colored_ply(mesh, mesh, pm, px, py)
        _, _, colors_x = read_ply(px)
        verts_y, _, colors_y = read_ply(py)
        assert np.array_equal(colors_x, colors_y[indices])
        assert np.array_equal(verts_y, mesh.vertices)
        # color channels span the coordinate range
        assert colors_y.min() == 0
        assert colors_y.max() == 255

    def test_flat_axis_is_constant_channel(self, tmp_path):
        mesh = _meshes.single_triangle()  # lies in the z = 0 plane
        pm = PointMap(np.arange(3))
        px, py = tmp_path / "x.ply", tmp_path / "y.ply"
        export_colored_ply(mesh, mesh, pm, px, py)
        _, _, colors = read_ply(py)
        assert (colors[:, 2] == colors[0, 2]).all()

    def test_validation(self, tetra, tmp_path):
        with pytest.raises(ValueError, match="covers"):
            export_colored_ply(tetra, tetra, PointMap(np.array([0])),
                               tmp_path / "x.ply", tmp_path / "y.ply")
        with pytest.raises(ValueError, match="out of range"):
            export_colored_ply(tetra, tetra, PointMap(np.array([0, 1, 2, 9])),
                               tmp_path / "x.ply", tmp_path / "y.ply")
