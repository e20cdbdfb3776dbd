"""Error measures, cumulative curves, and the colored-pair export."""

import tracemalloc

import numpy as np
import pytest

import _meshes
import _oracles
from shapecorr import (DEFAULT_THRESHOLDS, ErrorCurve, PointMap,
                       correspondence_error, error_curve, export_colored_ply,
                       refine_icp, save_error_curve, shape_diameter)
from shapecorr import evaluate
from shapecorr.mesh import _parse_ply


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
        with pytest.raises(ValueError, match="not be empty"):
            ErrorCurve(np.array([]), np.array([]))
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

    def test_negative_index_rejected(self):
        # -1 would otherwise index the last vertex and score its distance
        mesh = _meshes.icosphere(2)
        truth = np.arange(mesh.num_vertices)
        predicted = truth.copy()
        predicted[0] = -1
        for args in ((predicted, truth), (truth, predicted)):
            with pytest.raises(ValueError, match="out of range"):
                correspondence_error(*args, mesh)


@pytest.fixture(scope="module")
def jitter_pair(creature4_basis, creature4_jitter_match):
    """A creature4 twin and the refined point map onto it."""
    twin, twin_basis, _, result = creature4_jitter_match
    return twin, refine_icp(creature4_basis, twin_basis,
                            result.functional_map).point_map.indices


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

    def test_small_blocks_start_at_their_chords(self, jitter_pair, rng,
                                                 monkeypatch):
        # three sources per block: each block starts at its own radius
        twin, predicted = jitter_pair
        m = twin.num_vertices
        monkeypatch.setattr(evaluate, "_CHUNK_BYTES", 3 * 8 * m)
        predicted = predicted.copy()
        scrambled = rng.choice(m, size=m // 8, replace=False)
        predicted[scrambled] = rng.integers(0, m, size=len(scrambled))
        truth = rng.integers(0, 300, size=m)
        got = correspondence_error(predicted, truth, twin)
        assert np.array_equal(
            got, _oracles.correspondence_error_dense(predicted, truth, twin))

    @pytest.mark.parametrize("gap", [0.0, 1e-9], ids=["welded", "near"])
    @pytest.mark.parametrize("chunk_rows", [1, None], ids=["one-per-block", "one-block"])
    def test_tiny_chords_across_a_seam(self, monkeypatch, chunk_rows, gap):
        # each wrong image is its truth's twin across the seam: no chord or
        # a 1e-9 one, once around the ring on the graph; each block starts
        # at the shortest edge, not at its chord, and doubles from there
        mesh = _meshes.seamed_ring(gap=gap)
        m, cols = mesh.num_vertices, 13
        if chunk_rows is not None:
            monkeypatch.setattr(evaluate, "_CHUNK_BYTES", chunk_rows * 8 * m)
        limits = []
        search = evaluate.geodesic_distance_matrix
        monkeypatch.setattr(
            evaluate, "geodesic_distance_matrix",
            lambda mesh, sources, limit: limits.append(limit) or search(
                mesh, sources, limit=limit))
        truth = np.arange(m)
        predicted = truth.copy()
        seam = np.arange(0, m, cols)
        predicted[seam] = seam + cols - 1
        chords = np.linalg.norm(mesh.vertices[predicted] - mesh.vertices[truth], axis=1)
        assert chords.max() <= 2 * gap
        got = correspondence_error(predicted, truth, mesh)
        assert np.array_equal(
            got, _oracles.correspondence_error_dense(predicted, truth, mesh))
        assert (got[seam] > 0).all() and not np.delete(got, seam).any()
        shortest = mesh.edge_graph.data.min()
        farthest = got.max() * shape_diameter(mesh)
        passes = 1 + int(np.ceil(np.log2(farthest / shortest)))
        blocks = len(seam) if chunk_rows == 1 else 1
        assert limits == [shortest * 2.0**k for k in range(passes)] * blocks

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
        assert peak < 16 * 2**20


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

    def test_default_grid_is_read_only(self):
        before = DEFAULT_THRESHOLDS.copy()
        with pytest.raises(ValueError, match="read-only"):
            DEFAULT_THRESHOLDS[1] = 0.02
        assert np.array_equal(DEFAULT_THRESHOLDS, before)
        curve = error_curve(np.array([0.0, 0.3]))
        assert np.array_equal(curve.thresholds, before)

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
        _, _, colors_x = _parse_ply(px.read_text())
        verts_y, _, colors_y = _parse_ply(py.read_text())
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
        _, _, colors = _parse_ply(py.read_text())
        assert (colors[:, 2] == colors[0, 2]).all()

    def test_validation(self, tetra, tmp_path):
        with pytest.raises(ValueError, match="covers"):
            export_colored_ply(tetra, tetra, PointMap(np.array([0])),
                               tmp_path / "x.ply", tmp_path / "y.ply")
        with pytest.raises(ValueError, match="out of range"):
            export_colored_ply(tetra, tetra, PointMap(np.array([0, 1, 2, 9])),
                               tmp_path / "x.ply", tmp_path / "y.ply")

    def test_negative_index_rejected(self, tmp_path):
        # a raw array skips PointMap's check; -1 would take the last color
        mesh = _meshes.icosphere(2)
        indices = np.arange(mesh.num_vertices)
        indices[0] = -1
        with pytest.raises(ValueError, match="out of range"):
            export_colored_ply(mesh, mesh, indices, tmp_path / "x.ply", tmp_path / "y.ply")
        assert not (tmp_path / "x.ply").exists()
