"""Coefficient-space ICP: nearest rows, Procrustes refit, end-to-end polish."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import _meshes
import _oracles
from shapecorr import (PointMap, correspondence_error, cotangent_laplacian,
                       eigenbasis, load_point_map, nearest_rows,
                       orthogonal_procrustes, point_map_from_functional,
                       refine_icp, save_point_map)
from shapecorr import refine as refine_module


def assert_matches_scan(points, queries):
    got = nearest_rows(points, queries)
    assert got.dtype == np.int64
    assert np.array_equal(got, _oracles.nearest_rows_scan(points, queries))
    return got


def nearest_by_float32_argmax(points, queries):
    """The screen without its certificate: argmax of float32 scores."""
    P = np.asarray(points, dtype=np.float32)
    Q = np.asarray(queries, dtype=np.float32)
    return np.argmax(Q @ P.T - 0.5 * np.sum(P * P, axis=1), axis=1)


class TestPointMap:
    def test_basics(self):
        pm = PointMap(np.array([2, 0, 1]))
        assert len(pm) == 3
        assert pm.indices.dtype == np.int64

    def test_immutable(self):
        pm = PointMap(np.array([0, 1]))
        with pytest.raises(ValueError):
            pm.indices[0] = 5

    def test_validation(self):
        with pytest.raises(ValueError, match="1-d"):
            PointMap(np.array([[0, 1]]))
        with pytest.raises(ValueError, match="1-d"):
            PointMap(np.array([], dtype=int))
        with pytest.raises(ValueError, match="nonnegative"):
            PointMap(np.array([0, -1]))

    @pytest.mark.parametrize("bad", [[0.5, 1.7], [0.0, np.nan], [1.0, -np.inf]],
                             ids=["fraction", "nan", "inf"])
    def test_non_integers_rejected(self, bad):
        # a cast would silently truncate [0.5, 1.7] to [0, 1]
        with pytest.raises(ValueError, match="point map indices must be integers"):
            PointMap(np.array(bad))

    def test_malformed_shapes_named(self):
        with pytest.raises(ValueError, match=r"got shape \(0,\)"):
            PointMap(np.array([]))
        with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
            PointMap(np.zeros((2, 2), dtype=int))

    def test_integral_floats_accepted(self):
        pm = PointMap(np.array([2.0, 0.0, 1.0]))
        assert pm.indices.dtype == np.int64 and pm.indices.tolist() == [2, 0, 1]


class TestNearestRows:
    def test_matches_linear_scan(self, rng):
        points = rng.standard_normal((200, 6))
        queries = rng.standard_normal((50, 6))
        got = nearest_rows(points, queries)
        assert np.array_equal(got, _oracles.nearest_rows_scan(points, queries))

    def test_duplicate_rows_tie_to_smallest_index(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        got = nearest_rows(points, np.array([[1.0, 0.1], [1.0, 0.0]]))
        assert got.tolist() == [0, 0]

    def test_equidistant_ties(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        got = nearest_rows(points, np.array([[0.0, 0.0]]))
        assert got.tolist() == [0]

    def test_grid_midpoint_ties_match_scan(self):
        # every query ties between at least two grid points
        grid = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0)),
                        axis=-1).reshape(-1, 2)
        queries = grid[:8] + np.array([0.5, 0.0])
        got = nearest_rows(grid, queries)
        assert np.array_equal(got, _oracles.nearest_rows_scan(grid, queries))

    def test_single_point(self, rng):
        got = nearest_rows(np.array([[1.0, 2.0, 3.0]]), rng.standard_normal((5, 3)))
        assert np.array_equal(got, np.zeros(5, dtype=np.int64))

    @pytest.mark.parametrize("spread", [0.05, None], ids=["near-identity", "far"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_icp_shaped_rows(self, creature4_basis, rng, spread, reverse):
        # the two calls ICP makes: transported rows against eigenbasis rows
        # (refine_icp) and the reverse query (point_map_from_functional)
        raw = rng.standard_normal((20, 20))
        if spread is not None:
            raw = np.eye(20) + spread * raw
        u, _, vt = np.linalg.svd(raw)
        phi = creature4_basis.functions
        transported = phi @ (u @ vt).T
        if reverse:
            assert_matches_scan(transported, phi)
        else:
            assert_matches_scan(phi, transported)

    def test_near_ties_below_float32_resolution(self, rng):
        # pairs of rows 1e-9 apart; queries at their midpoints, some nudged
        # 1e-10 towards the later row, which only float64 can resolve
        base = rng.standard_normal((300, 8))
        direction = rng.standard_normal((300, 8))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        points = np.concatenate([base, base + 1e-9 * direction])
        nudge = np.where(rng.random(300) < 0.5, 1e-10, 0.0)[:, None]
        queries = base + (0.5e-9 + nudge) * direction
        got = assert_matches_scan(points, queries)
        assert (got >= 300).any() and (got < 300).any()
        # the float32 scores alone cannot tell the pairs apart
        assert not np.array_equal(nearest_by_float32_argmax(points, queries), got)

    def test_common_offset(self, rng):
        points = 1e4 + rng.standard_normal((400, 6))
        queries = 1e4 + rng.standard_normal((150, 6))
        got = assert_matches_scan(points, queries)
        assert np.array_equal(got, nearest_rows(points - 1e4, queries - 1e4))

    def test_duplicate_rows_in_bulk(self, rng):
        # every row appears three times; exact ties go to the first copy
        rows = rng.standard_normal((100, 5))
        points = np.concatenate([rows, rows[::-1], rows])
        queries = np.concatenate([rows, rng.standard_normal((100, 5))])
        got = assert_matches_scan(points, queries)
        assert np.array_equal(got[:100], np.arange(100))

    def test_more_queries_than_one_block(self, rng):
        points = rng.standard_normal((300, 7))
        queries = rng.standard_normal((5000, 7))
        # several blocks, the last one partial
        assert len(queries) > 2 * refine_module._BLOCK_BYTES // (4 * len(points))
        assert_matches_scan(points, queries)

    def test_zero_queries(self):
        got = nearest_rows(np.ones((4, 3)), np.ones((0, 3)))
        assert got.shape == (0,)
        assert got.dtype == np.int64

    def test_peak_allocation_is_bounded(self, rng):
        # 5,042 rows as in the 5k benchmark mesh: all scores at once would
        # take 5042^2 float32 = 97 MB; one block of scores takes 2 MB and
        # its mask 0.5 MB
        points = rng.standard_normal((5042, 20))
        queries = rng.standard_normal((5042, 20))
        tracemalloc.start()
        try:
            nearest_rows(points, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError, match="incompatible shapes"):
            nearest_rows(np.ones((3, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="nonempty"):
            nearest_rows(np.ones((0, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            nearest_rows(np.array([[0.0, np.nan]]), np.ones((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            nearest_rows(np.ones((2, 2)), np.array([[np.inf, 0.0]]))


class TestOneThread:
    """Refinement runs on the calling thread; BLAS keeps its own threads."""

    @pytest.fixture()
    def no_threads(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread started: {thread!r}")
        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_nearest_rows(self, rng, no_threads):
        assert_matches_scan(rng.standard_normal((300, 7)),
                            rng.standard_normal((5000, 7)))

    def test_refine_icp(self, creature4, creature4_basis, rng, no_threads):
        init = np.eye(20) + 0.05 * rng.standard_normal((20, 20))
        res = refine_icp(creature4_basis, creature4_basis, init)
        assert len(res.point_map) == creature4.num_vertices


class TestProcrustes:
    def test_recovers_orthonormal_map(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        sources = rng.standard_normal((50, 6))
        got = orthogonal_procrustes(sources @ q.T, sources)
        assert np.allclose(got, q, atol=1e-10)

    def test_recovers_reflection(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        q[0] *= -1.0  # flip one row: determinant -1 stays recoverable
        sources = rng.standard_normal((40, 5))
        got = orthogonal_procrustes(sources @ q.T, sources)
        assert np.allclose(got, q, atol=1e-10)
        assert np.linalg.det(got) < 0

    def test_result_is_orthonormal(self, rng):
        got = orthogonal_procrustes(rng.standard_normal((30, 4)),
                                    rng.standard_normal((30, 4)))
        assert np.allclose(got.T @ got, np.eye(4), atol=1e-12)

    def test_beats_random_orthonormal_candidates(self, rng):
        X = rng.standard_normal((30, 4))
        Y = rng.standard_normal((30, 4))
        best = np.linalg.norm(X - Y @ orthogonal_procrustes(X, Y).T)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            assert best <= np.linalg.norm(X - Y @ q.T) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="row-paired"):
            orthogonal_procrustes(np.ones((3, 2)), np.ones((4, 2)))


class TestRefine:
    def test_identity_is_fixed_point(self, creature3, creature3_basis):
        res = refine_icp(creature3_basis, creature3_basis, np.eye(20))
        assert res.converged
        assert res.iterations == 1
        assert np.array_equal(res.point_map.indices,
                              np.arange(creature3.num_vertices))
        assert res.objective_trace[0] == 0.0
        assert np.allclose(res.functional_map, np.eye(20), atol=1e-10)

    def test_perturbed_identity_recovers(self, creature3, creature3_basis, rng):
        init = np.eye(20) + 0.05 * rng.standard_normal((20, 20))
        res = refine_icp(creature3_basis, creature3_basis, init)
        assert res.converged
        frac = np.mean(res.point_map.indices == np.arange(creature3.num_vertices))
        assert frac >= 0.99
        assert (np.diff(res.objective_trace) <= 1e-9).all()

    def test_jittered_pair_stays_on_truth(self, creature3, creature3_basis):
        twin = _meshes.jittered(creature3, scale=0.005, seed=3)
        basis_y = eigenbasis(*cotangent_laplacian(twin), 20)
        init = orthogonal_procrustes(creature3_basis.functions, basis_y.functions)
        res = refine_icp(creature3_basis, basis_y, init)
        assert res.converged
        frac = np.mean(res.point_map.indices == np.arange(creature3.num_vertices))
        assert frac >= 0.99

    def test_iteration_cap(self, creature3_basis, rng):
        init = np.eye(20) + 0.5 * rng.standard_normal((20, 20))
        res = refine_icp(creature3_basis, creature3_basis, init, max_iters=1)
        assert res.iterations == 1
        assert not res.converged
        assert len(res.objective_trace) == 1

    def test_validation(self, creature3_basis, ico):
        small = eigenbasis(*cotangent_laplacian(ico), 5)
        with pytest.raises(ValueError, match="basis sizes differ"):
            refine_icp(creature3_basis, small, np.eye(20))
        with pytest.raises(ValueError, match="initial map must be"):
            refine_icp(creature3_basis, creature3_basis, np.eye(3))
        for value in (np.nan, np.inf):
            # checked before any product: no RuntimeWarning, no blame on
            # the points or queries of nearest_rows
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="initial map must be finite"):
                    refine_icp(creature3_basis, creature3_basis, np.full((20, 20), value))
                with pytest.raises(ValueError, match="functional map must be finite"):
                    point_map_from_functional(creature3_basis, creature3_basis,
                                              np.full((20, 20), value))
        with pytest.raises(ValueError, match="max_iters"):
            refine_icp(creature3_basis, creature3_basis, np.eye(20), max_iters=0)
        for count in (2.5, float("nan"), True):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                refine_icp(creature3_basis, creature3_basis, np.eye(20), max_iters=count)


class TestSampledFit:
    """refine_icp fits C on a stride sample of target rows; the oracle
    fits it on all of them."""

    def test_equals_all_rows_below_sample_size(self, rng):
        mesh = _meshes.creature(2)
        assert mesh.num_vertices <= refine_module._FIT_ROWS
        basis_x = eigenbasis(*cotangent_laplacian(mesh), 20)
        twin = _meshes.jittered(mesh, scale=0.01, seed=2)
        basis_y = eigenbasis(*cotangent_laplacian(twin), 20)
        init = orthogonal_procrustes(basis_x.functions, basis_y.functions)
        init = init + 0.05 * rng.standard_normal((20, 20))
        got = refine_icp(basis_x, basis_y, init)
        want = _oracles.refine_icp_all_rows(basis_x, basis_y, init)
        assert got.iterations > 1
        assert np.array_equal(got.functional_map, want.functional_map)
        assert np.array_equal(got.point_map.indices, want.point_map.indices)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert np.array_equal(got.objective_trace, want.objective_trace)

    def test_jitter_pair_error_matches_all_rows(self, creature4, creature4_basis,
                                                creature4_jitter_match):
        # the matched map of acceptance criterion 7, refined both ways
        twin, twin_basis, _, matched = creature4_jitter_match
        fmap = matched.functional_map
        assert creature4.num_vertices > refine_module._FIT_ROWS
        truth = np.arange(creature4.num_vertices)
        means = []
        for refine in (refine_icp, _oracles.refine_icp_all_rows):
            result = refine(creature4_basis, twin_basis, fmap)
            errors = correspondence_error(result.point_map, truth, twin)
            assert errors.mean() <= 0.06 and np.mean(errors <= 0.06) >= 0.80
            means.append(errors.mean())
        assert means[0] <= means[1] + 0.005

    def test_only_the_point_map_queries_every_row(self, creature4,
                                                  creature4_basis, rng,
                                                  monkeypatch):
        queried = []
        search = refine_module.nearest_rows
        monkeypatch.setattr(refine_module, "nearest_rows",
                            lambda P, Q: queried.append(len(Q)) or search(P, Q))
        init = np.eye(20) + 0.05 * rng.standard_normal((20, 20))
        res = refine_icp(creature4_basis, creature4_basis, init)
        assert len(queried) == len(res.objective_trace) + 1
        assert max(queried[:-1]) <= refine_module._FIT_ROWS
        assert queried[-1] == creature4.num_vertices


class TestPointMapFromFunctional:
    def test_identity_map_on_same_basis(self, creature3, creature3_basis):
        pm = point_map_from_functional(creature3_basis, creature3_basis, np.eye(20))
        assert np.array_equal(pm.indices, np.arange(creature3.num_vertices))


class TestIO:
    def test_round_trip(self, tmp_path):
        pm = PointMap(np.array([3, 1, 4, 1, 5]))
        path = tmp_path / "map.txt"
        save_point_map(pm, path)
        back = load_point_map(path, num_targets=6)
        assert np.array_equal(back.indices, pm.indices)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# header\n2\n\n0  # trailing note\n1\n")
        back = load_point_map(path)
        assert back.indices.tolist() == [2, 0, 1]

    def test_written_text(self, tmp_path):
        path = tmp_path / "map.txt"
        save_point_map(PointMap(np.array([3, 10, 0, 42])), path)
        assert path.read_text() == "3\n10\n0\n42\n"

    def test_crlf_and_underscores(self, tmp_path):
        # np.loadtxt rejects "1_0"; the line-wise pass reads it as int() does
        path = tmp_path / "map.txt"
        path.write_bytes(b"2\r\n0\r\n1_0\r\n")
        assert load_point_map(path).indices.tolist() == [2, 0, 10]

    def test_two_numbers_on_a_line(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0\n1 2\n")
        with pytest.raises(ValueError, match=r":2: expected a vertex index"):
            load_point_map(path)
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match=r":1: expected a vertex index"):
            load_point_map(path)

    def test_bad_token(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0\n1\nx\n")
        with pytest.raises(ValueError, match=r":3: expected a vertex index"):
            load_point_map(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="empty point map"):
            load_point_map(path)

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0\n7\n")
        with pytest.raises(ValueError, match="out of range"):
            load_point_map(path, num_targets=7)

    @pytest.mark.parametrize("text", ["0\n99999999999999999999\n",
                                      "0\n9223372036854775808\n"], ids=["huge", "2**63"])
    def test_beyond_int64_names_line(self, tmp_path, text):
        path = tmp_path / "map.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=r":2: vertex index \d+ out of range"):
            load_point_map(path)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0\n-2\n")
        with pytest.raises(ValueError, match="nonnegative"):
            load_point_map(path)
