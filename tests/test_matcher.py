"""Alternating matcher: recovery on real regions, mechanics on synthetics."""

import numpy as np
import pytest

import _meshes
import shapecorr.matcher
from conftest import CREATURE_DETECTOR
from shapecorr import (SolverOptions, correspondence_error, cotangent_laplacian,
                       detect_stable_regions, eigenbasis, match, refine_icp,
                       region_coefficients, regions_from_members,
                       write_match_report)
from shapecorr.pursuit import resolve_penalties


@pytest.fixture(scope="module")
def coeffs3(creature3_regions, creature3_basis):
    return region_coefficients(creature3_regions, creature3_basis)


class TestRecovery:
    """Behavior on genuine region coefficients of the limbed test shape."""

    def test_self_match_is_identity(self, coeffs3):
        res = match(coeffs3, coeffs3)
        q = len(coeffs3)
        assert np.array_equal(res.assignment.cols, np.arange(q))
        assert np.array_equal(res.assignment_matrix, np.eye(q))
        assert res.converged
        assert res.outer_iterations <= 4
        assert not res.swapped

    def test_clean_pair_has_no_outliers(self, coeffs3):
        res = match(coeffs3, coeffs3)
        assert not res.outliers.any()

    def test_subset_swap_orientation(self, coeffs3):
        # drop the smallest regions on the target side, forcing q > r
        kept = 60
        res = match(coeffs3, coeffs3[:kept])
        assert res.swapped
        assert res.assignment is None
        M = res.assignment_matrix
        assert M.shape == (len(coeffs3), kept)
        assert np.array_equal(M[:kept], np.eye(kept))
        assert not M[kept:].any()
        # outliers belong to the internally swapped source side
        assert res.outliers.shape == (kept, coeffs3.shape[1])

    def test_shuffle_equivariance(self, coeffs3, rng):
        base = match(coeffs3, coeffs3)
        sigma = rng.permutation(len(coeffs3))
        shuffled = match(coeffs3, coeffs3[sigma])
        expect = np.argsort(sigma)[base.assignment.cols]
        assert np.array_equal(shuffled.assignment.cols, expect)
        assert np.abs(shuffled.functional_map - base.functional_map).max() <= 1e-12

    def test_deterministic(self, coeffs3):
        first = match(coeffs3, coeffs3)
        second = match(coeffs3, coeffs3)
        assert np.array_equal(first.assignment.cols, second.assignment.cols)
        assert np.array_equal(first.functional_map, second.functional_map)
        assert np.array_equal(first.objective_trace, second.objective_trace)

    def test_jitter_pair_both_orientations_at_defaults(
            self, creature4, creature4_basis, creature4_regions,
            creature4_jitter_match):
        # criterion 7's pair with default options, each mesh as the source;
        # creature4 has more regions than its twin, so x -> y runs swapped
        twin, twin_basis, twin_regions, forward = creature4_jitter_match
        backward = match(region_coefficients(twin_regions, twin_basis),
                         region_coefficients(creature4_regions, creature4_basis),
                         twin_regions, creature4_regions)
        assert forward.swapped and not backward.swapped
        truth = np.arange(twin.num_vertices)
        for result, (basis_x, basis_y, mesh_y) in (
                (forward, (creature4_basis, twin_basis, twin)),
                (backward, (twin_basis, creature4_basis, creature4))):
            assert not result.degenerate
            refined = refine_icp(basis_x, basis_y, result.functional_map)
            errors = correspondence_error(refined.point_map, truth, mesh_y)
            assert errors.mean() <= 0.06

    def test_pursuit_iterations_on_5k_twin(self, monkeypatch):
        # the joint (C, O) iteration ran 1,948 pursuit iterations on this
        # pair: O's curvature is 1 against sigma_max(A)^2 of about 500
        mesh = _meshes.creature_5k()
        twin = _meshes.jittered(mesh, 0.005, 1)
        regions, coeffs = [], []
        for shape in (mesh, twin):
            basis = eigenbasis(*cotangent_laplacian(shape), 20)
            regions.append(detect_stable_regions(shape, basis, CREATURE_DETECTOR))
            coeffs.append(region_coefficients(regions[-1], basis))
        iterations = []
        solve = shapecorr.matcher.solve_robust_sparse_coding

        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(shapecorr.matcher, "solve_robust_sparse_coding", counted)
        match(*coeffs, *regions)
        assert 0 < sum(iterations) <= 1000

class TestMechanics:
    def test_trace_length_matches_iterations(self, rng):
        A = rng.standard_normal((6, 4))
        res = match(A, rng.standard_normal((8, 4)))
        assert len(res.objective_trace) == res.outer_iterations
        assert np.isfinite(res.objective_trace).all()
        assert res.assignment_matrix.shape == (6, 8)
        assert res.assignment_matrix.sum(axis=1).tolist() == [1.0] * 6

    def test_outer_cap(self, rng):
        A = rng.standard_normal((6, 4))
        res = match(A, rng.standard_normal((8, 4)), max_outer=1)
        assert res.outer_iterations == 1
        assert not res.converged

    @pytest.mark.parametrize("setting, message", [
        ({"max_outer": 0}, "max_outer must be positive"),
        ({"max_outer": float("nan")}, "max_outer must be an integer, got nan"),
        ({"max_outer": 2.5}, "max_outer must be an integer, got 2.5"),
        ({"weights": -np.ones((4, 4))}, "weights must be finite and nonnegative"),
        ({"weights": np.full((4, 4), np.nan)}, "weights must be finite and nonnegative"),
    ])
    def test_loop_settings_rejected(self, rng, setting, message):
        A = rng.standard_normal((6, 4))
        with pytest.raises(ValueError, match=message):
            match(A, rng.standard_normal((8, 4)), **setting)

    @pytest.mark.parametrize("coeffs_x, coeffs_y, options", [
        (np.full((3, 5), np.nan), np.ones((4, 5)), None),
        (np.ones((3, 5)), np.full((4, 5), np.inf), None),
        (np.full((5, 5), np.inf), np.ones((4, 5)), None),
        (np.ones((3, 5)), np.vstack([np.ones((3, 5)), np.full((1, 5), np.nan)]),
         SolverOptions(lam=0.1, mu=1.0)),
    ], ids=["nan-source", "inf-target", "inf-source-swapped", "nan-row-given-penalties"])
    def test_non_finite_coefficients_rejected(self, coeffs_x, coeffs_y, options):
        # blamed before on lam, on mu, or on a diverged objective
        with pytest.raises(ValueError, match="coefficients must be finite"):
            match(coeffs_x, coeffs_y, options=options)

    def test_pursuit_cap_flags_unconverged(self, coeffs3):
        # the outer loop settles, but its last pursuit stopped at max_iter
        res = match(coeffs3, coeffs3, options=SolverOptions(max_iter=1))
        assert res.outer_iterations < 10
        assert not res.converged

    def test_explicit_penalties_echoed(self, rng):
        A = rng.standard_normal((5, 3))
        res = match(A, A, options=SolverOptions(lam=0.123, mu=0.456))
        assert res.lam == 0.123
        assert res.mu == 0.456

    def test_auto_penalties_resolve_from_callers_coefficients(self, rng):
        A = rng.standard_normal((5, 3))
        B = rng.standard_normal((7, 3))
        # 0.3 max|A^T A| / q on the caller's A, 0.3 median row norm of B;
        # the swapped call (q > r) resolves in the caller's orientation too
        for X, Y in ((A, B), (B, A)):
            res = match(X, Y)
            assert res.swapped == (len(X) > len(Y))
            assert res.lam == 0.3 * np.abs(X.T @ X).max() / len(X)
            assert res.mu == 0.3 * np.median(np.linalg.norm(Y, axis=1))
            assert (res.lam, res.mu) == resolve_penalties(X, Y)

    def test_degenerate_flag(self, coeffs3):
        assert not match(coeffs3, coeffs3).degenerate
        priced_out = match(coeffs3, coeffs3, options=SolverOptions(lam=1e6))
        assert not priced_out.functional_map.any()
        assert priced_out.degenerate

    def test_prune_forces_area_consistent_pairs(self, tetra):
        members = np.zeros((2, 4), dtype=bool)
        members[0, [0, 1, 2]] = True
        members[1, 0] = True
        rx = regions_from_members(members, tetra)
        ry = regions_from_members(members, tetra)
        # coefficients engineered to prefer the crossed pairing
        cx = np.array([[0.0, 1.0], [1.0, 0.0]])
        cy = np.array([[1.0, 0.0], [0.0, 1.0]])
        opts = SolverOptions(lam=1e-4, mu=10.0)
        free = match(cx, cy, options=opts)
        forced = match(cx, cy, rx, ry, prune_ratio=2.0, options=opts)
        assert np.array_equal(free.assignment.cols, [1, 0])
        assert np.array_equal(forced.assignment.cols, [0, 1])

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError, match="incompatible coefficient shapes"):
            match(np.ones((3, 4)), np.ones((2, 5)))
        # an empty set on either side, the larger one first or second
        with pytest.raises(ValueError, match=r"shapes \(0, 10\) and \(3, 10\)"):
            match(np.zeros((0, 10)), np.ones((3, 10)))
        with pytest.raises(ValueError, match=r"shapes \(3, 10\) and \(0, 10\)"):
            match(np.ones((3, 10)), np.zeros((0, 10)))


class TestReport:
    def test_content_and_determinism(self, rng, tmp_path):
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((6, 3))
        res = match(A, B)
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_match_report(res, first)
        write_match_report(res, second)
        assert first.read_bytes() == second.read_bytes()

        lines = first.read_text().splitlines()
        assert lines[0] == "# region match report"
        assert "rows = 4" in lines
        assert "cols = 6" in lines
        assert f"outer_iterations = {res.outer_iterations}" in lines
        start = lines.index("assignment_pairs:") + 1
        end = lines.index("outlier_row_norms:")
        pairs = [tuple(map(int, ln.split())) for ln in lines[start:end]]
        assert pairs == list(enumerate(res.assignment.cols.tolist()))
        assert len(lines) - end - 1 == 4
