"""Alternating matcher: recovery on real regions, mechanics on synthetics."""

from dataclasses import replace

import numpy as np
import pytest

import _meshes
import shapecorr.matcher
from conftest import CREATURE_DETECTOR
from shapecorr import (SolverOptions, cotangent_laplacian, detect_stable_regions,
                       eigenbasis, match, region_coefficients,
                       regions_from_members, write_match_report)
from shapecorr.pursuit import resolve_penalties


@pytest.fixture(scope="module")
def coeffs3(creature3_regions, creature3_basis):
    return region_coefficients(creature3_regions, creature3_basis)


@pytest.fixture(scope="module")
def options3(coeffs3):
    lam, mu = _meshes.matching_penalties(coeffs3, coeffs3)
    return SolverOptions(lam=lam, mu=mu)


class TestRecovery:
    """Behavior on genuine region coefficients of the limbed test shape."""

    def test_self_match_is_identity(self, coeffs3, options3):
        res = match(coeffs3, coeffs3, options=options3)
        q = len(coeffs3)
        assert np.array_equal(res.assignment.cols, np.arange(q))
        assert np.array_equal(res.assignment_matrix, np.eye(q))
        assert res.converged
        assert res.outer_iterations <= 4
        assert not res.swapped

    def test_clean_pair_has_no_outliers(self, coeffs3, options3):
        res = match(coeffs3, coeffs3, options=options3)
        assert not res.outliers.any()

    def test_subset_swap_orientation(self, coeffs3, options3):
        # drop the smallest regions on the target side, forcing q > r
        kept = 60
        res = match(coeffs3, coeffs3[:kept], options=options3)
        assert res.swapped
        assert res.assignment is None
        M = res.assignment_matrix
        assert M.shape == (len(coeffs3), kept)
        assert np.array_equal(M[:kept], np.eye(kept))
        assert not M[kept:].any()
        # outliers belong to the internally swapped source side
        assert res.outliers.shape == (kept, coeffs3.shape[1])

    def test_shuffle_equivariance(self, coeffs3, options3, rng):
        base = match(coeffs3, coeffs3, options=options3)
        sigma = rng.permutation(len(coeffs3))
        shuffled = match(coeffs3, coeffs3[sigma], options=options3)
        expect = np.argsort(sigma)[base.assignment.cols]
        assert np.array_equal(shuffled.assignment.cols, expect)
        assert np.abs(shuffled.functional_map - base.functional_map).max() <= 1e-12

    def test_deterministic(self, coeffs3, options3):
        first = match(coeffs3, coeffs3, options=options3)
        second = match(coeffs3, coeffs3, options=options3)
        assert np.array_equal(first.assignment.cols, second.assignment.cols)
        assert np.array_equal(first.functional_map, second.functional_map)
        assert np.array_equal(first.objective_trace, second.objective_trace)


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
        lam, mu = _meshes.matching_penalties(*coeffs)
        iterations = []
        solve = shapecorr.matcher.solve_robust_sparse_coding

        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(shapecorr.matcher, "solve_robust_sparse_coding", counted)
        match(*coeffs, *regions, options=SolverOptions(lam=lam, mu=mu))
        assert 0 < sum(iterations) <= 1000

class TestMechanics:
    def test_trace_length_matches_iterations(self, rng):
        A = rng.standard_normal((6, 4))
        res = match(A, rng.standard_normal((8, 4)),
                    options=SolverOptions(lam=0.01, mu=1.0))
        assert len(res.objective_trace) == res.outer_iterations
        assert np.isfinite(res.objective_trace).all()
        assert res.assignment_matrix.shape == (6, 8)
        assert res.assignment_matrix.sum(axis=1).tolist() == [1.0] * 6

    def test_outer_cap(self, rng):
        A = rng.standard_normal((6, 4))
        res = match(A, rng.standard_normal((8, 4)), max_outer=1,
                    options=SolverOptions(lam=0.01, mu=1.0))
        assert res.outer_iterations == 1
        assert not res.converged

    @pytest.mark.parametrize("setting, message", [
        ({"max_outer": 0}, "max_outer must be positive"),
        ({"outer_tol": np.nan}, "outer_tol must be finite"),
    ])
    def test_loop_settings_rejected(self, rng, setting, message):
        A = rng.standard_normal((6, 4))
        with pytest.raises(ValueError, match=message):
            match(A, rng.standard_normal((8, 4)), **setting,
                  options=SolverOptions(lam=0.01, mu=1.0))

    def test_pursuit_cap_flags_unconverged(self, coeffs3, options3):
        # the outer loop settles, but its last pursuit stopped at max_iter
        res = match(coeffs3, coeffs3, options=replace(options3, max_iter=1))
        assert res.outer_iterations < 10
        assert not res.converged

    def test_explicit_penalties_echoed(self, rng):
        A = rng.standard_normal((5, 3))
        res = match(A, A, options=SolverOptions(lam=0.123, mu=0.456))
        assert res.lam == 0.123
        assert res.mu == 0.456

    def test_auto_penalties_resolve_from_uniform_start(self, rng):
        A = rng.standard_normal((5, 3))
        B = rng.standard_normal((7, 3))
        res = match(A, B)
        expect_lam, expect_mu = resolve_penalties(A, np.full((5, 7), 1 / 7) @ B)
        assert res.lam == expect_lam
        assert res.mu == expect_mu

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


class TestReport:
    def test_content_and_determinism(self, rng, tmp_path):
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((6, 3))
        res = match(A, B, options=SolverOptions(lam=0.01, mu=1.0))
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
