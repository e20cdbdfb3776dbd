"""Acceptance gate: every shipped guarantee, one test and one verdict line each.

Each test exercises a full behavior at its stated tolerance and prints
``criterion N (<label>): PASS/FAIL`` with the measured numbers, so a plain
``pytest -v`` run yields exactly one line per criterion and the captured
output carries the margins.
"""

import itertools
import time

import numpy as np
import pytest

import _meshes
import _oracles
from _oracles import lp_constraint_matrix, lp_relaxation_solve
from conftest import CREATURE_DETECTOR
from shapecorr import (SolverOptions, correspondence_error, error_curve,
                       geodesic_distance_matrix, match, prox_l21_rows,
                       prox_weighted_l1, refine_icp, region_coefficients,
                       regions_from_members, save_mesh, shape_diameter,
                       solve_assignment)
from shapecorr.cli import PipelineConfig, run_pipeline
from shapecorr.pursuit import default_weights, solve_robust_sparse_coding


def _verdict(number, label, ok, detail):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_assignment_exactness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        profit = rng.uniform(0.0, 1.0, (6, 8))
        got = solve_assignment(profit)
        got_value = profit[np.arange(6), got.cols].sum()
        _, best_value = _oracles.brute_force_assignment(profit)
        mismatches += got_value != best_value
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _verdict(1, "assignment exactness", ok,
             f"{100 - mismatches}/100 exact, {elapsed:.2f}s (< 5s)")


def test_criterion_2_relaxation_integrality():
    # (a) every square submatrix of the q = 3 constraint matrix is unimodular
    Q = lp_constraint_matrix(3).astype(np.float64)
    worst_det_gap = 0.0
    checked = 0
    for k in range(1, Q.shape[0] + 1):
        for rows in itertools.combinations(range(Q.shape[0]), k):
            sub_rows = Q[list(rows)]
            for cols in itertools.combinations(range(Q.shape[1]), k):
                det = np.linalg.det(sub_rows[:, list(cols)])
                worst_det_gap = max(worst_det_gap,
                                    abs(det - round(det)),
                                    abs(round(det)) - 1 if abs(round(det)) > 1
                                    else 0.0)
                checked += 1
    sub_ok = worst_det_gap < 1e-9

    # (b) random LP relaxations land on integral vertices at the Hungarian value
    rng = np.random.default_rng(1002)
    worst_frac = 0.0
    worst_value_gap = 0.0
    for _ in range(100):
        profit = rng.uniform(0.0, 1.0, (5, 5))
        relaxed = lp_relaxation_solve(profit)
        worst_frac = max(worst_frac, np.abs(relaxed - np.round(relaxed)).max())
        hungarian = profit[np.arange(5), solve_assignment(profit).cols].sum()
        worst_value_gap = max(worst_value_gap,
                              abs(float((relaxed * profit).sum()) - hungarian))
    lp_ok = worst_frac <= 1e-9 and worst_value_gap <= 1e-9
    _verdict(2, "relaxation integrality", sub_ok and lp_ok,
             f"{checked} submatrix dets (max gap {worst_det_gap:.1e}), "
             f"LP integrality {worst_frac:.1e}, value gap {worst_value_gap:.1e} "
             f"(<= 1e-9)")


def test_criterion_3_proximal_oracles():
    rng = np.random.default_rng(1003)
    worst_scalar = 0.0
    for _ in range(1000):
        value = rng.uniform(-2.0, 2.0)
        weight = rng.uniform(0.0, 2.0)
        step = rng.uniform(0.05, 2.0)
        got = float(prox_weighted_l1([value], [weight], step)[0])
        ref = _oracles.grid_prox_scalar(value, weight, step)
        worst_scalar = max(worst_scalar, abs(got - ref))
    worst_row = 0.0
    for _ in range(200):
        row = rng.uniform(-2.0, 2.0, 5)
        step = rng.uniform(0.05, 2.0)
        got = prox_l21_rows(row[None, :], step)[0]
        ref = _oracles.grid_prox_row(row, step)
        worst_row = max(worst_row, float(np.abs(got - ref).max()))
    ok = worst_scalar <= 1e-3 and worst_row <= 1e-3
    _verdict(3, "proximal oracles", ok,
             f"scalar max dev {worst_scalar:.2e}, row max dev {worst_row:.2e} "
             f"(<= 1e-3)")


def test_criterion_4_solver_monotone_and_optimal():
    rng = np.random.default_rng(20260814)
    worst_increase = -np.inf
    worst_residual = 0.0
    options = SolverOptions(accelerated=False, tol=1e-14, max_iter=50000)
    for _ in range(20):
        A = rng.standard_normal((8, 6))
        B = rng.standard_normal((8, 6))
        weights = default_weights(6)
        res = solve_robust_sparse_coding(A, B, weights, options)
        worst_increase = max(worst_increase, np.diff(res.objective_trace).max())
        worst_residual = max(worst_residual,
                             _oracles.optimality_residual(
                                 A, B, res.functional_map, res.outliers,
                                 weights, res.lam, res.mu))
    ok = worst_increase <= 1e-12 and worst_residual <= 1e-5
    _verdict(4, "solver monotone + optimal", ok,
             f"max increase {worst_increase:.1e} (<= 1e-12), "
             f"max residual {worst_residual:.1e} (<= 1e-5)")


def test_criterion_5_self_matching(creature4, creature4_basis, creature4_regions):
    coeffs = region_coefficients(creature4_regions, creature4_basis)
    result = match(coeffs, coeffs)
    q = len(coeffs)
    identity_pi = np.array_equal(result.assignment_matrix, np.eye(q))
    refined = refine_icp(creature4_basis, creature4_basis, result.functional_map)
    frac = float(np.mean(refined.point_map.indices
                         == np.arange(creature4.num_vertices)))
    ok = identity_pi and frac >= 0.99 and result.outer_iterations <= 3
    _verdict(5, "self-matching", ok,
             f"Pi identity: {identity_pi}, identity vertices {frac:.4f} "
             f"(>= 0.99), outer {result.outer_iterations} (<= 3)")


def test_criterion_6_shuffle_equivariance(creature4_basis, creature4_regions):
    coeffs = region_coefficients(creature4_regions, creature4_basis)
    base = match(coeffs, coeffs)
    rng = np.random.default_rng(1006)
    sigma = rng.permutation(len(coeffs))
    shuffled = match(coeffs, coeffs[sigma])
    expected_cols = np.argsort(sigma)[base.assignment.cols]
    pi_ok = np.array_equal(shuffled.assignment.cols, expected_cols)
    map_dev = float(np.abs(shuffled.functional_map - base.functional_map).max())
    ok = pi_ok and map_dev <= 1e-6
    _verdict(6, "shuffle equivariance", ok,
             f"Pi composed exactly: {pi_ok}, map deviation {map_dev:.1e} "
             f"(<= 1e-6)")


def test_criterion_7_jitter_robustness(creature4, creature4_basis,
                                       creature4_jitter_match):
    twin, twin_basis, _, result = creature4_jitter_match
    refined = refine_icp(creature4_basis, twin_basis, result.functional_map)
    truth = np.arange(creature4.num_vertices)
    errors = correspondence_error(refined.point_map, truth, twin)
    mean_error = float(errors.mean())
    frac_good = float(np.mean(errors <= 0.06))

    curve = error_curve(errors)
    monotone = bool((np.diff(curve.fractions) >= 0).all())
    endpoints = (curve.fractions[0] == np.mean(errors == 0.0)
                 and curve.fractions[-1] == np.mean(errors <= 0.25))
    ok = (mean_error <= 0.06 and frac_good >= 0.80 and monotone and endpoints)
    _verdict(7, "jitter robustness", ok,
             f"mean error {mean_error:.4f} (<= 0.06), within 6%: "
             f"{frac_good:.3f} (>= 0.80), curve monotone: {monotone}, "
             f"endpoints exact: {endpoints}")


def test_criterion_8_spurious_regions(creature3, creature3_basis):
    mesh = creature3
    diam = shape_diameter(mesh, 32)
    m = mesh.num_vertices
    q = 12

    def spread_centers(rng):
        start = int(rng.integers(m))
        centers = [start]
        dist = geodesic_distance_matrix(mesh, [start])[0]
        for _ in range(q - 1):
            centers.append(int(np.argmax(dist)))
            dist = np.minimum(dist,
                              geodesic_distance_matrix(mesh, [centers[-1]])[0])
        return centers

    # the target side in two orders: largest-first, mirroring detector
    # output, and shuffled, where no index tie-break can stand in for a
    # nonzero map
    wins = {"sorted": 0, "shuffled": 0}
    all_zero = True
    nonzero_maps = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        centers = spread_centers(rng)
        radii = rng.permutation(np.linspace(0.07, 0.30, q)) * diam
        true_members = geodesic_distance_matrix(mesh, centers) <= radii[:, None]
        spur_centers = rng.integers(0, m, 3)
        spur_radii = rng.uniform(0.04, 0.06, 3) * diam
        spur_members = (geodesic_distance_matrix(mesh, spur_centers)
                        <= spur_radii[:, None])

        base = regions_from_members(true_members, mesh)
        members_x = true_members[np.argsort(-base.area_fractions, kind="stable")]
        stacked = np.vstack([members_x, spur_members])  # rows < q are planted truth
        raw = regions_from_members(stacked, mesh)
        y_orders = {"sorted": np.argsort(-raw.area_fractions, kind="stable"),
                    "shuffled": rng.permutation(len(stacked))}

        rx = regions_from_members(members_x, mesh)
        A = region_coefficients(rx, creature3_basis)
        for name, y_order in y_orders.items():
            ry = regions_from_members(stacked[y_order], mesh)
            B = region_coefficients(ry, creature3_basis)
            result = match(A, B, rx, ry)
            want = np.argsort(y_order)[:q]  # where each planted row landed
            wins[name] += np.array_equal(result.assignment.cols, want)
            nonzero_maps += bool(result.functional_map.any())
            unmatched = np.setdiff1d(np.arange(len(ry)), result.assignment.cols)
            all_zero &= not result.assignment_matrix[:, unmatched].any()

    ok = min(wins.values()) >= 18 and nonzero_maps == 40 and all_zero
    _verdict(8, "spurious regions ignored", ok,
             f"exact pairing in {wins['sorted']}/20 sorted and "
             f"{wins['shuffled']}/20 shuffled trials (>= 18 each), "
             f"C nonzero in {nonzero_maps}/40 (all), "
             f"unmatched columns all zero: {all_zero}")


def test_criterion_9_runtime_5k(tmp_path):
    mesh = _meshes.creature_5k()
    save_mesh(mesh, tmp_path / "x.off")
    save_mesh(mesh, tmp_path / "y.off")
    (tmp_path / "truth.txt").write_text(
        "\n".join(str(i) for i in range(mesh.num_vertices)) + "\n")

    config = PipelineConfig(
        mesh_x=str(tmp_path / "x.off"), mesh_y=str(tmp_path / "y.off"),
        out_dir=str(tmp_path / "out"), basis_size=20,
        num_functions=CREATURE_DETECTOR.num_functions,
        levels=CREATURE_DETECTOR.levels, truth=str(tmp_path / "truth.txt"))
    start = time.perf_counter()
    result = run_pipeline(config)
    elapsed = time.perf_counter() - start
    artifacts_ok = all((tmp_path / "out" / name).exists()
                       for name in ("point_map.txt", "error_curve.txt",
                                    "x_colored.ply", "y_colored.ply"))
    ok = elapsed <= 60.0 and artifacts_ok and result["mean_error"] == 0.0
    _verdict(9, "5k runtime", ok,
             f"{mesh.num_vertices} vertices in {elapsed:.1f}s (<= 60s), "
             f"artifacts complete: {artifacts_ok}, self-pair error "
             f"{result['mean_error']}")
