"""Proximal maps, step bound, and the forward-backward solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _meshes
import _oracles
from conftest import CREATURE_DETECTOR
from shapecorr import (
    SolverOptions,
    cotangent_laplacian,
    default_weights,
    detect_stable_regions,
    eigenbasis,
    prox_l21_rows,
    prox_weighted_l1,
    region_coefficients,
    resolve_penalties,
    solve_robust_sparse_coding,
    step_size,
)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
small_pos = st.floats(min_value=0.0, max_value=5.0,
                      allow_nan=False, allow_infinity=False)


class TestWeights:
    def test_known_values(self):
        assert np.array_equal(default_weights(3),
                              [[1, 2, 3], [2, 1, 2], [3, 2, 1]])
        assert np.array_equal(default_weights(4, power=0.0), np.ones((4, 4)))
        assert np.array_equal(default_weights(2, power=2.0), [[1, 4], [4, 1]])

    def test_bad_size(self):
        with pytest.raises(ValueError, match="positive"):
            default_weights(0)
        with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
            default_weights(2.5)
        with pytest.raises(ValueError, match="n must be an integer, got True"):
            default_weights(True)

    @pytest.mark.parametrize("n, power, message", [
        (3, np.nan, "power must be nonnegative"),
        (3, -1.0, "power must be nonnegative"),
        (20, 1000.0, "weights overflow: 20"),
        (2, np.inf, "weights overflow: 2"),
    ])
    def test_bad_power(self, n, power, message):
        # a negative power makes the off-diagonal entries the cheap ones
        with pytest.raises(ValueError, match=message):
            default_weights(n, power)


class TestProxL1:
    def test_matches_grid_search(self, rng):
        values = rng.uniform(-3, 3, 50)
        weights = rng.uniform(0, 2, 50)
        got = prox_weighted_l1(values, weights, 0.7)
        for v, w, g in zip(values, weights, got):
            assert g == pytest.approx(_oracles.grid_prox_scalar(v, w, 0.7),
                                      abs=1e-3)

    @settings(max_examples=200, deadline=None)
    @given(value=finite, weight=small_pos, step=small_pos, other=finite)
    def test_never_beaten(self, value, weight, step, other):
        # the prox objective at the claimed minimizer vs any other point
        def f(u):
            return 0.5 * (u - value) ** 2 + step * weight * abs(u)

        u = float(prox_weighted_l1([value], [weight], step)[0])
        assert f(u) <= f(other) + 1e-12

    @given(value=finite, weight=small_pos)
    def test_zero_step_is_identity(self, value, weight):
        assert prox_weighted_l1([value], [weight], 0.0)[0] == value

    def test_exact_zeros_and_shrink(self):
        got = prox_weighted_l1([3.0, -3.0, 0.5], [1.0, 1.0, 4.0], 1.0)
        assert np.array_equal(got, [2.0, -2.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            prox_weighted_l1(np.ones(3), np.ones(4), 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            prox_weighted_l1(np.ones(3), np.ones(3), -1.0)


class TestProxL21:
    def test_matches_grid_search(self, rng):
        rows = rng.uniform(-2, 2, (30, 5))
        got = prox_l21_rows(rows, 0.9)
        for row, g in zip(rows, got):
            assert g == pytest.approx(_oracles.grid_prox_row(row, 0.9),
                                      abs=1e-3)

    def test_never_beaten(self, rng):
        rows = rng.standard_normal((20, 4))
        step = 0.8
        got = prox_l21_rows(rows, step)

        def f(u, row):
            return 0.5 * np.sum((u - row) ** 2) + step * np.linalg.norm(u)

        for row, g in zip(rows, got):
            for _ in range(20):
                other = rng.standard_normal(4) * 2
                assert f(g, row) <= f(other, row) + 1e-12

    def test_small_rows_vanish_exactly(self):
        rows = np.array([[0.3, 0.4], [3.0, 4.0], [0.0, 0.0]])
        got = prox_l21_rows(rows, 1.0)
        assert np.array_equal(got[0], [0.0, 0.0])  # norm 0.5 <= 1
        assert np.array_equal(got[2], [0.0, 0.0])
        assert got[1] == pytest.approx(np.array([3.0, 4.0]) * (4.0 / 5.0))

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            prox_l21_rows(np.ones(3), 1.0)


class TestStepSize:
    def test_identity_dictionary(self):
        assert step_size(np.eye(5)) == pytest.approx(1.0)

    def test_zero_dictionary_clamps_to_one(self):
        assert step_size(np.zeros((4, 3))) == 1.0

    def test_matches_singular_value_oracle(self, rng):
        for _ in range(10):
            A = rng.standard_normal((rng.integers(2, 9), rng.integers(2, 9)))
            oracle = np.linalg.svd(A, compute_uv=False)[0] ** 2
            assert step_size(A) == pytest.approx(oracle, rel=1e-12)

    def test_matches_dense_hessian(self, rng):
        A = rng.standard_normal((6, 4))
        assert step_size(A) == pytest.approx(np.linalg.eigvalsh(A.T @ A)[-1],
                                             rel=1e-5)

    def test_bounds_hessian_of_region_coefficients(self):
        # the 1/L step behind the monotone unaccelerated trace needs
        # step_size >= L itself, not an estimate from below
        mesh = _meshes.creature_5k()
        basis = eigenbasis(*cotangent_laplacian(mesh), 20)
        A = region_coefficients(
            detect_stable_regions(mesh, basis, CREATURE_DETECTOR), basis)
        assert A.shape == (91, 20)
        assert step_size(A) >= np.linalg.eigvalsh(A.T @ A)[-1] * (1 - 1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty 2-d"):
            step_size(np.empty((0, 3)))
        with pytest.raises(ValueError, match="nonempty 2-d"):
            step_size(np.ones(3))


class TestObjective:
    def test_hand_computed(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        B = np.array([[2.0, 0.0], [0.0, 2.0]])
        C = np.array([[1.0, 0.0], [0.0, 1.0]])
        O = np.array([[0.5, 0.0], [0.0, 0.0]])
        W = np.ones((2, 2))
        # residual [[0.5, 0], [0, 1]]; quad 0.5*(0.25+1); l1 2; rows 0.5
        got = _oracles.objective(A, B, C, O, W, lam=0.3, mu=2.0)
        assert got == pytest.approx(0.5 * 1.25 + 0.3 * 2.0 + 2.0 * 0.5)

    def test_resolve_penalties_formula(self):
        # lam = 0.3 max|A^T A| / q: A^T A = diag(1, 4) over q = 2 rows;
        # mu = 0.3 median row norm of B: the median of 5, 1 and 1
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        B = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 1.0]])
        lam, mu = resolve_penalties(A, B)
        assert lam == pytest.approx(0.6)
        assert mu == pytest.approx(0.3)
        # a given value passes through; only the missing one is computed
        assert resolve_penalties(A, B, lam=2.5) == (2.5, mu)
        assert resolve_penalties(A, B, mu=0.0) == (lam, 0.0)


def random_problem(rng, q=8, n=6):
    A = rng.standard_normal((q, n))
    B = rng.standard_normal((q, n))
    return A, B


class TestSolver:
    def test_monotone_without_acceleration(self, rng):
        for _ in range(5):
            A, B = random_problem(rng)
            res = solve_robust_sparse_coding(
                A, B, options=SolverOptions(accelerated=False, tol=1e-10))
            diffs = np.diff(res.objective_trace)
            scale = max(1.0, abs(res.objective_trace[0]))
            assert (diffs <= 1e-12 * scale).all()

    def test_reaches_stationarity(self, rng):
        W = default_weights(6)
        for _ in range(5):
            A, B = random_problem(rng)
            res = solve_robust_sparse_coding(
                A, B, W, SolverOptions(tol=1e-14, max_iter=50000))
            assert res.converged
            slack = _oracles.optimality_residual(A, B, res.functional_map,
                                                 res.outliers, W, res.lam, res.mu)
            assert slack <= 1e-5

    def test_identity_dictionary_closed_form(self, rng):
        # with A = I and outliers priced out, C is the soft threshold of B
        B = rng.standard_normal((5, 5)) * 2
        W = np.ones((5, 5))
        lam = 0.4
        res = solve_robust_sparse_coding(
            np.eye(5), B, W,
            SolverOptions(lam=lam, mu=100.0, tol=1e-15, max_iter=20000))
        expect = prox_weighted_l1(B, W, lam)
        assert np.allclose(res.functional_map, expect, atol=1e-8)
        assert np.array_equal(res.outliers, np.zeros((5, 5)))

    def test_huge_l1_pushes_everything_to_outliers(self, rng):
        # with C priced out the problem is the row shrinkage of B
        B = rng.standard_normal((5, 3)) * 3
        A = rng.standard_normal((5, 3))
        mu = 0.5
        res = solve_robust_sparse_coding(
            A, B, options=SolverOptions(lam=1e6, mu=mu, tol=1e-15,
                                        max_iter=20000))
        assert np.array_equal(res.functional_map, np.zeros((3, 3)))
        assert np.allclose(res.outliers, prox_l21_rows(B, mu), atol=1e-8)

    def test_trace_starts_at_initial_objective(self, rng):
        A, B = random_problem(rng, 4, 3)
        res = solve_robust_sparse_coding(A, B, options=SolverOptions(max_iter=5))
        # C = 0 with its best O leaves the Huber value of each row of B
        norms = np.linalg.norm(B, axis=1)
        start = np.where(norms <= res.mu, 0.5 * norms ** 2,
                         res.mu * norms - 0.5 * res.mu ** 2).sum()
        assert res.objective_trace[0] == pytest.approx(start)
        assert len(res.objective_trace) == res.iterations + 1

    def test_warm_start_resumes_at_solution(self, rng):
        A, B = random_problem(rng, 6, 4)
        opts = SolverOptions(tol=1e-12, max_iter=20000)
        first = solve_robust_sparse_coding(A, B, options=opts)
        again = solve_robust_sparse_coding(
            A, B, options=SolverOptions(lam=first.lam, mu=first.mu, tol=1e-12),
            initial_map=first.functional_map)
        assert again.objective_trace[0] == pytest.approx(first.objective_trace[-1])
        assert again.iterations < first.iterations
        assert again.objective_trace[-1] <= first.objective_trace[-1] + 1e-9

    def test_nan_input_raises(self, rng):
        A, B = random_problem(rng, 4, 3)
        B[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="diverged"):
            solve_robust_sparse_coding(A, B)

    def test_max_iter_reached_flags_unconverged(self, rng):
        A, B = random_problem(rng)
        # small explicit penalties: the defaults can make C = 0 optimal at once
        res = solve_robust_sparse_coding(
            A, B, options=SolverOptions(lam=0.01, mu=1.0, tol=1e-16,
                                        max_iter=3))
        assert not res.converged
        assert res.iterations == 3

    def test_shape_validation(self, rng):
        A, B = random_problem(rng, 4, 3)
        with pytest.raises(ValueError, match="weights"):
            solve_robust_sparse_coding(A, B, weights=np.ones((2, 2)))
        with pytest.raises(ValueError, match="target has"):
            solve_robust_sparse_coding(A, B[:3])
        with pytest.raises(ValueError, match="initial map"):
            solve_robust_sparse_coding(A, B, initial_map=np.zeros((2, 2)))

    @pytest.mark.parametrize("call, message", [
        (lambda: prox_l21_rows(np.ones((2, 3)), -0.5), "step must be nonnegative"),
        (lambda: solve_robust_sparse_coding(np.ones(4), np.ones((4, 3))),
         "dictionary and target must be 2-d"),
        (lambda: solve_robust_sparse_coding(np.ones((4, 3)), np.ones(4)),
         "dictionary and target must be 2-d"),
        (lambda: solve_robust_sparse_coding(np.zeros((0, 5)), np.zeros((0, 5))),
         r"empty coefficient set: shapes \(0, 5\) and \(0, 5\)"),
        # a negative weight makes the l1 term concave: no minimum to find
        (lambda: solve_robust_sparse_coding(
            np.ones((8, 4)), np.ones((8, 4)), -np.ones((4, 4)),
            SolverOptions(lam=0.5, mu=1.0)), "weights must be finite and nonnegative"),
        (lambda: solve_robust_sparse_coding(
            np.ones((8, 4)), np.ones((8, 4)), np.full((4, 4), np.nan)),
         "weights must be finite and nonnegative"),
        (lambda: solve_robust_sparse_coding(
            np.ones((8, 4)), np.ones((8, 4)), np.full((4, 4), np.inf)),
         "weights must be finite and nonnegative"),
    ], ids=["prox-negative-step", "1-d-dictionary", "1-d-target", "empty",
            "negative-weights", "nan-weights", "inf-weights"])
    def test_input_checks(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_options_validation(self):
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
                SolverOptions(lam=lam)
        for mu in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
                SolverOptions(mu=mu)
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                SolverOptions(tol=tol)
        with pytest.raises(ValueError, match="max_iter"):
            SolverOptions(max_iter=0)
        with pytest.raises(ValueError, match="max_iter must be an integer, got 10.5"):
            SolverOptions(max_iter=10.5)
        with pytest.raises(ValueError, match="max_iter must be an integer, got True"):
            SolverOptions(max_iter=True)


class TestAgainstJointOracle:
    """The reduced iteration against the joint (C, O) forward-backward loop."""

    def test_objective_no_higher_than_joint(self, rng):
        W = default_weights(6)
        for _ in range(5):
            A, B = random_problem(rng)
            res = solve_robust_sparse_coding(
                A, B, W, SolverOptions(tol=1e-14, max_iter=50000))
            C, O = _oracles.solve_joint_pursuit(A, B, W, res.lam, res.mu,
                                                tol=1e-14, max_iter=200000)
            ours = _oracles.objective(A, B, res.functional_map, res.outliers,
                                      W, res.lam, res.mu)
            joint = _oracles.objective(A, B, C, O, W, res.lam, res.mu)
            assert ours <= joint + 1e-9 * abs(joint)

    def test_returned_pair_is_stationary(self, rng):
        # penalties that keep C nonzero and leave some rows inliers.  At
        # tol=1e-14 the objective-change rule can stop on a flat turn of
        # the momentum ripple short of 1e-5 slack (5 of 200 draws here,
        # 12 of 200 for the joint loop), so this runs to 1e-15.
        W = default_weights(5)
        for _ in range(5):
            A, B = random_problem(rng, 10, 5)
            res = solve_robust_sparse_coding(
                A, B, W, SolverOptions(lam=0.05, mu=0.8, tol=1e-15,
                                       max_iter=50000))
            rows = np.linalg.norm(res.outliers, axis=1) > 0
            assert rows.any() and not rows.all()
            assert np.count_nonzero(res.functional_map) > 0
            slack = _oracles.optimality_residual(A, B, res.functional_map,
                                                 res.outliers, W, res.lam, res.mu)
            assert slack <= 1e-5

    def test_outliers_are_closed_form_of_final_map(self, rng):
        for _ in range(5):
            A, B = random_problem(rng)
            res = solve_robust_sparse_coding(A, B)
            expect = prox_l21_rows(B - A @ res.functional_map, res.mu)
            assert np.array_equal(res.outliers, expect)

    def test_trace_is_joint_objective_at_best_outliers(self, rng):
        A, B = random_problem(rng)
        W = default_weights(6)
        res = solve_robust_sparse_coding(A, B, W)
        joint = _oracles.objective(A, B, res.functional_map, res.outliers,
                                   W, res.lam, res.mu)
        assert res.objective_trace[-1] == pytest.approx(joint, rel=1e-12)


class TestDegenerateInputs:
    """Edge cases run with every floating-point warning raised."""

    def test_zero_dictionary(self, rng):
        B = rng.standard_normal((5, 3))
        with np.errstate(all="raise"):
            res = solve_robust_sparse_coding(
                np.zeros((5, 3)), B, options=SolverOptions(lam=0.1, mu=0.5))
        assert np.array_equal(res.functional_map, np.zeros((3, 3)))
        assert np.array_equal(res.outliers, prox_l21_rows(B, 0.5))
        assert res.converged

    def test_zero_target_rows(self, rng):
        A = rng.standard_normal((6, 3))
        B = rng.standard_normal((6, 3))
        B[[1, 4]] = 0.0
        with np.errstate(all="raise"):
            res = solve_robust_sparse_coding(
                A, B, options=SolverOptions(lam=0.05, mu=0.5))
        assert np.isfinite(res.functional_map).all()
        assert np.isfinite(res.objective_trace).all()
        with np.errstate(all="raise"):
            zero = solve_robust_sparse_coding(A, np.zeros((6, 3)))
        assert np.array_equal(zero.functional_map, np.zeros((3, 3)))
        assert np.array_equal(zero.outliers, np.zeros((6, 3)))

    def test_zero_mu_writes_every_row_off(self, rng):
        A, B = random_problem(rng)
        with np.errstate(all="raise"):
            res = solve_robust_sparse_coding(A, B, options=SolverOptions(mu=0.0))
        assert np.array_equal(res.functional_map, np.zeros((6, 6)))
        assert np.array_equal(res.outliers, B)
        assert res.converged

    def test_zero_lam(self, rng):
        A, B = random_problem(rng)
        W = default_weights(6)
        with np.errstate(all="raise"):
            res = solve_robust_sparse_coding(
                A, B, W, SolverOptions(lam=0.0, mu=0.5, tol=1e-14,
                                       max_iter=50000))
        slack = _oracles.optimality_residual(A, B, res.functional_map,
                                             res.outliers, W, 0.0, 0.5)
        assert slack <= 1e-5


class TestOptimalityResidual:
    def test_zero_at_closed_form_solution(self, rng):
        B = rng.standard_normal((4, 4))
        W = np.ones((4, 4))
        lam = 0.3
        C = prox_weighted_l1(B, W, lam)
        resid_rows = np.linalg.norm(B - C, axis=1)
        mu = resid_rows.max() + 1.0  # zero outliers are then stationary
        slack = _oracles.optimality_residual(np.eye(4), B, C, np.zeros((4, 4)),
                                             W, lam, mu)
        assert slack <= 1e-12

    def test_positive_away_from_solution(self, rng):
        A, B = random_problem(rng, 4, 3)
        W = default_weights(3)
        slack = _oracles.optimality_residual(A, B, np.ones((3, 3)),
                                             np.zeros_like(B), W, 0.1, 0.1)
        assert slack > 0.01
