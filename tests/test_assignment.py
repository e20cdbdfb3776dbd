"""Injective assignment: sparse matching against the Hungarian and LP
oracles, masks, tie handling."""

from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

import _oracles
from _oracles import lp_constraint_matrix, lp_relaxation_solve
from shapecorr import (
    Assignment,
    AssignmentInfeasibleError,
    build_profit,
    prune,
    solve_assignment,
)


class TestAssignment:
    def test_basics(self):
        a = Assignment(cols=[2, 0, 3], num_cols=5)
        assert a.num_rows == 3
        expect = np.zeros((3, 5))
        expect[[0, 1, 2], [2, 0, 3]] = 1.0
        assert np.array_equal(a.matrix, expect)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            Assignment(cols=[], num_cols=3)
        with pytest.raises(ValueError, match="distinct"):
            Assignment(cols=[1, 1], num_cols=3)
        with pytest.raises(ValueError, match="out of range"):
            Assignment(cols=[0, 3], num_cols=3)
        with pytest.raises(ValueError, match="injectively"):
            Assignment(cols=[0, 1, 2], num_cols=2)

    @pytest.mark.parametrize("cols", [[0.5, 2.9], [True, False], [0.0, np.nan]],
                             ids=["fraction", "bool", "nan"])
    def test_non_integer_columns_rejected(self, cols):
        # a cast would keep [0.5, 2.9] as the columns [0, 2]
        with pytest.raises(ValueError, match="column indices must be integers"):
            Assignment(cols=cols, num_cols=4)

    def test_immutable(self):
        a = Assignment(cols=[0, 1], num_cols=2)
        with pytest.raises(ValueError):
            a.cols[0] = 1


class TestProfit:
    def test_hand_computed(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        C = np.array([[1.0, 0.0], [1.0, 1.0]])
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        got = build_profit(A, C, B)
        assert np.array_equal(got, (A @ C) @ B.T)
        assert got.shape == (2, 3)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="incompatible"):
            build_profit(np.ones((2, 3)), np.ones((2, 2)), np.ones((4, 3)))
        with pytest.raises(ValueError, match="width mismatch"):
            build_profit(np.ones((2, 3)), np.ones((3, 3)), np.ones((4, 2)))


class TestPrune:
    def test_mask_values(self):
        rx = SimpleNamespace(area_fractions=np.array([0.1, 0.2]))
        ry = SimpleNamespace(area_fractions=np.array([0.1, 0.35, 0.019]))
        mask = prune(rx, ry, max_ratio=3.0)
        # 0.1/0.35 is just under the 1/3 floor, 0.019 is far under it
        assert np.array_equal(mask, [[True, False, False], [True, True, False]])

    def test_starving_row_named(self):
        rx = SimpleNamespace(area_fractions=np.array([0.3, 0.9]))
        ry = SimpleNamespace(area_fractions=np.array([0.25, 0.2]))
        with pytest.raises(AssignmentInfeasibleError,
                           match="region 1 .*relax max_ratio"):
            prune(rx, ry, max_ratio=3.0)

    def test_bad_ratio(self):
        rx = SimpleNamespace(area_fractions=np.array([0.5]))
        with pytest.raises(ValueError, match="at least 1"):
            prune(rx, rx, max_ratio=0.5)

    def test_nan_ratio(self):
        # a NaN ratio used to keep no pair and blame the first region
        rx = SimpleNamespace(area_fractions=np.array([0.5]))
        with pytest.raises(ValueError, match="max_ratio must be at least 1"):
            prune(rx, rx, max_ratio=np.nan)


class TestSolveAssignment:
    @pytest.mark.parametrize("shape", [(5, 5), (4, 7), (1, 4), (6, 6)])
    def test_matches_brute_force(self, rng, shape):
        for _ in range(20):
            E = rng.uniform(-1, 1, shape)
            got = solve_assignment(E)
            cols, value = _oracles.brute_force_assignment(E)
            assert np.array_equal(got.cols, cols)
            assert E[np.arange(shape[0]), got.cols].sum() == pytest.approx(value)

    def test_masked_matches_brute_force(self, rng):
        for _ in range(20):
            E = rng.uniform(-1, 1, (4, 6))
            mask = rng.uniform(size=(4, 6)) < 0.6
            mask[np.arange(4), np.arange(4)] = True  # keep it feasible
            got = solve_assignment(E, mask)
            cols, value = _oracles.brute_force_assignment(E, mask)
            assert np.array_equal(got.cols, cols)
            assert mask[np.arange(4), got.cols].all()

    def test_tie_break_prefers_low_columns(self):
        # all profits equal: the index perturbation pins the column set
        got = solve_assignment(np.ones((3, 5)))
        assert np.array_equal(np.sort(got.cols), [0, 1, 2])
        assert np.array_equal(solve_assignment(np.ones((3, 5))).cols, got.cols)

    def test_deterministic(self, rng):
        E = rng.uniform(-1, 1, (5, 8))
        first = solve_assignment(E)
        for _ in range(3):
            assert np.array_equal(solve_assignment(E).cols, first.cols)

    def test_single_feasible_assignment_survives_huge_profits(self, rng):
        # masked entries carry the best profits; the penalty must still
        # push the solver onto the only feasible permutation
        perm = np.array([2, 0, 3, 1, 4])
        mask = np.zeros((5, 5), dtype=bool)
        mask[np.arange(5), perm] = True
        E = rng.uniform(0.9e9, 1e9, (5, 5))
        E[mask] = rng.uniform(-10, -1, 5)
        got = solve_assignment(E, mask)
        assert np.array_equal(got.cols, perm)

    @pytest.mark.parametrize("profits", ["distinct", "rounded", "duplicate_columns"])
    def test_matches_hungarian_oracle(self, rng, profits):
        # distinct profits give the oracle's columns, ties its total; on
        # float weights the matching bid forever on tied cases like these
        for _ in range(300):
            q = int(rng.integers(1, 30))
            r = q + int(rng.integers(0, 8))
            E = rng.uniform(-1, 1, (q, r))
            if profits == "rounded":
                E = E.round(1)
            elif profits == "duplicate_columns":
                E = E[:, rng.integers(0, r, r)]
            mask = rng.uniform(size=E.shape) < 0.7
            mask[np.arange(q), rng.permutation(r)[:q]] = True
            got = solve_assignment(E, mask).cols
            want = _oracles.hungarian_assignment(E, mask)
            rows = np.arange(q)
            if profits == "distinct":
                assert np.array_equal(got, want)
            assert mask[rows, got].all()
            assert E[rows, got].sum() == pytest.approx(E[rows, want].sum(), abs=1e-9)

    def test_infeasible_mask(self):
        mask = np.array([[True, False], [True, False]])
        with pytest.raises(AssignmentInfeasibleError, match="no complete"):
            solve_assignment(np.ones((2, 2)), mask)

    def test_rectangular_hall_violation(self):
        # every row has candidates, but three rows share only two columns
        mask = np.zeros((3, 5), dtype=bool)
        mask[:, :2] = True
        assert _oracles.brute_force_assignment(np.ones((3, 5)), mask)[0] is None
        with pytest.raises(AssignmentInfeasibleError, match="no complete"):
            solve_assignment(np.ones((3, 5)), mask)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="swap"):
            solve_assignment(np.ones((3, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            solve_assignment(np.array([[1.0, np.inf]]))
        with pytest.raises(ValueError, match="2-d"):
            solve_assignment(np.ones(4))
        with pytest.raises(ValueError, match="mask shape"):
            solve_assignment(np.ones((2, 3)), np.ones((2, 2), dtype=bool))


class TestLpRelaxation:
    @pytest.mark.parametrize("shape", [(5, 5), (4, 6)])
    def test_integral_and_optimal(self, rng, shape):
        for _ in range(10):
            E = rng.uniform(-1, 1, shape)
            pi = lp_relaxation_solve(E)
            assert np.abs(pi - pi.round()).max() < 1e-9
            assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-9)
            assert (pi.sum(axis=0) <= 1 + 1e-9).all()
            hung = solve_assignment(E)
            lp_value = float(np.sum(E * pi))
            hung_value = E[np.arange(shape[0]), hung.cols].sum()
            assert lp_value == pytest.approx(hung_value, abs=1e-9)

    def test_recovers_the_assignment(self, rng):
        E = rng.uniform(-1, 1, (5, 7))
        pi = lp_relaxation_solve(E)
        assert np.array_equal(np.argmax(pi, axis=1), solve_assignment(E).cols)

    def test_rejects_wide_side(self):
        with pytest.raises(ValueError, match="q <= r"):
            lp_relaxation_solve(np.ones((3, 2)))


class TestConstraintMatrix:
    def test_structure(self):
        Q = lp_constraint_matrix(3)
        assert Q.shape == (6, 9)
        assert set(np.unique(Q)) == {0, 1}
        # each variable appears in exactly one row-sum and one column-sum
        assert (Q.sum(axis=0) == 2).all()

    def test_sums_permutation_to_ones(self):
        Q = lp_constraint_matrix(3)
        pi = np.zeros((3, 3))
        pi[[0, 1, 2], [1, 2, 0]] = 1.0
        assert np.array_equal(Q @ pi.flatten(order="F"), np.ones(6))

    def test_all_submatrix_dets_unimodular_q2(self):
        Q = lp_constraint_matrix(2)
        rows, cols = Q.shape
        for k in range(1, rows + 1):
            for ri in combinations(range(rows), k):
                for ci in combinations(range(cols), k):
                    det = np.linalg.det(Q[np.ix_(ri, ci)])
                    assert round(det) in (-1, 0, 1)
                    assert abs(det - round(det)) < 1e-9

    def test_bad_size(self):
        with pytest.raises(ValueError, match="positive"):
            lp_constraint_matrix(0)
