"""Each benchmark check passes a right output and rejects a planted wrong one.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import _meshes  # noqa: E402
import checks  # noqa: E402
import shapecorr as sc  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def creature3():
    mesh = _meshes.creature(3)
    return mesh, checks.edge_lists(mesh.vertices, mesh.triangles)


def test_reference_geodesics_agree_with_correspondence_error(creature3):
    mesh, adj = creature3
    m = mesh.num_vertices
    rng = np.random.default_rng(3)
    predicted = rng.integers(0, m, m)
    predicted[: m // 2] = np.arange(m // 2)  # exact hits take the zero path
    truth = np.arange(m)
    diam = checks.diameter(adj)
    assert diam == pytest.approx(sc.shape_diameter(mesh), rel=1e-12)
    want = sc.correspondence_error(predicted, truth, mesh, diam)
    got = checks.geodesic_errors(adj, diam, predicted, truth, range(m))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert checks.check_errors_against_reference(
        want, adj, diam, predicted, truth, np.arange(m)) == []


def test_shuffled_point_map_is_rejected(creature3):
    mesh, adj = creature3
    m = mesh.num_vertices
    diam = checks.diameter(adj)
    truth = np.arange(m)
    exact = checks.geodesic_errors(adj, diam, truth, truth, range(m))
    assert checks.check_accuracy(exact) == []
    shuffled = np.random.default_rng(5).permutation(m)
    wrong = checks.geodesic_errors(adj, diam, shuffled, truth, range(m))
    assert checks.check_accuracy(wrong)
    # errors reported for the right map do not fit the shuffled one
    assert checks.check_errors_against_reference(
        exact, adj, diam, shuffled, truth, np.arange(m))


def test_point_map_range_and_length():
    assert checks.check_point_map(np.arange(5), 5, 5) == []
    assert checks.check_point_map(np.arange(4), 5, 5)
    assert checks.check_point_map(np.array([0, 1, 2, 3, 5]), 5, 5)


def test_curve_checks():
    errors = np.array([0.0, 0.0, 0.01, 0.03, 0.2])
    curve = sc.error_curve(errors)
    assert checks.check_curve(curve.thresholds, curve.fractions, errors) == []
    shifted = np.roll(curve.fractions, 1)
    assert checks.check_curve(curve.thresholds, shifted, errors)


def test_colored_export_check(tmp_path, creature3):
    mesh, _ = creature3
    m = mesh.num_vertices
    indices = np.random.default_rng(1).integers(0, m, m)
    sc.export_colored_ply(mesh, mesh, indices, tmp_path / "x.ply", tmp_path / "y.ply")
    assert checks.check_colored_export(tmp_path / "x.ply", tmp_path / "y.ply", indices) == []
    assert checks.check_colored_export(tmp_path / "x.ply", tmp_path / "y.ply",
                                       np.roll(indices, 1))


def test_vertex_area_fractions_match_the_package(creature3):
    mesh, _ = creature3
    members = np.random.default_rng(2).random((4, mesh.num_vertices)) < 0.3
    want = sc.regions_from_members(members, mesh).area_fractions
    got = checks.vertex_area_fractions(mesh.vertices, mesh.triangles, members)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_crossed_pairing_is_rejected():
    want = [(0, 2), (1, 0), (2, 1)]
    assert checks.check_pairing([(1, 0), (0, 2), (2, 1)], want) == []
    assert checks.check_pairing([(0, 0), (1, 2), (2, 1)], want)
    assert checks.check_pairing(want[:2], want)


def test_assignment_structure_and_mask():
    areas_x = np.array([0.1, 0.2])
    areas_y = np.array([0.2, 0.1, 0.15])
    good = np.array([[0, 1, 0], [1, 0, 0]], dtype=float)
    assert checks.check_assignment(good, areas_x, areas_y) == []
    assert checks.check_assignment(good.T, areas_y, areas_x) == []  # swapped side
    twice = np.array([[0, 1, 0], [0, 1, 0]], dtype=float)
    assert checks.check_assignment(twice, areas_x, areas_y)
    unmatched_row = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
    assert checks.check_assignment(unmatched_row, areas_x, areas_y)
    # 0.1 against 0.5 is outside the 3-fold area ratio
    assert checks.check_assignment(good, areas_x, np.array([0.2, 0.5, 0.15]))


@pytest.fixture(scope="module")
def planted_batch(tmp_path_factory):
    workload = workloads.MatchPlanted()
    workload.TRIALS = 4
    state = workload.setup(7, tmp_path_factory.mktemp("planted"))
    return workload, state, workload.op(state)


def test_planted_batch_passes(planted_batch):
    workload, state, results = planted_batch
    verdict = workload.check(state, results, None)
    assert verdict.ok, verdict.problems
    assert verdict.info["planted_exact"] == 4


def test_zero_map_is_rejected(planted_batch):
    workload, state, results = planted_batch
    zero = replace(results[0], functional_map=np.zeros_like(results[0].functional_map))
    assert not workload.check(state, [zero] + results[1:], None).ok


def test_crossed_match_is_rejected(planted_batch):
    workload, state, results = planted_batch
    P = results[0].assignment_matrix
    rows = np.flatnonzero(P.any(axis=1))[:2]
    crossed = P.copy()
    crossed[rows] = crossed[rows[::-1]]
    bad = replace(results[0], assignment_matrix=crossed)
    verdict = workload.check(state, [bad] + results[1:], None)
    assert not verdict.ok
    assert verdict.info["planted_exact"] == 3


def test_match_report_pairs_round_trip(tmp_path, planted_batch):
    _, _, results = planted_batch
    result = next(r for r in results if not r.swapped)
    sc.write_match_report(result, tmp_path / "report.txt")
    pairs = workloads.read_report_pairs(tmp_path / "report.txt")
    assert pairs == [(i, int(j)) for i, j in enumerate(result.assignment.cols)]


def test_tracer_records_nested_spans_and_restores(planted_batch):
    import tracing

    _, state, _ = planted_batch
    rx, ry = state["trials"][1]["regions"]  # spurious on the source side
    A = sc.region_coefficients(rx, state["basis"])
    B = sc.region_coefficients(ry, state["basis"])
    original = sc.match
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = sc.match(A, B, options=sc.SolverOptions(lam=0.01, mu=0.1))
    finally:
        tracer.uninstall()
    assert sc.match is original
    assert not hasattr(sc.matcher.solve_robust_sparse_coding, "__wrapped__")
    names = [s[0] for s in tracer.spans]
    assert names.count("matcher.match") == 2  # the swapped call recurses once
    metrics = tracing.op_metrics(tracing.rebase(tracer.spans, 0), 1.0)
    assert metrics["matcher.outer_iterations"] == result.outer_iterations
    assert metrics["pursuit.calls"] == names.count("pursuit.solve_robust_sparse_coding") > 0
    outer = tracer.spans[0]
    assert outer[0] == "matcher.match" and outer[3] == -1
    assert metrics["matcher.match_s"] == outer[2] - outer[1]
