"""Stable-region detection, region sets, and the region file format."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import _meshes
import _oracles
from conftest import CREATURE_DETECTOR
from shapecorr import (
    DetectorParams,
    RegionSet,
    SpectralBasis,
    cotangent_laplacian,
    detect_stable_regions,
    eigenbasis,
    load_regions,
    project,
    region_coefficients,
    regions_from_members,
    save_regions,
)
from shapecorr import regions as regions_module


def fake_basis(mesh, raw):
    """Constant function plus the mass-orthonormalization of ``raw``.

    Centering and positive rescaling are monotone, so the superlevel-set
    structure of the second basis function equals that of ``raw``; this
    makes detector outcomes hand-predictable.
    """
    masses = mesh.vertex_areas
    total = masses.sum()
    phi0 = np.full(mesh.num_vertices, 1.0 / np.sqrt(total))
    b = np.asarray(raw, dtype=np.float64)
    b = b - (b @ masses) / total
    b = b / np.sqrt(b @ (masses * b))
    return SpectralBasis(functions=np.column_stack([phi0, b]),
                         eigenvalues=np.array([0.0, 1.0]),
                         masses=masses)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="num_functions"):
            DetectorParams(num_functions=0)
        with pytest.raises(ValueError, match="levels"):
            DetectorParams(levels=3, stability_window=5)
        with pytest.raises(ValueError, match="stability_window"):
            DetectorParams(stability_window=1)
        with pytest.raises(ValueError, match="dedup_overlap"):
            DetectorParams(dedup_overlap=1.5)
        for tol in (np.nan, -0.01, np.inf):
            with pytest.raises(ValueError, match="stability_tol must be finite"):
                DetectorParams(stability_tol=tol)
        for frac in (np.nan, -0.01, 1.5):
            with pytest.raises(ValueError, match=r"min_area_frac must be in \[0, 1\]"):
                DetectorParams(min_area_frac=frac)
        for name in ("num_functions", "levels", "stability_window"):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got 64.5"):
                DetectorParams(**{name: 64.5})
            with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
                DetectorParams(**{name: True})
        DetectorParams(stability_tol=0.0, min_area_frac=0.0)
        DetectorParams(min_area_frac=1.0)


class TestRegionSet:
    def test_validation(self):
        with pytest.raises(ValueError, match="region 1 is empty"):
            RegionSet(members=np.array([[True, True], [False, False]]),
                      area_fractions=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="one area fraction"):
            RegionSet(members=np.array([[True, True]]),
                      area_fractions=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            RegionSet(members=np.array([[True, False]]),
                      area_fractions=np.array([1.5]))

    @pytest.mark.parametrize("members", [
        np.array([True, False]), np.ones((1, 1, 2), dtype=bool),
    ], ids=["1-d", "3-d"])
    def test_members_must_be_2d(self, members):
        with pytest.raises(ValueError, match=r"members must be a \(q, m\) boolean array"):
            RegionSet(members=members, area_fractions=np.array([0.5]))

    def test_accessors(self):
        rs = RegionSet(members=np.array([[True, False, True], [False, True, False]]),
                       area_fractions=np.array([0.6, 0.4]))
        assert len(rs) == 2
        assert rs.num_vertices == 3

    def test_connected_flags(self):
        mesh = _meshes.square_diagonal()  # edges 01 12 02 23 03, no 13
        rs = regions_from_members(
            np.array([[True, False, True, False], [False, True, False, True]]),
            mesh)
        assert np.array_equal(rs.connected_flags(mesh), [True, False])

    def test_connected_flags_match_per_region_subgraphs(self, creature4):
        # random vertex sets: small ones mostly scattered, large ones whole;
        # a single vertex is connected
        rng = np.random.default_rng(5)
        m = creature4.num_vertices
        members = rng.random((40, m)) < np.linspace(0.01, 0.9, 40)[:, None]
        members[0] = np.arange(m) == 7
        members[1] = True
        rs = regions_from_members(members, creature4)
        flags = rs.connected_flags(creature4)
        assert np.array_equal(flags, _oracles.connected_flags_per_region(rs, creature4))
        assert flags.any() and not flags.all()

    def test_fractions_from_lumped_areas(self, tetra):
        rs = regions_from_members(np.eye(4, dtype=bool), tetra)
        assert rs.area_fractions == pytest.approx(np.full(4, 0.25))

    def test_members_shape_checked(self, tetra):
        with pytest.raises(ValueError, match=r"\(q, 4\)"):
            regions_from_members(np.ones((2, 5), dtype=bool), tetra)


class TestDetector:
    def test_single_plateau_recovered_exactly(self):
        # one geodesic cap at value 1, slightly varying negative elsewhere:
        # every threshold in (0, 1] sees exactly the cap, so the detector
        # must emit it verbatim and nothing else
        mesh = _meshes.icosphere(2)
        cap = mesh.vertices[:, 2] >= np.cos(0.6)
        raw = np.where(cap, 1.0, -0.01 * (2.0 + mesh.vertices[:, 0]))
        basis = fake_basis(mesh, raw)
        got = detect_stable_regions(mesh, basis,
                                    DetectorParams(num_functions=1))
        assert len(got) == 1
        assert np.array_equal(got.members[0], cap)
        expect = regions_from_members(cap[None, :], mesh)
        assert got.area_fractions[0] == pytest.approx(expect.area_fractions[0])

    def test_two_plateaus_both_found(self):
        mesh = _meshes.icosphere(2)
        z = mesh.vertices[:, 2]
        north = z >= np.cos(0.7)
        south = z <= -np.cos(0.7)
        raw = np.where(north, 1.0, np.where(south, 0.5, -0.01 * (2.0 + z)))
        basis = fake_basis(mesh, raw)
        got = detect_stable_regions(mesh, basis,
                                    DetectorParams(num_functions=1))
        keys = {row.tobytes() for row in got.members}
        assert north.tobytes() in keys
        assert south.tobytes() in keys
        # both caps plus their union can appear; nothing unrelated does
        assert len(got) <= 3

    def test_deterministic_and_well_formed(self, creature4, creature4_basis, creature4_regions):
        again = detect_stable_regions(creature4, creature4_basis, CREATURE_DETECTOR)
        assert np.array_equal(again.members, creature4_regions.members)
        assert np.array_equal(again.area_fractions, creature4_regions.area_fractions)
        assert len(creature4_regions) >= 2
        # sorted by descending area, everything above the area floor
        assert (np.diff(creature4_regions.area_fractions) <= 1e-12).all()
        assert (creature4_regions.area_fractions >= 0.05).all()
        assert creature4_regions.connected_flags(creature4).all()
        recomputed = regions_from_members(creature4_regions.members, creature4)
        assert np.array_equal(recomputed.area_fractions,
                              creature4_regions.area_fractions)

    def test_dedup_bounds_overlap(self, creature4_regions):
        members = creature4_regions.members
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                inter = np.count_nonzero(members[i] & members[j])
                union = np.count_nonzero(members[i] | members[j])
                assert inter / union <= 0.8

    def test_zero_tolerance_finds_nothing(self):
        mesh = _meshes.icosphere(1)
        basis = eigenbasis(*cotangent_laplacian(mesh), 10)
        with pytest.raises(ValueError, match="no regions detected"):
            detect_stable_regions(mesh, basis,
                                  DetectorParams(stability_tol=0.0))

    def test_basis_too_small(self, creature4, creature4_basis):
        with pytest.raises(ValueError, match="nontrivial"):
            detect_stable_regions(creature4, creature4_basis,
                                  DetectorParams(num_functions=20))

    def test_vertex_count_mismatch(self, tetra, creature4_basis):
        with pytest.raises(ValueError, match="vertex counts differ"):
            detect_stable_regions(tetra, creature4_basis)


def _rows(m, chains):
    """(area, members) pairs of the chains ``_stable_components`` yields, in order."""
    found = []
    for order, sizes, areas in chains:
        for size, area in zip(sizes.tolist(), areas.tolist()):
            members = np.zeros(m, dtype=bool)
            members[order[:size]] = True
            assert np.count_nonzero(members) == size  # a prefix holds distinct vertices
            found.append((area, members))
    return found


def _slices(found):
    """One chain per (area, members) pair, holding just that component."""
    return [(np.flatnonzero(members), np.array([np.count_nonzero(members)]),
             np.array([area], dtype=np.float64)) for area, members in found]


def _assert_sweep_matches_oracle(mesh, basis, params):
    """Each function's candidates and the detection match the level-wise oracle.

    Candidates one for one (area bit for bit, members, detection order),
    with the oracle's repeats within one function dropped; repeats across
    functions are left to the detection.
    """
    units = regions_module._area_units(mesh.vertex_areas)
    for fn in range(1, params.num_functions + 1):
        phi = basis.functions[:, fn]
        got = _rows(mesh.num_vertices,
                    regions_module._stable_components(mesh, phi, params, units))
        want = list(_oracles.stable_components_levelwise(mesh, phi, params))
        want = [want[i] for i in _oracles.exact_dedup([members for _, members in want])]
        assert len(got) == len(want)
        for (area, members), (area_want, members_want) in zip(got, want):
            assert np.array_equal(members, members_want)
            assert area == area_want
    _assert_same_outcome(mesh, basis, params)


def _assert_same_outcome(mesh, basis, params):
    """The detector and the oracle detector return the same RegionSet or error."""
    outcomes = []
    for detect in (detect_stable_regions, _oracles.detect_stable_regions_levelwise):
        try:
            outcomes.append(detect(mesh, basis, params))
        except ValueError as exc:
            outcomes.append(str(exc))
    fast, slow = outcomes
    if isinstance(slow, str) or isinstance(fast, str):
        assert fast == slow
        return
    assert np.array_equal(fast.members, slow.members)
    assert fast.area_fractions.tobytes() == slow.area_fractions.tobytes()


class TestSweepMatchesOracle:
    """The spanning-forest chains reproduce the per-level sweep bit for bit."""

    @pytest.mark.parametrize("shape", ["creature3", "creature4"])
    @pytest.mark.parametrize("params", [
        CREATURE_DETECTOR,
        DetectorParams(),
        replace(CREATURE_DETECTOR, stability_window=2),
        DetectorParams(levels=64, stability_window=4, dedup_overlap=1.0),
    ], ids=["creature", "default", "window2", "levels64-nodedup"])
    def test_creatures(self, shape, params, request):
        mesh = request.getfixturevalue(shape)
        basis = request.getfixturevalue(f"{shape}_basis")
        _assert_sweep_matches_oracle(mesh, basis, params)

    @pytest.mark.parametrize("jitter_seed", [None, 1])
    def test_5k(self, jitter_seed):
        mesh = _meshes.creature_5k()
        if jitter_seed is not None:
            mesh = _meshes.jittered(mesh, 0.005, jitter_seed)
        basis = eigenbasis(*cotangent_laplacian(mesh), 20)
        _assert_sweep_matches_oracle(mesh, basis, CREATURE_DETECTOR)

    def test_tied_values(self):
        # peaks of equal value are ordered by vertex index
        mesh = _meshes.icosphere(3)
        x, y, z = mesh.vertices.T
        # bumps rounded to one decimal: whole patches share a value
        bumps = np.round(np.cos(4 * x) * np.cos(4 * y) + 0.5 * z, 1)
        # a cap around vertex 0 and vertex 5 alone, at one height: by
        # smallest vertex the cap's chain comes first, by largest it would not
        cap = mesh.vertices @ mesh.vertices[0] >= np.cos(0.35)
        assert np.flatnonzero(cap).max() > 5 and not cap[5]
        plateaus = np.where(cap | (np.arange(mesh.num_vertices) == 5), 1.0,
                            -0.01 * (2.0 + x))
        for raw in (bumps, plateaus):
            basis = fake_basis(mesh, raw)
            for levels, window in ((16, 2), (23, 3), (64, 5)):
                params = DetectorParams(num_functions=1, levels=levels,
                                        stability_window=window, min_area_frac=0.0)
                _assert_sweep_matches_oracle(mesh, basis, params)

    def test_constant_function_has_no_candidates(self):
        # the first eigenfunction is constant: its one superlevel set is
        # the whole mesh at every level, which is no region
        mesh = _meshes.icosphere(2)
        units = regions_module._area_units(mesh.vertex_areas)
        phi = np.full(mesh.num_vertices, 0.3)
        params = DetectorParams(min_area_frac=0.0)
        assert _rows(mesh.num_vertices,
                     regions_module._stable_components(mesh, phi, params, units)) == []


class TestDetectorMatchesOracle:
    """Whole detections match the oracle detector, errors included."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_functions=st.integers(1, 3),
           smooth=st.booleans(), decimals=st.sampled_from([None, 0, 1]),
           window=st.integers(2, 7), extra_levels=st.integers(0, 57),
           tol=st.floats(0.0, 0.5), min_area_frac=st.sampled_from([0.0, 0.02, 0.1]),
           overlap=st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    def test_random_functions(self, sphere2, seed, num_functions, smooth, decimals,
                              window, extra_levels, tol, min_area_frac, overlap):
        # rough or smooth random functions; rounding ties whole patches
        rng = np.random.default_rng(seed)
        m = sphere2.num_vertices
        raw = rng.standard_normal((m, num_functions))
        if smooth:
            raw = np.cos(sphere2.vertices @ rng.normal(0, 2, (3, num_functions))) + 0.05 * raw
        if decimals is not None:
            raw = np.round(raw * 3, decimals)
        basis = SimpleNamespace(num_vertices=m, size=num_functions + 1,
                                functions=np.column_stack([np.zeros(m), raw]))
        params = DetectorParams(num_functions=num_functions, levels=window + extra_levels,
                                stability_window=window, stability_tol=tol,
                                min_area_frac=min_area_frac, dedup_overlap=overlap)
        _assert_same_outcome(sphere2, basis, params)

    def test_repeated_function_kept_once(self):
        # two identical functions find every region twice; at overlap 1
        # only exact repeats go, and each region comes once
        mesh = _meshes.icosphere(2)
        z = mesh.vertices[:, 2]
        raw = np.where(z >= np.cos(0.7), 1.0,
                       np.where(z <= -np.cos(0.7), 0.5, -0.01 * (2.0 + z)))
        once = fake_basis(mesh, raw)
        twice = SimpleNamespace(num_vertices=mesh.num_vertices, size=3,
                                functions=once.functions[:, [0, 1, 1]])
        params = DetectorParams(num_functions=1, dedup_overlap=1.0)
        want = detect_stable_regions(mesh, once, params)
        got = detect_stable_regions(mesh, twice, replace(params, num_functions=2))
        assert len(want) >= 2
        assert np.array_equal(got.members, want.members)
        assert np.array_equal(got.area_fractions, want.area_fractions)

    def test_5k_peak_memory(self):
        # one m-long member row per candidate and the sweep's Python lists
        # took the peak to 14.4 MB
        mesh = _meshes.creature_5k()
        basis = eigenbasis(*cotangent_laplacian(mesh), 20)
        tracemalloc.start()
        try:
            detect_stable_regions(mesh, basis, CREATURE_DETECTOR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


def _path_mesh(vertex_areas):
    """The sweep's view of a path graph 0 - 1 - ... with the given areas."""
    areas = np.asarray(vertex_areas, dtype=np.float64)
    m = len(areas)
    edges = np.column_stack([np.arange(m - 1), np.arange(1, m)])
    graph = sparse.coo_matrix((np.ones(m - 1), edges.T), shape=(m, m)).tocsr()
    return SimpleNamespace(num_vertices=m, edges=edges, vertex_areas=areas,
                           total_area=math.fsum(areas), edge_graph=graph + graph.T)


class TestExactArea:
    """A region's area is the exact sum of its vertex areas, rounded once."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 400), decades=st.integers(0, 15),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_prefix_difference_is_fsum(self, m, decades, seed, data):
        # areas over many decades, a random sweep order, nested components
        # sharing a start as along one chain
        rng = np.random.default_rng(seed)
        areas = 10.0 ** rng.uniform(-decades, 0, m)
        order = rng.permutation(m)
        numerators, denominator = regions_module._area_units(areas)
        assert [n / denominator for n in numerators] == areas.tolist()
        # Python ints throughout: np.cumsum over a list converts it with
        # asarray first, which makes numerators in [2**63, 2**64) float64
        prefix = list(itertools.accumulate((numerators[v] for v in order), initial=0))
        start = data.draw(st.integers(0, m - 1))
        for size in np.unique(rng.integers(1, m - start + 1, 8)):
            members = order[start:start + size]
            got = (prefix[start + size] - prefix[start]) / denominator
            assert got == math.fsum(areas[members])
            assert got == math.fsum(areas[np.sort(members)[::-1]])

    def test_order_dependent_float_sums(self):
        # on the path 0 - 1 - 2 with phi falling along it, the chain of
        # vertex 0 is {0}, {0, 1}, {0, 1, 2}.  With u = 2**-53 their exact
        # areas round to 1, 1 and 1 + 2u, so only the window over the first
        # two is stable at tol u.  A float sum in sweep or index order
        # gives the last area 1 too, and its window would be stable as well
        areas = [1.0, 2.0**-53, 2.0**-53]
        assert (1.0 + areas[1]) + areas[2] == 1.0
        mesh = _path_mesh(areas)
        phi = np.array([2.0, 1.0, 0.0])
        params = DetectorParams(num_functions=1, levels=3, stability_window=2,
                                stability_tol=2.0**-53, min_area_frac=0.0)
        units = regions_module._area_units(mesh.vertex_areas)
        got = _rows(3, regions_module._stable_components(mesh, phi, params, units))
        want = list(_oracles.stable_components_levelwise(mesh, phi, params))
        for found in (got, want):
            assert [(area, members.tolist()) for area, members in found] == \
                [(1.0, [True, True, False])]
        basis = SimpleNamespace(num_vertices=3, size=2,
                                functions=np.column_stack([np.zeros(3), phi]))
        regions = detect_stable_regions(mesh, basis, params)
        assert regions.members.tolist() == [[True, True, False]]
        assert np.array_equal(regions.area_fractions,
                              regions_from_members(regions.members, mesh).area_fractions)

    def test_equal_areas_keep_detection_order(self, monkeypatch):
        mesh = _path_mesh([1.0, 2.0, 1.0, 2.0])
        basis = SimpleNamespace(num_vertices=4, size=2, functions=np.zeros((4, 2)))

        def sweep(mesh, phi, params, units):
            return _slices([(mesh.vertex_areas[vertex], np.arange(4) == vertex)
                            for vertex in range(4)])

        monkeypatch.setattr(regions_module, "_stable_components", sweep)
        got = detect_stable_regions(mesh, basis, DetectorParams(num_functions=1))
        assert np.array_equal(got.members, np.eye(4, dtype=bool)[[1, 3, 0, 2]])
        assert got.area_fractions.tolist() == [2 / 6, 2 / 6, 1 / 6, 1 / 6]


def _dedup_oracle(m, order, starts, sizes, overlap):
    """``regions._greedy_dedup`` by the oracles: exact repeats, then pairwise Jaccard."""
    # slice i as a chain with one component
    chains = [(order[start:], np.array([size]), np.zeros(1)) for start, size in zip(starts, sizes)]
    rows = [members for _, members in _rows(m, chains)]
    first = _oracles.exact_dedup(rows)
    return [first[k] for k in _oracles.greedy_dedup_pairwise([rows[k] for k in first], overlap)]


def _assert_dedup_matches_oracle(mesh, basis, params, monkeypatch):
    fast = detect_stable_regions(mesh, basis, params)
    with monkeypatch.context() as patch:
        patch.setattr(regions_module, "_greedy_dedup", _dedup_oracle)
        slow = detect_stable_regions(mesh, basis, params)
    assert np.array_equal(fast.members, slow.members)
    assert np.array_equal(fast.area_fractions, slow.area_fractions)


class TestDedupMatchesOracle:
    """The running-count dedup keeps exactly the regions the pairwise loop keeps."""

    @pytest.mark.parametrize("shape", ["creature3", "creature4"])
    def test_creatures(self, shape, request, monkeypatch):
        mesh = request.getfixturevalue(shape)
        basis = request.getfixturevalue(f"{shape}_basis")
        _assert_dedup_matches_oracle(mesh, basis, CREATURE_DETECTOR, monkeypatch)

    @pytest.mark.parametrize("jitter_seed", [None, 1])
    def test_5k(self, jitter_seed, monkeypatch):
        mesh = _meshes.creature_5k()
        if jitter_seed is not None:
            mesh = _meshes.jittered(mesh, 0.005, jitter_seed)
        basis = eigenbasis(*cotangent_laplacian(mesh), 20)
        _assert_dedup_matches_oracle(mesh, basis, CREATURE_DETECTOR, monkeypatch)

    @pytest.mark.parametrize("overlap", [0.1, 0.5, 0.7, 0.8, 1.0])
    def test_random_sets(self, overlap, rng):
        # nested and shifted intervals of one order give overlaps on both
        # sides of the limit, and repeat some sets exactly
        starts = rng.integers(0, 40, 300)
        sizes = np.minimum(rng.integers(1, 30, 300), 60 - starts)
        got = regions_module._greedy_dedup(60, np.arange(60), starts, sizes, overlap)
        assert got == _dedup_oracle(60, np.arange(60), starts, sizes, overlap)

    @pytest.mark.parametrize("overlap", [0.1, 0.5, 0.8, 1.0])
    def test_random_chains(self, overlap, rng):
        # ten prefixes of each of twelve shuffled orders, and four orders
        # that hold the first 20 vertices of one of the first four in
        # another order: the same set as a slice of two orders
        chains = [rng.permutation(60) for _ in range(12)]
        for k in range(4):
            chains.append(np.concatenate([rng.permutation(chains[k][:20]),
                                          rng.permutation(chains[k][20:])]))
        order = np.concatenate(chains)
        starts = np.repeat(60 * np.arange(len(chains)), 10)
        sizes = rng.integers(1, 61, len(starts))
        sizes[-40:] = rng.choice([10, 20, 20, 40], 40)
        sizes[:40] = np.tile([10, 20, 40, 20], 10)
        shuffle = rng.permutation(len(starts))
        starts, sizes = starts[shuffle], sizes[shuffle]
        got = regions_module._greedy_dedup(60, order, starts, sizes, overlap)
        assert got == _dedup_oracle(60, order, starts, sizes, overlap)

    def test_overlap_equal_to_limit_is_kept(self):
        # Jaccard 4/5 is not above 0.8: both slices stay
        starts, sizes = np.array([0, 0]), np.array([5, 4])
        assert regions_module._greedy_dedup(10, np.arange(10), starts, sizes, 0.8) == [0, 1]
        assert regions_module._greedy_dedup(10, np.arange(10), starts, sizes, 0.79) == [0]

    def test_repeat_dropped_at_overlap_one(self):
        # {0, 1} twice, in two orders; {1} is a Jaccard 1/2 away
        order = np.array([0, 1, 2, 1, 0])
        got = regions_module._greedy_dedup(3, order, np.array([0, 3, 3]),
                                           np.array([2, 2, 1]), 1.0)
        assert got == [0, 2]


class TestFilter:
    def test_keeps_large(self):
        rs = RegionSet(members=np.array([[True, False], [True, True], [False, True]]),
                       area_fractions=np.array([0.5, 0.3, 0.04]))
        kept = _oracles.filter_by_area(rs, 0.05)
        assert len(kept) == 2
        assert np.array_equal(kept.area_fractions, [0.5, 0.3])

    def test_nothing_survives(self):
        rs = RegionSet(members=np.array([[True, False]]),
                       area_fractions=np.array([0.02]))
        with pytest.raises(ValueError, match="largest is 0.02"):
            _oracles.filter_by_area(rs, 0.5)


class TestCoefficients:
    def test_matches_per_region_projection(self, creature4_basis, creature4_regions):
        coeffs = region_coefficients(creature4_regions, creature4_basis)
        assert coeffs.shape == (len(creature4_regions), creature4_basis.size)
        for i in range(len(creature4_regions)):
            one = project(creature4_basis, creature4_regions.members[i])
            assert coeffs[i] == pytest.approx(one, rel=1e-12, abs=1e-12)

    def test_first_coefficient_is_scaled_area(self, creature4, creature4_basis, creature4_regions):
        # <phi_0, 1_R>_M = area(R) / sqrt(total area)
        coeffs = region_coefficients(creature4_regions, creature4_basis)
        expect = creature4_regions.area_fractions * np.sqrt(creature4.total_area)
        assert coeffs[:, 0] == pytest.approx(expect, rel=1e-6)

    def test_vertex_mismatch(self, creature4_basis):
        rs = RegionSet(members=np.array([[True, False]]),
                       area_fractions=np.array([0.5]))
        with pytest.raises(ValueError, match="vertices"):
            region_coefficients(rs, creature4_basis)


class TestRegionFiles:
    def test_round_trip(self, creature4, creature4_regions, tmp_path):
        path = tmp_path / "regions.txt"
        save_regions(creature4_regions, path)
        back = load_regions(path, creature4)
        assert np.array_equal(back.members, creature4_regions.members)
        assert np.array_equal(back.area_fractions, creature4_regions.area_fractions)

    def test_comments_blanks_duplicates(self, tetra, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("# header\n\n0 1 1 2  # dup collapses\n\n2 3\n")
        rs = load_regions(path, tetra)
        assert len(rs) == 2
        assert np.array_equal(rs.members[0], [True, True, True, False])

    def test_written_text(self, tetra, tmp_path):
        rs = RegionSet(members=np.array([[True, False, True, True], [False, True, False, False]]),
                       area_fractions=np.array([0.75, 0.25]))
        path = tmp_path / "regions.txt"
        save_regions(rs, path)
        assert path.read_text() == "# one region per line: vertex indices\n0 2 3\n1\n"

    def test_bad_token_names_line(self, tetra, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("0 1\nx 2\n")
        with pytest.raises(ValueError, match=":2: bad vertex index: invalid literal for int"
                                             r"\(\) with base 10: 'x'$"):
            load_regions(path, tetra)

    def test_int_syntax(self, tetra, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("+0 01 1_0\r\n")
        with pytest.raises(ValueError, match="region 0 references vertex 10"):
            load_regions(path, tetra)
        path.write_text("1 2.0\n")
        with pytest.raises(ValueError, match=":1: bad vertex index.*'2.0'"):
            load_regions(path, tetra)

    def test_out_of_range_named(self, tetra, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("0 1\n2 9\n")
        with pytest.raises(ValueError, match="region 1 references vertex 9"):
            load_regions(path, tetra)

    def test_empty_file(self, tetra, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no regions"):
            load_regions(path, tetra)

    def test_disconnected_warns(self, tmp_path):
        mesh = _meshes.square_diagonal()
        path = tmp_path / "regions.txt"
        path.write_text("1 3\n")  # vertices 1 and 3 share no edge
        with pytest.warns(UserWarning, match="not connected"):
            rs = load_regions(path, mesh)
        assert len(rs) == 1
