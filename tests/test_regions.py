"""Stable-region detection, region sets, and the region file format."""

from dataclasses import replace

import numpy as np
import pytest

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
    filter_by_area,
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

    def test_accessors(self):
        rs = RegionSet(members=np.array([[True, False, True], [False, True, False]]),
                       area_fractions=np.array([0.6, 0.4]))
        assert len(rs) == 2
        assert rs.num_vertices == 3
        assert np.array_equal(rs.indicator(0), [1.0, 0.0, 1.0])
        assert rs.indicator(0).dtype == np.float64
        sub = rs.subset([1])
        assert np.array_equal(sub.members, [[False, True, False]])

    def test_connected_flags(self):
        mesh = _meshes.square_diagonal()  # edges 01 12 02 23 03, no 13
        rs = regions_from_members(
            np.array([[True, False, True, False], [False, True, False, True]]),
            mesh)
        assert np.array_equal(rs.connected_flags(mesh), [True, False])

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
        assert np.allclose(recomputed.area_fractions,
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


def _detect_recording(mesh, basis, params, sweep, monkeypatch):
    """Run the detector with ``sweep`` as its per-function component sweep.

    Returns the RegionSet and, per eigenfunction, the sweep's components
    with repeats dropped (the detector drops them too).
    """
    per_function = []

    def recording(mesh, phi, params):
        seen, out = set(), []
        for area, members in sweep(mesh, phi, params):
            if members.tobytes() not in seen:
                seen.add(members.tobytes())
                out.append((area, members))
        per_function.append(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(regions_module, "_stable_components", recording)
        found = detect_stable_regions(mesh, basis, params)
    return found, per_function


def _assert_sweep_matches_oracle(mesh, basis, params, monkeypatch):
    fast, fast_parts = _detect_recording(
        mesh, basis, params, regions_module._stable_components, monkeypatch)
    slow, slow_parts = _detect_recording(
        mesh, basis, params, _oracles.stable_components_levelwise, monkeypatch)
    assert len(fast_parts) == len(slow_parts) == params.num_functions
    for got, want in zip(fast_parts, slow_parts):
        assert len(got) == len(want)
        for (area, members), (area_want, members_want) in zip(got, want):
            assert area == area_want  # bit-equal, not approximately equal
            assert np.array_equal(members, members_want)
    assert np.array_equal(fast.members, slow.members)
    assert np.array_equal(fast.area_fractions, slow.area_fractions)


class TestSweepMatchesOracle:
    """The merge-tree sweep reproduces the per-level sweep bit for bit."""

    @pytest.mark.parametrize("shape", ["creature3", "creature4"])
    @pytest.mark.parametrize("params", [
        CREATURE_DETECTOR,
        DetectorParams(),
        replace(CREATURE_DETECTOR, stability_window=2),
        DetectorParams(levels=64, stability_window=4, dedup_overlap=1.0),
    ], ids=["creature", "default", "window2", "levels64-nodedup"])
    def test_creatures(self, shape, params, request, monkeypatch):
        mesh = request.getfixturevalue(shape)
        basis = request.getfixturevalue(f"{shape}_basis")
        _assert_sweep_matches_oracle(mesh, basis, params, monkeypatch)

    @pytest.mark.parametrize("jitter_seed", [None, 1])
    def test_5k(self, jitter_seed, monkeypatch):
        mesh = _meshes.creature_5k()
        if jitter_seed is not None:
            mesh = _meshes.jittered(mesh, 0.005, jitter_seed)
        basis = eigenbasis(*cotangent_laplacian(mesh), 20)
        _assert_sweep_matches_oracle(mesh, basis, CREATURE_DETECTOR, monkeypatch)

    def test_tied_values(self, monkeypatch):
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
                _assert_sweep_matches_oracle(mesh, basis, params, monkeypatch)


class TestFilter:
    def test_keeps_large(self):
        rs = RegionSet(members=np.array([[True, False], [True, True], [False, True]]),
                       area_fractions=np.array([0.5, 0.3, 0.04]))
        kept = filter_by_area(rs, 0.05)
        assert len(kept) == 2
        assert np.array_equal(kept.area_fractions, [0.5, 0.3])

    def test_nothing_survives(self):
        rs = RegionSet(members=np.array([[True, False]]),
                       area_fractions=np.array([0.02]))
        with pytest.raises(ValueError, match="largest is 0.02"):
            filter_by_area(rs, 0.5)


class TestCoefficients:
    def test_matches_per_region_projection(self, creature4_basis, creature4_regions):
        coeffs = region_coefficients(creature4_regions, creature4_basis)
        assert coeffs.shape == (len(creature4_regions), creature4_basis.size)
        for i in range(len(creature4_regions)):
            one = project(creature4_basis, creature4_regions.indicator(i))
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
        assert np.allclose(back.area_fractions, creature4_regions.area_fractions)

    def test_comments_blanks_duplicates(self, tetra, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("# header\n\n0 1 1 2  # dup collapses\n\n2 3\n")
        rs = load_regions(path, tetra)
        assert len(rs) == 2
        assert np.array_equal(rs.members[0], [True, True, True, False])

    def test_bad_token_names_line(self, tetra, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("0 1\nx 2\n")
        with pytest.raises(ValueError, match=":2: bad vertex index"):
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
