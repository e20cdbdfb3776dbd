"""Mesh construction, measures, geodesics, and the three file formats."""

import tracemalloc

import numpy as np
import pytest

import _meshes
import _oracles
from shapecorr import (
    Mesh,
    MeshParseError,
    MeshValidationError,
    geodesic_distance_matrix,
    load_mesh,
    save_mesh,
    shape_diameter,
)
from shapecorr import mesh as mesh_module

V3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.fixture(scope="module")
def creature_5k():
    return _meshes.creature_5k()


# the meshes every add.at, edge and writer parity check runs on
PARITY_MESHES = {"blob1": lambda: _meshes.blob(1), "blob2": lambda: _meshes.blob(2),
                 "creature4": lambda: _meshes.creature(4)}


@pytest.fixture(scope="module", params=[*PARITY_MESHES, "creature_5k"])
def parity_mesh(request):
    if request.param == "creature_5k":
        return request.getfixturevalue("creature_5k")
    return PARITY_MESHES[request.param]()


class TestValidation:
    def test_too_few_vertices(self):
        with pytest.raises(MeshValidationError, match="at least 3 vertices"):
            Mesh(V3[:2], np.array([[0, 1, 1]]))

    def test_no_triangles(self):
        with pytest.raises(MeshValidationError, match="no triangles"):
            Mesh(V3, np.empty((0, 3), dtype=int))

    def test_bad_shapes(self):
        with pytest.raises(MeshValidationError, match=r"\(m, 3\)"):
            Mesh(V3[:, :2], np.array([[0, 1, 2]]))
        with pytest.raises(MeshValidationError, match=r"\(t, 3\)"):
            Mesh(V3, np.array([[0, 1, 2, 0]]))

    def test_nonfinite_vertex_named(self):
        v = V3.copy()
        v[1, 2] = np.nan
        with pytest.raises(MeshValidationError, match="vertex 1"):
            Mesh(v, np.array([[0, 1, 2]]))

    def test_out_of_range_face_named(self):
        with pytest.raises(MeshValidationError, match="face 1 references vertex 7"):
            Mesh(V3, np.array([[0, 1, 2], [0, 7, 2]]))
        with pytest.raises(MeshValidationError, match="face 0"):
            Mesh(V3, np.array([[-1, 1, 2]]))

    def test_zero_area_face_named(self):
        v = np.vstack([V3, [2.0, 0.0, 0.0]])
        with pytest.raises(MeshValidationError, match="face 1 is degenerate"):
            Mesh(v, np.array([[0, 1, 2], [0, 1, 3]]))  # 0,1,3 collinear

    def test_repeated_index_is_degenerate(self):
        with pytest.raises(MeshValidationError, match="degenerate"):
            Mesh(V3, np.array([[0, 1, 1]]))

    def test_non_manifold_edge_named(self):
        v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        t = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        with pytest.raises(MeshValidationError, match=r"edge \(0, 1\).*3 faces"):
            Mesh(v, t)

    def test_non_manifold_count_is_the_named_edges(self):
        # edge (5, 6) is shared by 4 faces, the named edge (0, 1) by 3
        v = np.random.default_rng(3).standard_normal((10, 3))
        t = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4],
                      [5, 6, 7], [5, 6, 8], [5, 6, 9], [5, 6, 2]])
        with pytest.raises(MeshValidationError,
                           match=r"edge \(0, 1\) is shared by 3 faces"):
            Mesh(v, t)

    def test_disconnected_named(self):
        v = np.vstack([V3, V3 + [10.0, 0.0, 0.0]])
        t = np.array([[0, 1, 2], [3, 4, 5]])
        with pytest.raises(MeshValidationError, match="vertex 3"):
            Mesh(v, t)

    def test_arrays_read_only(self):
        mesh = _meshes.single_triangle()
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 1.0
        with pytest.raises(ValueError):
            mesh.triangles[0, 0] = 2


class TestMeasures:
    def test_single_triangle_area(self):
        mesh = _meshes.single_triangle()
        assert mesh.triangle_areas == pytest.approx([np.sqrt(3) / 4])
        assert mesh.total_area == pytest.approx(np.sqrt(3) / 4)
        assert mesh.vertex_areas == pytest.approx(np.full(3, np.sqrt(3) / 12))

    def test_tetra_total_area(self, tetra):
        assert tetra.total_area == pytest.approx(np.sqrt(3))

    def test_square_unit_area(self):
        assert _meshes.square_diagonal().total_area == pytest.approx(1.0)

    def test_vertex_areas_partition_total(self, creature4):
        assert creature4.vertex_areas.sum() == pytest.approx(creature4.total_area)
        assert (creature4.vertex_areas > 0).all()

    def test_sphere_area_approaches_4pi(self):
        area = _meshes.icosphere(3).total_area
        assert area < 4 * np.pi
        assert area == pytest.approx(4 * np.pi, rel=0.01)

    def test_edge_counts_euler(self, tetra, ico):
        assert len(tetra.edges) == 6
        assert len(ico.edges) == 30  # V - E + F = 2
        assert (ico.edges[:, 0] < ico.edges[:, 1]).all()

    def test_vertex_areas_match_add_at(self, parity_mesh):
        assert np.array_equal(parity_mesh.vertex_areas,
                              _oracles.vertex_areas_add_at(parity_mesh))

    def test_edges_match_unique_rows(self, parity_mesh):
        t = parity_mesh.triangles
        pairs = np.sort(t[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        expected = np.unique(pairs, axis=0)
        assert parity_mesh.edges.dtype == expected.dtype
        assert np.array_equal(parity_mesh.edges, expected)

    def test_adjacency_symmetric(self, ico):
        a = ico.edge_graph
        assert (a != a.T).nnz == 0
        assert a.diagonal().sum() == 0


class TestGeodesics:
    @pytest.mark.parametrize("make", [
        _meshes.tetrahedron, _meshes.square_diagonal, _meshes.icosahedron,
        lambda: _meshes.icosphere(1),
    ])
    def test_matches_floyd_warshall(self, make):
        mesh = make()
        oracle = _meshes.floyd_warshall(mesh)
        got = geodesic_distance_matrix(mesh, np.arange(mesh.num_vertices))
        assert np.allclose(got, oracle, rtol=1e-12, atol=1e-12)

    def test_field_contents(self, tetra):
        row = geodesic_distance_matrix(tetra, [2])[0]
        assert row[2] == 0.0
        assert row == pytest.approx([1.0, 1.0, 0.0, 1.0])

    def test_source_out_of_range(self, tetra):
        with pytest.raises(ValueError, match="out of range"):
            geodesic_distance_matrix(tetra, [4])
        with pytest.raises(ValueError, match="out of range"):
            geodesic_distance_matrix(tetra, [0, -1])

    @pytest.mark.parametrize("sources", [[], [[0, 1]]], ids=["empty", "2-d"])
    def test_sources_must_be_a_nonempty_vector(self, tetra, sources):
        with pytest.raises(ValueError, match="nonempty 1-d index array"):
            geodesic_distance_matrix(tetra, sources)

    def test_matrix_rows_match_fields(self, ico):
        rows = geodesic_distance_matrix(ico, [0, 5, 11])
        for r, s in zip(rows, [0, 5, 11]):
            assert np.array_equal(r, geodesic_distance_matrix(ico, [s])[0])

    @pytest.mark.parametrize("limit", [np.inf, 1.0], ids=["no-limit", "limit"])
    @pytest.mark.parametrize("make", [
        lambda: _meshes.creature(3),
        lambda: _meshes.jittered(_meshes.creature_5k(), 0.005, 1),
    ], ids=["creature3", "creature5k-twin1"])
    def test_rows_match_undirected_oracle(self, make, limit):
        # the edge graph is symmetric, so its directed search is the same
        # graph; Dijkstra's least path sums do not depend on the scan order
        mesh = make()
        sources = mesh_module._spread_sample(mesh.num_vertices, 64)
        got = geodesic_distance_matrix(mesh, sources, limit=limit)
        want = _oracles.geodesic_rows_undirected(mesh, sources, limit=limit)
        assert np.array_equal(got, want)
        assert np.isinf(got).any() == np.isfinite(limit)

    def test_diameter_exact_when_all_sampled(self, ico):
        oracle = _meshes.floyd_warshall(ico).max()
        assert shape_diameter(ico, sample_count=ico.num_vertices) == pytest.approx(oracle)

    def test_diameter_subsample_is_lower_bound(self):
        mesh = _meshes.icosphere(2)
        full = shape_diameter(mesh, sample_count=mesh.num_vertices)
        sub = shape_diameter(mesh, sample_count=8)
        assert sub <= full + 1e-15
        assert sub > 0.5 * full

    def test_diameter_bad_count(self, tetra):
        with pytest.raises(ValueError, match="positive"):
            shape_diameter(tetra, sample_count=0)
        with pytest.raises(ValueError, match="sample_count must be an integer"):
            shape_diameter(tetra, sample_count=2.5)
        with pytest.raises(ValueError, match="sample_count must be an integer, got True"):
            shape_diameter(tetra, True)


class TestFormats:
    @pytest.mark.parametrize("fmt", ["off", "obj", "ply"])
    def test_round_trip_bit_exact(self, tmp_path, fmt):
        mesh = _meshes.blob(1)  # irrational coordinates
        path = tmp_path / f"mesh.{fmt}"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)

    def test_format_override_ignores_extension(self, tmp_path):
        mesh = _meshes.tetrahedron()
        path = tmp_path / "mesh.dat"
        save_mesh(mesh, path, format="obj")
        back = load_mesh(path, format="obj")
        assert np.array_equal(back.vertices, mesh.vertices)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError, match="cannot infer"):
            load_mesh(tmp_path / "mesh.stl")
        with pytest.raises(ValueError, match="unknown mesh format"):
            save_mesh(_meshes.tetrahedron(), tmp_path / "m.off", format="stl")

    def test_off_counts_on_header_line(self, tmp_path):
        path = tmp_path / "m.off"
        path.write_text("OFF 3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(path)
        assert mesh.num_vertices == 3
        assert mesh.num_triangles == 1

    def test_off_comments_and_blanks(self, tmp_path):
        path = tmp_path / "m.off"
        path.write_text(
            "# comment\nOFF\n\n3 1 0  # counts\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert load_mesh(path).num_vertices == 3

    def test_off_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "m.off"
        path.write_text("NOFF\n3 1 0\n")
        with pytest.raises(MeshParseError, match="line 1: missing OFF header"):
            load_mesh(path)
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n")
        with pytest.raises(MeshParseError, match="line 4: bad number in vertex 1"):
            load_mesh(path)
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 2\n")
        with pytest.raises(MeshParseError, match="line 6: face 0"):
            load_mesh(path)
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
        with pytest.raises(MeshParseError, match="end of file.*vertex 2"):
            load_mesh(path)

    def test_obj_slash_indices(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n")
        mesh = load_mesh(path)
        assert np.array_equal(mesh.triangles, [[0, 1, 2]])

    def test_obj_rejects_quads_and_negative(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n")
        with pytest.raises(MeshParseError, match="line 5.*triangles only"):
            load_mesh(path)
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -1\n")
        with pytest.raises(MeshParseError, match="non-positive"):
            load_mesh(path)

    def test_obj_ignores_other_directives(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("vn 0 0 1\nusemtl x\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        assert load_mesh(path).num_triangles == 1

    def test_ply_color_round_trip(self, tmp_path):
        mesh = _meshes.tetrahedron()
        colors = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255], [7, 8, 9]],
                          dtype=np.uint8)
        path = tmp_path / "m.ply"
        save_mesh(mesh, path, colors=colors)
        verts, tris, back = mesh_module._parse_ply(path.read_text())
        assert np.array_equal(verts, mesh.vertices)
        assert np.array_equal(tris, mesh.triangles)
        assert np.array_equal(back, colors)
        # plain loader still accepts the colored file
        assert load_mesh(path).num_vertices == 4

    def test_ply_without_colors(self, tmp_path):
        path = tmp_path / "m.ply"
        save_mesh(_meshes.tetrahedron(), path)
        _, _, colors = mesh_module._parse_ply(path.read_text())
        assert colors is None

    def test_colors_rejected_elsewhere(self, tmp_path):
        mesh = _meshes.tetrahedron()
        colors = np.zeros((4, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="only supported by the PLY"):
            save_mesh(mesh, tmp_path / "m.off", colors=colors)

    def test_color_shape_and_range_checked(self, tmp_path):
        mesh = _meshes.tetrahedron()
        with pytest.raises(ValueError, match="shape"):
            save_mesh(mesh, tmp_path / "m.ply", colors=np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            save_mesh(mesh, tmp_path / "m.ply", colors=np.full((4, 3), 300))

    def test_ply_rejects_binary(self, tmp_path):
        path = tmp_path / "m.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(MeshParseError, match="only ASCII"):
            load_mesh(path)

    def test_ply_errors(self, tmp_path):
        path = tmp_path / "m.ply"
        path.write_text("solid\n")
        with pytest.raises(MeshParseError, match="missing 'ply' magic"):
            load_mesh(path)
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                        "property float64 x\nproperty float64 y\n"
                        "property float64 z\nend_header\n0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(MeshParseError, match="vertex and face"):
            load_mesh(path)

    def test_loaded_mesh_is_validated(self, tmp_path):
        path = tmp_path / "m.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n")
        with pytest.raises(MeshValidationError, match="face 0 references vertex 5"):
            load_mesh(path)


def _vertex_colors(mesh):
    return (np.arange(3 * mesh.num_vertices) * 37 % 256).astype(np.uint8).reshape(-1, 3)


class TestWriterParity:
    """save_mesh writes the line-wise writers' text byte for byte."""

    @pytest.mark.parametrize("fmt,oracle", [
        ("off", _oracles.emit_off), ("obj", _oracles.emit_obj), ("ply", _oracles.emit_ply),
    ])
    def test_plain(self, parity_mesh, tmp_path, fmt, oracle):
        path = tmp_path / f"m.{fmt}"
        save_mesh(parity_mesh, path)
        assert path.read_bytes() == oracle(parity_mesh).encode()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_ply_colors(self, parity_mesh, tmp_path, dtype):
        colors = _vertex_colors(parity_mesh).astype(dtype)
        path = tmp_path / "m.ply"
        save_mesh(parity_mesh, path, colors=colors)
        assert path.read_bytes() == _oracles.emit_ply(parity_mesh, colors).encode()


TRI = "0 0 0\n1 0 0\n0 1 0\n"

# files both readers accept: (format, text)
ACCEPTED_TEXTS = {
    "off-comments": ("off", "# lead\nOFF # kind\n3 1 0 # counts\n# mid\n0 0 0 # v0\n"
                            "1 0 0\n0 1 0\n# before faces\n3 0 1 2 # f0\n# tail\n"),
    "off-blanks-header-counts": ("off", "\nOFF 3 1 0\n\n0 0 0\n \t\n1 0 0\n\n0 1 0\n\n3 0 1 2\n\n"),
    "off-crlf": ("off", "OFF\r\n3 1 0\r\n0 0 0\r\n1 0 0\r\n0 1 0\r\n3 0 1 2\r\n"),
    "off-cr-and-formfeed": ("off", "OFF\r3 1 0\r0 0 0\x0c1 0 0\x0b0 1 0\r3 0 1 2"),
    "off-signs-inf-nan": ("off", "OFF\n3 1 0\n+2 -0 1e-3\ninf -inf nan\n-Infinity 1E+2 .5\n"
                                 "3 +0 1 +2\n"),
    "off-trailing-lines": ("off", f"OFF\n3 1 0\n{TRI}3 0 1 2\nnot a face\n4 0 1 2 3\n"),
    "off-indented-no-final-newline": ("off", "  off\n\t3 1\n  0 0 0\n\t1 0 0\n 0 1 0\n  3 0 1 2"),
    "off-non-ascii-comment": ("off", "OFF\n# caf\u00e9 \u2603\n3 1 0\n0 0 0 # \u00e9\n"
                                     "1 0 0\n0 1 0\n3 0 1 2\n"),
    "off-non-ascii-blanks": ("off", "OFF\n3 1 0\n0\u00a00 0\n1 0 0\n\u3000\n0 1 0\x1f\n"
                                    "3 0 1 2\u2028\n"),
    "off-underscores": ("off", "OFF\n3 1 0\n1_0 0 0\n1 0 0\n0 1 0\n3 0 1_0 2\n"),
    "off-no-faces": ("off", f"OFF\n3 0 0\n{TRI}"),
    "ply-extra-properties": ("ply", "ply\nformat ascii 1.0\ncomment made by hand\n"
                                    "element vertex 3\nproperty float nx\nproperty float z\n"
                                    "property float x\nproperty float y\n"
                                    "property uchar red\nproperty uchar green\n"
                                    "property uchar blue\nproperty uchar alpha\n"
                                    "element face 1\nproperty list uchar int vertex_indices\n"
                                    "end_header\n1 0 0 0 255 0 0 9\n1 0 1 0 0 255.7 0 9\n"
                                    "1 0 0 1 -0.5 0 255 9\n3 0 1 2\n"),
    "ply-underscores": ("ply", "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                               "property float y\nproperty float z\nelement face 1\n"
                               "property list uchar int vertex_indices\nend_header\n"
                               "1_0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"),
    "ply-unknown-elements": ("ply", "ply\nformat ascii 1.0\nelement material 2\n"
                                    "property float shine\nelement vertex 3\n"
                                    "property float x\nproperty float y\nproperty float z\n"
                                    "element edge 2\nproperty int a\nproperty int b\n"
                                    "element face 1\nproperty list uchar int vertex_indices\n"
                                    "element tail 1\nproperty float t\nend_header\n"
                                    f"0.5\n1 2 3 4 5\n{TRI}0 1\n1 2\n3 0 1 2\nanything\n"),
    "obj-slash-indices": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2//2 3/x\n"),
    "obj-comments-other-directives": ("obj", "# made by hand\nmtllib a/b.mtl\no thing\n"
                                             "vn 0 0 1\nvt 0 0\nv 0 0 0 # v1\n\tv 1 0 0\n"
                                             "v1 9 9 9\nv\t0\t1\t0\nusemtl x\ns off\n"
                                             "f 1 2 3 # f1\n"),
    "obj-interleaved-crlf": ("obj", "v 0 0 0\r\nv 1 0 0\r\nf 1 2 3\r\nv 0 1 0\r\n"
                                    "v +2 -0 1e-3\r\nf 2 4 3\r\n"),
    "obj-signs-inf-nan": ("obj", "v +2 -0 1e-3\nv inf -inf nan\nv -Infinity 1E+2 .5\n"
                                 "f +1 2 +3\n"),
    "obj-underscores": ("obj", "v 1_0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 1_0\n"),
    "obj-non-ascii-blanks": ("obj", "v\u00a00 0 0\nv 1 0 0\nv 0 1 0\u3000\nf\u00a01 2 3\n"),
    "obj-no-faces": ("obj", "v 0 0 0\nv 1 0 0\n"),
    "obj-empty": ("obj", "# nothing\n"),
    "ply-body-comments-crlf": ("ply", "ply\r\nformat ascii 1.0\r\nelement vertex 3\r\n"
                                      "property float x\r\nproperty float y\r\n"
                                      "property float z\r\nelement face 1\r\n"
                                      "property list uchar int vertex_indices\r\n"
                                      "end_header\r\n0 0 0\r\ncomment inside\r\n\r\n"
                                      "1 0 0\r\n0 1 0\r\n 3 0 1 2\r\n"),
}

PLY_HEAD = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
            "property float y\nproperty float z\nelement face 1\n"
            "property list uchar int vertex_indices\nend_header\n")
PLY_RGB_HEAD = PLY_HEAD.replace("property float z\n", "property float z\nproperty uchar red\n"
                                "property uchar green\nproperty uchar blue\n")

# files both readers reject: (format, text)
MALFORMED_TEXTS = {
    "off-bad-float": ("off", "OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n"),
    "off-bad-float-after-formfeed": ("off", "OFF\n3 1 0\n0 0 0\x0c1 0 x\n0 1 0\n3 0 1 2\n"),
    "off-face-index-2.5": ("off", f"OFF\n3 1 0\n{TRI}3 0 1 2.5\n"),
    "off-face-index-2.0": ("off", f"OFF\n3 1 0\n{TRI}3 0 1 2.0\n"),
    "off-face-index-huge": ("off", f"OFF\n3 1 0\n{TRI}3 0 1 99999999999999999999\n"),
    "off-vertex-2-numbers": ("off", "OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n"),
    "off-vertex-4-numbers": ("off", "OFF\n3 1 0\n0 0 0\n1 0 0 1\n0 1 0\n3 0 1 2\n"),
    "off-all-vertices-4-numbers": ("off", "OFF\n3 1 0\n0 0 0 1\n1 0 0 1\n0 1 0 1\n3 0 1 2\n"),
    "off-face-led-by-4": ("off", f"OFF\n3 1 0\n{TRI}4 0 1 2 2\n"),
    "off-face-led-by-03": ("off", f"OFF\n3 1 0\n{TRI}03 0 1 2\n"),
    "off-face-led-by-+3": ("off", f"OFF\n3 1 0\n{TRI}+3 0 1 2\n"),
    "off-face-3-tokens": ("off", f"OFF\n3 1 0\n{TRI}3 0 1\n"),
    "off-face-only-3": ("off", f"OFF\n3 1 0\n{TRI}3\n"),
    "off-ends-in-vertices": ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n"),
    "off-ends-in-vertices-after-bad": ("off", "OFF\n3 1 0\n0 0 0\n1 0\n"),
    "off-ends-in-faces": ("off", f"OFF\n3 2 0\n{TRI}3 0 1 2\n# no more\n"),
    "off-empty": ("off", ""),
    "off-only-comments": ("off", "# nothing\n\n"),
    "off-no-header": ("off", f"3 1 0\n{TRI}3 0 1 2\n"),
    "off-wrong-magic": ("off", f"NOFF\n3 1 0\n{TRI}3 0 1 2\n"),
    "off-header-no-counts": ("off", "OFF\n"),
    "off-non-integer-counts": ("off", f"OFF\n3.0 1 0\n{TRI}3 0 1 2\n"),
    "off-counts-not-numbers": ("off", "OFF\nx y\n"),
    "off-one-count": ("off", f"OFF\n3\n{TRI}"),
    "obj-bad-float": ("obj", "v 0 0 0\nv 1 0 x\nv 0 1 0\nf 1 2 3\n"),
    "obj-vertex-2-numbers": ("obj", "v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n"),
    "obj-vertex-4-numbers": ("obj", "v 0 0 0\nv 1 0 0 1\nv 0 1 0\nf 1 2 3\n"),
    "obj-all-vertices-4-numbers": ("obj", "v 0 0 0 1\nv 1 0 0 1\nv 0 1 0 1\nf 1 2 3\n"),
    "obj-lone-v": ("obj", "v 0 0 0\nv\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"),
    "obj-lone-f": ("obj", f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf # none\n"),
    "obj-quad": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n"),
    "obj-all-quads": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\nf 4 3 2 1\n"),
    "obj-face-2-indices": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n"),
    "obj-negative-index": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -1\n"),
    "obj-zero-index": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 0 1 2\n"),
    "obj-index-2.0": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3.0\n"),
    "obj-index-huge": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n"),
    "obj-slash-led-token": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 /3\n"),
    "obj-slash-only": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 //\n"),
    "obj-slash-quad": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf /4 1/1 2/2 3/3\n"),
    "obj-bad-index-after-good-faces": ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
                                              "f 1/1 x/2 3\n"),
    "ply-no-magic": ("ply", "solid\n"),
    "ply-binary": ("ply", "ply\nformat binary_little_endian 1.0\nend_header\n"),
    "ply-unrecognized-header": ("ply", "ply\nformat ascii 1.0\nobj_info x\nend_header\n"),
    "ply-property-first": ("ply", "ply\nformat ascii 1.0\nproperty float x\nend_header\n"),
    "ply-header-ends": ("ply", "ply\nformat ascii 1.0\nelement vertex 3\n"),
    "ply-no-faces": ("ply", "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                            f"property float y\nproperty float z\nend_header\n{TRI}"),
    "ply-vertex-lacks-z": ("ply", PLY_HEAD.replace("property float z\n", "") + TRI),
    "ply-bad-float": ("ply", PLY_HEAD + "0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n"),
    "ply-bad-float-after-u2028": ("ply", PLY_HEAD + "0 0 0\u20281 0 x\n0 1 0\n3 0 1 2\n"),
    "ply-hash-in-body": ("ply", PLY_HEAD + "0 0 0 # note\n1 0 0\n0 1 0\n3 0 1 2\n"),
    "ply-vertex-2-numbers": ("ply", PLY_HEAD + "0 0 0\n1 0\n0 1 0\n3 0 1 2\n"),
    "ply-face-index-2.0": ("ply", PLY_HEAD + TRI + "3 0 1 2.0\n"),
    "ply-quad": ("ply", PLY_HEAD + TRI + "4 0 1 2 2\n"),
    "ply-ends-in-vertices": ("ply", PLY_HEAD + "0 0 0\n"),
    "ply-ends-in-faces": ("ply", PLY_HEAD + TRI),
    "ply-ends-in-unknown": ("ply", PLY_HEAD.replace("end_header", "element extra 2\n"
                                                    "property float e\nend_header")
                            + TRI + "3 0 1 2\n0.5\n"),
    "ply-color-300": ("ply", PLY_RGB_HEAD + "0 0 0 1 2 3\n1 0 0 300 0 0\n0 1 0 1 2 3\n3 0 1 2\n"),
    "ply-color-nan": ("ply", PLY_RGB_HEAD + "0 0 0 1 2 3\n1 0 0 nan 0 0\n0 1 0 1 2 3\n3 0 1 2\n"),
    "ply-color-negative": ("ply", PLY_RGB_HEAD + "0 0 0 -1 2 3\n1 0 0 0 0 0\n0 1 0 1 2 3\n"
                                                 "3 0 1 2\n"),
}

# header faults the line-wise readers let escape as IndexError, a bare
# ValueError or MemoryError: (format, text, message of the MeshParseError)
HEADER_FAULTS = {
    "off-negative-count": ("off", f"OFF\n-1 1 0\n{TRI}", "line 2: negative element count -1"),
    "off-negative-face-count": ("off", f"OFF 3 -2\n{TRI}", "line 1: negative element count -2"),
    # the rows are allocated for the lines present, not the count declared
    "off-huge-count": ("off", "OFF\n1000000000000 1 0\n0 0 0\n",
                       "unexpected end of file while reading vertex 1"),
    "ply-huge-face-count": ("ply", PLY_HEAD.replace("face 1", "face 1000000000000") + TRI,
                            "unexpected end of file while reading face 0"),
    "ply-non-integer-count": ("ply", "ply\nformat ascii 1.0\nelement vertex 3.5\nend_header\n",
                              "line 3: non-integer element count"),
    "ply-negative-count": ("ply", PLY_HEAD.replace("vertex 3", "vertex -3"),
                           "line 3: negative element count -3"),
    "ply-format-alone": ("ply", "ply\nformat\nend_header\n",
                         "line 2: incomplete header line 'format'"),
    "ply-element-without-count": ("ply", "ply\nformat ascii 1.0\nelement vertex\n",
                                  "line 3: incomplete header line 'element vertex'"),
}


class TestHeaderFaults:
    """Header faults raise a MeshParseError, not an IndexError or MemoryError."""

    @pytest.mark.parametrize("name", HEADER_FAULTS)
    def test_header_fault_is_parse_error(self, name, tmp_path):
        fmt, text, message = HEADER_FAULTS[name]
        path = tmp_path / f"m.{fmt}"
        path.write_text(text)
        with pytest.raises(MeshParseError) as got:
            load_mesh(path)
        assert str(got.value) == f"{path}: {message}"


READERS = {"off": (mesh_module._parse_off, _oracles.parse_off),
           "obj": (mesh_module._parse_obj, _oracles.parse_obj),
           "ply": (mesh_module._parse_ply, _oracles.parse_ply)}


def _assert_bit_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestReaderParity:
    """The array-speed readers against the line-wise ones."""

    @pytest.mark.parametrize("name", ACCEPTED_TEXTS)
    def test_accepted(self, name):
        fmt, text = ACCEPTED_TEXTS[name]
        reader, oracle = READERS[fmt]
        _assert_bit_equal(reader(text), oracle(text))

    @pytest.mark.parametrize("name", MALFORMED_TEXTS)
    def test_malformed(self, name):
        fmt, text = MALFORMED_TEXTS[name]
        reader, oracle = READERS[fmt]
        with pytest.raises(Exception) as expected:
            oracle(text)
        with pytest.raises(type(expected.value)) as got:
            reader(text)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_underscore_digits_still_parse(self):
        # np.loadtxt rejects "1_0"; the line-wise rescan takes it as int()
        # and float() do
        verts, tris = mesh_module._parse_off(ACCEPTED_TEXTS["off-underscores"][1])
        assert verts[0, 0] == 10.0
        assert tris[0].tolist() == [0, 10, 2]

    @pytest.mark.parametrize("fmt", ["off", "obj", "ply"])
    def test_written_meshes(self, parity_mesh, tmp_path, fmt):
        path = tmp_path / f"m.{fmt}"
        colors = _vertex_colors(parity_mesh) if fmt == "ply" else None
        save_mesh(parity_mesh, path, colors=colors)
        reader, oracle = READERS[fmt]
        text = path.read_text()
        got = reader(text)
        _assert_bit_equal(got, oracle(text))
        assert got[0].tobytes() == parity_mesh.vertices.tobytes()
        back = load_mesh(path)
        assert np.array_equal(back.edges, parity_mesh.edges)

    @pytest.mark.parametrize("fmt", ["off", "obj"])
    def test_reading_5k_peak_memory(self, creature_5k, tmp_path, fmt):
        # per-token Python objects took the peak to 8.6 MB (OFF) and
        # 5.44 MB (OBJ)
        path = tmp_path / f"creature_5k.{fmt}"
        save_mesh(creature_5k, path)
        tracemalloc.start()
        try:
            load_mesh(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
