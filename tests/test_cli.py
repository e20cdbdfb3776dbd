"""Config parsing, generated flags, pipeline artifacts, and exit codes."""

import argparse
import contextlib
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import _meshes
from shapecorr import (DEFAULT_THRESHOLDS, DetectorParams, SolverOptions,
                       SpectralBasis, cotangent_laplacian, default_weights,
                       eigenbasis, geodesic_distance_matrix, load_basis, match,
                       refine_icp, region_coefficients, regions_from_members,
                       save_basis, save_mesh, save_regions, shape_diameter)
from shapecorr import cli
from shapecorr.cli import (PipelineConfig, PipelineError, _config_from_args,
                           _detector_params, _solver_options, build_parser,
                           load_config, load_functional_map, main,
                           run_pipeline, save_functional_map)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Self-pair of the small limbed shape plus a tuned config on disk."""
    tmp = tmp_path_factory.mktemp("cli")
    mesh = _meshes.creature(2)
    save_mesh(mesh, tmp / "x.off")
    save_mesh(mesh, tmp / "y.off")
    (tmp / "truth.txt").write_text(
        "\n".join(str(i) for i in range(mesh.num_vertices)) + "\n")

    config_text = "\n".join([
        "# pipeline smoke configuration",
        f"mesh_x = {tmp / 'x.off'}",
        f"mesh_y = {tmp / 'y.off'}",
        f"out_dir = {tmp / 'out'}",
        "basis_size = 20",
        "num_functions = 12",
        "levels = 256",
        f"truth = {tmp / 'truth.txt'}",
        f"basis_cache_x = {tmp / 'bx.bin'}",
        f"basis_cache_y = {tmp / 'by.bin'}",
    ]) + "\n"
    (tmp / "config.cfg").write_text(config_text)
    return {"tmp": tmp, "mesh": mesh}


@pytest.fixture(scope="module")
def ran(env):
    config = load_config(env["tmp"] / "config.cfg")
    return run_pipeline(config)


class TestConfig:
    def test_parses_values_and_alias(self, env, tmp_path):
        config = load_config(env["tmp"] / "config.cfg")
        assert config.basis_size == 20
        assert config.levels == 256
        assert (config.lam, config.mu) == (None, None)
        assert config.mesh_x.endswith("x.off")
        path = tmp_path / "c.cfg"
        path.write_text("lambda = 0.125\nmu = 0.5\n")
        config = load_config(path)
        assert (config.lam, config.mu) == (0.125, 0.5)

    def test_defaults_match_dataclass(self, tmp_path):
        (tmp_path / "empty.cfg").write_text("# nothing set\n\n")
        config = load_config(tmp_path / "empty.cfg")
        assert config == PipelineConfig()

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("basis_size = 20\nshrinkage = 3\n")
        with pytest.raises(PipelineError, match=r":2: unknown key") as info:
            load_config(path)
        assert info.value.exit_code == 2

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        with pytest.raises(PipelineError, match="expected 'key = value'"):
            load_config(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("levels = many\n")
        with pytest.raises(PipelineError, match=":1:") as info:
            load_config(path)
        assert info.value.exit_code == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(PipelineError) as info:
            load_config(tmp_path / "absent.cfg")
        assert info.value.exit_code == 2


PIPELINE_FLAGS = {
    "--config", "--mesh-x", "--mesh-y", "--out-dir", "--basis-size",
    "--basis-cache-x", "--basis-cache-y", "--region-source", "--regions-x",
    "--regions-y", "--num-functions", "--levels", "--stability-tol",
    "--stability-window", "--min-area-frac", "--dedup-overlap", "--lambda",
    "--mu", "--tol", "--max-iter", "--weight-p", "--prune-ratio",
    "--max-outer", "--refine-iters",
    "--truth", "--diameter-samples", "--threshold-max", "--threshold-step",
}


# every flag of every subcommand; positionals appear by name
SUBCOMMAND_FLAGS = {
    "basis": {"mesh", "-o", "--output", "--basis-size"},
    "detect": {"mesh", "-o", "--output", "--basis-cache", "--basis-size",
               "--num-functions", "--levels", "--stability-tol",
               "--stability-window", "--min-area-frac", "--dedup-overlap"},
    "match": PIPELINE_FLAGS,
    "run": PIPELINE_FLAGS,
    "refine": {"--basis-x", "--basis-y", "--fmap", "-o", "--out-dir",
               "--refine-iters"},
    "eval": {"--map", "--truth", "--mesh-y", "-o", "--out-dir",
             "--diameter-samples", "--threshold-max", "--threshold-step"},
    "export": {"--mesh-x", "--mesh-y", "--map", "-o", "--out-dir"},
}


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _default(function, parameter):
    return inspect.signature(function).parameters[parameter].default


class TestParser:
    def test_subcommands(self):
        assert set(_subparsers()) == set(SUBCOMMAND_FLAGS)

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_pipeline_flags(self, command):
        flags = {opt for action in _subparsers()[command]._actions
                 for opt in action.option_strings or [action.dest]}
        assert len(PIPELINE_FLAGS) == 28
        assert flags - {"-h", "--help"} == SUBCOMMAND_FLAGS[command]

    def test_pipeline_flags_parse_typed(self):
        args = build_parser().parse_args(
            ["run", "--basis-size", "7", "--lambda", "0.5",
             "--region-source", "files", "--regions-x", "r.txt"])
        assert args.basis_size == 7
        assert args.lam == 0.5
        assert (args.region_source, args.regions_x) == ("files", "r.txt")
        # unset flags stay None so they never override a config file
        assert args.levels is None and args.mu is None and args.truth is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--region-source", "guess"])

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect", "m.off", "-o", "r.txt"])
        assert _detector_params(_config_from_args(args)) == DetectorParams()

    def test_config_defaults_match_stage_defaults(self):
        config = PipelineConfig()
        assert _detector_params(config) == DetectorParams()
        assert _solver_options(config) == SolverOptions()

    def test_config_defaults_match_library_defaults(self):
        config = PipelineConfig()
        assert config.weight_p == _default(default_weights, "power")
        assert config.prune_ratio == _default(match, "prune_ratio")
        assert config.max_outer == _default(match, "max_outer")
        assert config.refine_iters == _default(refine_icp, "max_iters")
        assert config.diameter_samples == _default(shape_diameter, "sample_count")
        thresholds = np.arange(0.0, config.threshold_max + 1e-9,
                               config.threshold_step)
        assert np.array_equal(thresholds, DEFAULT_THRESHOLDS)

    def test_refine_and_eval_defaults(self):
        args = build_parser().parse_args(
            ["refine", "--basis-x", "a", "--basis-y", "b", "--fmap", "f"])
        assert _config_from_args(args) == PipelineConfig()
        args = build_parser().parse_args(
            ["eval", "--map", "p", "--truth", "t", "--mesh-y", "y"])
        assert _config_from_args(args) == PipelineConfig(truth="t", mesh_y="y")


class TestFunctionalMapIO:
    def test_round_trip_exact(self, tmp_path, rng):
        mat = rng.standard_normal((6, 6))
        path = tmp_path / "fmap.txt"
        save_functional_map(mat, path)
        assert np.array_equal(load_functional_map(path), mat)

    def test_rejects_non_square(self, tmp_path):
        np.savetxt(tmp_path / "bad.txt", np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            load_functional_map(tmp_path / "bad.txt")


class TestPipeline:
    EXPECTED = ["error_curve.txt", "eval_summary.txt", "functional_map.txt",
                "functional_map_refined.txt", "match_report.txt",
                "point_map.txt", "regions_x.txt", "regions_y.txt",
                "timings.txt", "x_colored.ply", "y_colored.ply"]

    def test_all_artifacts_written(self, env, ran):
        names = sorted(p.name for p in (env["tmp"] / "out").iterdir())
        assert names == self.EXPECTED == sorted(cli._ARTIFACTS)

    @pytest.mark.parametrize("change, until, error, left", [
        ({"lam": 1e6}, "end", "stage match: degenerate map",
         ["match_report.txt", "regions_x.txt", "regions_y.txt"]),
        ({"num_functions": 6}, "match", None,
         ["functional_map.txt", "match_report.txt", "regions_x.txt",
          "regions_y.txt", "timings.txt"]),
    ], ids=["degenerate-map", "until-match"])
    def test_rerun_leaves_no_earlier_artifact(self, env, ran, tmp_path, change,
                                              until, error, left):
        # a failed run, or one that stops after matching, into the directory
        # of a full run keeps none of that run's maps, scores or PLYs
        config = load_config(env["tmp"] / "config.cfg")
        config.out_dir = str(tmp_path / "out")
        run_pipeline(config)
        with (pytest.raises(PipelineError, match=error) if error
              else contextlib.nullcontext()):
            run_pipeline(replace(config, **change), until=until)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == left

    @pytest.mark.parametrize("key, value, message", [
        ("basis_size", 20.0, "basis_size must be an integer, got 20.0"),
        ("levels", 64.5, "levels must be an integer, got 64.5"),
        ("stability_window", 5.5, "stability_window must be an integer, got 5.5"),
        ("max_iter", 50.5, "max_iter must be an integer, got 50.5"),
        ("max_outer", 2.5, "max_outer must be an integer, got 2.5"),
        ("refine_iters", 3.5, "refine_iters must be an integer, got 3.5"),
        ("lam", "0.1", "lam must be a number, got '0.1'"),
        ("tol", None, "tol must be a number, got None"),
        ("mesh_x", 3, "mesh_x must be a path, got 3"),
        ("out_dir", None, "out_dir must be a path, got None"),
    ])
    def test_config_value_of_the_wrong_type(self, env, tmp_path, monkeypatch,
                                            key, value, message):
        # rejected at stage config, before any eigenbasis is computed
        config = replace(load_config(env["tmp"] / "config.cfg"),
                         **{"out_dir": str(tmp_path / "out"), key: value})
        bases = []
        monkeypatch.setattr(cli, "_mesh_basis", lambda *a: bases.append(a))
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        assert str(info.value) == f"stage config: {message}"
        assert info.value.exit_code == 2 and not bases

    def test_path_objects_as_paths(self, env, ran, tmp_path):
        # a pathlib.Path serves wherever a str path does
        config = load_config(env["tmp"] / "config.cfg")
        paths = {key: Path(getattr(config, key))
                 for key in ("mesh_x", "mesh_y", "basis_cache_x", "basis_cache_y", "truth")}
        result = run_pipeline(replace(config, out_dir=tmp_path / "out", **paths))
        assert result["mean_error"] == ran["mean_error"]
        assert ((tmp_path / "out" / "point_map.txt").read_bytes()
                == (env["tmp"] / "out" / "point_map.txt").read_bytes())

    def test_self_pair_is_exact(self, env, ran):
        assert ran["mean_error"] == 0.0
        assert ran["outer_iterations"] <= 5
        pm = np.loadtxt(env["tmp"] / "out" / "point_map.txt", dtype=np.int64)
        assert np.array_equal(pm, np.arange(env["mesh"].num_vertices))
        curve = np.loadtxt(env["tmp"] / "out" / "error_curve.txt")
        assert (curve[:, 1] == 1.0).all()

    def test_summary_file(self, env, ran):
        text = (env["tmp"] / "out" / "eval_summary.txt").read_text()
        values = dict(line.split(" = ") for line in text.strip().splitlines())
        assert float(values["mean_error"]) == 0.0
        assert float(values["median_error"]) == 0.0

    def test_timing_stages(self, env, ran):
        lines = (env["tmp"] / "out" / "timings.txt").read_text().splitlines()
        names = [line.split()[0] for line in lines]
        assert names == ["Basis", "Regions", "Opt.", "Ref.", "Tot."]
        assert all(float(line.split()[1]) >= 0.0 for line in lines)

    def test_basis_cache_reused(self, env, ran):
        # caches were written on the first run; a rerun must reproduce the
        # map bit for bit while loading the cached bases
        assert (env["tmp"] / "bx.bin").exists()
        config = load_config(env["tmp"] / "config.cfg")
        config.out_dir = str(env["tmp"] / "out2")
        rerun = run_pipeline(config)
        assert rerun["mean_error"] == 0.0
        first = (env["tmp"] / "out" / "functional_map.txt").read_bytes()
        second = (env["tmp"] / "out2" / "functional_map.txt").read_bytes()
        assert first == second

    def test_until_match_skips_refinement(self, env):
        config = load_config(env["tmp"] / "config.cfg")
        config.out_dir = str(env["tmp"] / "out_match")
        result = run_pipeline(config, until="match")
        names = sorted(p.name for p in (env["tmp"] / "out_match").iterdir())
        assert "point_map.txt" not in names
        assert "x_colored.ply" not in names
        assert "match_report.txt" in names
        assert result["mean_error"] is None
        assert result["timings"]["Ref."] == 0.0

    def test_named_region_files_are_read(self, tmp_path):
        # region files and no region_source, as ``shapecorr match`` reads them
        mesh = _meshes.creature(3)
        save_mesh(mesh, tmp_path / "x.off")
        radius = 0.3 * shape_diameter(mesh)
        balls = geodesic_distance_matrix(mesh, np.array([0, 150, 300, 450])) <= radius
        save_regions(regions_from_members(balls, mesh), tmp_path / "rx.txt")
        config = PipelineConfig(mesh_x=str(tmp_path / "x.off"), mesh_y=str(tmp_path / "x.off"),
                                out_dir=str(tmp_path / "out"), regions_x=str(tmp_path / "rx.txt"),
                                regions_y=str(tmp_path / "rx.txt"))
        run_pipeline(config, until="match")
        for name in ("regions_x.txt", "regions_y.txt"):
            assert (tmp_path / "out" / name).read_text() == (tmp_path / "rx.txt").read_text()

    def test_unknown_stop_point(self, env):
        config = load_config(env["tmp"] / "config.cfg")
        with pytest.raises(ValueError, match="stop point"):
            run_pipeline(config, until="sometime")

    def test_missing_meshes_fail_fast(self, tmp_path):
        config = PipelineConfig(out_dir=str(tmp_path / "out"))
        with pytest.raises(PipelineError, match="required") as info:
            run_pipeline(config)
        assert info.value.exit_code == 2

    def test_nonexistent_mesh_path(self, tmp_path):
        config = PipelineConfig(mesh_x=str(tmp_path / "nope.off"),
                                mesh_y=str(tmp_path / "nope.off"),
                                out_dir=str(tmp_path / "out"))
        with pytest.raises(PipelineError, match="not found") as info:
            run_pipeline(config)
        assert info.value.exit_code == 2


# (argv, exit code, stderr text); {file} is an existing plain file, {guess}
# the env config with an unknown region_source, {regions} a region file
# with a bad index on line 2, {b12} the target basis cache cut to 12
# functions, {bnan} the target basis cache with a NaN function value,
# {nanmap} a 20 x 20 functional map with one NaN entry, {hugemap} and
# {hugeregions} a point map and a region file with an index beyond int64 on
# line 2, {stl} a file whose extension names no mesh format
FAILURES = [
    ("run --config {cfg} --out-dir {file}", 2, "stage output: [Errno 17]"),
    ("run --config {cfg} --out-dir {file}/out", 2, "stage output: [Errno 20]"),
    ("match --config {cfg} --out-dir {file}", 2, "stage output: [Errno 17]"),
    ("refine --basis-x {bx} --basis-y {by} --fmap {fmap} -o {file}", 2,
     "stage output: [Errno 17]"),
    ("eval --map {map} --truth {truth} --mesh-y {y} -o {file}", 2,
     "stage output: [Errno 17]"),
    ("export --mesh-x {x} --mesh-y {y} --map {map} -o {file}/ex", 2,
     "stage output: [Errno 20]"),
    ("basis {x} -o {file}/b.bin", 2, "stage basis: [Errno 20]"),
    ("eval --map {map} --truth {truth} --mesh-y {y} -o {tmp}/ev "
     "--threshold-step 0", 2,
     "stage eval: threshold_max 0.25, threshold_step 0.0: float division by zero"),
    ("eval --map {map} --truth {truth} --mesh-y {y} -o {tmp}/ev "
     "--threshold-step -0.01", 2, "stage eval: threshold_max 0.25, "
     "threshold_step -0.01: thresholds must not be empty"),
    ("run --config {cfg} --out-dir {tmp}/out --threshold-step -0.01", 2,
     "stage config: threshold_max 0.25, threshold_step -0.01: thresholds must not be empty"),
    ("run --config {cfg} --out-dir {tmp}/out --threshold-max -1", 2,
     "stage config: threshold_max -1.0, threshold_step 0.01: thresholds must not be empty"),
    ("run --config {cfg} --out-dir {tmp}/out --threshold-max 0.6", 2,
     "stage config: threshold_max 0.6, threshold_step 0.01: thresholds must lie in"),
    ("run --config {guess} --out-dir {tmp}/out", 2,
     "stage config: unknown region_source 'guess'"),
    ("run --config {cfg} --out-dir {tmp}/out --regions-x {regions}", 2,
     "stage config: region_source=files needs regions_x and regions_y"),
    ("run --config {cfg} --out-dir {tmp}/out --levels 2", 2,
     "stage config: levels must be at least stability_window"),
    ("run --config {cfg} --out-dir {tmp}/out --max-iter 0", 2,
     "stage config: max_iter must be positive"),
    ("run --config {cfg} --out-dir {tmp}/out --stability-tol nan", 2,
     "stage config: stability_tol must be finite and nonnegative"),
    ("run --config {cfg} --out-dir {tmp}/out --stability-tol -0.01", 2,
     "stage config: stability_tol must be finite and nonnegative"),
    ("run --config {cfg} --out-dir {tmp}/out --min-area-frac nan", 2,
     "stage config: min_area_frac must be in [0, 1]"),
    ("run --config {cfg} --out-dir {tmp}/out --min-area-frac 1.5", 2,
     "stage config: min_area_frac must be in [0, 1]"),
    ("run --config {cfg} --out-dir {tmp}/out --regions-x {regions} "
     "--regions-y {regions}", 2, "stage regions: {regions}:2: bad vertex index"),
    ("run --config {cfg} --out-dir {tmp}/out --truth {file}", 2,
     "stage evaluate: {file}:1: expected a vertex index"),
    ("eval --map {file} --truth {truth} --mesh-y {y} -o {tmp}/ev", 2,
     "stage eval: {file}:1: expected a vertex index"),
    ("refine --basis-x {file} --basis-y {by} --fmap {fmap} -o {tmp}/ref", 2,
     "stage refine: {file}: not a basis cache file"),
    ("refine --basis-x {bx} --basis-y {by} --fmap {file} -o {tmp}/ref", 2,
     "stage refine: {file}:1: could not convert string to float: 'not'"),
    ("refine --basis-x {bx} --basis-y {by} --fmap {badfmap} -o {tmp}/ref", 2,
     "stage refine: {badfmap}:3: could not convert string to float: 'x'"),
    ("refine --basis-x {bx} --basis-y {by} --fmap {ragged} -o {tmp}/ref", 2,
     "stage refine: {ragged}:2: expected 2 numbers, got 1"),
    ("run --config {cfg} --out-dir {tmp}/out --mesh-y {badmesh}", 2,
     "stage load: {badmesh}: line 4: expected 3 numbers for vertex 1, got 2"),
    ("refine --basis-x {bx} --basis-y {by} --fmap {small} -o {tmp}/ref", 2,
     "stage refine: {small}: functional map must be (20, 20) for the bases, "
     "got (5, 5)"),
    ("refine --basis-x {bx} --basis-y {by} --fmap {empty} -o {tmp}/ref", 2,
     "stage refine: {empty}: empty functional map"),
    ("refine --basis-x {bx} --basis-y {by} --fmap {nanmap} -o {tmp}/ref", 2,
     "stage refine: {nanmap}: functional map entries must be finite"),
    ("refine --basis-x {bx} --basis-y {bnan} --fmap {fmap} -o {tmp}/ref", 2,
     "stage refine: {bnan}: basis functions must be finite"),
    ("refine --basis-x {bx} --basis-y {b12} --fmap {fmap} -o {tmp}/ref", 2,
     "stage refine: {bx} and {b12}: basis sizes differ: 20 vs 12"),
    ("eval --map {neg} --truth {truth} --mesh-y {y} -o {tmp}/ev", 2,
     "stage eval: {neg}:3: vertex index must be nonnegative, got -1"),
    ("eval --map {hugemap} --truth {truth} --mesh-y {y} -o {tmp}/ev", 2,
     "stage eval: {hugemap}:2: vertex index 99999999999999999999 out of range [0, 162)"),
    ("run --config {cfg} --out-dir {tmp}/out --regions-x {hugeregions} "
     "--regions-y {hugeregions}", 2, "stage regions: {hugeregions}:2: region 1 references "
     "a vertex index out of range, mesh has 162"),
    ("run --config {cfg} --out-dir {tmp}/out --mesh-y {stl}", 2,
     "stage load: {stl}: cannot infer mesh format from extension 'stl'"),
    ("export --mesh-x {x} --mesh-y {stl} --map {map} -o {tmp}/ex", 2,
     "stage export: {stl}: cannot infer mesh format from extension 'stl'"),
    ("run --config {cfg} --out-dir {tmp}/out --truth {short}", 2,
     "stage evaluate: {short}: point map has 161 entries, expected 162"),
    ("eval --map {short} --truth {truth} --mesh-y {y} -o {tmp}/ev", 2,
     "stage eval: {short}: point map has 161 entries, expected 162"),
    ("export --mesh-x {x} --mesh-y {y} --map {short} -o {tmp}/ex", 2,
     "stage export: {short}: point map has 161 entries, expected 162"),
    ("run --config {cfg} --out-dir {tmp}/out --max-outer 0", 2,
     "stage config: max_outer must be positive"),
    ("match --config {cfg} --out-dir {tmp}/out --max-outer 0", 2,
     "stage config: max_outer must be positive"),
    ("run --config {cfg} --out-dir {tmp}/out --refine-iters 0", 2,
     "stage config: refine_iters must be positive"),
    ("refine --basis-x {bx} --basis-y {by} --fmap {fmap} -o {tmp}/ref "
     "--refine-iters 0", 2, "stage refine: refine_iters must be positive"),
    ("match --config {cfg} --out-dir {tmp}/out --prune-ratio 0.5", 2,
     "stage config: prune_ratio must be at least 1"),
    ("run --config {cfg} --out-dir {tmp}/out --prune-ratio nan", 2,
     "stage config: prune_ratio must be at least 1"),
    ("run --config {cfg} --out-dir {tmp}/out --diameter-samples 0", 2,
     "stage config: diameter_samples must be positive"),
    ("eval --map {map} --truth {truth} --mesh-y {y} -o {tmp}/ev "
     "--diameter-samples 0", 2, "stage eval: diameter_samples must be positive"),
    ("run --config {cfg} --out-dir {tmp}/out --basis-size 0", 2,
     "stage config: basis_size must be positive"),
    ("basis {x} -o {tmp}/b.bin --basis-size 0", 2,
     "stage basis: basis_size must be positive"),
    ("run --config {cfg} --out-dir {tmp}/out --weight-p nan", 2,
     "stage config: weight_p nan: power must be nonnegative"),
    ("run --config {cfg} --out-dir {tmp}/out --weight-p -1000", 2,
     "stage config: weight_p -1000.0: power must be nonnegative"),
    ("run --config {cfg} --out-dir {tmp}/out --weight-p 1000", 2,
     "stage config: weight_p 1000.0: weights overflow: 20^power is not finite"),
    ("run --config {cfg} --out-dir {tmp}/out --basis-size 5 --num-functions 6", 2,
     "stage config: num_functions 6 needs basis_size 7 or more, got 5"),
    ("detect {x} -o {tmp}/r.txt --basis-size 5 --num-functions 6", 2,
     "stage detect: num_functions 6 needs basis_size 7 or more, got 5"),
    ("run --config {cfg} --out-dir {tmp}/out --basis-size 163", 2,
     "stage load: {x}: basis_size 163 exceeds the mesh's 162 vertices"),
    ("match --config {cfg} --out-dir {tmp}/out --basis-size 163", 2,
     "stage load: {x}: basis_size 163 exceeds the mesh's 162 vertices"),
    ("basis {x} -o {tmp}/b.bin --basis-size 163", 2,
     "stage basis: {x}: basis_size 163 exceeds the mesh's 162 vertices"),
    ("detect {x} -o {tmp}/r.txt --basis-size 163", 2,
     "stage detect: {x}: basis_size 163 exceeds the mesh's 162 vertices"),
    ("run --config {cfg} --out-dir {tmp}/out --lambda nan", 2,
     "stage config: lam must be finite and nonnegative"),
    ("run --config {cfg} --out-dir {tmp}/out --lambda inf", 2,
     "stage config: lam must be finite and nonnegative"),
    ("run --config {cfg} --out-dir {tmp}/out --mu nan", 2,
     "stage config: mu must be finite and nonnegative"),
    ("run --config {cfg} --out-dir {tmp}/out --mu inf", 2,
     "stage config: mu must be finite and nonnegative"),
    ("run --config {cfg} --out-dir {tmp}/out --tol nan", 2,
     "stage config: tol must be finite and positive"),
    ("run --config {cfg} --out-dir {tmp}/out --tol inf", 2,
     "stage config: tol must be finite and positive"),
]


# per ruled config key: flags that break its rule, and the message
RULE_BREAKERS = {
    "basis_size": ("--basis-size 0", "basis_size must be positive"),
    "region_source": ("--region-source files",
                      "region_source=files needs regions_x and regions_y"),
    "num_functions": ("--num-functions 0", "num_functions must be positive"),
    "levels": ("--levels 2", "levels must be at least stability_window"),
    "stability_tol": ("--stability-tol nan",
                      "stability_tol must be finite and nonnegative"),
    "stability_window": ("--stability-window 1",
                         "stability_window must be at least 2"),
    "min_area_frac": ("--min-area-frac nan", "min_area_frac must be in [0, 1]"),
    "dedup_overlap": ("--dedup-overlap 0", "dedup_overlap must be in (0, 1]"),
    "lam": ("--lambda -1", "lam must be finite and nonnegative"),
    "mu": ("--mu inf", "mu must be finite and nonnegative"),
    "tol": ("--tol 0", "tol must be finite and positive"),
    "max_iter": ("--max-iter 0", "max_iter must be positive"),
    "weight_p": ("--weight-p nan", "weight_p nan: power must be nonnegative"),
    "prune_ratio": ("--prune-ratio 0.5", "prune_ratio must be at least 1"),
    "max_outer": ("--max-outer 0", "max_outer must be positive"),
    "refine_iters": ("--refine-iters 0", "refine_iters must be positive"),
    "diameter_samples": ("--diameter-samples 0", "diameter_samples must be positive"),
    "threshold_max": ("--threshold-max 0.6", "threshold_max 0.6, threshold_step "
                      "0.01: thresholds must lie in [0, 0.5]"),
    "threshold_step": ("--threshold-step nan", "threshold_max 0.25, threshold_step "
                       "nan: "),
}

# each subcommand's required arguments; no file under {tmp} exists
COMMAND_ARGV = {
    "basis": "basis {tmp}/x.off -o {tmp}/b.bin",
    "detect": "detect {tmp}/x.off -o {tmp}/r.txt",
    "match": "match --config {cfg} --out-dir {tmp}/out",
    "run": "run --config {cfg} --out-dir {tmp}/out",
    "refine": "refine --basis-x {tmp}/bx.bin --basis-y {tmp}/by.bin "
              "--fmap {tmp}/f.txt -o {tmp}/ref",
    "eval": "eval --map {tmp}/p.txt --truth {tmp}/t.txt --mesh-y {tmp}/y.off "
            "-o {tmp}/ev",
    "export": "export --mesh-x {tmp}/x.off --mesh-y {tmp}/y.off --map {tmp}/p.txt "
              "-o {tmp}/ex",
}


# every (subcommand, key with a rule) pair, from the keys each subcommand
# takes as flags and checks
RULED_PAIRS = [(command, key) for command, parser in _subparsers().items()
               for key in parser.get_default("config_keys") if key in RULE_BREAKERS]


class TestMain:
    @pytest.mark.parametrize("argv, code, message", FAILURES)
    def test_failure_exit_codes(self, env, ran, tmp_path, capsys, monkeypatch,
                                recwarn, argv, code, message):
        (tmp_path / "file").write_text("not a directory\n")
        np.savetxt(tmp_path / "small.txt", np.eye(5))
        (tmp_path / "empty.txt").write_text("")
        (tmp_path / "neg.txt").write_text("0\n# one below the first vertex\n-1\n")
        (tmp_path / "huge.txt").write_text("0\n99999999999999999999\n")
        (tmp_path / "hugeregions.txt").write_text("0 1 2\n3 99999999999999999999\n")
        (tmp_path / "y.stl").write_text("solid y\nendsolid y\n")
        truth_lines = (env["tmp"] / "truth.txt").read_text().splitlines(keepends=True)
        (tmp_path / "short.txt").write_text("".join(truth_lines[:-1]))
        config_text = (env["tmp"] / "config.cfg").read_text()
        (tmp_path / "guess.cfg").write_text(config_text + "region_source = guess\n")
        (tmp_path / "regions.txt").write_text("0 1 2\n0 x 3\n")
        (tmp_path / "badfmap.txt").write_text("# a 2 x 2 map\n1 0\n0 x\n")
        (tmp_path / "ragged.txt").write_text("1 0\n0\n")
        (tmp_path / "bad.off").write_text("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n")
        by = load_basis(env["tmp"] / "by.bin")
        cut = SpectralBasis(by.functions[:, :12], by.eigenvalues[:12], by.masses)
        save_basis(cut, tmp_path / "b12.bin")
        blob = (env["tmp"] / "by.bin").read_bytes()
        (tmp_path / "bnan.bin").write_bytes(blob[:-8] + np.array([np.nan], dtype="<f8").tobytes())
        nanmap = np.eye(20)
        nanmap[3, 4] = np.nan
        np.savetxt(tmp_path / "nanmap.txt", nanmap)
        out_a = env["tmp"] / "out"
        paths = {"tmp": tmp_path, "file": tmp_path / "file",
                 "cfg": env["tmp"] / "config.cfg", "x": env["tmp"] / "x.off",
                 "y": env["tmp"] / "y.off", "truth": env["tmp"] / "truth.txt",
                 "bx": env["tmp"] / "bx.bin", "by": env["tmp"] / "by.bin",
                 "fmap": out_a / "functional_map.txt",
                 "map": out_a / "point_map.txt",
                 "guess": tmp_path / "guess.cfg", "regions": tmp_path / "regions.txt",
                 "small": tmp_path / "small.txt", "empty": tmp_path / "empty.txt",
                 "b12": tmp_path / "b12.bin", "bnan": tmp_path / "bnan.bin",
                 "nanmap": tmp_path / "nanmap.txt", "neg": tmp_path / "neg.txt",
                 "short": tmp_path / "short.txt", "badfmap": tmp_path / "badfmap.txt",
                 "ragged": tmp_path / "ragged.txt", "badmesh": tmp_path / "bad.off",
                 "hugemap": tmp_path / "huge.txt",
                 "hugeregions": tmp_path / "hugeregions.txt", "stl": tmp_path / "y.stl"}
        bases = []
        mesh_basis = cli._mesh_basis
        monkeypatch.setattr(cli, "_mesh_basis",
                            lambda *a: bases.append(a) or mesh_basis(*a))
        assert main(argv.format(**paths).split()) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(**paths)}")
        assert "Warning" not in err and not recwarn.list
        # only the basis row that fails writing its result gets as far as
        # computing or loading an eigenbasis
        assert len(bases) == argv.startswith("basis {x} -o {file}")

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_threshold_grid_out_of_memory(self, env, tmp_path, capsys, monkeypatch,
                                          command):
        # a grid too large to allocate is a bad config value; the failed
        # allocation is simulated, never made
        def too_large(top, step):
            raise MemoryError("Unable to allocate 1.82 TiB for an array")
        monkeypatch.setattr(cli, "_threshold_grid", too_large)
        bases = []
        monkeypatch.setattr(cli, "_mesh_basis", lambda *a: bases.append(a))
        argv = COMMAND_ARGV[command].format(tmp=tmp_path, cfg=env["tmp"] / "config.cfg")
        assert main([*argv.split(), "--threshold-step", "1e-12"]) == 2
        stage = "config" if command == "run" else command
        assert capsys.readouterr().err.startswith(
            f"error: stage {stage}: threshold_max 0.25, threshold_step 1e-12: "
            "Unable to allocate")
        assert not bases

    @pytest.mark.parametrize("cache, message", [
        ("other", "cache has 12 vertices, mesh has 162"),
        ("cut", "cache holds 12 functions, need 20"),
        ("twin", "cache was solved on another mesh (its vertex masses differ)"),
    ])
    def test_basis_cache_mismatch(self, env, ran, tmp_path, capsys, cache, message):
        # a source cache written for another mesh, cut below basis_size, or
        # solved on a jittered twin with the same vertex count
        if cache == "other":
            basis = eigenbasis(*cotangent_laplacian(_meshes.icosahedron()), 12)
        elif cache == "twin":
            twin = _meshes.jittered(env["mesh"], 0.005, 3)
            basis = eigenbasis(*cotangent_laplacian(twin), 20)
        else:
            bx = load_basis(env["tmp"] / "bx.bin")
            basis = SpectralBasis(bx.functions[:, :12], bx.eigenvalues[:12], bx.masses)
        path = tmp_path / f"{cache}.bin"
        save_basis(basis, path)
        code = main(["run", "--config", str(env["tmp"] / "config.cfg"),
                     "--out-dir", str(tmp_path / "out"), "--basis-cache-x", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: stage basis: {path}: {message}")

    def test_every_ruled_key_has_a_breaker(self):
        counts = {key for key, field in cli._FIELDS.items() if cli._field_kind(field) is int}
        ruled = (counts | {"prune_ratio"} | set(cli._CHOICES) | set(cli._DETECTOR_KEYS)
                 | set(cli._SOLVER_KEYS)
                 | {"weight_p", "threshold_max", "threshold_step"})
        assert set(RULE_BREAKERS) == ruled
        assert set(COMMAND_ARGV) == set(_subparsers())

    @pytest.mark.parametrize("command, key", RULED_PAIRS,
                             ids=[f"{c}-{k}" for c, k in RULED_PAIRS])
    def test_subcommand_checks_each_ruled_key(self, env, tmp_path, capsys,
                                              monkeypatch, recwarn, command, key):
        # the check comes before any input file is read or eigenbasis
        # computed; run and match check at stage config, the others under
        # their own name
        flags, message = RULE_BREAKERS[key]
        argv = COMMAND_ARGV[command].format(tmp=tmp_path, cfg=env["tmp"] / "config.cfg")
        bases = []
        monkeypatch.setattr(cli, "_mesh_basis", lambda *a: bases.append(a))
        assert main([*argv.split(), *flags.split()]) == 2
        stage = "config" if command in ("run", "match") else command
        assert capsys.readouterr().err.startswith(f"error: stage {stage}: {message}")
        assert not bases and not recwarn.list

    def test_run_with_region_files(self, env, ran, tmp_path):
        # the first 12 of the detected regions, header line kept
        lines = (env["tmp"] / "out" / "regions_x.txt").read_text().splitlines()
        regions = tmp_path / "regions.txt"
        regions.write_text("\n".join(lines[:13]) + "\n")
        code = main(["run", "--config", str(env["tmp"] / "config.cfg"),
                     "--out-dir", str(tmp_path / "out"),
                     "--regions-x", str(regions), "--regions-y", str(regions)])
        assert code == 0
        for name in ("regions_x.txt", "regions_y.txt"):
            assert (tmp_path / "out" / name).read_text() == regions.read_text()

    def test_run_with_region_files_from_the_config(self, env, ran, tmp_path):
        # region files named in the config, with no region_source, are used
        lines = (env["tmp"] / "out" / "regions_x.txt").read_text().splitlines()
        regions = tmp_path / "regions.txt"
        regions.write_text("\n".join(lines[:13]) + "\n")
        config = tmp_path / "config.cfg"
        config.write_text((env["tmp"] / "config.cfg").read_text()
                          + f"regions_x = {regions}\nregions_y = {regions}\n")
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        for name in ("regions_x.txt", "regions_y.txt"):
            assert (tmp_path / "out" / name).read_text() == regions.read_text()

    def test_run_subcommand(self, env, tmp_path, capsys):
        code = main(["run", "--config", str(env["tmp"] / "config.cfg"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean normalized error: 0.000000" in out
        assert (tmp_path / "out" / "point_map.txt").exists()

    def test_flag_overrides_config(self, env, tmp_path, capsys):
        # an impossible detector override must fail computationally
        code = main(["run", "--config", str(env["tmp"] / "config.cfg"),
                     "--out-dir", str(tmp_path / "out"),
                     "--stability-tol", "0.0"])
        assert code == 1
        assert "no regions detected" in capsys.readouterr().err

    def test_degenerate_map_fails_the_match_stage(self, env, ran, tmp_path,
                                                  capsys):
        # a lambda that prices the map out: the report stays for
        # inspection, and no map file is written
        out = tmp_path / "out"
        code = main(["run", "--config", str(env["tmp"] / "config.cfg"),
                     "--out-dir", str(out), "--lambda", "1e6"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: stage match: degenerate map (C = 0)")
        assert (out / "match_report.txt").exists()
        assert not (out / "functional_map.txt").exists()

    def test_match_keeps_an_exact_map_whose_rows_all_carry_outliers(
            self, creature4, creature4_basis, tmp_path):
        # twelve spread geodesic balls against the same balls plus three
        # small spurious caps, shuffled (the benchmark's match-planted
        # trial 2 at seed 1): prox_l21 leaves every source row an outlier
        # row wherever its residual norm exceeds mu, yet the pairing is
        # exact and C is nonzero, so the map is kept
        mesh = creature4
        m = mesh.num_vertices
        rng = np.random.default_rng(2)
        centres = [int(rng.integers(m))]
        dist = geodesic_distance_matrix(mesh, centres)[0]
        for _ in range(11):
            centres.append(int(np.argmax(dist)))
            dist = np.minimum(dist, geodesic_distance_matrix(mesh, [centres[-1]])[0])
        radii = rng.permutation(np.linspace(0.07, 0.30, 12))
        spur_centres = rng.integers(0, m, 3)
        spur_radii = rng.uniform(0.04, 0.06, 3)
        diam = shape_diameter(mesh)
        planted = geodesic_distance_matrix(mesh, centres) <= radii[:, None] * diam
        spurious = (geodesic_distance_matrix(mesh, spur_centres)
                    <= spur_radii[:, None] * diam)
        order = np.random.default_rng([1, 2]).permutation(15)
        rx = regions_from_members(planted, mesh)
        ry = regions_from_members(np.vstack([planted, spurious])[order], mesh)

        result = match(region_coefficients(rx, creature4_basis),
                       region_coefficients(ry, creature4_basis), rx, ry)
        assert result.outliers.any(axis=1).all()
        assert np.array_equal(result.assignment.cols, np.argsort(order)[:12])
        assert not result.degenerate

        save_mesh(mesh, tmp_path / "x.off")
        save_basis(creature4_basis, tmp_path / "b.bin")
        save_regions(rx, tmp_path / "rx.txt")
        save_regions(ry, tmp_path / "ry.txt")
        code = main(["match", "--mesh-x", str(tmp_path / "x.off"),
                     "--mesh-y", str(tmp_path / "x.off"),
                     "--basis-cache-x", str(tmp_path / "b.bin"),
                     "--basis-cache-y", str(tmp_path / "b.bin"),
                     "--regions-x", str(tmp_path / "rx.txt"),
                     "--regions-y", str(tmp_path / "ry.txt"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert np.loadtxt(tmp_path / "out" / "functional_map.txt").any()

    def test_basis_and_detect_subcommands(self, env, tmp_path, capsys):
        mesh_path = str(env["tmp"] / "x.off")
        basis_path = str(tmp_path / "basis.bin")
        assert main(["basis", mesh_path, "-o", basis_path,
                     "--basis-size", "20"]) == 0
        regions_path = str(tmp_path / "regions.txt")
        assert main(["detect", mesh_path, "-o", regions_path,
                     "--basis-cache", basis_path, "--basis-size", "20",
                     "--num-functions", "12", "--levels", "256"]) == 0
        out = capsys.readouterr().out
        assert "87 regions" in out

    @pytest.mark.parametrize("size", [1, 5, 162])
    def test_basis_below_the_detector_sweep(self, env, tmp_path, size):
        # basis detects nothing, so the default num_functions is no bound;
        # the mesh's 162 vertices are, and the dense solve takes all of them
        path = tmp_path / "b.bin"
        assert main(["basis", str(env["tmp"] / "x.off"), "-o", str(path),
                     "--basis-size", str(size)]) == 0
        assert load_basis(path).size == size

    def test_match_with_region_files_and_a_small_basis(self, env, ran, tmp_path):
        # region files need no detector sweep, so 5 functions do
        out_a = env["tmp"] / "out"
        code = main(["match", "--config", str(env["tmp"] / "config.cfg"),
                     "--out-dir", str(tmp_path / "out"), "--basis-size", "5",
                     "--regions-x", str(out_a / "regions_x.txt"),
                     "--regions-y", str(out_a / "regions_y.txt")])
        assert code == 0
        assert np.loadtxt(tmp_path / "out" / "functional_map.txt").shape == (5, 5)

    def test_match_with_region_files(self, env, tmp_path, capsys):
        out_a = env["tmp"] / "out"
        code = main(["match", "--config", str(env["tmp"] / "config.cfg"),
                     "--out-dir", str(tmp_path / "out"),
                     "--regions-x", str(out_a / "regions_x.txt"),
                     "--regions-y", str(out_a / "regions_y.txt")])
        assert code == 0
        assert (tmp_path / "out" / "match_report.txt").exists()

    def test_refine_eval_export_subcommands(self, env, tmp_path, capsys):
        out_a = env["tmp"] / "out"
        code = main(["refine",
                     "--basis-x", str(env["tmp"] / "bx.bin"),
                     "--basis-y", str(env["tmp"] / "by.bin"),
                     "--fmap", str(out_a / "functional_map.txt"),
                     "-o", str(tmp_path / "ref")])
        assert code == 0
        code = main(["eval",
                     "--map", str(tmp_path / "ref" / "point_map.txt"),
                     "--truth", str(env["tmp"] / "truth.txt"),
                     "--mesh-y", str(env["tmp"] / "y.off"),
                     "-o", str(tmp_path / "ev")])
        assert code == 0
        assert "mean_error = 0.000000000000" in capsys.readouterr().out
        code = main(["export",
                     "--mesh-x", str(env["tmp"] / "x.off"),
                     "--mesh-y", str(env["tmp"] / "y.off"),
                     "--map", str(tmp_path / "ref" / "point_map.txt"),
                     "-o", str(tmp_path / "ex")])
        assert code == 0
        assert (tmp_path / "ex" / "x_colored.ply").exists()

    def test_usage_error_exit_code(self, env, tmp_path, capsys):
        code = main(["run", "--mesh-x", str(tmp_path / "ghost.off"),
                     "--mesh-y", str(tmp_path / "ghost.off"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_mesh_header_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex\nend_header\n")
        code = main(["run", "--mesh-x", str(bad), "--mesh-y", str(bad),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "line 3: incomplete header line" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("who = knows\n")
        code = main(["run", "--config", str(bad)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_argparse_rejects_unknown_flag(self):
        with pytest.raises(SystemExit):
            main(["run", "--frobnicate", "1"])
