"""Command-line interface and end-to-end pipeline.

Subcommands cover each stage (basis, detect, match, refine, eval, export)
plus ``run``, which chains the same stage bodies from a flat ``key = value``
config file; a flag overrides the config key of the same name.  Each
subcommand checks the keys it has flags for, before any eigensolve.  Exit
codes: 0 success, 1 computational failure, 2 usage, configuration or file
error (a bad config value or input file, or an ``out_dir`` that cannot be
created).  Errors name their stage.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .evaluate import (_threshold_grid, correspondence_error, error_curve,
                       export_colored_ply, save_error_curve)
from .matcher import match, write_match_report
from .mesh import (MeshParseError, MeshValidationError, _Lines, load_mesh,
                   shape_diameter)
from .pursuit import SolverOptions, default_weights
from .refine import load_point_map, refine_icp, save_point_map
from .regions import (DetectorParams, detect_stable_regions, load_regions,
                      region_coefficients, save_regions)
from .spectral import (DEFAULT_BASIS_SIZE, cotangent_laplacian, eigenbasis,
                       load_basis, save_basis)

__all__ = ["PipelineConfig", "PipelineError", "load_config", "run_pipeline", "main"]

_FMAP_FMT = "%.17g"


class PipelineError(Exception):
    """A stage failure carrying the stage name and the process exit code."""

    def __init__(self, stage, message, exit_code=1):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.exit_code = exit_code


def _default(function, parameter):
    return inspect.signature(function).parameters[parameter].default


@dataclass
class PipelineConfig:
    """Flat pipeline configuration; field names double as config keys.

    Every stage setting takes its default from the library: DetectorParams,
    SolverOptions, or the keyword of the function that uses it.
    """

    mesh_x: str = ""
    mesh_y: str = ""
    out_dir: str = "out"
    basis_size: int = DEFAULT_BASIS_SIZE
    basis_cache_x: str = ""
    basis_cache_y: str = ""
    region_source: str = "detect"  # "detect" or "files"
    regions_x: str = ""
    regions_y: str = ""
    num_functions: int = DetectorParams.num_functions
    levels: int = DetectorParams.levels
    stability_tol: float = DetectorParams.stability_tol
    stability_window: int = DetectorParams.stability_window
    min_area_frac: float = DetectorParams.min_area_frac
    dedup_overlap: float = DetectorParams.dedup_overlap
    lam: float | None = SolverOptions.lam
    mu: float | None = SolverOptions.mu
    tol: float = SolverOptions.tol
    max_iter: int = SolverOptions.max_iter
    accel: bool = SolverOptions.accelerated
    weight_p: float = _default(default_weights, "power")
    prune_ratio: float = _default(match, "prune_ratio")
    max_outer: int = _default(match, "max_outer")
    outer_tol: float = _default(match, "outer_tol")
    refine_iters: int = _default(refine_icp, "max_iters")
    truth: str = ""
    diameter_samples: int = _default(shape_diameter, "sample_count")
    threshold_max: float = _default(_threshold_grid, "top")
    threshold_step: float = _default(_threshold_grid, "step")


# config key -> dataclass field, in declaration order
_FIELDS = {f.name: f for f in fields(PipelineConfig)}

# config keys appearing under a different flag spelling
_KEY_ALIASES = {"lambda": "lam"}

_CHOICES = {"region_source": ("detect", "files")}

_DETECTOR_KEYS = tuple(f.name for f in fields(DetectorParams))

# solver config key -> SolverOptions field
_SOLVER_KEYS = dict(lam="lam", mu="mu", tol="tol", max_iter="max_iter", accel="accelerated")

# config key -> (test its value passes, what it must be); NaN fails every
# test.  DetectorParams and SolverOptions check their own keys.
_RULES = {key: (lambda value: value >= 1, "must be positive") for key in
          ("basis_size", "max_outer", "refine_iters", "diameter_samples")} | {
    "prune_ratio": (lambda value: value >= 1, "must be at least 1"),
    "outer_tol": (lambda value: 0 <= value < np.inf, "must be finite and nonnegative"),
    "weight_p": (lambda value: -np.inf < value < np.inf, "must be finite"),
}


def _field_kind(field):
    """Scalar type of a dataclass field: bool, int, float or str."""
    return {"int": int, "float": float, "bool": bool,
            "float | None": float}.get(field.type, str)


def _parse_value(key, raw, kind):
    raw = raw.strip()
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {key}: expected a boolean, got {raw!r}")
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


def load_config(path):
    """Parse a flat ``key = value`` config file into a PipelineConfig."""
    config = PipelineConfig()
    with _guard("config", reading=True):
        for lineno, line in _Lines(Path(path).read_text(), cut="#").lines:
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = _KEY_ALIASES.get(key.strip(), key.strip())
            if key not in _FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                setattr(config, key, _parse_value(key, value, _field_kind(_FIELDS[key])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return config


def _detector_params(config):
    return DetectorParams(**{key: getattr(config, key) for key in _DETECTOR_KEYS})


def _solver_options(config):
    return SolverOptions(**{name: getattr(config, key)
                            for key, name in _SOLVER_KEYS.items()})


def _check(config, keys):
    """Raise ValueError for the first rule the values of ``keys`` break: each
    key's own, then DetectorParams and SolverOptions, then those across keys."""
    for key in keys:
        value = getattr(config, key)
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ValueError(f"unknown {key} {value!r}")
        if key in _RULES and not _RULES[key][0](value):
            raise ValueError(f"{key} {_RULES[key][1]}")
    if not set(keys).isdisjoint(_DETECTOR_KEYS):
        params = _detector_params(config)
        if config.region_source == "detect" and config.basis_size <= params.num_functions:
            raise ValueError(f"num_functions {params.num_functions} needs basis_size "
                             f"{params.num_functions + 1} or more, got {config.basis_size}")
    if not set(keys).isdisjoint(_SOLVER_KEYS):
        _solver_options(config)
    if "region_source" in keys and config.region_source == "files" and not (
            config.regions_x and config.regions_y):
        raise ValueError("region_source=files needs regions_x and regions_y")
    if not set(keys).isdisjoint(("threshold_max", "threshold_step")):
        try:
            _threshold_grid(config.threshold_max, config.threshold_step)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"threshold_max {config.threshold_max}, "
                             f"threshold_step {config.threshold_step}: {exc}") from None


def _load_basis_mesh(config, path):
    """The mesh at ``path``; ValueError unless it holds ``basis_size`` vertices."""
    mesh = load_mesh(path)
    if config.basis_size > mesh.num_vertices:
        raise ValueError(f"{path}: basis_size {config.basis_size} exceeds the "
                         f"mesh's {mesh.num_vertices} vertices")
    return mesh


def save_functional_map(functional_map, path):
    np.savetxt(path, np.asarray(functional_map), fmt=_FMAP_FMT)


def load_functional_map(path):
    lines = _Lines(Path(path).read_text(), cut="#").lines
    if not lines:
        raise ValueError(f"{path}: empty functional map")
    mat = np.loadtxt([line for _, line in lines], dtype=np.float64,
                     comments=None, ndmin=2)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{path}: functional map must be square, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{path}: functional map entries must be finite")
    return mat


@contextlib.contextmanager
def _guard(stage, reading=False):
    """Re-raise a stage failure as a PipelineError naming the stage.

    Exit 2 for a file that cannot be read or written, a mesh that cannot
    be parsed, and any failure while ``reading`` the config or an input
    file; exit 1 for a failed computation.  Anything else propagates, a
    PipelineError included.
    """
    try:
        yield
    except (OSError, MeshParseError, MeshValidationError) as exc:
        raise PipelineError(stage, str(exc), exit_code=2) from exc
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        raise PipelineError(stage, str(exc), exit_code=2 if reading else 1) from exc


def _mesh_basis(mesh, cache_path, size):
    """Basis from cache when available, else computed (and cached if asked)."""
    if cache_path and Path(cache_path).exists():
        with _guard("basis", reading=True):
            basis = load_basis(cache_path)
            if basis.num_vertices != mesh.num_vertices:
                raise ValueError(
                    f"{cache_path}: cache has {basis.num_vertices} vertices, "
                    f"mesh has {mesh.num_vertices}")
            if basis.size < size:
                raise ValueError(
                    f"{cache_path}: cache holds {basis.size} functions, need {size}")
        if basis.size > size:
            basis = replace(basis, functions=basis.functions[:, :size],
                            eigenvalues=basis.eigenvalues[:size])
        return basis
    stiffness, masses = cotangent_laplacian(mesh)
    basis = eigenbasis(stiffness, masses, size)
    if cache_path:
        save_basis(basis, cache_path)
    return basis


def _out_dir(config):
    """The output directory, created when missing."""
    with _guard("output"):
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _refine(config, basis_x, basis_y, functional_map):
    """ICP from ``functional_map``; writes the point map and refined map."""
    out_dir = _out_dir(config)
    with _guard("refine"):
        refined = refine_icp(basis_x, basis_y, functional_map,
                             max_iters=config.refine_iters)
        save_point_map(refined.point_map, out_dir / "point_map.txt")
        save_functional_map(refined.functional_map,
                            out_dir / "functional_map_refined.txt")
    return refined


def _evaluate(config, point_map, mesh_y, truth):
    """Errors against ``truth``; writes the curve and the summary."""
    out_dir = _out_dir(config)
    with _guard("evaluate"):
        diameter = shape_diameter(mesh_y, config.diameter_samples)
        errors = correspondence_error(point_map, truth, mesh_y, diameter)
        thresholds = _threshold_grid(config.threshold_max, config.threshold_step)
        save_error_curve(error_curve(errors, thresholds), out_dir / "error_curve.txt")
        (out_dir / "eval_summary.txt").write_text(
            f"mean_error = {float(errors.mean()):.12f}\n"
            f"median_error = {float(np.median(errors)):.12f}\n")
    return errors


def _export(config, mesh_x, mesh_y, point_map):
    out_dir = _out_dir(config)
    with _guard("export"):
        export_colored_ply(mesh_x, mesh_y, point_map,
                           out_dir / "x_colored.ply", out_dir / "y_colored.ply")


def run_pipeline(config, until="end"):
    """Execute load, basis, regions, match, refine, evaluate, export.

    ``until="match"`` stops after the matching stage (the ``match``
    subcommand); the default runs everything.  Returns a dict with
    artifact paths, the timing breakdown, and summary numbers.  All report
    artifacts are deterministic functions of the config; timings live in
    their own file so reports stay byte-stable.
    """
    if until not in ("match", "end"):
        raise ValueError(f"unknown pipeline stop point {until!r}")
    t_total = time.perf_counter()
    with _guard("config", reading=True):
        _check(config, _FIELDS)
    out_dir = _out_dir(config)

    with _guard("load", reading=True):
        if not config.mesh_x or not config.mesh_y:
            raise ValueError("mesh_x and mesh_y are required")
        for path in (config.mesh_x, config.mesh_y):
            if not Path(path).exists():
                raise FileNotFoundError(f"mesh file not found: {path}")
        mesh_x = _load_basis_mesh(config, config.mesh_x)
        mesh_y = _load_basis_mesh(config, config.mesh_y)
    if config.region_source == "files":
        with _guard("regions", reading=True):
            regions_x = load_regions(config.regions_x, mesh_x)
            regions_y = load_regions(config.regions_y, mesh_y)
    if config.truth and until == "end":
        with _guard("evaluate", reading=True):
            truth = load_point_map(config.truth, num_targets=mesh_y.num_vertices)

    t0 = time.perf_counter()
    with _guard("basis"):
        basis_x = _mesh_basis(mesh_x, config.basis_cache_x, config.basis_size)
        basis_y = _mesh_basis(mesh_y, config.basis_cache_y, config.basis_size)
    t_basis = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _guard("regions"):
        if config.region_source == "detect":
            params = _detector_params(config)
            regions_x = detect_stable_regions(mesh_x, basis_x, params)
            regions_y = detect_stable_regions(mesh_y, basis_y, params)
        save_regions(regions_x, out_dir / "regions_x.txt")
        save_regions(regions_y, out_dir / "regions_y.txt")
    t_regions = time.perf_counter() - t0

    t0 = time.perf_counter()
    with _guard("match"):
        coeffs_x = region_coefficients(regions_x, basis_x)
        coeffs_y = region_coefficients(regions_y, basis_y)
        weights = default_weights(config.basis_size, config.weight_p)
        result = match(coeffs_x, coeffs_y, regions_x, regions_y,
                       weights=weights, options=_solver_options(config),
                       prune_ratio=config.prune_ratio,
                       max_outer=config.max_outer, outer_tol=config.outer_tol)
        write_match_report(result, out_dir / "match_report.txt")
        if result.degenerate:
            raise ValueError(f"degenerate map (C = 0) at lambda {result.lam:.6g}, "
                             f"mu {result.mu:.6g}; see match_report.txt")
        save_functional_map(result.functional_map, out_dir / "functional_map.txt")
    t_match = time.perf_counter() - t0

    t_refine = 0.0
    mean_error = None
    if until == "end":
        t0 = time.perf_counter()
        refined = _refine(config, basis_x, basis_y, result.functional_map)
        t_refine = time.perf_counter() - t0
        if config.truth:
            mean_error = float(_evaluate(config, refined.point_map, mesh_y, truth).mean())
        _export(config, mesh_x, mesh_y, refined.point_map)

    timings = {
        "Basis": t_basis,
        "Regions": t_regions,
        "Opt.": t_match,
        "Ref.": t_refine,
        "Tot.": time.perf_counter() - t_total,
    }
    (out_dir / "timings.txt").write_text(
        "".join(f"{name:<8s} {seconds:8.2f}\n" for name, seconds in timings.items()))

    return {
        "out_dir": out_dir,
        "timings": timings,
        "outer_iterations": result.outer_iterations,
        "mean_error": mean_error,
    }


# -- subcommands -------------------------------------------------------------
# A flag named like a config key sets that key; the rest name command inputs.


def _config_from_args(args):
    """The config file's values, if a file is given, under the flags set;
    checked here, or by run_pipeline for ``run`` and ``match``."""
    config = PipelineConfig()
    if getattr(args, "config", None):
        config = load_config(args.config)
    for key in _FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if args.command not in ("run", "match"):
        with _guard(args.command, reading=True):
            _check(config, args.config_keys)
    return config


def _cmd_basis(args, config):
    with _guard(args.command, reading=True):
        mesh = _load_basis_mesh(config, args.mesh)
    basis = _mesh_basis(mesh, "", config.basis_size)
    save_basis(basis, args.output)
    print(f"wrote {args.output} ({basis.num_vertices} vertices, {basis.size} functions)")


def _cmd_detect(args, config):
    with _guard(args.command, reading=True):
        mesh = _load_basis_mesh(config, args.mesh)
    basis = _mesh_basis(mesh, args.basis_cache, config.basis_size)
    regions = detect_stable_regions(mesh, basis, _detector_params(config))
    save_regions(regions, args.output)
    print(f"wrote {args.output} ({len(regions)} regions)")


def _cmd_pipeline(args, config):
    """``run`` and ``match``; region files switch the region source to files."""
    if args.regions_x or args.regions_y:
        config.region_source = "files"
    result = run_pipeline(config, until="end" if args.command == "run" else "match")
    print(f"artifacts in {result['out_dir']}")
    print((result["out_dir"] / "timings.txt").read_text(), end="")
    if result["mean_error"] is not None:
        print(f"mean normalized error: {result['mean_error']:.6f}")


def _cmd_refine(args, config):
    with _guard(args.command, reading=True):
        basis_x, basis_y = load_basis(args.basis_x), load_basis(args.basis_y)
        fmap = load_functional_map(args.fmap)
        n = basis_x.size
        if basis_y.size != n:
            raise ValueError(f"{args.basis_x} and {args.basis_y}: basis sizes "
                             f"differ: {n} vs {basis_y.size}")
        if fmap.shape != (n, n):
            raise ValueError(f"{args.fmap}: functional map must be ({n}, {n}) "
                             f"for the bases, got {fmap.shape}")
    refined = _refine(config, basis_x, basis_y, fmap)
    print(f"wrote {Path(config.out_dir) / 'point_map.txt'} "
          f"({refined.iterations} iterations)")


def _cmd_eval(args, config):
    with _guard(args.command, reading=True):
        mesh_y = load_mesh(config.mesh_y)
        truth = load_point_map(config.truth, num_targets=mesh_y.num_vertices)
        predicted = load_point_map(args.map, num_targets=mesh_y.num_vertices)
    _evaluate(config, predicted, mesh_y, truth)
    out_dir = Path(config.out_dir)
    print((out_dir / "eval_summary.txt").read_text(), end="")
    print(f"wrote {out_dir / 'error_curve.txt'}")


def _cmd_export(args, config):
    with _guard(args.command, reading=True):
        mesh_x = load_mesh(config.mesh_x)
        mesh_y = load_mesh(config.mesh_y)
        predicted = load_point_map(args.map, num_targets=mesh_y.num_vertices)
    _export(config, mesh_x, mesh_y, predicted)
    out_dir = Path(config.out_dir)
    print(f"wrote {out_dir / 'x_colored.ply'} and {out_dir / 'y_colored.ply'}")


def _add_config_flags(sub, keys, required=(), dash_o=False):
    """One flag per config key in ``keys``, default None so only set flags
    override the config; ``dash_o`` also spells ``--out-dir`` as ``-o``.
    ``keys`` are also the subcommand's ``config_keys``, the ones it checks."""
    sub.set_defaults(config_keys=tuple(keys))
    flag_names = {key: flag for flag, key in _KEY_ALIASES.items()}
    for key in keys:
        kind = _field_kind(_FIELDS[key])
        if kind is bool:
            # boolean keys default to on; the flag turns one off
            sub.add_argument(f"--no-{key}", dest=key,
                             action="store_false", default=None)
            continue
        flags = [f"--{flag_names.get(key, key).replace('_', '-')}"]
        if dash_o and key == "out_dir":
            flags.insert(0, "-o")
        sub.add_argument(*flags, dest=key, type=kind, choices=_CHOICES.get(key),
                         required=key in required)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shapecorr",
        description="Dense correspondence between near-isometric triangle meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="compute and cache an eigenbasis")
    p.add_argument("mesh")
    p.add_argument("-o", "--output", required=True)
    _add_config_flags(p, ["basis_size"])

    p = sub.add_parser("detect", help="detect stable regions")
    p.add_argument("mesh")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--basis-cache", dest="basis_cache", default="")
    _add_config_flags(p, ["basis_size", *_DETECTOR_KEYS])

    for name, help_text in (("match", "run the pipeline through matching"),
                            ("run", "run the full pipeline from a config file")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        _add_config_flags(p, _FIELDS)

    p = sub.add_parser("refine", help="refine a functional map to a point map")
    p.add_argument("--basis-x", dest="basis_x", required=True)
    p.add_argument("--basis-y", dest="basis_y", required=True)
    p.add_argument("--fmap", required=True)
    _add_config_flags(p, ["out_dir", "refine_iters"], dash_o=True)

    p = sub.add_parser("eval", help="score a point map against ground truth")
    p.add_argument("--map", required=True)
    _add_config_flags(p, ["truth", "mesh_y", "out_dir", "diameter_samples",
                          "threshold_max", "threshold_step"],
                      required=("truth", "mesh_y"), dash_o=True)

    p = sub.add_parser("export", help="write color-matched PLY pairs")
    p.add_argument("--map", required=True)
    _add_config_flags(p, ["mesh_x", "mesh_y", "out_dir"],
                      required=("mesh_x", "mesh_y"), dash_o=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {"basis": _cmd_basis, "detect": _cmd_detect, "match": _cmd_pipeline,
               "run": _cmd_pipeline, "refine": _cmd_refine, "eval": _cmd_eval,
               "export": _cmd_export}[args.command]
    try:
        with _guard(args.command):
            handler(args, _config_from_args(args))
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
