"""The three workloads: inputs built from a seed, timed ops, output checks.

A workload's ``setup`` builds every input from ``--seed`` and writes the
files the op reads.  ``round`` lists the ops of one round as
``(label, callable)``; a run repeats whole rounds.  ``check`` inspects an
op's output with :mod:`checks` only and returns a :class:`Verdict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import _meshes
import checks
import shapecorr as sc
from shapecorr import cli

# the test suite's creature detector (tests/conftest.py): the creature's
# regions only stall over narrow threshold bands
DETECTOR = sc.DetectorParams(num_functions=12, levels=256)
BASIS_SIZE = 20
JITTER = 0.005
# geodesic ball radii as fractions of the diameter (acceptance criterion 8)
PLANTED_RADII = (0.07, 0.30)
SPURIOUS_RADII = (0.04, 0.06)
PLANTED = 12
SPURIOUS = 3


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    known_fault: bool = False  # failed through the sign flip of PipelineLibrary
    info: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.problems


def readme_penalties(coeffs_x, coeffs_y):
    """The penalty recipe of README "Picking parameters"."""
    q = coeffs_x.shape[0]
    lam = 0.3 * float(np.abs(coeffs_x.T @ coeffs_x).max()) / q
    mu = 0.3 * float(np.median(np.linalg.norm(coeffs_y, axis=1)))
    return lam, mu


def planted_balls(mesh, rng):
    """Criterion 8's construction: spread centres, shuffled radii, spurious caps.

    Returns centre vertices and radii (as fractions of the diameter) of
    the planted and the spurious balls; membership is left to the caller
    so the same balls can be cut on a jittered twin.
    """
    m = mesh.num_vertices
    centres = [int(rng.integers(m))]
    dist = sc.geodesic_distance_matrix(mesh, centres)[0]
    for _ in range(PLANTED - 1):
        centres.append(int(np.argmax(dist)))
        dist = np.minimum(dist, sc.geodesic_distance_matrix(mesh, [centres[-1]])[0])
    radii = rng.permutation(np.linspace(*PLANTED_RADII, PLANTED))
    spur_centres = rng.integers(0, m, SPURIOUS)
    spur_radii = rng.uniform(*SPURIOUS_RADII, SPURIOUS)
    return centres, radii, spur_centres, spur_radii


def ball_members(mesh, centres, radii, diameter):
    dist = sc.geodesic_distance_matrix(mesh, np.asarray(centres))
    return dist <= np.asarray(radii)[:, None] * diameter


def true_functional_map(basis_x, basis_y):
    """Phi_x^T M_y Phi_y: the map of the identity correspondence of twins."""
    return basis_x.functions.T @ (basis_y.masses[:, None] * basis_y.functions)


class PipelineLibrary:
    """README "Library" sequence on creature_5k against a jittered twin.

    Each round runs three twins that the matcher gets right, picked by the
    seed, and one fixed twin on which it flips the sign of a diagonal
    functional-map coefficient: an op on that twin fails its accuracy
    check until the matcher is fixed.
    """

    name = "pipeline-5k"
    # jitter seeds of the twin: on 1-4, 7 and 11 the pipeline meets
    # criterion 7; on 5, 6, 8, 10 and 12 match flips C[3, 3]
    GOOD_TWINS = (1, 2, 3, 4, 7, 11)
    FAULT_TWIN = 5
    # a round of four ops (about a minute) outlasts a 40-s run, so every run
    # holds exactly one round; a round of three ops took as little as 37 s
    GOOD_PER_ROUND = 3

    def setup(self, seed, workdir):
        mesh_x = _meshes.creature_5k()
        paths = {"x": workdir / "x.off"}
        sc.save_mesh(mesh_x, paths["x"])
        good = self.GOOD_TWINS
        twins = tuple(good[(seed + k) % len(good)] for k in range(self.GOOD_PER_ROUND))
        twins += (self.FAULT_TWIN,)
        for t in twins:
            paths[t] = workdir / f"twin{t}.off"
            sc.save_mesh(_meshes.jittered(mesh_x, JITTER, seed=t), paths[t])
        return {"paths": paths, "twins": twins, "workdir": workdir,
                "reference": {}}

    def round(self, state):
        return [(f"twin{t}", lambda t=t: self.op(state, t)) for t in state["twins"]]

    def op(self, state, twin):
        out = state["workdir"] / f"out{twin}"
        out.mkdir(exist_ok=True)
        mesh_x = sc.load_mesh(state["paths"]["x"])
        mesh_y = sc.load_mesh(state["paths"][twin])
        basis_x = sc.eigenbasis(*sc.cotangent_laplacian(mesh_x), BASIS_SIZE)
        basis_y = sc.eigenbasis(*sc.cotangent_laplacian(mesh_y), BASIS_SIZE)
        regions_x = sc.detect_stable_regions(mesh_x, basis_x, DETECTOR)
        regions_y = sc.detect_stable_regions(mesh_y, basis_y, DETECTOR)
        coeffs_x = sc.region_coefficients(regions_x, basis_x)
        coeffs_y = sc.region_coefficients(regions_y, basis_y)
        lam, mu = readme_penalties(coeffs_x, coeffs_y)
        result = sc.match(coeffs_x, coeffs_y, regions_x, regions_y,
                          options=sc.SolverOptions(lam=lam, mu=mu))
        refined = sc.refine_icp(basis_x, basis_y, result.functional_map)
        truth = np.arange(mesh_x.num_vertices)
        diameter = sc.shape_diameter(mesh_y)
        errors = sc.correspondence_error(refined.point_map, truth, mesh_y, diameter)
        curve = sc.error_curve(errors)
        sc.export_colored_ply(mesh_x, mesh_y, refined.point_map,
                              out / "x_colored.ply", out / "y_colored.ply")
        return {"twin": twin, "mesh_y": mesh_y, "out": out, "errors": errors,
                "curve": curve, "point_map": refined.point_map.indices,
                "functional_map": result.functional_map,
                "bases": (basis_x, basis_y)}

    def _reference(self, state, twin, mesh_y):
        """Edge lists and diameter of a twin, built once per run."""
        if twin not in state["reference"]:
            adj = checks.edge_lists(mesh_y.vertices, mesh_y.triangles)
            state["reference"][twin] = (adj, checks.diameter(adj))
        return state["reference"][twin]

    def check(self, state, out, rng):
        mesh_y, errors, indices = out["mesh_y"], out["errors"], out["point_map"]
        m = mesh_y.num_vertices
        truth = np.arange(m)
        adj, diam = self._reference(state, out["twin"], mesh_y)
        sample = rng.choice(m, 64, replace=False)
        problems = checks.check_point_map(indices, m, m)
        problems += checks.check_errors_against_reference(
            errors, adj, diam, indices, truth, sample)
        problems += checks.check_curve(out["curve"].thresholds,
                                       out["curve"].fractions, errors)
        problems += checks.check_colored_export(
            out["out"] / "x_colored.ply", out["out"] / "y_colored.ply", indices)
        accuracy = checks.check_accuracy(errors)
        diag = np.diag(out["functional_map"])
        true_diag = np.diag(true_functional_map(*out["bases"]))
        flipped = (np.sign(diag) != np.sign(true_diag)) & (np.abs(true_diag) > 0.5)
        known = (bool(accuracy) and not problems and bool(flipped.any())
                 and out["twin"] == self.FAULT_TWIN)
        return Verdict(problems + accuracy, known_fault=known)


class GivenRegions:
    """``run_pipeline`` with region files: the ``shapecorr run`` path."""

    name = "given-regions-1.8k"
    LAYOUT = 0  # seed of the ball layout (README "Seeds")

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        mesh_x = _meshes.creature(base=_meshes.uv_sphere(40, 45))
        mesh_y = _meshes.jittered(mesh_x, JITTER, seed=int(rng.integers(2**31)))
        diam_x, diam_y = sc.shape_diameter(mesh_x), sc.shape_diameter(mesh_y)
        centres, radii, spur_centres, spur_radii = planted_balls(
            mesh_x, np.random.default_rng(self.LAYOUT))
        members_x = ball_members(mesh_x, centres, radii, diam_x)
        members_y = np.vstack([ball_members(mesh_y, centres, radii, diam_y),
                               ball_members(mesh_y, spur_centres, spur_radii, diam_y)])
        order_y = rng.permutation(len(members_y))
        regions_x = sc.regions_from_members(members_x, mesh_x)
        regions_y = sc.regions_from_members(members_y[order_y], mesh_y)
        paths = {k: workdir / name for k, name in (
            ("mesh_x", "x.off"), ("mesh_y", "y.off"),
            ("regions_x", "regions_x.txt"), ("regions_y", "regions_y.txt"))}
        sc.save_mesh(mesh_x, paths["mesh_x"])
        sc.save_mesh(mesh_y, paths["mesh_y"])
        sc.save_regions(regions_x, paths["regions_x"])
        sc.save_regions(regions_y, paths["regions_y"])
        basis_x = sc.eigenbasis(*sc.cotangent_laplacian(mesh_x), BASIS_SIZE)
        basis_y = sc.eigenbasis(*sc.cotangent_laplacian(mesh_y), BASIS_SIZE)
        lam, mu = readme_penalties(sc.region_coefficients(regions_x, basis_x),
                                   sc.region_coefficients(regions_y, basis_y))
        config = cli.PipelineConfig(
            mesh_x=str(paths["mesh_x"]), mesh_y=str(paths["mesh_y"]),
            out_dir=str(workdir / "out"), basis_size=BASIS_SIZE,
            region_source="files", regions_x=str(paths["regions_x"]),
            regions_y=str(paths["regions_y"]), lam=lam, mu=mu)
        # planted ball k is row k on x and row position of k on y
        want = [(k, int(np.flatnonzero(order_y == k)[0])) for k in range(PLANTED)]
        return {"config": config, "mesh_y": mesh_y, "want": want,
                "reference": None}

    def round(self, state):
        return [("run", lambda: cli.run_pipeline(state["config"]))]

    def check(self, state, out, rng):
        out_dir = Path(state["config"].out_dir)
        mesh_y = state["mesh_y"]
        m = mesh_y.num_vertices
        if state["reference"] is None:
            adj = checks.edge_lists(mesh_y.vertices, mesh_y.triangles)
            state["reference"] = (adj, checks.diameter(adj))
        adj, diam = state["reference"]
        pairing = checks.check_pairing(
            read_report_pairs(out_dir / "match_report.txt"), state["want"])
        problems = list(pairing)
        indices = np.loadtxt(out_dir / "point_map.txt", dtype=np.int64, ndmin=1)
        problems += checks.check_point_map(indices, m, m)
        if not problems:
            errors = checks.geodesic_errors(adj, diam, indices, np.arange(m), range(m))
            mean = float(errors.mean())
            if mean > checks.MAX_MEAN_ERROR:
                problems.append(f"mean geodesic error {mean:.4f} > "
                                f"{checks.MAX_MEAN_ERROR}")
        return Verdict(problems, info={"planted_exact": int(not pairing)})


def read_report_pairs(path):
    """The ``assignment_pairs:`` section of a match report as (i, j) pairs."""
    lines = Path(path).read_text().splitlines()
    start = lines.index("assignment_pairs:") + 1
    stop = lines.index("outlier_row_norms:")
    return [tuple(int(t) for t in line.split()) for line in lines[start:stop]]


class MatchPlanted:
    """Batches of ``region_coefficients`` + ``match`` on planted region sets."""

    name = "match-planted"
    TRIALS = 40
    MIN_EXACT_SHARE = 0.9

    def setup(self, seed, workdir):
        mesh = _meshes.creature(4)
        basis = sc.eigenbasis(*sc.cotangent_laplacian(mesh), BASIS_SIZE)
        diam = sc.shape_diameter(mesh)
        trials = []
        for t in range(self.TRIALS):
            # trial t's balls come from seed t, as criterion 8 draws its
            # trials, and --seed only reorders the regions: on ball layouts
            # drawn from --seed the exact share moves between 30/40 and
            # 39/40 from seed to seed (README "Seeds")
            centres, radii, spur_centres, spur_radii = planted_balls(
                mesh, np.random.default_rng(t))
            rng = np.random.default_rng([seed, t])
            planted = ball_members(mesh, centres, radii, diam)
            spurious = ball_members(mesh, spur_centres, spur_radii, diam)
            # odd trials carry the spurious balls on the source side, so
            # match solves with the sides swapped
            big = np.vstack([planted, spurious])
            order = rng.permutation(len(big) if t % 2 == 0 else PLANTED)
            if t % 2 == 0:
                members_x, members_y = planted, big[order]
                want = [(k, int(np.flatnonzero(order == k)[0])) for k in range(PLANTED)]
            else:
                members_x, members_y = big, planted[order]
                want = [(int(order[j]), j) for j in range(PLANTED)]
            rx = sc.regions_from_members(members_x, mesh)
            ry = sc.regions_from_members(members_y, mesh)
            trials.append({
                "regions": (rx, ry), "want": want,
                "areas": (checks.vertex_area_fractions(mesh.vertices, mesh.triangles, members_x),
                          checks.vertex_area_fractions(mesh.vertices, mesh.triangles, members_y)),
            })
        return {"basis": basis, "trials": trials}

    def round(self, state):
        return [("batch", lambda: self.op(state))]

    def op(self, state):
        basis = state["basis"]
        results = []
        for trial in state["trials"]:
            rx, ry = trial["regions"]
            A = sc.region_coefficients(rx, basis)
            B = sc.region_coefficients(ry, basis)
            lam, mu = readme_penalties(A, B)
            results.append(sc.match(A, B, rx, ry, options=sc.SolverOptions(lam=lam, mu=mu)))
        return results

    def check(self, state, out, rng):
        problems = []
        exact = 0
        for trial, result in zip(state["trials"], out):
            P = result.assignment_matrix
            problems += checks.check_assignment(P, *trial["areas"])
            problems += checks.check_map_nonzero(result.functional_map)
            exact += not checks.check_pairing(list(zip(*np.nonzero(P))), trial["want"])
        if exact < self.MIN_EXACT_SHARE * len(out):
            problems.append(f"planted pairing recovered in {exact}/{len(out)} "
                            f"trials, need {self.MIN_EXACT_SHARE:.0%}")
        return Verdict(problems, info={"planted_exact": exact})


WORKLOADS = {w.name: w for w in (PipelineLibrary(), GivenRegions(), MatchPlanted())}
