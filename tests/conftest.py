"""Shared fixtures. Expensive geometry is session-scoped and read-only."""

import numpy as np
import pytest

import _meshes
from shapecorr import (
    DetectorParams,
    cotangent_laplacian,
    detect_stable_regions,
    eigenbasis,
    match,
    region_coefficients,
)

# finer level sweep than the package default: the test creature's regions
# are mid-sized caps whose areas only stall over narrow threshold bands
CREATURE_DETECTOR = DetectorParams(num_functions=12, levels=256)


@pytest.fixture(scope="session")
def tetra():
    return _meshes.tetrahedron()


@pytest.fixture(scope="session")
def ico():
    return _meshes.icosahedron()


@pytest.fixture(scope="session")
def sphere2():
    return _meshes.icosphere(2)


@pytest.fixture(scope="session")
def creature3():
    return _meshes.creature(3)


@pytest.fixture(scope="session")
def creature3_basis(creature3):
    stiffness, masses = cotangent_laplacian(creature3)
    return eigenbasis(stiffness, masses, 20)


@pytest.fixture(scope="session")
def creature3_regions(creature3, creature3_basis):
    return detect_stable_regions(creature3, creature3_basis, CREATURE_DETECTOR)


@pytest.fixture(scope="session")
def creature4():
    return _meshes.creature(4)


@pytest.fixture(scope="session")
def creature4_basis(creature4):
    stiffness, masses = cotangent_laplacian(creature4)
    return eigenbasis(stiffness, masses, 20)


@pytest.fixture(scope="session")
def creature4_regions(creature4, creature4_basis):
    return detect_stable_regions(creature4, creature4_basis, CREATURE_DETECTOR)


@pytest.fixture(scope="session")
def creature4_jitter_match(creature4, creature4_basis, creature4_regions):
    """Acceptance criterion 7's twin, its basis and regions, and the
    default-options match of creature4's regions onto the twin's."""
    twin = _meshes.jittered(creature4, scale=0.005, seed=11)
    twin_basis = eigenbasis(*cotangent_laplacian(twin), 20)
    twin_regions = detect_stable_regions(twin, twin_basis, CREATURE_DETECTOR)
    result = match(region_coefficients(creature4_regions, creature4_basis),
                   region_coefficients(twin_regions, twin_basis),
                   creature4_regions, twin_regions)
    return twin, twin_basis, twin_regions, result


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)
