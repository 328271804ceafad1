"""Shared builders for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from blt.datum import BLDatum, ProjectionScheme, projection_datum
from blt.inputs import GridFunction
from blt.nonlinear import NonlinearMapFamily
from blt.polynomials import Polynomial
from blt.scales import Cube, compute_delta0

# HYPOTHESIS_PROFILE=ci replays the same examples on every run.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def loomis_whitney_maps() -> list[np.ndarray]:
    return [
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ]


@pytest.fixture
def lw_datum() -> BLDatum:
    return BLDatum(3, loomis_whitney_maps(), np.full(3, 0.5))


def random_partition(rng: np.random.Generator, d: int) -> list[int]:
    while True:
        cuts = sorted(rng.integers(1, d, size=rng.integers(1, min(d, 4))))
        sizes = np.diff([0, *cuts, d])
        sizes = [int(s) for s in sizes if s > 0]
        if len(sizes) >= 2:
            return sizes


def random_class_c_datum(
    rng: np.random.Generator, d: int, max_cond: float = 8.0
) -> tuple[BLDatum, BLDatum, np.ndarray, list[np.ndarray]]:
    """Random direct-sum datum built by intertwining a projection datum.

    Returns (datum, projection_datum, C, Cj).  Conditioning of the
    intertwiners is capped so determinant identities stay far from the
    float noise floor.
    """
    sizes = random_partition(rng, d)
    scheme = ProjectionScheme(d, sizes)
    base = projection_datum(scheme)

    def well_conditioned(k: int) -> np.ndarray:
        while True:
            M = rng.standard_normal((k, k))
            s = np.linalg.svd(M, compute_uv=False)
            if s[0] / s[-1] < max_cond:
                return M

    C = well_conditioned(d)
    Cj = [well_conditioned(base.maps[j].shape[0]) for j in range(base.m)]
    from blt.datum import transform_datum

    datum, _ = transform_datum(base, C, Cj)
    return datum, base, C, Cj


def linear_family(matrix: np.ndarray, beta: float = 1.0, kappa: float = 0.0) -> NonlinearMapFamily:
    """The linear map x -> matrix @ x as a map family."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    comps = [Polynomial.linear_form(matrix[r]) for r in range(matrix.shape[0])]
    return NonlinearMapFamily(matrix.shape[1], comps, beta, kappa)


def perturbed_projection(
    projection: np.ndarray,
    quadratic_terms: list[dict[tuple[int, ...], float]],
    beta: float,
    kappa: float,
) -> NonlinearMapFamily:
    """Linear projection plus per-row polynomial perturbations.

    The perturbations must have vanishing value and gradient at the
    origin so the Jacobian there equals the projection.
    """
    projection = np.atleast_2d(np.asarray(projection, dtype=float))
    d = projection.shape[1]
    comps = []
    for r in range(projection.shape[0]):
        poly = Polynomial.linear_form(projection[r])
        pert = Polynomial(d, quadratic_terms[r]) if r < len(quadratic_terms) else Polynomial.zero(d)
        if any(sum(k) < 2 for k in pert.coeffs):
            raise ValueError("perturbation terms must have total degree >= 2")
        comps.append(poly + pert)
    return NonlinearMapFamily(d, comps, beta, kappa)


def perturbed_lw_maps(c: float = 0.3, beta: float = 1.0, kappa: float = 1.0):
    """Quadratically perturbed Loomis-Whitney submersions, canonical at 0."""
    projections = loomis_whitney_maps()
    terms = [
        [{(0, 0, 2): c}, {(1, 1, 0): c}],
        [{(0, 0, 2): c}, {(1, 0, 1): c}],
        [{(0, 2, 0): c}, {(1, 1, 0): c}],
    ]
    return [
        perturbed_projection(projections[j], terms[j], beta, kappa) for j in range(3)
    ]


def l1m_grid_for_map(
    fam: NonlinearMapFamily,
    cube: Cube,
    rng: np.random.Generator,
    cells: int = 16,
    pad: float = 1.5,
) -> GridFunction:
    """Positive grid input covering the cube's image, in the relaxed
    constancy class at the scale of its own spacing (neighbour ratio <= 2)."""
    J = fam.jacobian(cube.center)
    c_img = fam.value(cube.center)[0]
    halfw = np.abs(J).sum(axis=1) * cube.side / 2.0 * pad
    spacing = float(2.0 * halfw.max() / cells)
    lo = c_img - halfw
    origin = np.floor(lo / spacing) * spacing
    shape = tuple(int(np.ceil(2 * halfw[a] / spacing)) + 1 for a in range(len(halfw)))
    u = rng.standard_normal(shape)
    for axis in range(u.ndim):
        u = np.cumsum(u, axis=axis)
    u = 0.3 * (u - u.mean()) / max(1e-12, np.abs(u).max())
    return GridFunction(origin, spacing, np.exp(u))


def flagship_scale_setup(seed: int = 1):
    """The quadratically perturbed instance at its derived top scale."""
    maps = perturbed_lw_maps()
    params = compute_delta0(1.0, 1.0, 1.25, 1.5, 3, 3)
    cube = Cube(np.zeros(3), params.delta0)
    rng = np.random.default_rng(seed)
    inputs = [l1m_grid_for_map(fam, cube, rng) for fam in maps]
    params.M = 1.0 / max(f.spacing for f in inputs)
    return maps, params, cube, inputs
