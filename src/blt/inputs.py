"""Nonnegative integrable inputs in their four supported representations.

GridFunction is piecewise constant on a box lattice, GaussianFunction
is a centred gaussian exp(-pi <Ay, y>), BoxIndicator is the indicator
of an affine image of the unit cube, PiecewiseLinearGridFunction the
multilinear interpolant of node values.  All evaluators are vectorised
over (N, k) point arrays and integrals are closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates


class ZeroMassError(ValueError):
    """Input function has zero total mass where positive mass is required."""


@dataclass
class GridFunction:
    """Piecewise-constant nonnegative function on the lattice
    origin + spacing * [k, k+1) per axis."""

    origin: np.ndarray
    spacing: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.origin.ndim != 1 or self.origin.size != self.values.ndim:
            raise ValueError("origin length must match the rank of values")
        if np.any(self.values < 0):
            raise ValueError("grid values must be nonnegative")

    @property
    def dim(self) -> int:
        return self.values.ndim

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        hi = self.origin + self.spacing * np.asarray(self.values.shape, dtype=float)
        return self.origin.copy(), hi

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor((points - self.origin) / self.spacing).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < np.asarray(self.values.shape)), axis=1)
        out = np.zeros(points.shape[0])
        if np.any(inside):
            sel = idx[inside]
            out[inside] = self.values[tuple(sel.T)]
        return out

    def integral(self) -> float:
        return float(self.values.sum() * self.spacing**self.dim)

    def cell_centers(self) -> np.ndarray:
        axes = [
            self.origin[a] + self.spacing * (np.arange(s) + 0.5)
            for a, s in enumerate(self.values.shape)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def is_constancy_scale(self, scale: float) -> bool:
        """Check the relaxed constancy property at the given scale: values at
        points closer than ``scale`` within the support differ by at most x2.
        Sufficient condition checked: adjacent positive cells have ratio <= 2
        and scale <= spacing."""
        if scale < self.spacing:
            return True
        v = self.values
        for axis in range(v.ndim):
            a = np.moveaxis(v, axis, 0)
            left, right = a[:-1], a[1:]
            both = (left > 0) & (right > 0)
            if np.any((left > 2 * right) & both) or np.any((right > 2 * left) & both):
                return False
            if np.any((left > 0) != (right > 0)):
                return False
        return True


@dataclass
class GaussianFunction:
    """amplitude * exp(-pi <A y, y>) with A positive definite."""

    covariance: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        self.covariance = np.asarray(self.covariance, dtype=float)
        A = self.covariance
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        try:
            np.linalg.cholesky(0.5 * (A + A.T))
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def support_box(self) -> None:
        return None

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        quad = np.einsum("ni,ij,nj->n", points, self.covariance, points)
        return self.amplitude * np.exp(-np.pi * quad)

    def integral(self) -> float:
        return float(self.amplitude / np.sqrt(np.linalg.det(self.covariance)))


@dataclass
class BoxIndicator:
    """Indicator of matrix @ [0,1]^k + offset for an invertible matrix."""

    matrix: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        k = self.matrix.shape[0]
        if self.matrix.shape != (k, k):
            raise ValueError("matrix must be square")
        if self.offset is None:
            self.offset = np.zeros(k)
        self.offset = np.asarray(self.offset, dtype=float)
        if abs(np.linalg.det(self.matrix)) == 0.0:
            raise ValueError("matrix must be invertible")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        corners = self.corners()
        return corners.min(axis=0), corners.max(axis=0)

    def corners(self) -> np.ndarray:
        k = self.dim
        cube = np.array(np.meshgrid(*[[0.0, 1.0]] * k, indexing="ij")).reshape(k, -1).T
        return cube @ self.matrix.T + self.offset

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        local = np.linalg.solve(self.matrix, (points - self.offset).T).T
        inside = np.all((local >= 0.0) & (local <= 1.0), axis=1)
        return inside.astype(float)

    def integral(self) -> float:
        return float(abs(np.linalg.det(self.matrix)))


@dataclass
class PiecewiseLinearGridFunction:
    """Multilinear interpolation of node values on a lattice, zero outside.

    This is the exact representation of a convolution of two
    GridFunctions with equal spacing.
    """

    origin: np.ndarray
    spacing: float
    node_values: np.ndarray

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=float)
        self.node_values = np.asarray(self.node_values, dtype=float)

    @property
    def dim(self) -> int:
        return self.node_values.ndim

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        shape = np.asarray(self.node_values.shape, dtype=float)
        return self.origin - self.spacing, self.origin + self.spacing * shape

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Tent-basis interpolation, with zero nodes beyond the lattice."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        u = (points - self.origin) / self.spacing
        return map_coordinates(
            self.node_values, u.T, order=1, mode="grid-constant", cval=0.0, prefilter=False
        )

    def integral(self) -> float:
        return float(self.node_values.sum() * self.spacing**self.dim)


InputFunction = GridFunction | GaussianFunction | BoxIndicator | PiecewiseLinearGridFunction


def integrate(f: InputFunction) -> float:
    """Total mass, closed form for every supported representation."""
    return f.integral()


def convolve_grids(f: GridFunction, g: GridFunction) -> PiecewiseLinearGridFunction:
    """Exact convolution f*g of two grid functions with equal spacing.

    Direct summation over cell shifts (no transform methods).  The
    result is piecewise multilinear with nodes on the shifted corner
    lattice; node values are the exact pointwise values of f*g there.
    """
    if abs(f.spacing - g.spacing) > 1e-15 * max(f.spacing, g.spacing):
        raise ValueError("convolve_grids requires equal spacings")
    h = f.spacing
    out_shape = tuple(a + b - 1 for a, b in zip(f.values.shape, g.values.shape))
    acc = np.zeros(out_shape)
    for idx in np.ndindex(f.values.shape):
        c = f.values[idx]
        if c == 0.0:
            continue
        window = tuple(slice(i, i + s) for i, s in zip(idx, g.values.shape))
        acc[window] += c * g.values
    node_values = acc * h**f.dim
    origin = f.origin + g.origin + h
    return PiecewiseLinearGridFunction(origin, h, node_values)


def tensor_product_grids(parts: list[GridFunction]) -> GridFunction:
    """Tensor product of grid functions with equal spacing (outer product)."""
    if not parts:
        raise ValueError("need at least one factor")
    h = parts[0].spacing
    if any(abs(p.spacing - h) > 1e-15 * h for p in parts):
        raise ValueError("tensor product requires equal spacings")
    values = parts[0].values
    for p in parts[1:]:
        values = np.multiply.outer(values, p.values)
    origin = np.concatenate([p.origin for p in parts])
    return GridFunction(origin, h, values)
