"""Nonnegative integrable inputs in their three supported representations.

GridFunction is piecewise constant on a box lattice, BoxIndicator is
the indicator of an affine image of the unit cube,
PiecewiseLinearGridFunction the multilinear interpolant of node values.  All evaluators are vectorised
over (N, k) point arrays and integrals are closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import grid_points


class ZeroMassError(ValueError):
    """Input function has zero total mass where positive mass is required."""


def _lattice_arrays(origin, spacing: float, values) -> tuple[np.ndarray, np.ndarray]:
    """origin and values of a lattice function as float arrays, refused
    unless spacing is positive with spacing^rank in double range, origin
    has one entry per axis, and both are finite with values nonnegative."""
    origin = np.asarray(origin, dtype=float)
    values = np.asarray(values, dtype=float)
    if not (np.isfinite(spacing) and spacing > 0):
        raise ValueError("spacing must be positive and finite")
    if origin.ndim != 1 or origin.size != values.ndim:
        raise ValueError("origin length must match the rank of values")
    try:
        float(spacing) ** values.ndim
    except OverflowError:
        raise ValueError("cell volume spacing^rank is out of floating-point range") from None
    if not (np.isfinite(origin).all() and np.isfinite(values).all()):
        raise ValueError("grid origin and values must be finite")
    if np.any(values < 0):
        raise ValueError("grid values must be nonnegative")
    return origin, values


def _zero_padded(values: np.ndarray, rank: int) -> np.ndarray:
    """`values` with one zero entry added on each side of its last `rank`
    axes."""
    lead = values.ndim - rank
    padded = np.zeros(values.shape[:lead] + tuple(size + 2 for size in values.shape[lead:]))
    padded[(Ellipsis,) + (slice(1, -1),) * rank] = values
    return padded


def _padded_cell(cell: np.ndarray, size: int) -> np.ndarray:
    """Index into one axis of `_zero_padded` at integral float cell
    coordinates (overwritten): clamped in float to [-1, size] (NaN to -1)
    and shifted by the pad, so every point off the lattice, however far,
    reads the pad."""
    np.fmax(cell, -1.0, out=cell)
    np.minimum(cell, size, out=cell)
    cell += 1.0
    return cell


def _padded_index(cells, shape: tuple[int, ...]) -> np.ndarray:
    """Flat index into `_zero_padded` of an array of `shape` at integral
    float cell coordinates, one (N,) array per axis (consumed in order and
    overwritten), each clamped by `_padded_cell`.  The float temporaries
    are freed before the gather, which matters at a million points."""
    flat = None
    for cell, size in zip(cells, shape):
        cell = _padded_cell(cell, size)
        flat = cell if flat is None else flat * (size + 2) + cell
    return flat.astype(np.intp)


@dataclass
class GridFunction:
    """Piecewise-constant nonnegative function on the lattice
    origin + spacing * [k, k+1) per axis.

    The first `evaluate` keeps a zero-padded copy of `values`; change
    `values` in place only before it.
    """

    origin: np.ndarray
    spacing: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.origin, self.values = _lattice_arrays(self.origin, self.spacing, self.values)

    @property
    def dim(self) -> int:
        return self.values.ndim

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        hi = self.origin + self.spacing * np.asarray(self.values.shape, dtype=float)
        return self.origin.copy(), hi

    @cached_property
    def _padded(self) -> np.ndarray:
        return _zero_padded(self.values, self.dim)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at (N, k) points, zero off the lattice, by one flat `take`
        from the zero-padded values."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cells = (
            np.floor((points[:, a] - self.origin[a]) / self.spacing) for a in range(self.dim)
        )
        return self._padded.ravel().take(_padded_index(cells, self.values.shape))

    def integral(self) -> float:
        return float(self.values.sum() * self.spacing**self.dim)

    def cell_centers(self) -> np.ndarray:
        return grid_points([
            self.origin[a] + self.spacing * (np.arange(s) + 0.5)
            for a, s in enumerate(self.values.shape)
        ])


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
        return grid_points([[0.0, 1.0]] * self.dim) @ self.matrix.T + self.offset

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
    GridFunctions with equal spacing.  The first `evaluate` keeps a
    zero-padded copy of `node_values`; change them in place only before it.
    """

    origin: np.ndarray
    spacing: float
    node_values: np.ndarray

    def __post_init__(self) -> None:
        self.origin, self.node_values = _lattice_arrays(self.origin, self.spacing, self.node_values)

    @property
    def dim(self) -> int:
        return self.node_values.ndim

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        shape = np.asarray(self.node_values.shape, dtype=float)
        return self.origin - self.spacing, self.origin + self.spacing * shape

    @cached_property
    def _padded(self) -> np.ndarray:
        return _zero_padded(self.node_values, self.dim)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Tent-basis interpolation at (N, k) points, with zero nodes beyond
        the lattice: the sum over the 2^k corners of each point's cell of
        the tent weight times one flat `take` from the zero-padded nodes.

        The coordinate is clamped to [-1, shape] before its floor, so a
        point off the support sits on a pad node with weight 1 and a
        non-finite point reads 0.  The weights, 1 - t and 1 - (1 - t) for
        the fraction t, and the corner order, last axis fastest, are those
        of order-1 spline interpolation (`ndimage.map_coordinates`), whose
        values the tests compare against.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        shape = self.node_values.shape
        u = ((points - self.origin) / self.spacing).T
        np.fmax(u, -1.0, out=u)
        np.minimum(u, np.asarray(shape, dtype=float)[:, None], out=u)
        base = np.floor(u)
        lower = 1.0 - (u - base)
        weights = (lower, 1.0 - lower)
        flat = self._padded.ravel()
        out = np.zeros(points.shape[0])
        for corner in itertools.product((0, 1), repeat=self.dim):
            term = flat.take(_padded_index((row + c for row, c in zip(base, corner)), shape))
            for a, c in enumerate(corner):
                term *= weights[c][a]
            out += term
        return out

    def integral(self) -> float:
        return float(self.node_values.sum() * self.spacing**self.dim)


InputFunction = GridFunction | BoxIndicator | PiecewiseLinearGridFunction


def convolve_grids(f: GridFunction, g: GridFunction) -> PiecewiseLinearGridFunction:
    """Exact convolution f*g of two grid functions with equal spacing.

    Direct summation over cell shifts (no transform methods), as one
    contraction of the windows of the zero-padded f with the flipped g.
    The result is piecewise multilinear with nodes on the shifted corner
    lattice; node values are the exact pointwise values of f*g there.
    """
    if abs(f.spacing - g.spacing) > 1e-15 * max(f.spacing, g.spacing):
        raise ValueError("convolve_grids requires equal spacings")
    h = f.spacing
    # acc[o] = sum_i f[i] g[o - i] = sum_j f_pad[o + j] g[n_g - 1 - j], with
    # f_pad the f padded by n_g - 1 zeros each side
    pads = [n - 1 for n in g.values.shape]
    padded = np.zeros(tuple(s + 2 * pad for s, pad in zip(f.values.shape, pads)))
    padded[tuple(slice(pad, pad + s) for s, pad in zip(f.values.shape, pads))] = f.values
    windows = sliding_window_view(padded, g.values.shape)
    flipped = g.values[(slice(None, None, -1),) * g.dim]
    acc = windows.reshape(windows.shape[: f.dim] + (-1,)) @ flipped.ravel()
    node_values = acc * h**f.dim
    origin = f.origin + g.origin + h
    return PiecewiseLinearGridFunction(origin, h, node_values)
