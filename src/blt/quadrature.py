"""Quadrature of the multilinear functional and the ratio it defines.

QuadratureSpec owns the one box rule of the package: tensor midpoint or
seeded Monte Carlo, each with its error estimate.  The numerator integral
of prod_j f_j(B_j x)^{p_j} is computed by it over an axis box; when every
input is a box indicator and no region is given, the composite support
is a polytope and the value is exact.  Also hosts the discrete
product-projection inequality, exact parallelepiped extremizers, and
the convolution self-similarity report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .datum import BLDatum, ProjectionScheme, reduce_to_projections
from .geometry import bounding_box_from_linear_constraints, polytope_volume
from .inputs import (
    BoxIndicator,
    GridFunction,
    InputFunction,
    PiecewiseLinearGridFunction,
    ZeroMassError,
    convolve_grids,
    integrate,
)


@dataclass
class QuadratureSpec:
    """Quadrature configuration.

    mode is 'tensor-midpoint' or 'monte-carlo'; resolution is points per
    axis for the midpoint rule, samples the Monte Carlo count.  The seed
    and at least two samples (for the standard error) are mandatory for
    Monte Carlo.  error_estimate=False skips the error estimate.
    """

    mode: str = "tensor-midpoint"
    resolution: int = 64
    samples: int = 1_000_000
    seed: int | None = None
    error_estimate: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("tensor-midpoint", "monte-carlo"):
            raise ValueError(f"unknown quadrature mode {self.mode!r}")
        if self.resolution < 1 or self.samples < 1:
            raise ValueError("sample count and resolution must be >= 1")
        if self.mode == "monte-carlo" and (self.seed is None or self.samples < 2):
            raise ValueError("monte-carlo quadrature needs a seed and at least 2 samples")

    def points_per_call(self, n: int) -> int:
        """Most points one integrand call receives from integrate on an
        n-dimensional box; a zero-dimensional box is one point."""
        if n == 0:
            return 1
        if self.mode == "monte-carlo":
            return self.samples
        return self.resolution ** (n - 1)

    def integrate(self, integrand, lo: np.ndarray, hi: np.ndarray):
        """Integral of integrand over the box [lo, hi] and its error estimate.

        The integrand maps (N, n) points to (N,) values, or to (k, N)
        values for k integrals sharing each call (value and error are then
        (k,) arrays).  Monte Carlo reports the standard error of samples
        points from default_rng(seed), the midpoint rule the change against
        half the resolution (0 at one point per axis).
        """
        n = lo.size
        if self.mode == "monte-carlo":
            rng = np.random.default_rng(self.seed)
            vals = integrand(rng.uniform(lo, hi, size=(self.samples, n)))
            volume = float(np.prod(hi - lo))
            value = volume * vals.mean(axis=-1)
            error = volume * (vals.std(ddof=1, axis=-1) / np.sqrt(self.samples))
        else:
            value = _midpoint_integral(integrand, lo, hi, self.resolution, n)
            error = np.zeros(np.shape(value))
            if self.error_estimate and self.resolution >= 2:
                coarse = _midpoint_integral(integrand, lo, hi, self.resolution // 2, n)
                error = np.abs(value - coarse)
        if not self.error_estimate:
            error = np.zeros(np.shape(value))
        if np.ndim(value):
            return value, error
        return float(value), float(error)


class UnboundedDomainError(ValueError):
    """Numerator domain is unbounded and no region was supplied."""


def _product_integrand(datum: BLDatum, inputs: list[InputFunction]):
    p = datum.p

    def evaluate(points: np.ndarray) -> np.ndarray:
        out = np.ones(points.shape[0])
        for j, (B, f) in enumerate(zip(datum.maps, inputs)):
            vals = f.evaluate(points @ B.T)
            if p[j] == 1.0:
                out *= vals
            else:
                out *= np.power(vals, p[j])
        return out

    return evaluate


def _support_region(datum: BLDatum, inputs: list[InputFunction]):
    boxes = []
    for f in inputs:
        box = f.support_box()
        if box is None:
            return None
        boxes.append(box)
    lows = [b[0] for b in boxes]
    highs = [b[1] for b in boxes]
    return bounding_box_from_linear_constraints(datum.maps, lows, highs, datum.d)


def _exact_indicator_numerator(datum: BLDatum, inputs: list[BoxIndicator]) -> float:
    """Volume of {x : B_j x in box_j for all j}: exact polytope path.

    Valid because the indicator product is itself the indicator of this
    polytope and all exponents sum against exponent-1 reweighting of an
    indicator (0/1 values are exponent-invariant).
    """
    rows = []
    offs = []
    for B, f in zip(datum.maps, inputs):
        Minv = np.linalg.inv(f.matrix)
        G = Minv @ B
        c = Minv @ f.offset
        rows.append(G)
        offs.append(1.0 - c)
        rows.append(-G)
        offs.append(c)
    A = np.vstack(rows)
    b = np.concatenate([np.atleast_1d(o) for o in offs])
    return polytope_volume(A, b)


def bl_ratio(
    datum: BLDatum,
    inputs: list[InputFunction],
    region: tuple[np.ndarray, np.ndarray] | None,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """Ratio of the numerator integral to prod (mass_j)^{p_j}.

    region is an axis box (lo, hi) or None for all of space.  With
    region None the support box is derived when every input is
    compactly supported (exactly, as a polytope volume, when every
    input is a box indicator); unbounded inputs then raise.

    Returns (value, error_estimate): the Monte Carlo estimate carries
    the sample standard error, the midpoint rule the change against the
    half-resolution rule.
    """
    if len(inputs) != datum.m:
        raise ValueError("one input per map is required")
    masses = [integrate(f) for f in inputs]
    if any(mass <= 0.0 for mass in masses):
        raise ZeroMassError("every input must have positive mass")
    denom = float(np.prod([mass ** pj for mass, pj in zip(masses, datum.p)]))
    if region is None and all(isinstance(f, BoxIndicator) for f in inputs):
        numerator = _exact_indicator_numerator(datum, inputs)  # exact path
        return numerator / denom, 0.0
    if region is None:
        region = _support_region(datum, inputs)
        if region is None:
            raise UnboundedDomainError(
                "inputs have unbounded composite support; supply a region"
            )
    lo = np.asarray(region[0], dtype=float)
    hi = np.asarray(region[1], dtype=float)
    if lo.shape != (datum.d,) or hi.shape != (datum.d,) or np.any(hi <= lo):
        raise ValueError("region must be a nondegenerate axis box (lo, hi)")
    value, error = spec.integrate(_product_integrand(datum, inputs), lo, hi)
    return value / denom, error / denom


def midpoint_axes(lo: np.ndarray, hi: np.ndarray, count: int) -> tuple[list[np.ndarray], float]:
    """The midpoints of count equal cells along each axis of the box
    [lo, hi] (float arrays), and the volume of one cell."""
    axes = [lo[a] + (hi[a] - lo[a]) * (np.arange(count) + 0.5) / count for a in range(lo.size)]
    return axes, float(np.prod((hi - lo) / count))


def _midpoint_integral(integrand, lo, hi, resolution: int, d: int):
    """Tensor midpoint rule on the box [lo, hi].

    The integrand maps (n, d) points to (n,) values, or to (k, n) values
    for k integrals that share one evaluation per chunk; the result is a
    float or a (k,) array.
    """
    axes, cell = midpoint_axes(lo, hi, resolution)
    total = 0.0
    # chunk the first axis so the point array stays modest
    rest = np.meshgrid(*axes[1:], indexing="ij") if d > 1 else []
    rest_flat = [m.ravel() for m in rest]
    n_rest = rest_flat[0].size if rest_flat else 1
    for x0 in axes[0]:
        pts = np.empty((n_rest, d))
        pts[:, 0] = x0
        for a, col in enumerate(rest_flat):
            pts[:, a + 1] = col
        total = total + integrand(pts).sum(axis=-1)
    return total * cell if np.ndim(total) else float(total * cell)


def lattice_product_sum(blocks, exponents, d: int) -> float:
    """Sum of prod_j values_j^{p_j} over the intersection of the blocks'
    lattice boxes (0 when it is empty), as one einsum over the d axes.

    Block j is (values, axes, offset): values[i] sits at lattice index
    offset + i along the listed axes.  einsum's default unoptimised
    contraction is deliberate: optimize=True searches for a path on
    every call, which costs more than it saves at these sizes.
    """
    lo = np.full(d, np.iinfo(np.int64).min, dtype=np.int64)
    hi = np.full(d, np.iinfo(np.int64).max, dtype=np.int64)
    for values, axes, offset in blocks:
        for pos, k in enumerate(axes):
            lo[k] = max(lo[k], offset[pos])
            hi[k] = min(hi[k], offset[pos] + values.shape[pos])
    if lo.min() == np.iinfo(np.int64).min:
        raise ValueError("every lattice axis must be spanned by some block")
    if np.any(hi <= lo):
        return 0.0
    operands = []
    for (values, axes, offset), p in zip(blocks, exponents):
        window = tuple(
            slice(int(lo[k] - offset[pos]), int(hi[k] - offset[pos])) for pos, k in enumerate(axes)
        )
        operands += [np.power(values[window], p), list(axes)]
    return float(np.einsum(*operands, []))


def discrete_finner(
    inputs: list[np.ndarray], scheme: ProjectionScheme
) -> tuple[float, float]:
    """Both sides of the discrete product-projection inequality.

    lhs sums prod_j f_j(Pi_j n)^{1/(m-1)} over the common lattice box,
    rhs is prod_j (sum f_j)^{1/(m-1)}.  lhs <= rhs always holds; the
    summation here is the brute-force oracle itself.
    """
    m = scheme.m
    if m < 2:
        raise ValueError("the inequality needs at least two blocks")
    if len(inputs) != m:
        raise ValueError("one array per block is required")
    arrays = [np.asarray(f, dtype=float) for f in inputs]
    for j, f in enumerate(arrays):
        if np.any(f < 0):
            raise ValueError(f"input {j} has a negative entry")
        if f.ndim != scheme.d - scheme.block_sizes[j]:
            raise ValueError(f"input {j} has rank {f.ndim}, expected {scheme.d - scheme.block_sizes[j]}")
    p = 1.0 / (m - 1)
    blocks = [
        (f, scheme.complement(j), np.zeros(f.ndim, dtype=np.int64)) for j, f in enumerate(arrays)
    ]
    lhs = lattice_product_sum(blocks, [p] * m, scheme.d)
    rhs = float(np.prod([f.sum() ** p for f in arrays]))
    return lhs, rhs


def canonical_extremizer(datum: BLDatum) -> tuple[list[BoxIndicator], float]:
    """Parallelepiped extremizers C_j([0,1]^{d_j}) and their exact ratio.

    The composite integrand is the indicator of A([0,1]^d), so the ratio
    is |det A| / prod |det C_j|^{1/(m-1)}, which equals the closed-form
    constant.
    """
    cert = reduce_to_projections(datum)
    boxes = [BoxIndicator(Cj.copy()) for Cj in cert.Cj]
    m = datum.m
    ratio = abs(cert.det_A) / float(
        np.prod([abs(det) ** (1.0 / (m - 1)) for det in cert.det_Cj])
    )
    return boxes, ratio


def _is_coordinate_projection_datum(datum: BLDatum) -> bool:
    for B in datum.maps:
        if not np.all((B == 0.0) | (B == 1.0)):
            return False
        if not np.all(B.sum(axis=1) == 1.0):
            return False
        if not np.all(B.sum(axis=0) <= 1.0):
            return False
    return True


def _lattice_aligned(datum: BLDatum, grids: list[GridFunction]) -> bool:
    h = grids[0].spacing
    for g in grids:
        if abs(g.spacing - h) > 1e-12 * h:
            return False
        if np.any(np.abs(np.round(g.origin / h) - g.origin / h) > 1e-9):
            return False
    return True


def _lattice_bl_exact(datum: BLDatum, grids: list[GridFunction]) -> float:
    """Ratio for coordinate projections and lattice-aligned grids.

    The integrand is constant on lattice cells, so the integral is an
    exact finite sum; this is the midpoint rule at lattice resolution.
    """
    h = grids[0].spacing
    blocks = [
        (g.values, [int(np.argmax(row)) for row in B], np.round(g.origin / h).astype(np.int64))
        for B, g in zip(datum.maps, grids)
    ]
    numerator = lattice_product_sum(blocks, datum.p, datum.d) * h**datum.d
    denom = float(np.prod([integrate(g) ** pj for g, pj in zip(grids, datum.p)]))
    return numerator / denom


@dataclass
class BallReport:
    """Two-sided factorisation check of the ratio under convolution."""

    lhs: float
    sup_term: float
    conv_term: float
    slack: float
    flag: str
    sup_argmax: np.ndarray
    excluded_grid_points: int
    details: dict = field(default_factory=dict)


def ball_inequality_report(
    datum: BLDatum,
    f: list[GridFunction],
    fprime: list[GridFunction],
    x_grid: np.ndarray,
    spec: QuadratureSpec,
    tolerance: float = 5e-2,
) -> BallReport:
    """Evaluate lhs = R(f) R(f'), the sup over x_grid of R((g_j^x)) with
    g_j^x(y) = f_j(B_j x - y) f'_j(y), and R(f * f'), where R is the
    ratio functional.

    slack = sup_term * conv_term / lhs - 1.  The sup is approximated
    from below on the finite grid, so slack < -tolerance is flagged as
    inconclusive rather than failed.  Grid points where some g_j^x has
    zero mass are excluded from the sup.
    """
    if len(f) != datum.m or len(fprime) != datum.m:
        raise ValueError(
            f"{len(f)} f and {len(fprime)} f' for {datum.m} maps: one of each per map"
        )
    if not all(isinstance(g, GridFunction) for g in f + fprime):
        raise ValueError("the convolution report requires grid inputs")
    for g in f + fprime:
        if integrate(g) <= 0:
            raise ZeroMassError("all input masses must be positive")
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    fast = (
        _is_coordinate_projection_datum(datum)
        and _lattice_aligned(datum, f + fprime)
        and _x_grid_on_lattice(x_grid, f[0].spacing)
    )
    value_only = replace(spec, error_estimate=False)

    def ratio(inputs: list[InputFunction]) -> float:
        if fast and all(isinstance(g, GridFunction) for g in inputs):
            return _lattice_bl_exact(datum, inputs)  # exact piecewise path
        return bl_ratio(datum, inputs, None, value_only)[0]

    bl_f = ratio(f)
    bl_fp = ratio(fprime)
    lhs = bl_f * bl_fp
    conv_inputs = [convolve_grids(fj, fpj) for fj, fpj in zip(f, fprime)]
    conv_term = _conv_ratio(datum, conv_inputs, spec)
    sup_val = -np.inf
    sup_arg = x_grid[0]
    excluded = 0
    for x in x_grid:
        g_inputs = []
        ok = True
        for B, fj, fpj in zip(datum.maps, f, fprime):
            g = _localised_product(fj, fpj, B @ x)
            if g is None or integrate(g) <= 0.0:
                ok = False
                break
            g_inputs.append(g)
        if not ok:
            excluded += 1
            continue
        val = ratio(g_inputs)
        if val > sup_val:
            sup_val = val
            sup_arg = x
    if not np.isfinite(sup_val):
        raise ZeroMassError("every grid point produced a zero-mass localisation")
    slack = sup_val * conv_term / lhs - 1.0
    flag = "consistent" if slack >= -tolerance else "inconclusive"
    return BallReport(
        lhs=float(lhs),
        sup_term=float(sup_val),
        conv_term=float(conv_term),
        slack=float(slack),
        flag=flag,
        sup_argmax=np.asarray(sup_arg),
        excluded_grid_points=excluded,
        details={"ratio_f": bl_f, "ratio_fprime": bl_fp},
    )


def _x_grid_on_lattice(x_grid: np.ndarray, h: float) -> bool:
    return bool(np.all(np.abs(np.round(x_grid / h) - x_grid / h) < 1e-9))


def _localised_product(
    fj: GridFunction, fpj: GridFunction, c: np.ndarray
) -> GridFunction | None:
    """Grid representation of y -> f(c - y) f'(y) for lattice-aligned c."""
    h = fj.spacing
    shift = (c - fj.origin - fpj.origin) / h
    if np.any(np.abs(np.round(shift) - shift) > 1e-9):
        return None
    K = np.round(shift).astype(np.int64)
    # vals[i] = f[K-1-i] f'[i] where 0 <= K-1-i < len(f), i.e. f[::-1][i + len(f) - K]
    n_f = np.asarray(fj.values.shape)
    lo = np.clip(K - n_f, 0, fpj.values.shape)
    hi = np.clip(K, 0, fpj.values.shape)
    if np.any(hi <= lo):
        return None
    flipped = fj.values[(slice(None, None, -1),) * K.size]
    out = tuple(map(slice, lo, hi))
    vals = np.zeros_like(fpj.values)
    vals[out] = flipped[tuple(map(slice, lo + n_f - K, hi + n_f - K))] * fpj.values[out]
    if vals.sum() == 0.0:
        return None
    return GridFunction(fpj.origin.copy(), h, vals)


def _conv_ratio(
    datum: BLDatum, conv_inputs: list[PiecewiseLinearGridFunction], spec: QuadratureSpec
) -> float:
    """Ratio for exact piecewise-multilinear convolutions by the spec's rule
    on the knot-snapped support box, with whole midpoint cells per knot cell."""
    region = _support_region(datum, conv_inputs)
    if region is None:
        raise UnboundedDomainError("convolution support could not be bounded")
    h = conv_inputs[0].spacing
    # snap to the knot lattice so kinks align with quadrature cell faces
    lo = np.floor(region[0] / h) * h
    hi = np.ceil(region[1] / h) * h
    cells = max(int(np.max(np.round((hi - lo) / h))), 1)
    refined = cells * max(1, int(np.ceil(spec.resolution / cells)))
    return bl_ratio(
        datum, conv_inputs, (lo, hi), replace(spec, resolution=refined, error_estimate=False)
    )[0]
