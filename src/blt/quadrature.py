"""Quadrature of the multilinear functional and the ratio it defines.

QuadratureSpec owns the one box rule of the package: tensor midpoint or
seeded Monte Carlo, each with its error estimate.  The numerator integral
of prod_j f_j(B_j x)^{p_j} is computed by it over an axis box, for
coordinate projections one factor per map on its own midpoint sub-grid.
For piecewise-constant lattice inputs read by rows that each read one
axis, `grid_product_integral` computes the same integral exactly: the
one grid integral of the package, behind the induction step's cube
integrals and the convolution report's ratios.  Also hosts the discrete
product-projection inequality, exact parallelepiped extremizers, and the
convolution self-similarity report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datum import BLDatum, ProjectionScheme, reduce_to_projections
from .geometry import blocks, bounding_box_from_linear_constraints, grid_points
from .inputs import (
    BoxIndicator,
    GridFunction,
    InputFunction,
    PiecewiseLinearGridFunction,
    ZeroMassError,
    _padded_cell,
    _zero_padded,
    convolve_grids,
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

    def integrate_product(self, factors, lo: np.ndarray, hi: np.ndarray) -> tuple[float, float]:
        """Integral of prod_k g_k(B_k x) over the box [lo, hi] and its error
        estimate, for factors (g_k, B_k): each B_k is a scaled coordinate
        projection (one nonzero entry per row), no two rows of one B_k read
        the same axis, and g_k maps (N, rows of B_k) points to (N,) values.

        Monte Carlo draws and multiplies the factors exactly as `integrate`
        does with `_product_integrand`.  The midpoint rule evaluates each
        factor once on its own sub-grid of midpoints and sums the product
        in one einsum, at the resolution and, for the error, at half of it.
        """
        if self.mode == "monte-carlo":
            return self.integrate(_product_integrand(factors), lo, hi)
        value = _separable_midpoint(factors, lo, hi, self.resolution)
        error = 0.0
        if self.error_estimate and self.resolution >= 2:
            error = abs(value - _separable_midpoint(factors, lo, hi, self.resolution // 2))
        return value, error


class UnboundedDomainError(ValueError):
    """Numerator domain is unbounded and no region was supplied."""


def _powered(f: InputFunction, p: float):
    """y -> f(y)^p, with no power taken at p = 1."""
    if p == 1.0:
        return f.evaluate
    return lambda y: np.power(f.evaluate(y), p)


def _map_factors(datum: BLDatum, inputs: list[InputFunction]):
    """The factors (f_j^{p_j}, B_j) of the numerator integrand."""
    return [(_powered(f, pj), B) for B, f, pj in zip(datum.maps, inputs, datum.p)]


def _product_integrand(factors):
    """points -> prod_k g_k(points @ B_k^T) for factors (g_k, B_k)."""

    def evaluate(points: np.ndarray) -> np.ndarray:
        out = np.ones(points.shape[0])
        for g, B in factors:
            out *= g(points @ B.T)
        return out

    return evaluate


def _support_region(datum: BLDatum, inputs: list[InputFunction]):
    """Bounding box of the composite support {x : B_j x in supp f_j for all
    j}: None when it is unbounded, lo > hi on some axis when it is empty."""
    boxes = [f.support_box() for f in inputs]
    return bounding_box_from_linear_constraints(
        datum.maps, [b[0] for b in boxes], [b[1] for b in boxes], datum.d
    )


def bl_ratio(
    datum: BLDatum,
    inputs: list[InputFunction],
    region: tuple[np.ndarray, np.ndarray] | None,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """Ratio of the numerator integral to prod (mass_j)^{p_j}.

    region is an axis box (lo, hi) or None for all of space.  With
    region None the support box is derived when every input is
    compactly supported; unbounded inputs then raise, and a composite
    support with no volume (empty, or flat along some axis) gives
    (0.0, 0.0).

    Returns (value, error_estimate): the Monte Carlo estimate carries
    the sample standard error, the midpoint rule the change against the
    half-resolution rule.  Data whose maps are scaled coordinate
    projections integrate through `QuadratureSpec.integrate_product`, one
    factor per map.
    """
    if len(inputs) != datum.m:
        raise ValueError("one input per map is required")
    masses = [f.integral() for f in inputs]
    if any(mass <= 0.0 for mass in masses):
        raise ZeroMassError("every input must have positive mass")
    denom = float(np.prod([mass ** pj for mass, pj in zip(masses, datum.p)]))
    if region is None:
        region = _support_region(datum, inputs)
        if region is None:
            raise UnboundedDomainError(
                "inputs have unbounded composite support; supply a region"
            )
        if np.any(region[1] <= region[0]):
            return 0.0, 0.0
    lo = np.asarray(region[0], dtype=float)
    hi = np.asarray(region[1], dtype=float)
    if lo.shape != (datum.d,) or hi.shape != (datum.d,) or np.any(hi <= lo):
        raise ValueError("region must be a nondegenerate axis box (lo, hi)")
    factors = _map_factors(datum, inputs)
    if _is_scaled_projection_datum(datum):
        value, error = spec.integrate_product(factors, lo, hi)
    else:
        value, error = spec.integrate(_product_integrand(factors), lo, hi)
    return value / denom, error / denom


def midpoint_axes(lo: np.ndarray, hi: np.ndarray, count: int) -> tuple[list[np.ndarray], float]:
    """The midpoints of count equal cells along each axis of the box
    [lo, hi] (float arrays), and the volume of one cell."""
    axes = [lo[a] + (hi[a] - lo[a]) * (np.arange(count) + 0.5) / count for a in range(lo.size)]
    return axes, float(np.prod((hi - lo) / count))


def _separable_midpoint(factors, lo: np.ndarray, hi: np.ndarray, count: int) -> float:
    """Tensor midpoint rule for prod_k g_k(B_k x) on the box [lo, hi], each
    B_k a scaled coordinate projection: each factor is evaluated on the
    midpoints of its own axes, each times its row's entry, and axes no
    factor reads contribute their cell count."""
    axes, cell = midpoint_axes(lo, hi, count)
    operands, read = [], set()
    for g, B in factors:
        sub = [int(a) for a in np.argmax(B != 0.0, axis=1)]
        entries = B[np.arange(len(sub)), sub]
        points = grid_points([b * axes[a] for b, a in zip(entries, sub)])
        operands += [g(points).reshape((count,) * len(sub)), sub]
        read.update(sub)
    free = lo.size - len(read)
    return float(np.einsum(*operands, []) * count**free * cell)


def _midpoint_integral(integrand, lo, hi, resolution: int, d: int):
    """Tensor midpoint rule on the box [lo, hi].

    The integrand maps (n, d) points to (n,) values, or to (k, n) values
    for k integrals that share one evaluation per chunk; the result is a
    float or a (k,) array.  A resolution below 1 is a ValueError: no
    points give no integral.
    """
    if resolution < 1:
        raise ValueError(f"midpoint resolution must be >= 1, got {resolution}")
    axes, cell = midpoint_axes(lo, hi, resolution)
    total = 0.0
    # chunk the first axis so the point array stays modest
    rest = grid_points(axes[1:]) if d > 1 else np.empty((1, 0))
    for x0 in axes[0]:
        pts = np.empty((len(rest), d))
        pts[:, 0] = x0
        pts[:, 1:] = rest
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
        operands += [np.power(values[window], p), axes]
    return float(np.einsum(*operands, []))


def pulled_back_lines(y0: float, slope: float, origin: float, spacing: float, size: int,
                      y_lo: float, y_hi: float) -> np.ndarray:
    """The u at which y0 + slope u crosses a line origin + k spacing
    (0 <= k <= size) of one lattice axis, for the k of the cells that
    [y_lo, y_hi] meets and one more each side against rounding."""
    k_lo = max(math.floor((y_lo - origin) / spacing) - 1, 0)
    k_hi = min(math.floor((y_hi - origin) / spacing) + 1, size)
    return (origin + np.arange(float(k_lo), k_hi + 1.0) * spacing - y0) / slope


def _weighted_contraction(tables, subs, widths) -> np.ndarray:
    """Sum over the refined cells of the product of the tables times the
    product of the axes' widths, with widths[a] of shape (..., n_a): the
    leading dimensions are batch axes, one sum each.  Each axis' widths
    are folded into the first table that reads it, an axis no table reads
    contributes its width sum, and the product is one einsum with the
    default unoptimised contraction (a path search, or a BLAS route with
    its buffers, costs more than it saves at these sizes)."""
    operands, folded = [], set()
    for table, sub in zip(tables, subs):
        for pos, a in enumerate(sub):
            if a not in folded:
                folded.add(a)
                w = widths[a]
                table = table * w.reshape(w.shape[:-1] + (1,) * pos + (-1,)
                                          + (1,) * (len(sub) - pos - 1))
        operands += [table, [Ellipsis, *sub]]
    total = np.einsum(*operands, [Ellipsis])
    for a, w in enumerate(widths):
        if a not in folded:
            total = total * w.sum(axis=-1)
    return total


def lattice_box(reads, grids, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The box of R^d where the lattices of `grid_product_integral`'s rows
    and grids all hold (lo > hi on some axis when it is empty), each end
    a pulled-back lattice line; an axis no row reads is refused."""
    lo, hi = [-math.inf] * d, [math.inf] * d
    for own, (values, origin, spacing) in zip(reads, grids):
        for (a, slope, y0), o, size in zip(own, origin.tolist(), values.shape[values.ndim - len(own):]):
            ends = sorted(((o - y0) / slope, (o + size * spacing - y0) / slope))
            lo[a], hi[a] = max(lo[a], ends[0]), min(hi[a], ends[1])
    if -math.inf in lo:
        raise UnboundedDomainError("inputs have unbounded composite support")
    return np.array(lo), np.array(hi)


def grid_product_integral(reads, grids, exponents, box, cuts=None, weights=None) -> np.ndarray:
    """Exact integral over the axis box (lo, hi) of prod_j f_j(y0_j + J_j u)^{p_j}
    for piecewise-constant lattice functions f_j, zero off their lattices
    (an empty box integrates to 0).

    reads[j] lists the rows of map j as (axis, slope, y0): row r of y_j is
    y0 + slope * u[axis], with no two rows of a map on one axis.  grids[j]
    is (values, origin, spacing): values[..., i] holds on the cell
    origin + spacing * [i, i + 1) of the rows, and leading dimensions are
    batch axes, broadcast across the maps.

    Each axis is cut at the box ends, at every lattice line a row reading
    it pulls back and at cuts[a] when given.  The integrand is constant
    on the refined cells, so the integral is one contraction of each
    map's table, gathered at the refined midpoints, weighted by the
    cells' widths.  weights(a, mids) may return a (k, n_a) factor on the
    widths of axis a, giving k integrals ahead of the batch axes.
    Returns an array of one integral per batch index.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.maximum(np.asarray(box[1], dtype=float), lo)
    pieces = [[lo[a:a + 1], hi[a:a + 1]] for a in range(lo.size)]
    for a, c in enumerate(cuts or []):
        pieces[a].append(c)
    ends = list(zip(lo.tolist(), hi.tolist()))
    for own, (values, origin, spacing) in zip(reads, grids):
        for (a, slope, y0), o, size in zip(own, origin.tolist(), values.shape[values.ndim - len(own):]):
            y_ends = sorted((y0 + slope * ends[a][0], y0 + slope * ends[a][1]))
            pieces[a].append(pulled_back_lines(y0, slope, o, spacing, size, *y_ends))
    mids, widths = [], []
    for a, piece in enumerate(pieces):
        u = np.sort(np.minimum(np.maximum(np.concatenate(piece), ends[a][0]), ends[a][1]))
        keep = np.ones(u.size, dtype=bool)
        np.greater(u[1:], u[:-1], out=keep[1:])
        u = u[keep]
        mids.append(0.5 * (u[:-1] + u[1:]))
        widths.append(u[1:] - u[:-1] if weights is None else (u[1:] - u[:-1]) * weights(a, mids[a]))
    tables = []
    for own, (values, origin, spacing), p in zip(reads, grids, exponents):
        rank = len(own)
        shape = values.shape[values.ndim - rank:]
        cells = [np.floor((y0 + slope * mids[a] - o) / spacing)
                 for (a, slope, y0), o in zip(own, origin.tolist())]
        # the cells run monotonically along each axis, so their ends tell
        # whether any midpoint is off the lattice and must read the zero pad
        if all(c.size == 0 or (min(c[0], c[-1]) >= 0 and max(c[0], c[-1]) < size)
               for c, size in zip(cells, shape)):
            source = values
        else:
            source = _zero_padded(values, rank)
            cells = [_padded_cell(c, size) for c, size in zip(cells, shape)]
        index = [c.astype(np.intp).reshape((-1,) + (1,) * (rank - 1 - r)) for r, c in enumerate(cells)]
        # C order: einsum sums in memory order, so a batch row then takes
        # the same steps as its own call
        tables.append(np.power(source[(Ellipsis, *index)], p, order="C"))
    return _weighted_contraction(tables, [[a for a, _, _ in own] for own in reads], widths)


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


def is_scaled_projection(B: np.ndarray) -> bool:
    """B has one nonzero entry per row, and no two rows in one column."""
    nonzero = B != 0.0
    return bool(np.all(nonzero.sum(axis=1) == 1) and np.all(nonzero.sum(axis=0) <= 1))


def _is_scaled_projection_datum(datum: BLDatum) -> bool:
    """Every map is a scaled coordinate projection."""
    return all(is_scaled_projection(B) for B in datum.maps)


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
    zero mass are excluded from the sup; ties go to the first grid point.
    """
    if len(f) != datum.m or len(fprime) != datum.m:
        raise ValueError(
            f"{len(f)} f and {len(fprime)} f' for {datum.m} maps: one of each per map"
        )
    if not all(isinstance(g, GridFunction) for g in f + fprime):
        raise ValueError("the convolution report requires grid inputs")
    for g in f + fprime:
        if g.integral() <= 0:
            raise ZeroMassError("all input masses must be positive")
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if _is_scaled_projection_datum(datum):
        # every map reads its axes and slopes once: exact on any lattices
        reads = [[(int(a), float(B[r, a]), 0.0) for r, a in enumerate(np.argmax(B != 0.0, axis=1))]
                 for B in datum.maps]

        def ratios(grids, masses) -> np.ndarray:
            box = lattice_box(reads, grids, datum.d)
            numerator = grid_product_integral(reads, grids, datum.p, box)
            return numerator / np.prod([np.power(m, pj) for m, pj in zip(masses, datum.p)], axis=0)
    else:
        value_only = replace(spec, error_estimate=False)

        def ratios(grids, masses) -> np.ndarray:
            rows = [[GridFunction(o, h, row) for row in v] for v, o, h in grids]
            return np.array([bl_ratio(datum, list(x), None, value_only)[0] for x in zip(*rows)])

    def ratio(inputs: list[GridFunction]) -> float:
        grids = [(g.values[None], g.origin, g.spacing) for g in inputs]
        return float(ratios(grids, [np.array([g.integral()]) for g in inputs])[0])

    bl_f = ratio(f)
    bl_fp = ratio(fprime)
    lhs = bl_f * bl_fp
    if lhs == 0.0:
        raise ZeroMassError("R(f) R(f') is 0: the composite support of f or f' has no volume")
    conv_inputs = [convolve_grids(fj, fpj) for fj, fpj in zip(f, fprime)]
    conv_term = _conv_ratio(datum, conv_inputs, spec)
    sweep = _sup_sweep(datum, f, fprime, x_grid, ratios)
    excluded = int(np.count_nonzero(sweep == -np.inf))
    if excluded == len(sweep):
        raise ZeroMassError("every grid point produced a zero-mass localisation")
    best = int(np.argmax(sweep))
    sup_val, sup_arg = sweep[best], x_grid[best]
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


def _sup_sweep(datum: BLDatum, f, fprime, x_grid: np.ndarray, ratios) -> np.ndarray:
    """R((g_j^x)_j) for every x of x_grid, and -inf where some g_j^x is off
    its lattice or has zero mass.

    The x are taken in `blocks` whose localised products hold at most
    BLOCK_ENTRIES entries per map.  g_j^x lies on the lattice of f'_j at
    the spacing of f_j; ratios maps the kept (values (n, *shape f'_j),
    origin, spacing) of every map and their (n,) masses to the n ratios.
    """
    out = np.full(len(x_grid), -np.inf)
    for block in blocks(len(x_grid), max(fpj.values.size for fpj in fprime)):
        xs = x_grid[block]
        kept = np.ones(len(xs), dtype=bool)
        values, masses = [], []
        for B, fj, fpj in zip(datum.maps, f, fprime):
            g, off_lattice = _localised_products(fj, fpj, xs @ B.T)
            mass = g.reshape(len(xs), -1).sum(axis=1) * fj.spacing**fpj.dim
            kept &= ~off_lattice & (mass > 0.0)
            values.append((g, fpj.origin, fj.spacing))
            masses.append(mass)
        if np.any(kept):
            grids = [(g[kept], o, h) for g, o, h in values]
            out[block][kept] = ratios(grids, [m[kept] for m in masses])
    return out


def _localised_products(
    fj: GridFunction, fpj: GridFunction, centres: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values of y -> f(c - y) f'(y) on the lattice of f' for each of the
    (P, k) centres c, as a (P, *shape f') array, and the (P,) mask of the
    centres whose shift is off the lattice (their values are 0)."""
    h = fj.spacing
    shift = (centres - fj.origin - fpj.origin) / h
    K = np.round(shift)
    off_lattice = ~np.all(np.abs(K - shift) <= 1e-9, axis=1)
    K[off_lattice] = np.inf  # clipped below to an all-padding window
    # g[i] = f[K-1-i] f'[i] = flipped[i + n_f - K]: the window of the flip of f,
    # padded with len(f') zeros per side, that starts at n_f - K + len(f')
    n_f = np.asarray(fj.values.shape)
    n_p = np.asarray(fpj.values.shape)
    flipped = fj.values[(slice(None, None, -1),) * n_f.size]
    windows = sliding_window_view(np.pad(flipped, [(n, n) for n in n_p]), fpj.values.shape)
    start = np.clip(n_f + n_p - K, 0, n_f + n_p).astype(np.int64)
    return windows[tuple(start.T)] * fpj.values, off_lattice


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
