"""Exact low-dimensional geometry primitives.

Covers the measure of axis boxes against halfspaces and slabs (exact in
1D/2D, midpoint-subdivision in higher rank), which backs the slab and
tube masses of the scale decomposition, and the bounding box of a set
cut out by linear constraints, which bounds the ratio quadrature's
composite support.  Every grid mass goes through one rank dispatch
(`_halfplane_mass`) except a rank-2 slab's: there a cell's area below a
cut of <y, w> is piecewise quadratic in the cut (`_square_areas_below`,
the one copy of that arithmetic).  `SlabCells` is the one slab route, at
every rank: it holds a grid's positive cells and their values, and at
rank 2 their corner projections on w.  `grid_slab_mass` builds one per
call; the pigeonhole ladder builds one per window and reuses it at every
step (at rank 2 evaluating each cut's areas once).  Other rank-2
regions take a cell's share of any halfplane intersection as a
closed-form edge sum over the lines that bound it, with no polygon
clipping.  Both grid-mass routines measure many regions of one grid in
one call: a region's mass does not depend on the other regions of its
call.  The regions of a `grid_polygon_mass` call form a grid whose
offsets each vary along one axis (`_RegionGrid`), as a map's tubes do,
so the rank-2 prefilter is tabled per region axis rather than per
(region, cell) pair.
"""

from __future__ import annotations

import numpy as np

# Midpoint subdivisions per cell axis in the rank >= 3 grid-mass measure.
SUBDIVISION = 4
# Entries of any (region, cell), (region-axis row, cell) or (line, line,
# pair) temporary of the batched grid masses; larger batches are measured
# in blocks of regions and of (region, cell) pairs.
BLOCK_ENTRIES = 2**16
# Relative angle, and distance in cell sides, below which two lines of the
# rank-2 area kernel count as parallel, and parallel lines as coincident.
PARALLEL_TOL = 64 * np.finfo(float).eps


class SlabCells:
    """The positive cells of a grid function, prepared for slabs of one
    normal w: their lower corners and values, in row-major cell order,
    and at rank 2 their reflected corner projections on w.  At any other
    rank a slab is the two halfplanes <y, w> <= hi and <y, -w> <= -lo,
    measured by `_halfplane_mass` as `grid_polygon_mass` measures them.

    `grid_slab_mass` builds one per call; a caller that measures slabs of
    one grid and normal many times (the pigeonhole ladder, once per step)
    builds it once and calls `masses`, with the same bits.
    """

    def __init__(self, values: np.ndarray, origin: np.ndarray, h: float, w: np.ndarray):
        self.origins, self.vals = _positive_cells(values, origin, h)
        self.h = h
        w = np.asarray(w, dtype=float)
        if self.origins.shape[1] == 2:
            self.normals = None
            self.base, self.wx, self.wy = _reflected_projections(self.origins, h, w)
        else:
            self.normals = np.stack([w, -w])

    def masses(self, cuts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """(T,) masses of the slabs {cuts[lo[t]] <= <y, w> <= cuts[hi[t]]};
        a slab whose upper cut is below its lower cut has mass 0.

        At rank 2 a slab's mass is the clipped difference of the cell
        areas below its two cuts, summed with the cell values by one dot
        per slab.  When one block holds every slab, the areas below each
        cut are evaluated once, however many slabs end at it (so every
        cut should end some slab); larger calls evaluate them per block of
        slabs.
        """
        cuts = np.asarray(cuts, dtype=float)
        lo, hi = np.asarray(lo), np.asarray(hi)
        if self.normals is not None:
            masses = _halfplane_mass(self.origins, self.vals, self.h, self.normals,
                                     [cuts[hi], -cuts[lo]])
            masses[cuts[hi] < cuts[lo]] = 0.0
            return masses
        masses = np.zeros(len(lo))
        blocks = _blocks(len(lo), 2 * len(self.vals))
        table = self._areas_below(cuts) if len(blocks) == 1 else None
        for block in blocks:
            if table is None:
                upper, lower = self._areas_below(cuts[hi[block]]), self._areas_below(cuts[lo[block]])
            else:
                upper, lower = table[hi], table[lo]
            masses[block] = _weighted_sums(np.maximum(upper - lower, 0.0), self.vals)
        masses[cuts[hi] < cuts[lo]] = 0.0
        return masses

    def _areas_below(self, cuts: np.ndarray) -> np.ndarray:
        """(T, N) areas of the cells below each of the (T,) cuts."""
        return _square_areas_below(cuts[:, None] - self.base, self.h, self.wx, self.wy)


def _reflected_projections(origins: np.ndarray, h: float, w) -> tuple[np.ndarray, float, float]:
    """Per cell, the least value of <y, w> over the cell (the projection
    of the corner that reflecting w to nonnegative weights makes the
    lower one), and those weights |w_0|, |w_1|; areas below a threshold
    are invariant under the reflection."""
    base = origins @ w
    wx, wy = float(w[0]), float(w[1])
    if wx < 0:
        base = base + wx * h
        wx = -wx
    if wy < 0:
        base = base + wy * h
        wy = -wy
    return base, wx, wy


def _square_areas_below(r: np.ndarray, h: float, wx: float, wy: float) -> np.ndarray:
    """Areas of [0, h]^2 ∩ {wx y_0 + wy y_1 <= r} for weights wx, wy >= 0,
    elementwise in r: piecewise quadratic (a triangle, a trapezoid, then
    the square less a triangle), with explicit branches for axis-aligned
    and zero weights."""
    ax, ay = wx * h, wy * h
    full = h * h
    if ax == 0.0 and ay == 0.0:
        return np.where(r >= 0.0, full, 0.0)
    if ax == 0.0:
        return h * np.clip(r / wy, 0.0, h)
    if ay == 0.0:
        return h * np.clip(r / wx, 0.0, h)
    lo = min(ax, ay)
    hi = max(ax, ay)
    r_cl = np.clip(r, 0.0, ax + ay)
    tri = r_cl * r_cl / (2.0 * wx * wy)
    trap = (r_cl - 0.5 * lo) * lo / (wx * wy)
    anti = full - (ax + ay - r_cl) ** 2 / (2.0 * wx * wy)
    out = np.where(r_cl <= lo, tri, np.where(r_cl <= hi, trap, anti))
    out[r <= 0.0] = 0.0
    out[r >= ax + ay] = full
    return out


def grid_slab_mass(
    values: np.ndarray,
    origin: np.ndarray,
    h: float,
    w: np.ndarray,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
) -> float | np.ndarray:
    """Integral of a grid function over the slab {lo <= <y, w> <= hi}.

    `lo` and `hi` are floats, or (T,) arrays for T slabs of one normal;
    the result is a float, or the (T,) masses.  A slab with hi < lo has
    mass 0.  One `SlabCells` table measures them: closed-form cell areas
    at rank 2, two halfplanes at every other rank.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    count = lo.size
    masses = SlabCells(values, origin, h, w).masses(
        np.concatenate([lo, hi]), np.arange(count), np.arange(count, 2 * count)
    )
    return float(masses[0]) if scalar else masses


def grid_polygon_mass(
    values: np.ndarray,
    origin: np.ndarray,
    h: float,
    halfplanes: list[tuple[np.ndarray, float | np.ndarray]],
) -> float | np.ndarray:
    """Integral of a grid function over an intersection of halfspaces
    {<y, n> <= c}, one (n, c) per entry of `halfplanes`.

    Each offset c is a float or an array; the arrays broadcast to a grid
    of regions that share the normals, and each varies along one region
    axis at most: a (T,) array for T regions, or (n0, 1) and (1, n1)
    arrays for an n0 x n1 grid of tubes.  With any array offset the call
    returns the masses in the grid's shape, else a float.  Exact at rank 1
    (interval overlap) and rank 2 (an edge sum per candidate cell); rank
    >= 3 uses the midpoint-subdivision measure.
    """
    k = np.ndim(values)
    scalar = all(np.ndim(c) == 0 for _, c in halfplanes)
    normals = np.array([n for n, _ in halfplanes], dtype=float).reshape(-1, k)
    origins, vals = _positive_cells(values, origin, h)
    masses = _halfplane_mass(origins, vals, h, normals, [c for _, c in halfplanes])
    return float(masses) if scalar else masses


def _positive_cells(values: np.ndarray, origin: np.ndarray, h: float):
    """Lower corners (N, k) and values (N,) of the cells with positive
    value, in row-major cell order."""
    values = np.asarray(values, dtype=float)
    positive = values > 0
    return np.asarray(origin, dtype=float) + h * np.argwhere(positive), values[positive]


def _blocks(count: int, entries_per_item: int) -> list[slice]:
    """Consecutive slices of range(count) holding at most BLOCK_ENTRIES
    entries each (at least one item)."""
    step = max(1, BLOCK_ENTRIES // max(1, entries_per_item))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _weighted_sums(weights: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Row-wise dot products weights[t] . vals.  `np.vecdot` takes one dot
    per row, so a region's mass is the same bits whatever other regions
    share its block (a matrix-vector product sums in a batch-dependent
    order)."""
    return np.vecdot(weights, vals)


class _RegionGrid:
    """The regions {<y, n_p> <= c_p for all p} of one call: offset c_p
    broadcasts to the region grid `shape` and varies along one axis at
    most.  `cuts[p]` holds its values along `axes[p]`; a constant offset
    is held as constant along axis 0, and a call with no array offset as
    a grid of one region."""

    def __init__(self, columns: list):
        columns = [np.asarray(c, dtype=float) for c in columns]
        self.shape = np.broadcast_shapes(*(c.shape for c in columns))
        self.grid = self.shape or (1,)
        self.count = int(np.prod(self.grid))
        self.axes, self.cuts = [], []
        for c in columns:
            padded = (1,) * (len(self.grid) - c.ndim) + c.shape
            varying = [a for a, n in enumerate(padded) if n != 1]
            if len(varying) > 1:
                raise ValueError("each offset may vary along one region axis at most")
            axis = varying[0] if varying else 0
            self.axes.append(axis)
            self.cuts.append(np.broadcast_to(c.reshape(-1), self.grid[axis]))

    def index(self, block: slice) -> tuple[np.ndarray, ...]:
        """Per region axis, the indices of the regions of a block of the
        flattened (row-major) grid."""
        return np.unravel_index(np.arange(block.start, block.stop), self.grid)

    def rows(self, block: slice, index: tuple[np.ndarray, ...], axis: int):
        """The distinct indices along `axis` of the regions of a block, and
        each region's position among them.  A block of B consecutive
        regions meets at most B consecutive rows of every axis, modulo
        the axis length, so they are that window."""
        n = self.grid[axis]
        stride = int(np.prod(self.grid[axis + 1 :]))
        first = block.start // stride
        span = (block.stop - 1) // stride - first + 1
        if span >= n:
            first, span = 0, n
        return (first + np.arange(span)) % n, (index[axis] - first) % n

    def offsets(self, index: tuple[np.ndarray, ...]) -> np.ndarray:
        """(P, B) offsets of the B regions at `index`."""
        count = len(index[0])
        return np.array([cut[index[a]] for a, cut in zip(self.axes, self.cuts)]).reshape(-1, count)


def _halfplane_mass(origins, vals, h: float, normals, columns: list) -> np.ndarray:
    """The one rank dispatch behind `grid_polygon_mass` and `grid_slab_mass`:
    the masses of the regions {<y, normals[p]> <= columns[p] for all p},
    in the shape the offsets broadcast to (`_RegionGrid`)."""
    regions = _RegionGrid(columns)
    if len(vals) == 0 or regions.count == 0:
        return np.zeros(regions.shape)
    k = origins.shape[1]
    if k == 1:
        masses = _interval_mass(origins[:, 0], vals, h, normals[:, 0], regions)
    elif k == 2:
        masses = _clip_mass(origins, vals, h, normals, regions)
    else:
        masses = _subdivision_mass(origins, vals, h, normals, regions)
    return masses.reshape(regions.shape)


def _interval_mass(lows, vals, h: float, normals, regions: _RegionGrid) -> np.ndarray:
    """Rank 1: exact overlap of the cells [a, a + h] with the intervals
    cut out by the halfplanes n y <= c."""
    up, down, flat = normals > 0.0, normals < 0.0, normals == 0.0
    masses = np.zeros(regions.count)
    for block in _blocks(regions.count, len(vals)):
        offsets = regions.offsets(regions.index(block))
        hi = np.min(offsets[up] / normals[up, None], axis=0, initial=np.inf)
        lo = np.max(offsets[down] / normals[down, None], axis=0, initial=-np.inf)
        overlap = np.minimum(lows + h, hi[:, None]) - np.maximum(lows, lo[:, None])
        void = np.any(offsets[flat] < 0.0, axis=0)
        masses[block] = np.where(void, 0.0, _weighted_sums(np.clip(overlap, 0.0, None), vals))
    return masses


def _clip_mass(origins, vals, h: float, normals, regions: _RegionGrid) -> np.ndarray:
    """Rank 2: exact areas of every candidate (region, cell) pair.

    A corner-projection prefilter drops the cells some halfplane excludes
    whole and counts in full the cells every halfplane contains.  The
    regions are taken one block at a time, and the prefilter is tabled
    per region axis, over the block's distinct indices on that axis and
    the cells, from the offsets that vary along it: a pair is a candidate
    when it is one on every axis, and partial when it is on some axis.
    Pairs are enumerated over the cells that every axis table reaches, so
    each region's pairs come in ascending cell order.  Partial pairs are
    measured in batches (`_clipped_square_areas`), and each region's cell
    masses are summed by one bincount, in row-major cell order.
    """
    corners = np.array([[0.0, 0.0], [h, 0.0], [0.0, h], [h, h]])
    proj = np.array([origins @ n for n in normals]).reshape(len(normals), len(vals))
    reach = corners @ normals.T  # (4, P)
    cmin = proj + reach.min(axis=0)[:, None]
    cmax = proj + reach.max(axis=0)[:, None]
    on_axis = [[p for p, a in enumerate(regions.axes) if a == axis]
               for axis in range(len(regions.grid))]
    full_mass = vals * h * h
    clip_batch = max(1, BLOCK_ENTRIES // (4 + len(normals)) ** 2)
    masses = np.zeros(regions.count)
    for block in _blocks(regions.count, len(vals)):
        index = regions.index(block)
        tables = []
        reached = np.ones(len(vals), dtype=bool)
        for axis, halfplanes in enumerate(on_axis):
            rows, at = regions.rows(block, index, axis)
            candidate = np.ones((len(rows), len(vals)), dtype=bool)
            partial = np.zeros_like(candidate)
            for p in halfplanes:
                cut = regions.cuts[p][rows, None]
                candidate &= cmin[p] <= cut
                partial |= cmax[p] > cut
            reached &= candidate.any(axis=0)
            tables.append((candidate, partial, at))
        cells = np.flatnonzero(reached)
        table = np.ones((block.stop - block.start, len(cells)), dtype=bool)
        for candidate, _, at in tables:
            table &= candidate[:, cells][at]
        region, cell = np.nonzero(table)
        cell = cells[cell]
        clipped = np.zeros(len(cell), dtype=bool)
        for _, partial, at in tables:
            clipped |= partial[at[region], cell]
        weights = full_mass[cell]
        pairs = np.flatnonzero(clipped)
        offsets = regions.offsets(index)
        for start in range(0, len(pairs), clip_batch):
            sel = pairs[start : start + clip_batch]
            local = offsets[:, region[sel]] - proj[:, cell[sel]]
            weights[sel] = vals[cell[sel]] * _clipped_square_areas(h, normals, local)
        masses[block] = np.bincount(region, weights, minlength=len(table))
    return masses


def _clipped_square_areas(h: float, normals, offsets) -> np.ndarray:
    """(B,) areas of [0, h]^2 ∩ {<y, normals[p]> <= offsets[p, b] for all p}.

    Closed-form edge sum over the K = 4 + P lines <y, n_k> = c_k (the
    square's sides, then the halfplanes).  Each line, parametrised as
    c_k n_k / |n_k|^2 + t rot90(n_k), is clipped against the other K - 1
    halfplanes (Cyrus-Beck) to its edge t in [t_lo, t_hi]; by the
    divergence theorem the area is 1/2 sum_k c_k max(0, t_hi - t_lo).
    Every step is elementwise, a min or max over lines, or a fixed-order
    sum over k, so an area does not depend on the rest of its batch.
    """
    n = np.concatenate([[[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], normals])
    c = np.concatenate([np.outer([0.0, h, 0.0, h], np.ones(offsets.shape[1])), offsets])
    # <rot90(n_k), n_m> and <n_k, n_m> elementwise: a BLAS product may fuse
    # multiply-adds and leave a nonzero diagonal
    cross = n[:, None, 0] * n[None, :, 1] - n[:, None, 1] * n[None, :, 0]
    dot = n[:, None, 0] * n[None, :, 0] + n[:, None, 1] * n[None, :, 1]
    square = np.diag(dot)
    norm = np.sqrt(square)
    live = norm > 0.0
    # lines within PARALLEL_TOL of parallel count as parallel, which moves an
    # area by O(PARALLEL_TOL h^2); a line is not parallel to itself
    angle_tol = PARALLEL_TOL * np.outer(norm, norm)
    upper = cross > angle_tol
    lower = cross < -angle_tol
    parallel = ~upper & ~lower & ~np.eye(len(n), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(upper | lower, 1.0 / cross, 0.0)
        foot = np.where(live[:, None], c / square[:, None], 0.0)
    # t[k, m]: the parameter on line k of its crossing with line m
    t = c[None, :, :] * inv[:, :, None] - foot[:, None, :] * (dot * inv)[:, :, None]
    t_hi = np.min(t, axis=1, where=upper[:, :, None], initial=np.inf)
    t_lo = np.max(t, axis=1, where=lower[:, :, None], initial=-np.inf)
    # a parallel halfplane m drops line k where the line lies outside it, or
    # on its boundary when m is an earlier line facing the same way, so a
    # shared edge counts once (the two edges of a zero-width strip cancel)
    k, m = np.nonzero(parallel)
    b = c[m] - foot[k] * dot[k, m, None]
    gap = PARALLEL_TOL * h * norm[m, None]
    earlier = (dot[k, m] > 0.0) & (m < k)
    dropped = ~live[:, None] | (t_hi <= t_lo)
    for line, hit in zip(k, (b < -gap) | ((np.abs(b) <= gap) & earlier[:, None])):
        dropped[line] |= hit
    twice = np.zeros(offsets.shape[1])
    for term in c * np.where(dropped, 0.0, t_hi - t_lo):
        twice += term
    return np.maximum(0.5 * twice, 0.0)


def _subdivision_mass(origins, vals, h: float, normals, regions: _RegionGrid) -> np.ndarray:
    """Rank >= 3: each cell is cut into SUBDIVISION^k sub-cells, and a
    sub-cell counts in full when its midpoint satisfies every halfplane.
    Additive across disjoint slabs, but not a one-sided bound."""
    k = origins.shape[1]
    q = SUBDIVISION
    shifts = (np.indices((q,) * k).reshape(k, -1).T + 0.5) * (h / q)
    masses = np.zeros(regions.count)
    for block in _blocks(regions.count, len(vals)):
        offsets = regions.offsets(regions.index(block))
        inside_count = np.zeros((block.stop - block.start, len(vals)))
        for shift in shifts:
            inside = np.ones(inside_count.shape, dtype=bool)
            for proj, cut in zip(((origins + shift) @ normals.T).T, offsets[:, :, None]):
                inside &= proj <= cut
            inside_count += inside
        masses[block] = _weighted_sums(inside_count, vals)
    return masses * (h / q) ** k


def bounding_box_from_linear_constraints(
    mats: list[np.ndarray], lows: list[np.ndarray], highs: list[np.ndarray], d: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Axis bounds of {x : lo_j <= B_j x <= hi_j for all j}.

    When every row of every B_j has one nonzero entry the region is a box,
    and its bounds are the per-axis intersections of the rows' intervals;
    otherwise two LPs per axis give them.  An empty region comes back with
    lo > hi on some axis (the LP route returns lo = inf, hi = -inf when
    HiGHS finds it infeasible); None means it is unbounded in some
    direction, or that an LP could not bound it.
    """
    lows = [np.asarray(lo, dtype=float) for lo in lows]
    highs = [np.asarray(hi, dtype=float) for hi in highs]
    A = np.vstack(mats)
    if np.all(np.count_nonzero(A, axis=1) == 1):
        return _interval_box(A, np.concatenate(lows), np.concatenate(highs), d)
    # imported here: scipy.optimize is slow to import and only rows reading several axes need it
    from scipy.optimize import linprog

    A_ub = np.vstack([rows for B in mats for rows in (B, -B)])
    b_ub = np.concatenate([bound for lo, hi in zip(lows, highs) for bound in (hi, -lo)])
    lo_out = np.empty(d)
    hi_out = np.empty(d)
    for a in range(d):
        c = np.zeros(d)
        c[a] = 1.0
        res_min = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * d, method="highs")
        if res_min.status == 2:  # infeasible: the region is empty
            return np.full(d, np.inf), np.full(d, -np.inf)
        res_max = linprog(-c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * d, method="highs")
        if not (res_min.success and res_max.success):
            return None
        lo_out[a] = res_min.fun
        hi_out[a] = -res_max.fun
    return lo_out, hi_out


def _interval_box(A: np.ndarray, lo_rows: np.ndarray, hi_rows: np.ndarray, d: int):
    """`bounding_box_from_linear_constraints` for rows with one nonzero
    entry a each: the row bounds x_axis between lo/a and hi/a."""
    axis = np.argmax(A != 0.0, axis=1)
    a = A[np.arange(len(A)), axis]
    below = np.where(a > 0.0, lo_rows / a, hi_rows / a)
    above = np.where(a > 0.0, hi_rows / a, lo_rows / a)
    lo_out = np.full(d, -np.inf)
    hi_out = np.full(d, np.inf)
    np.maximum.at(lo_out, axis, below)
    np.minimum.at(hi_out, axis, above)
    # an axis with lo > hi makes the region empty, whatever bounds the others
    if not np.any(lo_out > hi_out) and not np.all(np.isfinite(lo_out) & np.isfinite(hi_out)):
        return None
    return lo_out, hi_out
