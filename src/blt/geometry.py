"""Exact low-dimensional geometry primitives.

Covers the measure of axis boxes against halfspaces and slabs (exact in
1D/2D, midpoint-subdivision in higher rank), convex polygon clipping,
and polytope volume via halfspace intersection.  These back the slab
and tube masses of the scale decomposition and the exact-indicator path
of the ratio quadrature.  Every grid mass, at every rank, goes through
one dispatch (`_halfplane_mass`); `grid_slab_mass` adds only the rank-2
closed form, which is much faster than clipping on slabs.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

# Midpoint subdivisions per cell axis in the rank >= 3 grid-mass measure.
SUBDIVISION = 4


def box_halfspace_area_2d(
    origins: np.ndarray, h: float, w: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Area of cell_k intersected with {y : <y, w> <= c_k}, exactly.

    origins: (N, 2) lower corners of square cells of side h; c: (N,)
    thresholds.  Vectorised piecewise-quadratic evaluation; axis-aligned
    and degenerate normals are handled by explicit branches.
    """
    origins = np.asarray(origins, dtype=float)
    c = np.asarray(c, dtype=float)
    base = origins @ w
    # reflect coordinates so both weights are nonnegative; area is invariant
    wx, wy = float(w[0]), float(w[1])
    if wx < 0:
        base = base + wx * h
        wx = -wx
    if wy < 0:
        base = base + wy * h
        wy = -wy
    r = c - base
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
    out = np.empty_like(r)
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
    lo: float,
    hi: float,
) -> float:
    """Integral of a grid function over the slab {lo <= <y, w> <= hi}.

    Rank 2 uses the closed-form cell areas; every other rank measures the
    slab as the two halfplanes <y, w> <= hi and <y, -w> <= -lo, exactly
    as `grid_polygon_mass` does.
    """
    if hi < lo:
        return 0.0
    origins, vals = _positive_cells(values, origin, h)
    if len(vals) == 0:
        return 0.0
    w = np.asarray(w, dtype=float)
    if origins.shape[1] != 2:
        return _halfplane_mass(origins, vals, h, [(w, hi), (-w, -lo)])
    area_hi = box_halfspace_area_2d(origins, h, w, np.full(len(vals), hi))
    area_lo = box_halfspace_area_2d(origins, h, w, np.full(len(vals), lo))
    return float(np.dot(vals, np.clip(area_hi - area_lo, 0.0, None)))


def clip_polygon_halfplane(vertices: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against {<y, n> <= c}."""
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) == 0:
        return vertices
    dist = vertices @ normal - offset
    keep = dist <= 0.0
    if np.all(keep):
        return vertices
    if not np.any(keep):
        return vertices[:0]
    out = []
    n = len(vertices)
    for i in range(n):
        j = (i + 1) % n
        vi, vj = vertices[i], vertices[j]
        di, dj = dist[i], dist[j]
        if di <= 0.0:
            out.append(vi)
        if (di <= 0.0) != (dj <= 0.0):
            t = di / (di - dj)
            out.append(vi + t * (vj - vi))
    return np.asarray(out)


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a (convex) polygon given in order."""
    if len(vertices) < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def grid_polygon_mass(
    values: np.ndarray,
    origin: np.ndarray,
    h: float,
    halfplanes: list[tuple[np.ndarray, float]],
) -> float:
    """Integral of a grid function over an intersection of halfspaces
    {<y, n> <= c}, one (n, c) per entry of `halfplanes`.

    Exact at rank 1 (interval overlap) and rank 2 (every candidate cell
    is clipped); rank >= 3 uses the midpoint-subdivision measure.
    """
    origins, vals = _positive_cells(values, origin, h)
    if len(vals) == 0:
        return 0.0
    return _halfplane_mass(origins, vals, h, halfplanes)


def _positive_cells(values: np.ndarray, origin: np.ndarray, h: float):
    """Lower corners (N, k) and values (N,) of the cells with positive value."""
    values = np.asarray(values, dtype=float)
    k = values.ndim
    idx = np.indices(values.shape).reshape(k, -1).T
    vals = values.ravel()
    mask = vals > 0
    return np.asarray(origin, dtype=float) + h * idx[mask], vals[mask]


def _halfplane_mass(origins, vals, h: float, halfplanes) -> float:
    """The one rank dispatch behind `grid_polygon_mass` and `grid_slab_mass`."""
    k = origins.shape[1]
    if k == 1:
        return _interval_mass(origins[:, 0], vals, h, halfplanes)
    if k == 2:
        return _clip_mass(origins, vals, h, halfplanes)
    return _subdivision_mass(origins, vals, h, halfplanes)


def _clip_mass(origins, vals, h: float, halfplanes) -> float:
    """Rank 2: every candidate cell is clipped against all halfplanes.
    Candidates are pre-filtered with the corner values of each functional."""
    # prefilter: a cell is out if some halfplane excludes all 4 corners,
    # fully in for a plane if all corners satisfy it
    corner_off = np.array([[0.0, 0.0], [h, 0.0], [0.0, h], [h, h]])
    candidate = np.ones(len(vals), dtype=bool)
    clip_needed = np.zeros(len(vals), dtype=bool)
    for normal, offset in halfplanes:
        proj = origins @ normal
        corner_vals = proj[:, None] + corner_off @ normal
        cmin = corner_vals.min(axis=1)
        cmax = corner_vals.max(axis=1)
        candidate &= cmin <= offset
        clip_needed |= cmax > offset
    total = 0.0
    square = np.array([[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]])
    for i in np.nonzero(candidate)[0]:
        if not clip_needed[i]:
            total += vals[i] * h * h
            continue
        poly = square + origins[i]
        for normal, offset in halfplanes:
            poly = clip_polygon_halfplane(poly, np.asarray(normal, dtype=float), offset)
            if len(poly) == 0:
                break
        else:
            total += vals[i] * polygon_area(poly)
    return float(total)


def _interval_mass(lows: np.ndarray, vals: np.ndarray, h: float, halfplanes) -> float:
    """Rank 1: exact overlap of the cells [a, a + h] with the interval
    cut out by the halfplanes n y <= c."""
    lo, hi = -np.inf, np.inf
    for normal, offset in halfplanes:
        n = float(np.asarray(normal, dtype=float)[0])
        if n > 0.0:
            hi = min(hi, offset / n)
        elif n < 0.0:
            lo = max(lo, offset / n)
        elif offset < 0.0:
            return 0.0
    overlap = np.clip(np.minimum(lows + h, hi) - np.maximum(lows, lo), 0.0, None)
    return float(np.dot(vals, overlap))


def _subdivision_mass(origins, vals, h: float, halfplanes) -> float:
    """Rank >= 3: each cell is cut into SUBDIVISION^k sub-cells, and a
    sub-cell counts in full when its midpoint satisfies every halfplane.
    Additive across disjoint slabs, but not a one-sided bound."""
    k = origins.shape[1]
    q = SUBDIVISION
    normals = np.asarray([n for n, _ in halfplanes], dtype=float).reshape(-1, k)
    offsets = np.asarray([c for _, c in halfplanes], dtype=float)
    shifts = (np.indices((q,) * k).reshape(k, -1).T + 0.5) * (h / q)
    total = 0.0
    for shift in shifts:
        inside = np.all((origins + shift) @ normals.T <= offsets, axis=1)
        total += float(np.dot(vals, inside))
    return total * (h / q) ** k


def chebyshev_center(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Interior point of {x : A x <= b} via the Chebyshev-center LP.

    None when the LP certifies the set empty (infeasible) or flat (no
    ball of positive radius fits); ValueError on any other LP failure,
    such as a set holding arbitrarily large balls.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    norms = np.linalg.norm(A, axis=1)
    n = A.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([A, norms[:, None]])
    res = linprog(c, A_ub=A_ub, b_ub=b, bounds=[(None, None)] * n + [(0, None)], method="highs")
    if res.status == 2 or (res.success and res.x[-1] <= 0):
        return None
    if not res.success:
        raise ValueError(f"Chebyshev-center LP failed: {res.message}")
    return res.x[:n]


def polytope_volume(A: np.ndarray, b: np.ndarray) -> float:
    """Volume of the bounded polytope {x : A x <= b}; 0 only when the
    Chebyshev-center LP certifies it empty or flat.

    Exact interval length in one dimension, a Qhull halfspace
    intersection above; a Qhull failure (an unbounded set, say) raises
    ValueError rather than reading as zero volume.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    interior = chebyshev_center(A, b)
    if interior is None:
        return 0.0
    if A.shape[1] == 1:
        a = A[:, 0]
        return float(np.min(b[a > 0] / a[a > 0]) - np.max(b[a < 0] / a[a < 0]))
    halfspaces = np.hstack([A, -b[:, None]])
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            hs = HalfspaceIntersection(halfspaces, interior)
        if not np.all(np.isfinite(hs.intersections)):
            raise ValueError("halfspace intersection has vertices at infinity")
        hull = ConvexHull(hs.intersections)
    except (QhullError, ValueError) as exc:
        reason = str(exc).strip().splitlines()[0]
        raise ValueError(f"polytope volume failed in Qhull: {reason}") from exc
    return float(hull.volume)


def bounding_box_from_linear_constraints(
    mats: list[np.ndarray], lows: list[np.ndarray], highs: list[np.ndarray], d: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Axis bounds of {x : lo_j <= B_j x <= hi_j for all j} via LPs.

    Returns None when the region is unbounded in some direction.
    """
    A_rows = []
    b_vals = []
    for B, lo, hi in zip(mats, lows, highs):
        A_rows.append(B)
        b_vals.append(np.asarray(hi, dtype=float))
        A_rows.append(-B)
        b_vals.append(-np.asarray(lo, dtype=float))
    A = np.vstack(A_rows)
    b = np.concatenate(b_vals)
    lo_out = np.empty(d)
    hi_out = np.empty(d)
    for a in range(d):
        c = np.zeros(d)
        c[a] = 1.0
        res_min = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
        res_max = linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
        if not (res_min.success and res_max.success):
            return None
        lo_out[a] = res_min.fun
        hi_out[a] = -res_max.fun
    return lo_out, hi_out
