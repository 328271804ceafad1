"""Polytope volume by Qhull, the oracle for closed-form volumes in tests.

The ratio quadrature bounds a composite support by LPs alone
(`blt.geometry.bounding_box_from_linear_constraints`); the volumes of
extremizer polytopes and of the affine slices behind the flat
convolution formula are measured here, with scipy's Qhull.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError


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


def box_preimage_volume(maps: list[np.ndarray], boxes) -> float:
    """Volume of {x : B_j x in box_j for all j} for box indicators box_j
    (the sets M_j [0, 1]^k + offset_j), as one polytope."""
    rows, offs = [], []
    for B, f in zip(maps, boxes):
        Minv = np.linalg.inv(f.matrix)
        G = Minv @ B
        c = Minv @ f.offset
        rows += [G, -G]
        offs += [1.0 - c, c]
    return polytope_volume(np.vstack(rows), np.concatenate([np.atleast_1d(o) for o in offs]))
