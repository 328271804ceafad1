"""Exterior-algebra quantities of linear maps on R^d, by determinants.

With the Hodge star fixed by u ^ x = <star u, x> vol (vol = e_0 ^ ... ^
e_{d-1}), the dual of the row wedge X = b_1 ^ ... ^ b_k of a full-rank
k x d matrix B is star X = det([B; N^T]) * (n_1 ^ ... ^ n_{d-k}) for any
orthonormal kernel basis N = (n_1, ..., n_{d-k}).  Every quantity the
package takes from the algebra follows from that identity, so nothing
here enumerates the 2^d basis and d is not capped.

One dense helper sits beside it: ``row_and_null_space``, by a plain
numpy SVD, whose kernel bases (``null_space``) the datum and scale code
take and whose rank cut the multi-axis support box takes.
"""

from __future__ import annotations

import numpy as np


class ExteriorError(ValueError):
    """Invalid exterior-algebra operation."""


def transversality_quantity(maps: list[np.ndarray]) -> float:
    """Grade-0 value of star(star X_1 ^ ... ^ star X_m).

    X_j is the wedge of the rows of B_j.  Nonzero exactly when the
    kernels of the B_j decompose R^d in direct sum; requires the kernel
    dimensions d - d_j to sum to d.  With N_j an orthonormal basis of
    ker B_j the value is det([N_1 ... N_m]) * prod_j det([B_j; N_j^T]);
    the sign of each N_j cancels between the two factors.
    """
    mats = [np.atleast_2d(np.asarray(B, dtype=float)) for B in maps]
    if not mats:
        raise ExteriorError("transversality_quantity requires at least one map")
    d = mats[0].shape[1]
    if any(B.shape[1] != d for B in mats):
        raise ExteriorError("all maps must share the same source dimension")
    kernel_dims = [d - B.shape[0] for B in mats]
    if sum(kernel_dims) != d:
        raise ExteriorError(
            f"kernel dimensions {kernel_dims} sum to {sum(kernel_dims)}, expected {d}"
        )
    kernels = [null_space(B) for B in mats]
    if any(N.shape[1] != k for N, k in zip(kernels, kernel_dims)):
        return 0.0  # a rank-deficient map has X_j = 0
    blocks = np.prod([np.linalg.det(np.vstack([B, N.T])) for B, N in zip(mats, kernels)])
    return float(np.linalg.det(np.hstack(kernels)) * blocks)


def relative_transversality(maps: list[np.ndarray], quantity: float) -> float:
    """|quantity| / prod_j ||X(B_j)|| for the transversality quantity of
    `maps`: |det([N_1 ... N_m])| for orthonormal kernel bases N_j, which
    does not change when a map is scaled.  0 when some X(B_j) is 0."""
    norms = float(np.prod([row_wedge_norm(B) for B in maps]))
    return abs(quantity) / norms if norms > 0.0 else 0.0


def row_wedge_norm(B: np.ndarray) -> float:
    """||X(B)||, the norm of the wedge of the rows of B: the product of
    its singular values."""
    return float(np.prod(np.linalg.svd(np.atleast_2d(B), compute_uv=False)))


def cross_like(vectors: np.ndarray) -> np.ndarray:
    """star of the wedge of d-1 vectors in R^d (generalised cross product).

    ``vectors`` has shape (d-1, d); the result is normal to their span.
    Component i is det([vectors; e_i^T]).
    """
    vectors = np.asarray(vectors, dtype=float)
    k, d = vectors.shape
    if k != d - 1:
        raise ExteriorError(f"need d-1 vectors in R^d, got {k} in R^{d}")
    rows = np.broadcast_to(vectors, (d, k, d))
    return np.linalg.det(np.concatenate([rows, np.eye(d)[:, None]], axis=1))


def row_and_null_space(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the row space and the kernel of A, as columns:
    the right singular vectors up to and past the numerical rank of A,
    which counts the singular values above eps * max(M, N) * s_max, the
    usual numerical cut."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise ValueError("array must not contain infs or NaNs")
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    tol = np.finfo(float).eps * max(A.shape) * np.amax(s, initial=0.0)
    rank = int(np.sum(s > tol))
    return vh[:rank].T, vh[rank:].T


def null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker A as columns (`row_and_null_space`)."""
    return row_and_null_space(A)[1]
