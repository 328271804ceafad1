"""Reference sparse exterior algebra over R^d, the oracle for `blt.exterior`.

Multivectors are sparse maps from strictly increasing index tuples to
coefficients, with 0-based indices.  Signs come from counting
inversions of concatenated index tuples, so the basis is canonical and
orientation-free.  The ambient dimension is capped at 12 to keep the
2^d basis enumerable.

`blt.exterior` computes the same quantities by determinant identities;
the `transversality_quantity`, `cross_like` and `orientation_pairing`
below are the algebraic routes it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from blt.exterior import ExteriorError

MAX_DIMENSION = 12


def _merge_indices(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two sorted index tuples; return (merged, sign) or None on overlap.

    The sign is the parity of the permutation sorting the concatenation,
    i.e. (-1)**inversions with both inputs already increasing.
    """
    if set(left) & set(right):
        return None
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    merged = tuple(sorted(left + right))
    sign = -1.0 if inversions % 2 else 1.0
    return merged, sign


@dataclass
class MultiVector:
    """Graded element of Lambda^k(R^d).

    terms maps strictly increasing k-tuples of indices in range(d) to
    coefficients; absent keys are zero.
    """

    d: int
    grade: int
    terms: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 1 <= self.d <= MAX_DIMENSION:
            raise ExteriorError(f"dimension must be in [1, {MAX_DIMENSION}], got {self.d}")
        if not 0 <= self.grade <= self.d:
            raise ExteriorError(f"grade must be in [0, {self.d}], got {self.grade}")
        for key in self.terms:
            if len(key) != self.grade:
                raise ExteriorError(f"key {key} has wrong length for grade {self.grade}")
            if any(not 0 <= i < self.d for i in key):
                raise ExteriorError(f"key {key} out of range for d={self.d}")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ExteriorError(f"key {key} is not strictly increasing")

    def coefficient(self, key: tuple[int, ...]) -> float:
        return self.terms.get(tuple(key), 0.0)

    def prune(self, tol: float = 0.0) -> "MultiVector":
        kept = {k: c for k, c in self.terms.items() if abs(c) > tol}
        return MultiVector(self.d, self.grade, kept)

    def scale(self, factor: float) -> "MultiVector":
        return MultiVector(self.d, self.grade, {k: factor * c for k, c in self.terms.items()})

    def __add__(self, other: "MultiVector") -> "MultiVector":
        if self.d != other.d or self.grade != other.grade:
            raise ExteriorError("can only add multivectors of equal dimension and grade")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return MultiVector(self.d, self.grade, out)

    def norm(self) -> float:
        return float(np.sqrt(sum(c * c for c in self.terms.values())))

    @staticmethod
    def from_vector(v: np.ndarray) -> "MultiVector":
        v = np.asarray(v, dtype=float)
        return MultiVector(v.size, 1, {(i,): float(v[i]) for i in range(v.size) if v[i] != 0.0})

    @staticmethod
    def scalar(d: int, value: float) -> "MultiVector":
        return MultiVector(d, 0, {(): float(value)} if value != 0.0 else {})

    def to_vector(self) -> np.ndarray:
        if self.grade != 1:
            raise ExteriorError("to_vector requires grade 1")
        out = np.zeros(self.d)
        for (i,), c in self.terms.items():
            out[i] = c
        return out


def wedge(u: MultiVector, v: MultiVector) -> MultiVector:
    """Graded-antisymmetric product of u and v."""
    if u.d != v.d:
        raise ExteriorError(f"dimension mismatch: {u.d} != {v.d}")
    grade = u.grade + v.grade
    if grade > u.d:
        raise ExteriorError(f"grade overflow: {u.grade}+{v.grade} > d={u.d}")
    out: dict[tuple[int, ...], float] = {}
    for ku, cu in u.terms.items():
        for kv, cv in v.terms.items():
            merged = _merge_indices(ku, kv)
            if merged is None:
                continue
            key, sign = merged
            out[key] = out.get(key, 0.0) + sign * cu * cv
    return MultiVector(u.d, grade, out)


def hodge_star(u: MultiVector) -> MultiVector:
    """Hodge dual: for a basis element e_I, star(e_I) = sign * e_{I^c}.

    The sign is chosen so that u ^ star(u) = |u|^2 * (e_0 ^ ... ^ e_{d-1}),
    hence star(star(u)) = (-1)**(k*(d-k)) * u exactly.
    """
    full = set(range(u.d))
    out: dict[tuple[int, ...], float] = {}
    for key, coeff in u.terms.items():
        comp = tuple(sorted(full - set(key)))
        merged = _merge_indices(key, comp)
        assert merged is not None
        _, sign = merged
        out[comp] = out.get(comp, 0.0) + sign * coeff
    return MultiVector(u.d, u.d - u.grade, out)


def inner_product(u: MultiVector, v: MultiVector) -> float:
    """Standard inner product on Lambda^k; Gram determinant on decomposables."""
    if u.d != v.d or u.grade != v.grade:
        raise ExteriorError("inner product requires equal dimension and grade")
    shorter, longer = (u.terms, v.terms) if len(u.terms) <= len(v.terms) else (v.terms, u.terms)
    return float(sum(c * longer.get(k, 0.0) for k, c in shorter.items()))


def rows_wedge(B: np.ndarray) -> MultiVector:
    """Wedge product of the rows of B, taken in row order.

    The coefficients equal the maximal minors of B up to the sign
    conventions of ``wedge``.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.size == 0 or B.shape[0] == 0:
        raise ExteriorError("rows_wedge requires a nonempty matrix")
    rows, d = B.shape
    if rows > d:
        raise ExteriorError(f"row count {rows} exceeds dimension {d}")
    acc = MultiVector.from_vector(B[0]) if rows >= 1 else MultiVector.scalar(d, 1.0)
    for r in range(1, rows):
        acc = wedge(acc, MultiVector.from_vector(B[r]))
    return acc


def transversality_quantity(maps: list[np.ndarray]) -> float:
    """Grade-0 value of star(star X_1 ^ ... ^ star X_m).

    X_j is the wedge of the rows of B_j.  Nonzero exactly when the
    kernels of the B_j decompose R^d in direct sum; requires the kernel
    dimensions d - d_j to sum to d.
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
    acc: MultiVector | None = None
    for B in mats:
        star_x = hodge_star(rows_wedge(B))
        acc = star_x if acc is None else wedge(acc, star_x)
    assert acc is not None and acc.grade == d
    return hodge_star(acc).coefficient(())


def cross_like(vectors: np.ndarray) -> np.ndarray:
    """star of the wedge of d-1 vectors in R^d (generalised cross product).

    ``vectors`` has shape (d-1, d); the result is normal to their span.
    """
    vectors = np.asarray(vectors, dtype=float)
    k, d = vectors.shape
    if k != d - 1:
        raise ExteriorError(f"need d-1 vectors in R^d, got {k} in R^{d}")
    return hodge_star(rows_wedge(vectors)).to_vector()


def orientation_pairing(B: np.ndarray, ns: np.ndarray) -> float:
    """<wedge of the columns of ns, star X(B)>, whose sign orients a kernel basis."""
    return inner_product(rows_wedge(ns.T), hodge_star(rows_wedge(B)))
