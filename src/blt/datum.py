"""Brascamp-Lieb data from the direct-sum class and their constants.

A datum is a family of linear surjections B_j : R^d -> R^{d_j} with
exponents p_j.  For data whose kernels decompose R^d in direct sum and
whose exponents all equal 1/(m-1), the constant has the closed form
|star wedge_j star X_j(B_j)|^{-1/(m-1)}, and the datum is equivalent to
a family of coordinate projections via explicit intertwining matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exterior import null_space, relative_transversality, row_wedge_norm, transversality_quantity

RANK_TOL = 1e-10
TRANSVERSALITY_TOL = 1e-10
EXPONENT_TOL = 1e-12
CERTIFICATE_TOL = 1e-9


class DatumError(ValueError):
    """Malformed Brascamp-Lieb datum."""


class NotClassCError(ValueError):
    """Operation requires a direct-sum datum with exponents 1/(m-1)."""


class NearSingularError(ValueError):
    """Transversality below tolerance; kernel basis matrix is near singular."""


@dataclass
class BLDatum:
    """Datum (B, p): maps B_j are finite d_j x d matrices with full row
    rank, p_j finite in [0, 1]."""

    d: int
    maps: list[np.ndarray]
    p: np.ndarray

    def __post_init__(self) -> None:
        self.maps = [np.atleast_2d(np.asarray(B, dtype=float)) for B in self.maps]
        self.p = np.asarray(self.p, dtype=float)
        if len(self.maps) < 2:
            raise DatumError("a datum needs at least two maps")
        if self.p.shape != (len(self.maps),):
            raise DatumError("one exponent per map is required")
        for j, p_j in enumerate(self.p):
            if not np.isfinite(p_j):
                raise DatumError(f"exponent {j} is not finite: {p_j}")
        if np.any(self.p < 0) or np.any(self.p > 1):
            raise DatumError("exponents must lie in [0, 1]")
        for j, B in enumerate(self.maps):
            if B.ndim != 2:
                raise DatumError(f"map {j} is not a matrix")
            if B.shape[1] != self.d:
                raise DatumError(f"map {j} has {B.shape[1]} columns, expected {self.d}")
            if B.shape[0] > self.d:
                raise DatumError(f"map {j} has more rows than the ambient dimension")
            if not np.isfinite(B).all():
                raise DatumError(f"map {j} has a non-finite entry")
            sing = np.linalg.svd(B, compute_uv=False)
            if sing[-1] <= RANK_TOL * max(1.0, sing[0]):
                raise DatumError(f"map {j} is not surjective to tolerance {RANK_TOL}")

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def row_dims(self) -> list[int]:
        return [B.shape[0] for B in self.maps]

    @property
    def kernel_dims(self) -> list[int]:
        return [self.d - B.shape[0] for B in self.maps]


@dataclass
class ProjectionScheme:
    """Partition of range(d) into consecutive blocks K_j of sizes d_j'.

    The projection Pi_j deletes the coordinates in K_j.
    """

    d: int
    block_sizes: list[int]
    blocks: list[list[int]] = field(init=False)

    def __post_init__(self) -> None:
        if sum(self.block_sizes) != self.d:
            raise DatumError("block sizes must sum to the ambient dimension")
        if any(s <= 0 for s in self.block_sizes):
            raise DatumError("block sizes must be positive")
        start = 0
        self.blocks = []
        for size in self.block_sizes:
            self.blocks.append(list(range(start, start + size)))
            start += size

    @property
    def m(self) -> int:
        return len(self.block_sizes)

    def complement(self, j: int) -> list[int]:
        block = set(self.blocks[j])
        return [k for k in range(self.d) if k not in block]

    def projection_matrix(self, j: int) -> np.ndarray:
        comp = self.complement(j)
        P = np.zeros((len(comp), self.d))
        for row, k in enumerate(comp):
            P[row, k] = 1.0
        return P


def projection_datum(scheme: ProjectionScheme) -> BLDatum:
    """Coordinate-projection datum with exponents 1/(m-1)."""
    m = scheme.m
    maps = [scheme.projection_matrix(j) for j in range(m)]
    return BLDatum(scheme.d, maps, np.full(m, 1.0 / (m - 1)))


@dataclass
class ClassCDiagnostics:
    ok: bool
    reason: str
    kernel_dim_sum: int
    transversality: float | None
    exponent_deviation: float


def is_class_C(datum: BLDatum) -> tuple[bool, ClassCDiagnostics]:
    """Direct-sum membership test with diagnostics naming the first failure.

    Checks, in order: kernel dimensions sum to d, the Hodge-star
    determinant over the product of the map norms (so free of scale)
    exceeds tolerance, all exponents equal 1/(m-1).
    """
    kernel_sum = sum(datum.kernel_dims)
    if kernel_sum != datum.d:
        diag = ClassCDiagnostics(
            False,
            f"kernel dimensions sum to {kernel_sum}, expected {datum.d}",
            kernel_sum,
            None,
            float(np.max(np.abs(datum.p - 1.0 / (datum.m - 1)))),
        )
        return False, diag
    quantity = transversality_quantity(datum.maps)
    expo_dev = float(np.max(np.abs(datum.p - 1.0 / (datum.m - 1))))
    relative = relative_transversality(datum.maps, quantity)
    if not relative > TRANSVERSALITY_TOL:
        diag = ClassCDiagnostics(
            False,
            f"transversality quantity {quantity:.3e} is {relative:.3e} of the product of"
            f" the map norms, below tolerance {TRANSVERSALITY_TOL:g}",
            kernel_sum,
            quantity,
            expo_dev,
        )
        return False, diag
    if expo_dev > EXPONENT_TOL:
        diag = ClassCDiagnostics(
            False,
            f"exponents deviate from 1/(m-1) by {expo_dev:.3e}",
            kernel_sum,
            quantity,
            expo_dev,
        )
        return False, diag
    return True, ClassCDiagnostics(True, "ok", kernel_sum, quantity, expo_dev)


def bl_constant_classC(datum: BLDatum, diag: ClassCDiagnostics | None = None) -> float:
    """Closed-form constant |transversality|^{-1/(m-1)} for direct-sum data.

    diag is is_class_C's verdict on datum when the caller has it already.
    """
    if diag is None:
        _, diag = is_class_C(datum)
    if not diag.ok:
        raise NotClassCError(diag.reason)
    assert diag.transversality is not None
    return float(abs(diag.transversality) ** (-1.0 / (datum.m - 1)))


def transform_datum(
    datum: BLDatum, C: np.ndarray, Cj: list[np.ndarray]
) -> tuple[BLDatum, float]:
    """Equivalent datum with maps C_j^{-1} B_j C and the constant scale factor.

    The returned scale is prod |det C_j|^{p_j} / |det C|, so the new
    constant equals scale times the old one.
    """
    C = np.asarray(C, dtype=float)
    if C.shape != (datum.d, datum.d):
        raise DatumError("C must be d x d")
    if len(Cj) != datum.m:
        raise DatumError("one intertwiner per map is required")
    det_C = np.linalg.det(C)
    if abs(det_C) < 1e-300:
        raise DatumError("C is singular")
    new_maps = []
    scale = 1.0 / abs(det_C)
    for j, (B, M) in enumerate(zip(datum.maps, Cj)):
        M = np.asarray(M, dtype=float)
        dj = B.shape[0]
        if M.shape != (dj, dj):
            raise DatumError(f"C_{j} must be {dj} x {dj}")
        det_M = np.linalg.det(M)
        if abs(det_M) < 1e-300:
            raise DatumError(f"C_{j} is singular")
        new_maps.append(np.linalg.solve(M, B @ C))
        scale *= abs(det_M) ** datum.p[j]
    return BLDatum(datum.d, new_maps, datum.p.copy()), float(scale)


def _canonical_sign(column: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude entry (first on ties) is positive."""
    idx = int(np.argmax(np.abs(column)))
    return -column if column[idx] < 0 else column


def kernel_basis(B: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis, deterministic up to the sign convention."""
    ns = null_space(np.atleast_2d(np.asarray(B, dtype=float)))
    if ns.size:
        ns = np.column_stack([_canonical_sign(ns[:, i]) for i in range(ns.shape[1])])
    return ns


def oriented_kernel_basis(B: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis whose wedge equals star X(B) / ||X(B)||.

    Any orthonormal basis spans the kernel; orienting the wedge against
    the Hodge dual of the row wedge pins the sign that makes the
    determinant identities exact rather than up to sign.  The pairing
    <n_1 ^ ... ^ n_k, star X(B)> is det([B; ns^T]).
    """
    ns = kernel_basis(B)
    if ns.shape[1] == 0:
        return ns
    if np.linalg.det(np.vstack([B, ns.T])) < 0:
        ns = ns.copy()
        ns[:, 0] = -ns[:, 0]
    return ns


@dataclass
class ReductionCertificate:
    """Intertwiners realising the equivalence to coordinate projections.

    A holds orthonormal kernel bases column-wise (columns k in K_j span
    ker B_j); C_j = B_j A_j with A_j obtained by deleting the K_j
    columns from A.  Then C_j^{-1} B_j A = Pi_j.
    """

    A: np.ndarray
    Cj: list[np.ndarray]
    scheme: ProjectionScheme
    det_A: float
    det_Cj: list[float]

    def max_projection_residual(self, datum: BLDatum) -> float:
        worst = 0.0
        for j, B in enumerate(datum.maps):
            target = self.scheme.projection_matrix(j)
            resid = np.linalg.solve(self.Cj[j], B @ self.A) - target
            worst = max(worst, float(np.linalg.norm(resid)))
        return worst


def reduce_to_projections(datum: BLDatum) -> ReductionCertificate:
    """Build the intertwining certificate from orthonormal kernel bases.

    Also checks the determinant identities
    star wedge star X_j = det(A) * prod ||X_j||  and
    |det C_j| = ||X_j|| * |det A| to relative tolerance.  Both sides of
    the first are built from the same kernel bases, so it guards against
    rounding and overflow only; the tests check it against an
    independent exterior algebra.
    """
    ok, diag = is_class_C(datum)
    if not ok:
        raise NotClassCError(diag.reason)
    scheme = ProjectionScheme(datum.d, datum.kernel_dims)
    columns = []
    for j, B in enumerate(datum.maps):
        ns = oriented_kernel_basis(B)
        if ns.shape[1] != datum.kernel_dims[j]:
            raise NearSingularError(f"kernel of map {j} has unexpected dimension")
        columns.append(ns)
    A = np.column_stack(columns)
    det_A = float(np.linalg.det(A))
    if abs(det_A) <= TRANSVERSALITY_TOL:
        raise NearSingularError("kernel bases are not in direct sum to tolerance")
    Cj = []
    det_Cj = []
    norms = []
    for j, B in enumerate(datum.maps):
        keep = scheme.complement(j)
        Aj = A[:, keep]
        Cjj = B @ Aj
        Cj.append(Cjj)
        det_Cj.append(float(np.linalg.det(Cjj)))
        norms.append(row_wedge_norm(B))
    cert = ReductionCertificate(A, Cj, scheme, det_A, det_Cj)
    resid = cert.max_projection_residual(datum)
    if resid > CERTIFICATE_TOL:
        raise NearSingularError(f"projection residual {resid:.3e} exceeds tolerance")
    lhs = diag.transversality
    rhs = det_A * float(np.prod(norms))
    # negated comparisons, so a NaN from an overflowed side fails the check
    if not abs(lhs - rhs) <= CERTIFICATE_TOL * max(abs(lhs), abs(rhs)):
        raise NearSingularError("determinant identity for det(A) failed")
    for j in range(datum.m):
        lhs_j = abs(det_Cj[j])
        rhs_j = norms[j] * abs(det_A)
        if not abs(lhs_j - rhs_j) <= CERTIFICATE_TOL * max(lhs_j, rhs_j):
            raise NearSingularError(f"determinant identity for C_{j} failed")
    return cert


def gaussian_ratio(datum: BLDatum, covariances: list[np.ndarray]) -> float:
    """Ratio of the multilinear functional to the product of masses for
    centred gaussian inputs f_j(y) = exp(-pi <A_j y, y>).

    Closed form det(sum_j p_j B_j^T A_j B_j)^{-1/2} prod det(A_j)^{p_j/2}.
    Requires the scaling condition sum p_j d_j = d for finiteness.
    """
    if len(covariances) != datum.m:
        raise DatumError("one covariance per map is required")
    factors = []
    for j, (B, A) in enumerate(zip(datum.maps, covariances)):
        A = np.asarray(A, dtype=float)
        dj = B.shape[0]
        if A.shape != (dj, dj):
            raise DatumError(f"covariance {j} must be {dj} x {dj}")
        try:
            factors.append(np.linalg.cholesky(0.5 * (A + A.T)))
        except np.linalg.LinAlgError as exc:
            raise DatumError(f"covariance {j} is not positive definite") from exc
    return GaussianRatio(datum, factors).value()


class GaussianRatio:
    """The gaussian ratio at Cholesky factors A_j = L_j L_j^T, updated one
    factor entry at a time.

    The aggregated form is sum_j (sqrt(p_j) B_j^T L_j)(...)^T, so its
    determinant comes from the singular values of the stacked block
    matrix G = [sqrt(p_j) B_j^T L_j]_j; no normal matrix is formed and no
    cancellation occurs.  G and the per-map terms p_j log det A_j are
    kept between evaluations: changing one entry of L_j recomputes block
    j of G, and its log term only for a diagonal entry.  The evaluator
    owns ``factors`` and writes into them.
    """

    def __init__(self, datum: BLDatum, factors: list[np.ndarray]) -> None:
        scaling = float(np.dot(datum.p, datum.row_dims))
        if abs(scaling - datum.d) > 1e-9:
            raise DatumError(
                f"scaling condition violated: sum p_j d_j = {scaling:.12g}, expected {datum.d}"
            )
        self.d = datum.d
        self.factors = factors
        self._maps_t = [B.T for B in datum.maps]
        self._sqrt_p = [np.sqrt(p_j) for p_j in datum.p]
        self._two_p = [p_j * 2.0 for p_j in datum.p]
        ends = np.cumsum(datum.row_dims)
        self._columns = [slice(int(e) - dj, int(e)) for e, dj in zip(ends, datum.row_dims)]
        self._G = np.empty((datum.d, int(ends[-1])))
        self._log_terms = [0.0] * datum.m
        for j, L in enumerate(factors):
            if np.any(np.diag(L) <= 0):
                raise DatumError(f"factor {j} is not positive definite")
            self._update(j, diagonal=True)

    def _update(self, j: int, diagonal: bool) -> None:
        L = self.factors[j]
        if diagonal:
            self._log_terms[j] = self._two_p[j] * float(np.log(L.diagonal()).sum())
        np.multiply(self._sqrt_p[j], self._maps_t[j] @ L, out=self._G[:, self._columns[j]])

    def move(self, j: int, a: int, b: int, entry: float) -> None:
        """Set entry (a, b) of factor j, which keeps the diagonal positive;
        undo() restores the state before."""
        if a == b and not entry > 0:
            raise DatumError(f"factor {j} is not positive definite")
        L = self.factors[j]
        self._before = (j, a, b, L[a, b], self._log_terms[j], self._G[:, self._columns[j]].copy())
        L[a, b] = entry
        self._update(j, diagonal=a == b)

    def undo(self) -> None:
        j, a, b, entry, log_term, block = self._before
        self.factors[j][a, b] = entry
        self._log_terms[j] = log_term
        self._G[:, self._columns[j]] = block

    def value(self, cond_limit: float | None = None) -> float:
        """The ratio det(M)^{-1/2} prod det(A_j)^{p_j/2} at the current
        factors.  cond_limit rejects configurations whose stacked
        conditioning makes the computed value untrustworthy (the ascent
        search applies 1e6 to every value it reports)."""
        log_prod = 0.0
        for term in self._log_terms:
            log_prod += term
        sing = np.linalg.svd(self._G, compute_uv=False)
        if sing[-1] <= 0:
            raise DatumError("aggregated quadratic form is not positive definite")
        if cond_limit is not None and sing[0] / sing[-1] > cond_limit:
            raise DatumError("configuration too ill-conditioned for a trusted value")
        logdet_M = 2.0 * float(np.log(sing[: self.d]).sum())
        return float(np.exp(-0.5 * logdet_M + 0.5 * log_prod))


@dataclass
class SearchResult:
    estimate: float
    covariances: list[np.ndarray]
    evaluations: int
    # candidates refused by the conditioning check, the start excluded
    conditioning_rejections: int = 0


def search_bl_constant(datum: BLDatum, budget: int, seed: int) -> SearchResult:
    """Derivative-free ascent of the gaussian ratio.

    Covariances are parameterised as A_j = L_j L_j^T with L_j lower
    triangular, which keeps every candidate positive definite.  One
    coordinate of one factor is perturbed per evaluation
    (multiplicatively on nonzero entries, with a diagonally scaled kick
    for entries at zero) and the move is kept only if the ratio
    improves.  Deterministic given (budget, seed), and ``evaluations``
    always equals ``budget``.

    The estimate is the ratio at the returned covariances, and every
    value the search keeps, the start at identity factors included,
    passed the conditioning check ``cond_limit = 1e6``; a start that
    fails it raises DatumError.  The estimate is a lower bound for the
    constant only up to the rounding of two floating-point evaluations,
    the ratio's and the closed form's: on well-conditioned data it can
    exceed the closed form in the last few bits.  ``conditioning_rejections``
    counts the candidates the check refused: where the constant is
    infinite the ascent climbs into it, so many rejections say the
    estimate stopped at the conditioning wall rather than at a maximum.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    rng = np.random.default_rng(seed)
    dims = datum.row_dims
    ratio = GaussianRatio(datum, [np.eye(dj) for dj in dims])
    factors = ratio.factors

    coords = [
        (j, a, b) for j, dj in enumerate(dims) for a in range(dj) for b in range(a + 1)
    ]
    try:
        best = ratio.value(cond_limit=1e6)
    except DatumError as exc:
        raise DatumError(f"at the identity start: {exc}") from exc
    evaluations = 1
    rejections = 0

    def propose(j: int, a: int, b: int, direction: float, step: float) -> float | None:
        current = factors[j][a, b]
        if current != 0.0:
            candidate = current * np.exp(direction * step)
        else:
            scale = np.sqrt(abs(factors[j][a, a] * factors[j][b, b])) or 1.0
            candidate = direction * step * scale
        if a == b and candidate <= 0.0:
            return None
        return candidate

    def try_value(j: int, a: int, b: int, candidate: float):
        """The ratio with entry (a, b) of factor j moved to candidate; the
        caller moves it back when the value is rejected."""
        nonlocal evaluations, rejections
        ratio.move(j, a, b, candidate)
        try:
            value = ratio.value(cond_limit=1e6)
        except DatumError:
            value = -np.inf  # degenerate or numerically untrusted proposal
            rejections += 1
        evaluations += 1
        return value

    steps = np.full(len(coords), 1.0)
    stall_sweeps = 0
    while evaluations < budget:
        improved = False
        order = rng.permutation(len(coords))
        for pos in order:
            if evaluations >= budget:
                break
            j, a, b = coords[pos]
            accepted = False
            for direction in (1.0, -1.0):
                if evaluations >= budget:
                    break
                stride = steps[pos]
                candidate = propose(j, a, b, direction, stride)
                if candidate is None:
                    continue
                value = try_value(j, a, b, candidate)
                if value <= best:
                    ratio.undo()
                    continue
                # expanding 1D line search along the winning direction
                best = value
                accepted = True
                while evaluations < budget:
                    stride *= 2.0
                    nxt = propose(j, a, b, direction, stride)
                    if nxt is None:
                        break
                    value = try_value(j, a, b, nxt)
                    if value > best:
                        best = value
                    else:
                        ratio.undo()
                        stride *= 0.5
                        break
                steps[pos] = min(stride, 64.0)
                break
            if accepted:
                improved = True
            else:
                steps[pos] = max(steps[pos] * 0.5, 1e-12)
        if not improved:
            stall_sweeps += 1
            if stall_sweeps >= 3 and np.all(steps < 1e-10):
                steps[:] = 0.25  # re-anneal after full convergence at this scale
                stall_sweeps = 0
        else:
            stall_sweeps = 0
    return SearchResult(float(best), [L @ L.T for L in factors], evaluations, rejections)


@dataclass
class TensorRecipe:
    """Input-lifting recipe: the j-th lifted input is the tensor product
    of the source inputs listed in scheme[j], with exponent
    1/(m_lift - 1) on each lifted factor."""

    scheme: list[tuple[int, ...]]


def tensor_lift(maps: list[np.ndarray], scheme: list[tuple[int, ...]]) -> tuple[BLDatum, TensorRecipe]:
    """Vertically stack selected source maps per scheme tuple.

    The j-th lifted map stacks B_i for i in scheme[j]; exponents are set
    to 1/(m-1) for the lifted family. Indices are 0-based and must be
    distinct within a tuple.
    """
    mats = [np.atleast_2d(np.asarray(B, dtype=float)) for B in maps]
    if not mats:
        raise DatumError("tensor_lift requires source maps")
    d = mats[0].shape[1]
    if any(B.shape[1] != d for B in mats):
        raise DatumError("inconsistent column counts among source maps")
    if len(scheme) < 2:
        raise DatumError("lifted family needs at least two maps")
    lifted = []
    for tup in scheme:
        tup = tuple(tup)
        if len(set(tup)) != len(tup):
            raise DatumError(f"repeated index within tuple {tup}")
        if any(not 0 <= i < len(mats) for i in tup):
            raise DatumError(f"tuple {tup} indexes outside the source maps")
        lifted.append(np.vstack([mats[i] for i in tup]))
    m = len(scheme)
    datum = BLDatum(d, lifted, np.full(m, 1.0 / (m - 1)))
    return datum, TensorRecipe([tuple(t) for t in scheme])

