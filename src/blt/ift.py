"""Quantitative implicit function theorem by contraction.

For a normalised scalar field F(x, t) on R^n x R (F(0,0) = 0,
d_{n+1}F(0,0) = 1, ||F||_{C^{1,beta}} <= kappa) the map
Psi_x(t) = t - F(x, t) contracts the closed ball of radius R2 at rate
1/2 for |x| < R1, with explicit radii

    R1 = (100 kappa)^{-1/beta} * min{1, 1/(10 kappa)},
    R2 = (100 kappa)^{-1/beta}.

The solver exploits the guaranteed rate: the iteration cap is derived
from it, and exceeding the cap indicts the declared (beta, kappa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial

NORMALISATION_TOL = 1e-12
# Sample pairs of every sampled Hoelder audit.
AUDIT_PAIRS = 1000
DERIVATIVE_FLOOR = 0.75


class FieldDeclarationError(ValueError):
    """The field violates its declared normalisation or regularity."""


def holder_quotient(X, Y, dX, dY, beta: float, kappa: float = np.inf,
                    error: type[Exception] = FieldDeclarationError) -> float:
    """Largest sampled Hoelder quotient |dX - dY| / |X - Y|^beta over the
    pairs of rows with X != Y, 0 when there is none.

    dX and dY hold derivatives at the points X and Y: gradient rows, shape
    (N, k), measured in the Euclidean norm, or stacked Jacobians, shape
    (N, r, k), in the spectral norm.  Raises ``error`` when the quotient
    exceeds kappa (1 + 1e-9).
    """
    gaps = np.linalg.norm(X - Y, axis=1)
    keep = gaps > 0
    diff = dX[keep] - dY[keep]
    if diff.ndim == 3:
        norms = np.linalg.norm(diff, ord=2, axis=(1, 2))
    else:
        norms = np.linalg.norm(diff, axis=1)
    worst = float((norms / gaps[keep] ** beta).max(initial=0.0))
    if worst > kappa * (1 + 1e-9):
        raise error(f"sampled Hoelder quotient {worst:.3e} exceeds kappa {kappa}")
    return worst


def form_error(degree: int, f0: float) -> Exception | None:
    """The first declared-form check a field fails, None when it passes
    both: degree <= 4, then F(0,0) = 0 within NORMALISATION_TOL."""
    if degree > 4:
        return ValueError("fields are restricted to degree <= 4")
    if abs(f0) > NORMALISATION_TOL:
        return FieldDeclarationError(f"F(0,0) = {f0:.3e}, expected 0")
    return None


class DomainError(ValueError):
    """Query point outside the guaranteed domain B(0, R1)."""


@dataclass
class PolynomialFields:
    """Scalar fields G_p(x, t), x in R^n, t scalar, p < P, each a sum of
    coefficients times the monomials x^a t^b whose exponents (a, b) are the
    rows of ``exponents``, shape (A, n + 1), the zero exponent first.

    ``tables[0]``, shape (P, A), holds the coefficients of each G_p, and
    ``tables[1 + i]`` those of its partial in coordinate i.  beta and kappa
    declare the C^{1,beta} bound used by the radii: kappa is one float for
    every field or a (P,) array, one per field.
    """

    exponents: np.ndarray
    tables: np.ndarray
    beta: float
    kappa: float | np.ndarray

    def __post_init__(self) -> None:
        self.n = self.exponents.shape[1] - 1

    def evaluate(
        self, tables: np.ndarray, x: np.ndarray, t: np.ndarray, rows=slice(None)
    ) -> np.ndarray:
        """The polynomials of ``tables``, (K, P, A), of the fields ``rows`` at
        the base points x, (M, n), and solved coordinates t, (R, M): (K, R, M)."""
        monomials = _monomials(x, self.exponents[:, : self.n]) * _monomials(
            t[..., None], self.exponents[:, self.n :]
        )
        return np.add.reduce(tables[:, rows, None, :] * monomials, axis=-1)

    def value(self, x: np.ndarray, t: np.ndarray, rows=slice(None)) -> np.ndarray:
        return self.evaluate(self.tables[:1], x, t, rows)[0]

    def partial_t(self, x: np.ndarray, t: np.ndarray, rows=slice(None)) -> np.ndarray:
        return self.evaluate(self.tables[-1:], x, t, rows)[0]

    def gradient(self, x: np.ndarray, t: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Full gradients at the points (x, t): (R, M, n + 1)."""
        return np.moveaxis(self.evaluate(self.tables[1:], x, t, rows), 0, -1)

    def sampled_holder_audit(self, seed: int) -> None:
        """Raises if, for some field, the sampled Hoelder quotient of its
        gradient over its R2 ball exceeds its declared kappa."""
        rng = np.random.default_rng(seed)
        for p, kappa in enumerate(np.broadcast_to(self.kappa, self.tables.shape[1:2])):
            _, R2 = ift_radii(self.beta, kappa)
            U, V = (_ball_samples(rng, AUDIT_PAIRS, self.n + 1, R2) for _ in "UV")
            dU, dV = (self.gradient(Z[:, :-1], Z[None, :, -1], [p])[0] for Z in (U, V))
            holder_quotient(U, V, dU, dV, self.beta, kappa)


def ScalarField(n: int, poly: Polynomial, beta: float, kappa: float) -> PolynomialFields:
    """The polynomial field F(x, t), x in R^n, t scalar, degree <= 4, as
    one field whose tables hold the coefficients of poly and its partials.

    beta, kappa declare the C^{1,beta} bound used by the radii.  The
    normalisation F(0,0) = 0 and d_{n+1}F(0,0) = 1 is validated, both
    read off the zero monomial.
    """
    if n < 0:
        raise ValueError("the base dimension n must be nonnegative")
    if poly.n != n + 1:
        raise ValueError("polynomial arity must be n + 1")
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    keys = sorted(set(poly.coeffs) | {(0,) * (n + 1)})
    coeffs = np.array([[poly.coeffs.get(key, 0.0) for key in keys]])
    exponents, tables = _translated_tables(keys, coeffs, np.zeros(1))
    error = form_error(poly.degree(), float(tables[0, 0, 0]))
    if error is not None:
        raise error
    d0 = float(tables[-1, 0, 0])
    if abs(d0 - 1.0) > NORMALISATION_TOL:
        raise FieldDeclarationError(f"d_(n+1)F(0,0) = {d0:.16g}, expected 1")
    return PolynomialFields(exponents, tables, float(beta), float(kappa))


def _monomials(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """The monomials points^a, one per row a of exponents, shape (A, k), at
    points of shape (..., k): shape (..., A)."""
    powers = np.empty(points.shape + (int(exponents.max(initial=0)) + 1,))
    powers[..., 0] = 1.0
    for e in range(1, powers.shape[-1]):
        np.multiply(powers[..., e - 1], points, out=powers[..., e])
    return np.multiply.reduce(powers[..., np.arange(exponents.shape[1]), exponents], axis=-1)


def _translated_tables(
    exponents: list[tuple[int, ...]], coeffs: np.ndarray, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The polynomials of coeffs, row p over the monomials of exponents,
    translated by shift[p] along the last variable, with their partials.

    A monomial x^a s^m becomes, with s = shift + t, the sum over j <= m of
    binom(m, j) shift^(m - j) x^a t^j.  Returns one shared monomial list,
    the zero exponent first, shape (A, k), and the tables of the
    translated polynomials and of their partials in each variable, shape
    (k + 1, P, A).
    """
    k = len(exponents[0])
    position = {(0,) * k: 0}
    entries = []  # (table, source column, target column, factor, power of shift)
    for source, e in enumerate(exponents):
        m = e[-1]
        for j in range(m + 1):
            a = (*e[:-1], j)
            weight = math.comb(m, j)
            entries.append((0, source, position.setdefault(a, len(position)), weight, m - j))
            for axis in (i for i, e_i in enumerate(a) if e_i):
                lowered = a[:axis] + (a[axis] - 1,) + a[axis + 1 :]
                target = position.setdefault(lowered, len(position))
                entries.append((1 + axis, source, target, weight * a[axis], m - j))
    table, source, target, factor, power = (np.array(v) for v in zip(*entries))
    terms = coeffs[:, source] * factor * _monomials(shift[:, None], power[:, None])
    tables = np.zeros((k + 1, coeffs.shape[0], len(position)))
    np.add.at(tables, (table, slice(None), target), terms.T)
    return np.array(list(position), dtype=np.int64), tables


def _ball_samples(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim)
    return g * r[:, None]


def ift_radii(beta: float, kappa):
    """Explicit radii (R1, R2) of the implicit-function domain; for an
    array of kappas, one array of each radius."""
    if beta <= 0 or np.any(np.asarray(kappa) <= 0):
        raise ValueError("beta and kappa must be positive")
    R2 = (100.0 * kappa) ** (-1.0 / beta)
    R1 = R2 * np.minimum(1.0, 1.0 / (10.0 * kappa))
    return R1, R2


@dataclass
class EtaSolution:
    eta: np.ndarray
    residual: np.ndarray
    iterations: int
    max_ratio: float
    iteration_cap: int


def iteration_cap(beta: float, kappa, tol: float):
    """Iterations guaranteed by the rate-1/2 contraction: ceil(log2(R2/tol)) + 1;
    for an array of kappas, an integer array of caps."""
    _, R2 = ift_radii(beta, kappa)
    return np.ceil(np.log2(np.maximum(R2 / tol, 1.0))).astype(np.int64) + 1


def solve_eta(
    field: PolynomialFields,
    x: np.ndarray,
    tol: float = 1e-12,
) -> EtaSolution:
    """Fixed-point solve of F(x, eta) = 0 from eta = 0 for a one-field
    ``field`` (a ScalarField), batched over x.

    Iterates eta <- eta - F(x, eta).  Convergence at rate 1/2 is
    guaranteed for |x| < R1; iterates must stay in the closed R2 ball
    and the residual must pass tol within the derived cap, otherwise the
    field's declaration is indicted.  This is the one-field case of
    contract.
    """
    R1, R2 = ift_radii(field.beta, field.kappa)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if field.n == 0:
        x = np.zeros((max(x.shape[0], 1), 0))
    if x.shape[1] != field.n:
        raise ValueError(f"x must have {field.n} coordinates")
    radii = np.linalg.norm(x, axis=1)
    if np.any(radii >= R1):
        raise DomainError(f"|x| = {radii.max():.3e} outside B(0, R1), R1 = {R1:.3e}")
    cap = iteration_cap(field.beta, field.kappa, tol)
    run = contract(lambda eta, rows: field.value(x, eta, rows), [R2], [cap], tol, x.shape[0])
    error = run.error(0)
    if error is not None:
        raise error
    return EtaSolution(
        run.eta[0], run.residual[0], int(run.iterations[0]), float(run.max_ratio[0]), cap
    )


@dataclass
class Contraction:
    """Outcome of contract: row p holds field p's iterates at its m points."""

    eta: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    max_ratio: np.ndarray
    escaped: np.ndarray
    converged: np.ndarray
    cap: np.ndarray

    def error(self, row: int) -> FieldDeclarationError | None:
        """The failure of one row's solve, None when it converged."""
        if self.escaped[row]:
            return FieldDeclarationError(
                "iterate escaped the closed R2 ball; declared (beta, kappa) is invalid"
            )
        if not self.converged[row]:
            return FieldDeclarationError(
                f"residual {np.abs(self.residual[row]).max():.3e} above tol after the "
                f"guaranteed cap of {self.cap[row]} iterations; declared (beta, kappa) is invalid"
            )
        return None


def contract(residual, R2, cap, tol: float, m: int) -> Contraction:
    """Iterate eta <- eta - F_p(x, eta) from eta = 0 for P fields at once.

    residual(eta, rows) evaluates the fields of ``rows`` (an index array)
    at their iterates eta, shape (len(rows), m).  Row p stops at the
    first iteration where all its residuals pass tol.  It fails, and the
    other rows go on, when an iterate leaves the closed ball of radius
    R2[p] or cap[p] iterations pass first.  Every row does exactly the
    arithmetic a run of its field alone would do.
    """
    R2 = np.asarray(R2, dtype=float)
    cap = np.asarray(cap)
    count = R2.size
    eta = np.zeros((count, m))
    prev = np.zeros((count, m))
    resid = residual(eta, np.arange(count))
    iterations = np.zeros(count, dtype=np.int64)
    max_ratio = np.zeros(count)
    escaped = np.zeros(count, dtype=bool)
    converged = np.zeros(count, dtype=bool)
    active = np.flatnonzero(cap >= 1)
    it = 0
    while active.size:
        it += 1
        step = -resid[active]
        eta[active] += step
        out = np.any(np.abs(eta[active]) > R2[active, None] * (1 + 1e-12), axis=1)
        escaped[active[out]] = True
        if it > 1:
            before = np.abs(prev[active])
            ratios = np.divide(np.abs(step), before, out=np.zeros_like(step), where=before > 0)
            max_ratio[active] = np.maximum(max_ratio[active], ratios.max(axis=1, initial=0.0))
        prev[active] = step
        active = active[~out]
        if not active.size:
            break
        resid[active] = residual(eta[active], active)
        iterations[active] = it
        done = np.all(np.abs(resid[active]) <= tol, axis=1)
        converged[active[done]] = True
        active = active[~done & (it < cap[active])]
    return Contraction(eta, resid, iterations, max_ratio, escaped, converged, cap)


def eta_gradient(
    field: PolynomialFields, x: np.ndarray, eta: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Gradient of the implicit function of a one-field ``field``:
    -grad_x F / d_t F at (x, eta).

    Requires |d_t F| >= 3/4, which the field declaration guarantees on
    the solution ball.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))[None]
    resid = np.abs(field.value(x, eta))
    if np.any(resid > max(tol, 1e-9) * 10):
        raise ValueError("eta does not solve F(x, eta) = 0 to tolerance")
    grads = field.gradient(x, eta)[0]
    denom = grads[:, -1]
    if np.any(np.abs(denom) < DERIVATIVE_FLOOR):
        raise FieldDeclarationError(
            f"|d_t F| = {np.abs(denom).min():.3f} below 3/4; field violates its declaration"
        )
    return -grads[:, :-1] / denom[:, None]

