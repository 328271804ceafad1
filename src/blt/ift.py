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
class ScalarField:
    """Polynomial scalar field F(x, t), x in R^n, t scalar, degree <= 4.

    beta, kappa declare the C^{1,beta} bound used by the radii.  The
    normalisation F(0,0)=0 and d_{n+1}F(0,0)=1 is validated on
    construction.
    """

    n: int
    poly: Polynomial
    beta: float
    kappa: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("the base dimension n must be nonnegative")
        if self.poly.n != self.n + 1:
            raise ValueError("polynomial arity must be n + 1")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if not 0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        origin = np.zeros((1, self.n + 1))
        error = form_error(self.poly.degree(), float(self.poly.evaluate(origin)[0]))
        if error is not None:
            raise error
        d0 = float(self.poly.partials[-1].evaluate(origin)[0])
        if abs(d0 - 1.0) > NORMALISATION_TOL:
            raise FieldDeclarationError(f"d_(n+1)F(0,0) = {d0:.16g}, expected 1")

    def value(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.poly.evaluate(_join(x, t, self.n))

    def gradient(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """dF at the points (x, t): the partials in x, then d_t F."""
        return self.poly.gradient(_join(x, t, self.n))

    def partial_t(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.poly.partials[-1].evaluate(_join(x, t, self.n))

    def sampled_holder_audit(self, seed: int) -> None:
        """Raises if the sampled Hoelder quotient of dF over the R2 ball
        exceeds the declared kappa."""
        _, R2 = ift_radii(self.beta, self.kappa)
        rng = np.random.default_rng(seed)
        U = _ball_samples(rng, AUDIT_PAIRS, self.n + 1, R2)
        V = _ball_samples(rng, AUDIT_PAIRS, self.n + 1, R2)
        holder_quotient(U, V, self.poly.gradient(U), self.poly.gradient(V), self.beta, self.kappa)


def _join(x: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if n == 0 and x.size == 0:
        x = np.zeros((np.atleast_1d(t).size, 0))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if x.shape[0] != t.size:
        if x.shape[0] == 1:
            x = np.repeat(x, t.size, axis=0)
        else:
            raise ValueError("batch sizes of x and t differ")
    return np.column_stack([x, t])


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
    field: ScalarField,
    x: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
) -> EtaSolution:
    """Fixed-point solve of F(x, eta) = 0 from eta = 0, batched over x.

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
    cap = iteration_cap(field.beta, field.kappa, tol) if max_iter is None else max_iter
    run = contract(lambda eta, rows: field.value(x, eta[0])[None], [R2], [cap], tol, x.shape[0])
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


def eta_gradient(field: ScalarField, x: np.ndarray, eta: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Gradient of the implicit function: -grad_x F / d_t F at (x, eta).

    Requires |d_t F| >= 3/4, which the field declaration guarantees on
    the solution ball.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    resid = np.abs(field.value(x, eta))
    if np.any(resid > max(tol, 1e-9) * 10):
        raise ValueError("eta does not solve F(x, eta) = 0 to tolerance")
    grads = field.gradient(x, eta)
    denom = grads[:, -1]
    if np.any(np.abs(denom) < DERIVATIVE_FLOOR):
        raise FieldDeclarationError(
            f"|d_t F| = {np.abs(denom).min():.3f} below 3/4; field violates its declaration"
        )
    return -grads[:, :-1] / denom[:, None]

