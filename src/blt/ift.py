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
from dataclasses import dataclass, field

import numpy as np

from .polynomials import Polynomial

NORMALISATION_TOL = 1e-12
# Sample pairs of every sampled Hoelder audit.
AUDIT_PAIRS = 1000
DERIVATIVE_FLOOR = 0.75


class FieldDeclarationError(ValueError):
    """The field violates its declared normalisation or regularity."""


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
    grad_polys: list[Polynomial] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.poly.n != self.n + 1:
            raise ValueError("polynomial arity must be n + 1")
        if self.poly.degree() > 4:
            raise ValueError("fields are restricted to degree <= 4")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        self.grad_polys = [self.poly.partial(a) for a in range(self.n + 1)]
        origin = np.zeros((1, self.n + 1))
        f0 = float(self.poly.evaluate(origin)[0])
        d0 = float(self.grad_polys[-1].evaluate(origin)[0])
        if abs(f0) > NORMALISATION_TOL:
            raise FieldDeclarationError(f"F(0,0) = {f0:.3e}, expected 0")
        if abs(d0 - 1.0) > NORMALISATION_TOL:
            raise FieldDeclarationError(f"d_(n+1)F(0,0) = {d0:.16g}, expected 1")

    def value(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        pts = _join(x, t, self.n)
        return self.poly.evaluate(pts)

    def grad_x(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        pts = _join(x, t, self.n)
        return np.stack([g.evaluate(pts) for g in self.grad_polys[:-1]], axis=1)

    def partial_t(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        pts = _join(x, t, self.n)
        return self.grad_polys[-1].evaluate(pts)

    def sampled_holder_audit(self, seed: int) -> float:
        """Max sampled Hoelder quotient of dF over the R2 ball; raises if it
        exceeds the declared kappa."""
        _, R2 = ift_radii(self.beta, self.kappa)
        rng = np.random.default_rng(seed)
        U = _ball_samples(rng, AUDIT_PAIRS, self.n + 1, R2)
        V = _ball_samples(rng, AUDIT_PAIRS, self.n + 1, R2)
        dU = np.stack([g.evaluate(U) for g in self.grad_polys], axis=1)
        dV = np.stack([g.evaluate(V) for g in self.grad_polys], axis=1)
        gaps = np.linalg.norm(U - V, axis=1)
        keep = gaps > 0
        quot = np.linalg.norm(dU[keep] - dV[keep], axis=1) / gaps[keep] ** self.beta
        worst = float(quot.max(initial=0.0))
        if worst > self.kappa * (1 + 1e-9):
            raise FieldDeclarationError(
                f"sampled Hoelder quotient {worst:.3e} exceeds declared kappa {self.kappa}"
            )
        return worst


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


def ift_radii(beta: float, kappa: float) -> tuple[float, float]:
    """Explicit radii (R1, R2) of the implicit-function domain."""
    if beta <= 0 or kappa <= 0:
        raise ValueError("beta and kappa must be positive")
    R2 = (100.0 * kappa) ** (-1.0 / beta)
    R1 = R2 * min(1.0, 1.0 / (10.0 * kappa))
    return R1, R2


@dataclass
class EtaSolution:
    eta: np.ndarray
    residual: np.ndarray
    iterations: int
    max_ratio: float
    iteration_cap: int


def iteration_cap(beta: float, kappa: float, tol: float) -> int:
    """Iterations guaranteed by the rate-1/2 contraction: ceil(log2(R2/tol)) + 1."""
    _, R2 = ift_radii(beta, kappa)
    return int(math.ceil(math.log2(max(R2 / tol, 1.0)))) + 1


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
    denom = field.partial_t(x, eta)
    if np.any(np.abs(denom) < DERIVATIVE_FLOOR):
        raise FieldDeclarationError(
            f"|d_t F| = {np.abs(denom).min():.3f} below 3/4; field violates its declaration"
        )
    grads = field.grad_x(x, eta)
    return -grads / denom[:, None]


@dataclass
class HoelderEstimate:
    value: float
    sup_eta: float
    sup_grad: float
    grad_holder_quotient: float
    samples: int


def hoelder_estimate(field: ScalarField, sample_count: int, seed: int) -> HoelderEstimate:
    """Empirical lower bound for the C^{1,beta} size of the implicit function.

    Samples x in B(0, R1), solves for eta, and reports
    max(sup |eta|, sup |grad eta|, max Hoelder quotient of grad eta).
    """
    R1, _ = ift_radii(field.beta, field.kappa)
    rng = np.random.default_rng(seed)
    X = _ball_samples(rng, sample_count, max(field.n, 1), R1 * (1 - 1e-9))
    if field.n == 0:
        X = np.zeros((1, 0))
    sol = solve_eta(field, X)
    grads = eta_gradient(field, X, sol.eta)
    sup_eta = float(np.abs(sol.eta).max())
    sup_grad = float(np.linalg.norm(grads, axis=1).max()) if grads.size else 0.0
    quotient = 0.0
    count = X.shape[0]
    if count >= 2:
        idx = rng.permutation(count)
        pair_a = X[idx[: count // 2]]
        pair_b = X[idx[count // 2 : 2 * (count // 2)]]
        ga = grads[idx[: count // 2]]
        gb = grads[idx[count // 2 : 2 * (count // 2)]]
        gaps = np.linalg.norm(pair_a - pair_b, axis=1)
        keep = gaps > 0
        if np.any(keep):
            quot = np.linalg.norm(ga[keep] - gb[keep], axis=1) / gaps[keep] ** field.beta
            quotient = float(quot.max())
    value = max(sup_eta, sup_grad, quotient)
    return HoelderEstimate(value, sup_eta, sup_grad, quotient, count)
