"""Submersion models: linear maps plus polynomial perturbations.

The family is restricted to maps with analytically supplied Jacobians
so the declared regularity (Hoelder exponent beta, bound kappa on the
derivative's Hoelder quotient) can be certified by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ift import AUDIT_PAIRS
from .polynomials import Polynomial

# Smallest Jacobian singular value the audit accepts as full rank.
RANK_TOL = 1e-8


class RegularityError(ValueError):
    """Declared (beta, kappa) regularity failed a sampled check."""


@dataclass
class NonlinearMapFamily:
    """C^{1,beta} map R^d -> R^{d_out} with polynomial components.

    beta is the Hoelder exponent of the derivative, kappa the declared
    bound on its Hoelder quotient.  tag is 'linear' or
    'linear-plus-polynomial-perturbation'.
    """

    d: int
    components: list[Polynomial]
    beta: float
    kappa: float
    tag: str = "linear-plus-polynomial-perturbation"
    jacobian_polys: list[list[Polynomial]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        for comp in self.components:
            if comp.n != self.d:
                raise ValueError("component arity does not match d")
        self.jacobian_polys = [
            [comp.partial(a) for a in range(self.d)] for comp in self.components
        ]

    @property
    def d_out(self) -> int:
        return len(self.components)

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.stack([comp.evaluate(points) for comp in self.components], axis=1)

    def jacobian(self, point: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(point, dtype=float))
        J = np.empty((pts.shape[0], self.d_out, self.d))
        for r, row in enumerate(self.jacobian_polys):
            for a, poly in enumerate(row):
                J[:, r, a] = poly.evaluate(pts)
        return J[0] if np.asarray(point).ndim == 1 else J

    def is_linear(self) -> bool:
        return all(comp.degree() <= 1 for comp in self.components)

    def holder_constant_effective(self) -> float:
        """kappa used in drift allowances: 0 for exactly linear maps."""
        return 0.0 if self.is_linear() else self.kappa

    def drift_allowance(self, side: float) -> float:
        """4 d kappa_eff side^{1+beta}: how far the map's nonlinearity can
        move a point of a cube of this side off its linearisation, the
        inflation of every slab and tube image of the decomposition."""
        return 4.0 * self.d * self.holder_constant_effective() * side ** (1.0 + self.beta)

    def compose_affine(self, A: np.ndarray, b: np.ndarray | None = None) -> list[Polynomial]:
        return [comp.substitute_affine(A, b) for comp in self.components]

    def left_multiply(self, M: np.ndarray) -> "NonlinearMapFamily":
        """Map x -> M @ B(x) with the same source dimension."""
        M = np.asarray(M, dtype=float)
        new_components = []
        for r in range(M.shape[0]):
            acc = Polynomial.zero(self.d)
            for c, comp in enumerate(self.components):
                if M[r, c] != 0.0:
                    acc = acc + comp.scale(M[r, c])
            new_components.append(acc)
        return NonlinearMapFamily(self.d, new_components, self.beta, self.kappa, self.tag)

    def validate(
        self,
        cube_center: np.ndarray,
        cube_side: float,
        rng: np.random.Generator,
    ) -> dict:
        """Sampled regularity audit on the working cube.

        Checks full rank of the Jacobian at sample points and the
        Hoelder quotient ||dB(x)-dB(y)|| / |x-y|^beta <= kappa on random
        pairs.  Raises RegularityError on failure.
        """
        center = np.asarray(cube_center, dtype=float)
        half = cube_side / 2.0
        X = center + rng.uniform(-half, half, size=(AUDIT_PAIRS, self.d))
        Y = center + rng.uniform(-half, half, size=(AUDIT_PAIRS, self.d))
        JX = self.jacobian(X)
        JY = self.jacobian(Y)
        min_sv = np.linalg.svd(JX[:100], compute_uv=False)[:, -1].min(initial=np.inf)
        if min_sv <= RANK_TOL:
            raise RegularityError(f"Jacobian rank deficiency: min singular value {min_sv:.3e}")
        diffs = np.linalg.norm(X - Y, axis=1)
        keep = diffs > 0
        quotients = (
            np.linalg.norm(JX[keep] - JY[keep], ord=2, axis=(1, 2)) / diffs[keep] ** self.beta
        )
        worst = float(quotients.max(initial=0.0))
        if worst > self.kappa * (1 + 1e-9):
            raise RegularityError(
                f"sampled Hoelder quotient {worst:.3e} exceeds declared kappa {self.kappa}"
            )
        return {"min_singular_value": float(min_sv), "max_holder_quotient": worst}


def linear_family(matrix: np.ndarray, beta: float = 1.0, kappa: float = 0.0) -> NonlinearMapFamily:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    comps = [Polynomial.linear_form(matrix[r]) for r in range(matrix.shape[0])]
    return NonlinearMapFamily(matrix.shape[1], comps, beta, kappa, tag="linear")


def perturbed_projection(
    projection: np.ndarray,
    quadratic_terms: list[dict[tuple[int, ...], float]],
    beta: float,
    kappa: float,
) -> NonlinearMapFamily:
    """Linear projection plus per-row polynomial perturbations.

    The perturbations must have vanishing value and gradient at the
    origin so the Jacobian there equals the projection.
    """
    projection = np.atleast_2d(np.asarray(projection, dtype=float))
    d = projection.shape[1]
    comps = []
    for r in range(projection.shape[0]):
        poly = Polynomial.linear_form(projection[r])
        pert = Polynomial(d, quadratic_terms[r]) if r < len(quadratic_terms) else Polynomial.zero(d)
        if any(sum(k) < 2 for k in pert.coeffs):
            raise ValueError("perturbation terms must have total degree >= 2")
        comps.append(poly + pert)
    return NonlinearMapFamily(d, comps, beta, kappa)
