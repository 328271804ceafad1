"""Submersion models: maps R^d -> R^{d_out} with polynomial components.

The family is restricted to maps with analytically supplied Jacobians
so the declared regularity (Hoelder exponent beta, bound kappa on the
derivative's Hoelder quotient) can be certified by sampling.  A command
reads each component from its JSON terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ift import AUDIT_PAIRS, holder_quotient
from .polynomials import Polynomial

# Smallest Jacobian singular value the audit accepts as full rank.
RANK_TOL = 1e-8


class RegularityError(ValueError):
    """Declared (beta, kappa) regularity failed a sampled check."""


@dataclass
class NonlinearMapFamily:
    """C^{1,beta} map R^d -> R^{d_out} with polynomial components.

    beta is the Hoelder exponent of the derivative, kappa the declared
    bound on its Hoelder quotient.
    """

    d: int
    components: list[Polynomial]
    beta: float
    kappa: float

    def __post_init__(self) -> None:
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if not 0 <= self.kappa < np.inf:
            raise ValueError("kappa must be finite and nonnegative")
        for comp in self.components:
            if comp.n != self.d:
                raise ValueError("component arity does not match d")

    @property
    def d_out(self) -> int:
        return len(self.components)

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.stack([comp.evaluate(points) for comp in self.components], axis=1)

    def jacobian(self, point: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(point, dtype=float))
        J = np.stack([comp.gradient(pts) for comp in self.components], axis=1)
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

    def validate(
        self,
        cube_center: np.ndarray,
        cube_side: float,
        rng: np.random.Generator,
    ) -> None:
        """Sampled regularity audit on the working cube.

        Checks full rank of the Jacobian at sample points and the
        Hoelder quotient ||dB(x)-dB(y)|| / |x-y|^beta <= kappa, in the
        spectral norm, on random pairs.  Raises RegularityError on failure.
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
        holder_quotient(X, Y, JX, JY, self.beta, self.kappa, RegularityError)

