"""Sparse multivariate polynomials with analytic derivatives.

Monomials are exponent tuples; evaluation is vectorised over (N, n)
point arrays.  Degree stays small (<= 4) everywhere in this package, so
the dense monomial dictionaries are cheap and composition with affine
maps is done by expanding products of linear forms.
"""

from __future__ import annotations

import functools
import math

import numpy as np

Term = tuple[tuple[int, ...], float]


class Polynomial:
    """Polynomial in n variables: {exponent tuple: coefficient}.

    Coefficients must be finite; the partials are built once, on first use.
    """

    def __init__(self, n: int, coeffs: dict[tuple[int, ...], float] | None = None):
        self.n = n
        self.coeffs: dict[tuple[int, ...], float] = {}
        if coeffs:
            for key, c in coeffs.items():
                key = tuple(int(e) for e in key)
                if len(key) != n:
                    raise ValueError(f"exponent tuple {key} has length != {n}")
                if not math.isfinite(c):
                    raise ValueError("polynomial coefficients must be finite")
                if c != 0.0:
                    self.coeffs[key] = self.coeffs.get(key, 0.0) + float(c)

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n)

    @staticmethod
    def constant(n: int, value: float) -> "Polynomial":
        return Polynomial(n, {tuple([0] * n): value})

    @staticmethod
    def linear_form(coeffs: np.ndarray, constant: float = 0.0) -> "Polynomial":
        coeffs = np.asarray(coeffs, dtype=float)
        n = coeffs.size
        out: dict[tuple[int, ...], float] = {}
        if constant != 0.0:
            out[tuple([0] * n)] = constant
        for i, c in enumerate(coeffs):
            if c != 0.0:
                key = [0] * n
                key[i] = 1
                out[tuple(key)] = float(c)
        return Polynomial(n, out)

    def degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return Polynomial(self.n, out)

    def multiply(self, other: "Polynomial") -> "Polynomial":
        out: dict[tuple[int, ...], float] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial(self.n, out)

    def partial(self, axis: int) -> "Polynomial":
        out: dict[tuple[int, ...], float] = {}
        for k, c in self.coeffs.items():
            e = k[axis]
            if e == 0:
                continue
            key = list(k)
            key[axis] = e - 1
            tk = tuple(key)
            out[tk] = out.get(tk, 0.0) + c * e
        return Polynomial(self.n, out)

    @functools.cached_property
    def partials(self) -> list["Polynomial"]:
        return [self.partial(a) for a in range(self.n)]

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """The n partials at (N, n) points: shape (N, n)."""
        return np.stack([g.evaluate(points) for g in self.partials], axis=1)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape[0])
        for key, c in self.coeffs.items():
            term = np.full(points.shape[0], c)
            for axis, e in enumerate(key):
                if e:
                    term = term * points[:, axis] ** e
            out += term
        return out

    def substitute_affine(self, A: np.ndarray, b: np.ndarray | None = None) -> "Polynomial":
        """Polynomial q(y) = p(A y + b) by expanding products of linear forms."""
        A = np.asarray(A, dtype=float)
        n_new = A.shape[1]
        if b is None:
            b = np.zeros(A.shape[0])
        out = Polynomial.zero(n_new)
        for key, c in self.coeffs.items():
            term = Polynomial.constant(n_new, c)
            for axis, e in enumerate(key):
                if e:
                    lin = Polynomial.linear_form(A[axis], float(b[axis]))
                    for _ in range(e):
                        term = term.multiply(lin)
            out = out + term
        return out

    @staticmethod
    def from_terms(n: int, terms: list[dict]) -> "Polynomial":
        """The polynomial of a JSON term list [{"powers": [...], "c": ...}];
        the coefficients of a repeated power add up."""
        coeffs: dict[tuple[int, ...], float] = {}
        for t in terms:
            powers = [float(e) for e in t["powers"]]
            if not all(math.isfinite(e) and e >= 0 and e == int(e) for e in powers):
                raise ValueError("term powers must be nonnegative integers")
            key = tuple(int(e) for e in powers)
            coeffs[key] = coeffs.get(key, 0.0) + float(t["c"])
        return Polynomial(n, coeffs)
