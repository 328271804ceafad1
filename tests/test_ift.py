"""Contraction-based implicit function solver."""

import itertools
import math

import numpy as np
import pytest

from blt.ift import (
    DomainError,
    FieldDeclarationError,
    ScalarField,
    contract,
    eta_gradient,
    holder_quotient,
    ift_radii,
    iteration_cap,
    solve_eta,
)
from blt.polynomials import Polynomial


def linear_field(c, kappa=1.0):
    c = np.asarray(c, dtype=float)
    n = c.size
    coeffs = {}
    key = [0] * (n + 1)
    key[n] = 1
    coeffs[tuple(key)] = 1.0
    for i, ci in enumerate(c):
        key = [0] * (n + 1)
        key[i] = 1
        coeffs[tuple(key)] = -float(ci)
    return ScalarField(n, Polynomial(n + 1, coeffs), 1.0, kappa)


@pytest.mark.parametrize("beta, kappa, message", [
    (0.0, 1.0, "beta must lie in"),
    (1.5, 1.0, "beta must lie in"),
    (math.nan, 1.0, "beta must lie in"),
    (1.0, 0.0, "kappa must be positive and finite"),
    (1.0, -1.0, "kappa must be positive and finite"),
    (1.0, math.nan, "kappa must be positive and finite"),
    (1.0, math.inf, "kappa must be positive and finite"),
])
def test_field_refuses_bad_declarations(beta, kappa, message):
    with pytest.raises(ValueError, match=message):
        ScalarField(1, Polynomial(2, {(0, 1): 1.0, (1, 0): -0.5}), beta, kappa)


def quadratic_field():
    # F = t + x1 x2 + t^2 / 10
    poly = Polynomial(3, {(0, 0, 1): 1.0, (1, 1, 0): 1.0, (0, 0, 2): 0.1})
    return ScalarField(2, poly, 1.0, 2.0)


class TestRadii:
    def test_frozen_unit_values(self):
        R1, R2 = ift_radii(1.0, 1.0)
        assert R1 == pytest.approx(1e-3, rel=1e-15, abs=0)
        assert R2 == pytest.approx(1e-2, rel=1e-15, abs=0)

    def test_large_kappa_ratio(self):
        R1, R2 = ift_radii(1.0, 25.0)
        assert R1 / R2 == pytest.approx(1.0 / 250.0, rel=1e-12, abs=0)

    def test_small_kappa_equal_radii(self):
        R1, R2 = ift_radii(0.5, 0.05)
        assert R1 == R2


class TestSolveEta:
    def test_linear_single_iteration(self):
        field = linear_field([0.25, -0.5])
        x = np.array([[2e-4, 1e-4]])
        sol = solve_eta(field, x)
        assert sol.iterations == 1
        assert sol.eta[0] == pytest.approx(0.25 * 2e-4 - 0.5 * 1e-4, abs=1e-16)

    def test_pure_square_forcing(self):
        poly = Polynomial(2, {(0, 1): 1.0, (2, 0): 1.0})
        field = ScalarField(1, poly, 1.0, 2.0)
        x = np.array([[1e-4]])
        sol = solve_eta(field, x)
        assert sol.eta[0] == pytest.approx(-1e-8, rel=1e-10, abs=0)

    def test_quadratic_contraction_vs_bisection(self):
        field = quadratic_field()
        R1, _ = ift_radii(field.beta, field.kappa)
        x = np.array([[R1 * 0.5, -R1 * 0.4]])
        sol = solve_eta(field, x, tol=1e-12)
        assert abs(sol.residual[0]) <= 1e-12
        assert sol.iterations <= sol.iteration_cap
        # independent root by bisection
        lo, hi = -0.01, 0.01
        f = lambda t: field.value(x, np.array([[t]]))[0, 0]  # noqa: E731
        assert f(lo) * f(hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert sol.eta[0] == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_iteration_cap_formula(self):
        cap = iteration_cap(1.0, 1.0, 1e-12)
        assert cap == math.ceil(math.log2(1e-2 / 1e-12)) + 1

    def test_domain_enforced(self):
        field = linear_field([0.1])
        with pytest.raises(DomainError):
            solve_eta(field, np.array([[0.5]]))

    def test_contraction_ratio_bounded(self):
        field = quadratic_field()
        R1, _ = ift_radii(field.beta, field.kappa)
        rng = np.random.default_rng(0)
        X = rng.uniform(-R1 / 2, R1 / 2, size=(200, 2))
        sol = solve_eta(field, X, tol=1e-14)
        assert sol.max_ratio <= 0.5 + 1e-9

    def test_escaping_field_indicted(self):
        # coefficients far beyond the declaration push iterates out
        poly = Polynomial(2, {(0, 1): 1.0, (1, 0): 500.0})
        field = ScalarField(1, poly, 1.0, 1.0)
        with pytest.raises(FieldDeclarationError):
            solve_eta(field, np.array([[9e-4]]))

    def test_newton_polish_stays_converged(self):
        field = quadratic_field()
        R1, _ = ift_radii(field.beta, field.kappa)
        rng = np.random.default_rng(1)
        X = rng.uniform(-R1 / 2, R1 / 2, size=(50, 2))
        sol = solve_eta(field, X, tol=1e-12)
        grad_t = field.partial_t(X, sol.eta[None])[0]
        polished = sol.eta - field.value(X, sol.eta[None])[0] / grad_t
        assert np.all(np.abs(field.value(X, polished[None])[0]) <= 1e-12)


class TestContract:
    def test_rows_match_single_field_solves(self):
        # a converging field, an escaping one and one capped at one
        # iteration: each row matches its own solve, bit for bit
        fields = [
            quadratic_field(),
            ScalarField(1, Polynomial(2, {(0, 1): 1.0, (1, 0): 500.0}), 1.0, 1.0),
            quadratic_field(),
        ]
        x = [np.array([[2e-4, -1e-4], [-1e-4, 1.5e-4]]), np.array([[9e-4], [1e-4]]),
             np.array([[1.7e-4, 1.7e-4], [1e-4, 0.0]])]
        caps = [iteration_cap(f.beta, f.kappa, 1e-18) for f in fields[:2]] + [1]
        R2 = [ift_radii(f.beta, f.kappa)[1] for f in fields]

        def residual(eta, rows):
            return np.stack([fields[r].value(x[r], e[None])[0] for r, e in zip(rows, eta)])

        run = contract(residual, R2, caps, 1e-18, 2)
        sol = solve_eta(fields[0], x[0], tol=1e-18)
        assert np.array_equal(run.eta[0], sol.eta)
        assert run.iterations[0] == sol.iterations
        assert run.max_ratio[0] == sol.max_ratio
        assert run.error(0) is None
        assert run.escaped[1] and isinstance(run.error(1), FieldDeclarationError)
        assert not run.converged[2] and "cap of 1 iterations" in str(run.error(2))


class TestEtaGradient:
    def test_linear_gradient(self):
        c = np.array([0.3, -0.2, 0.05])
        field = linear_field(c)
        x = np.array([[1e-4, -2e-4, 5e-5]])
        sol = solve_eta(field, x)
        grad = eta_gradient(field, x, sol.eta)
        assert np.allclose(grad[0], c, atol=1e-14)

    def test_square_forcing_gradient(self):
        poly = Polynomial(2, {(0, 1): 1.0, (2, 0): 1.0})
        field = ScalarField(1, poly, 1.0, 2.0)
        t = 1e-4
        x = np.array([[t]])
        sol = solve_eta(field, x)
        grad = eta_gradient(field, x, sol.eta)
        assert grad[0, 0] == pytest.approx(-2 * t, rel=1e-9, abs=0)

    def test_against_central_differences(self):
        field = quadratic_field()
        R1, _ = ift_radii(field.beta, field.kappa)
        rng = np.random.default_rng(2)
        X = rng.uniform(-R1 / 2, R1 / 2, size=(100, 2))
        sol = solve_eta(field, X, tol=1e-14)
        grads = eta_gradient(field, X, sol.eta)
        h = 1e-7
        for a in range(2):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, a] += h
            Xm[:, a] -= h
            fd = (solve_eta(field, Xp, tol=1e-15).eta - solve_eta(field, Xm, tol=1e-15).eta) / (
                2 * h
            )
            rel = np.abs(grads[:, a] - fd) / np.maximum(np.abs(fd), 1e-9)
            assert np.max(rel) <= 1e-6

    def test_unsolved_point_rejected(self):
        field = quadratic_field()
        with pytest.raises(ValueError):
            eta_gradient(field, np.array([[1e-4, 1e-4]]), np.array([0.005]))


class TestNormalisation:
    def test_value_offset_rejected(self):
        poly = Polynomial(2, {(0, 0): 0.1, (0, 1): 1.0})
        with pytest.raises(FieldDeclarationError):
            ScalarField(1, poly, 1.0, 1.0)

    def test_slope_offset_rejected(self):
        poly = Polynomial(2, {(0, 1): 0.9})
        with pytest.raises(FieldDeclarationError):
            ScalarField(1, poly, 1.0, 1.0)

    def test_audit_catches_undeclared_roughness(self):
        poly = Polynomial(2, {(0, 1): 1.0, (2, 0): 50.0})
        field = ScalarField(1, poly, 1.0, 0.5)
        with pytest.raises(FieldDeclarationError):
            field.sampled_holder_audit(seed=0)


def random_normalised_polynomial(rng, n, degree):
    """t plus up to 8 random terms of total degree 1 to degree in the n + 1
    variables (x, t), none of them t itself: F(0,0) = 0, d_t F(0,0) = 1."""
    t = (0,) * n + (1,)
    keys = [k for k in itertools.product(range(degree + 1), repeat=n + 1)
            if 0 < sum(k) <= degree and k != t]
    picks = rng.choice(len(keys), size=min(8, len(keys)), replace=False)
    coeffs = {keys[i]: float(rng.uniform(-1.0, 1.0)) for i in picks}
    coeffs[t] = 1.0
    return Polynomial(n + 1, coeffs)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_tables_evaluate_the_polynomial(n, degree):
    # the dict polynomial is the oracle of the field's value, each partial
    # and the gradient at random points
    rng = np.random.default_rng([n, degree])
    poly = random_normalised_polynomial(rng, n, degree)
    field = ScalarField(n, poly, 1.0, 2.0)
    Z = rng.uniform(-1.0, 1.0, size=(50, n + 1))
    x, t = Z[:, :-1], Z[None, :, -1]
    grads = field.gradient(x, t)[0]
    assert np.array_equal(field.partial_t(x, t)[0], grads[:, -1])
    got = [field.value(x, t)[0], *grads.T]
    want = [poly.evaluate(Z), *poly.gradient(Z).T]
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


class TestPolynomialPartials:
    def test_gradient_stacks_the_partials(self):
        poly = Polynomial(3, {(2, 1, 0): 0.5, (0, 0, 3): -1.25, (1, 0, 1): 2.0})
        X = np.random.default_rng(4).uniform(-1, 1, size=(7, 3))
        expected = np.stack([poly.partial(a).evaluate(X) for a in range(3)], axis=1)
        assert np.array_equal(poly.gradient(X), expected)
        assert poly.partials is poly.partials

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficients_rejected(self, c):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            Polynomial(2, {(0, 1): 1.0, (2, 0): c})


class TestHolderQuotient:
    def test_gradient_rows_in_the_euclidean_norm(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        Y = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        dX = np.array([[0.0, 0.0], [9.0, 9.0], [3.0, 4.0]])
        dY = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        # the equal pair is skipped; the others give 1 / 1 and 5 / sqrt(2)
        assert holder_quotient(X, Y, dX, dY, 0.5) == pytest.approx(5 / math.sqrt(2))

    def test_stacked_jacobians_in_the_spectral_norm(self):
        X, Y = np.zeros((1, 2)), np.array([[0.0, 2.0]])
        dX, dY = np.array([[[3.0, 0.0], [0.0, 1.0]]]), np.zeros((1, 2, 2))
        assert holder_quotient(X, Y, dX, dY, 1.0) == pytest.approx(1.5)

    def test_no_distinct_pair_gives_zero(self):
        X = np.ones((3, 2))
        assert holder_quotient(X, X, X, 2 * X, 1.0, kappa=0.0) == 0.0

    def test_raises_the_callers_error_above_kappa(self):
        X, Y = np.zeros((1, 1)), np.ones((1, 1))
        dX, dY = np.zeros((1, 1)), np.full((1, 1), 2.0)
        assert holder_quotient(X, Y, dX, dY, 1.0, kappa=2.0) == 2.0
        with pytest.raises(RuntimeError, match="quotient 2.000e\\+00 exceeds kappa 1.9"):
            holder_quotient(X, Y, dX, dY, 1.0, kappa=1.9, error=RuntimeError)
