"""Singular convolution, extension operator, two-route check."""

import json
import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import qr

from blt import convext, geometry, ift
from blt.cli import main
from blt.convext import (
    MAX_EXTENSION_RESOLUTION,
    Hypersurface,
    ResolutionBudgetError,
    SurfaceFunction,
    TransversalityError,
    ValidityError,
    delta_integral,
    extension_on_grid,
    extension_operator,
    surface_convolution,
    verify_thm74,
)
from blt.ift import DomainError, FieldDeclarationError, ScalarField
from blt.inputs import GridFunction
from blt.polynomials import Polynomial
from blt.quadrature import QuadratureSpec
from tests.polytope_oracle import polytope_volume


def linear_surface(lo, hi, slope, kappa=None):
    slope = np.atleast_1d(np.asarray(slope, dtype=float))
    coeffs = {}
    for i, c in enumerate(slope):
        key = [0] * slope.size
        key[i] = 1
        coeffs[tuple(key)] = float(c)
    kappa = kappa if kappa is not None else 2.0 + float(np.linalg.norm(slope))
    return Hypersurface(lo, hi, Polynomial(slope.size, coeffs), 1.0, kappa)


def orthogonal_planes(seed=11, r=6e-5):
    rng = np.random.default_rng(seed)
    while True:
        Q, _ = qr(rng.standard_normal((3, 3)))
        if np.min(np.abs(Q[2, :])) > 0.35:
            break
    slopes = [-Q[:2, i] / Q[2, i] for i in range(3)]
    surfaces = [linear_surface([-r, -r], [r, r], sl) for sl in slopes]
    return [SurfaceFunction(s) for s in surfaces], slopes, r


def exact_flat_conv_3d(slopes, y, r):
    """Closed-form affine-slice value: polytope volume over |d_last F|."""
    c0, c1, c2 = slopes
    w = np.array([c0[0] - c2[0], c0[1] - c2[1], c1[0] - c2[0], c1[1] - c2[1]])
    b = c2[0] * y[0] + c2[1] * y[1] - y[2]
    eta_A = -w[:3] / w[3]
    eta_off = -b / w[3]
    I3 = np.eye(3)
    A_rows, b_vals = [], []

    def add_box(A3, off, lo, hi):
        for rr in range(A3.shape[0]):
            A_rows.append(A3[rr])
            b_vals.append(hi[rr] - off[rr])
            A_rows.append(-A3[rr])
            b_vals.append(off[rr] - lo[rr])

    add_box(I3[:2], np.zeros(2), [-r, -r], [r, r])
    A13 = np.vstack([I3[2], eta_A])
    add_box(A13, np.array([0.0, eta_off]), [-r, -r], [r, r])
    A2 = np.vstack([-(I3[0] + I3[2]), -(I3[1] + eta_A)])
    add_box(A2, np.array([y[0], y[1] - eta_off]), [-r, -r], [r, r])
    return polytope_volume(np.vstack(A_rows), np.asarray(b_vals)) / abs(w[3])


class TestDeltaIntegral:
    def test_linear_last_coordinate_gives_base_volume(self):
        # F = t: eta = 0, weight 1, window volume comes out exactly
        poly = Polynomial(4, {(0, 0, 0, 1): 1.0})
        field = ScalarField(3, poly, 1.0, 1.0)
        window = (np.full(3, -2e-4), np.full(3, 2e-4))
        spec = QuadratureSpec("tensor-midpoint", resolution=8)
        value, err = delta_integral(field, lambda U: np.ones(U.shape[0]), window, spec)
        assert value == pytest.approx((4e-4) ** 3, rel=1e-12, abs=0)

    def test_missed_level_set_vanishes(self):
        # indicator window far from the zero set of F
        poly = Polynomial(4, {(0, 0, 0, 1): 1.0})
        field = ScalarField(3, poly, 1.0, 1.0)
        window = (np.full(3, -2e-4), np.full(3, 2e-4))
        spec = QuadratureSpec("tensor-midpoint", resolution=8)

        def integrand(U):
            return (U[:, 3] > 0.5).astype(float)

        value, _ = delta_integral(field, integrand, window, spec)
        assert value == 0.0

    def test_against_mollified_delta_oracle(self):
        # linear field; the oracle replaces delta by a narrow gaussian and
        # integrates the extra coordinate by brute-force quadrature
        poly = Polynomial(3, {(0, 0, 1): 1.0, (1, 0, 0): 0.25, (0, 1, 0): -0.1})
        field = ScalarField(2, poly, 1.0, 3.0)
        half = 5e-5
        window = (np.full(2, -half), np.full(2, half))
        spec = QuadratureSpec("tensor-midpoint", resolution=64)

        def integrand(U):
            return 1.0 + U[:, 0] / half + 0.2 * U[:, 2] / half

        value, _ = delta_integral(field, integrand, window, spec)
        res = 64
        axes = [(-half + 2 * half * (np.arange(res) + 0.5) / res) for _ in range(2)]
        X0, X1 = np.meshgrid(*axes, indexing="ij")
        width = 1e-6
        tgrid = np.linspace(-4e-5, 4e-5, 1601)
        cell = (2 * half / res) ** 2
        total = 0.0
        for t in tgrid:
            F = t + 0.25 * X0 - 0.1 * X1
            w = np.exp(-0.5 * (F / width) ** 2) / (width * math.sqrt(2 * math.pi))
            vals = 1.0 + X0 / half + 0.2 * t / half
            total += float((vals * w).sum()) * cell * (tgrid[1] - tgrid[0])
        assert value == pytest.approx(total, rel=1e-2)

    @pytest.mark.parametrize("spec, want", [
        (QuadratureSpec(resolution=16), (1.2704987296411071e-08, 1.6369904322424418e-20)),
        (QuadratureSpec("monte-carlo", samples=3000, seed=3),
         (1.2668975504200979e-08, 7.192961320858908e-11)),
    ], ids=["midpoint", "monte-carlo"])
    def test_recorded_values(self, spec, want):
        # (value, error) as computed before QuadratureSpec.integrate became
        # the one box rule
        poly = Polynomial(3, {(0, 0, 1): 1.0, (1, 0, 0): 0.25, (0, 1, 0): -0.1,
                              (2, 0, 0): 0.3, (0, 1, 1): 0.2})
        field = ScalarField(2, poly, 1.0, 3.0)
        window = (np.full(2, -5e-5), np.full(2, 6e-5))

        def integrand(U):
            return 1.0 + U[:, 0] * 1e4 + U[:, 2] ** 2

        got = delta_integral(field, integrand, window, spec)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * want[0])

    def test_window_must_fit_domain(self):
        poly = Polynomial(4, {(0, 0, 0, 1): 1.0})
        field = ScalarField(3, poly, 1.0, 1.0)
        spec = QuadratureSpec("tensor-midpoint", resolution=4)
        from blt.ift import DomainError

        with pytest.raises(DomainError):
            delta_integral(field, lambda U: np.ones(U.shape[0]), (np.full(3, -1.0), np.full(3, 1.0)), spec)


@pytest.mark.parametrize("lo, hi, c, beta, kappa, message", [
    ([-math.inf], [0.05], 0.5, 1.0, 2.5, "finite box"),
    ([-0.05], [math.nan], 0.5, 1.0, 2.5, "finite box"),
    ([-0.05], [0.05], math.inf, 1.0, 2.5, "coefficients must be finite"),
    ([-0.05], [0.05], math.nan, 1.0, 2.5, "coefficients must be finite"),
    ([-0.05], [0.05], 0.5, 0.0, 2.5, "beta must lie in"),
    ([-0.05], [0.05], 0.5, 1.5, 2.5, "beta must lie in"),
    ([-0.05], [0.05], 0.5, math.nan, 2.5, "beta must lie in"),
    ([-0.05], [0.05], 0.5, 1.0, 0.0, "kappa must be positive"),
    ([-0.05], [0.05], 0.5, 1.0, -1.0, "kappa must be positive"),
    ([-0.05], [0.05], 0.5, 1.0, math.inf, "kappa must be positive"),
])
def test_hypersurface_refuses_bad_declarations(lo, hi, c, beta, kappa, message):
    with pytest.raises(ValueError, match=message):
        Hypersurface(lo, hi, Polynomial(1, {(1,): 1.0, (2,): c}), beta, kappa)


class TestSurfaceConvolution:
    def test_flat_planes_match_closed_form(self):
        sfuncs, slopes, r = orthogonal_planes()
        y = np.array([1e-5, -5e-6, 0.0])
        spec = QuadratureSpec("monte-carlo", samples=200_000, seed=7)
        value, err = surface_convolution(sfuncs, y, spec)
        exact = exact_flat_conv_3d(slopes, y, r)
        assert value == pytest.approx(exact, abs=max(4 * err, 0.01 * exact))

    def test_zero_density_vanishes(self):
        sfuncs, slopes, r = orthogonal_planes()
        zero = GridFunction(np.array([-r, -r]), r, np.zeros((2, 2)))
        sfuncs[0] = SurfaceFunction(sfuncs[0].surface, zero)
        spec = QuadratureSpec("monte-carlo", samples=20_000, seed=8)
        value, _ = surface_convolution(sfuncs, np.array([1e-5, -5e-6, 0.0]), spec)
        assert value == 0.0

    def test_translation_covariance(self):
        sfuncs, slopes, r = orthogonal_planes(seed=21)
        spec = QuadratureSpec("monte-carlo", samples=150_000, seed=9)
        y = np.array([8e-6, -4e-6, 1e-6])
        base, err = surface_convolution(sfuncs, y, spec)
        shift = np.array([3e-6, -2e-6])
        shifted = []
        for sf in sfuncs:
            s = sf.surface
            # each graph moves by the ambient vector (shift, 0)
            phi = s.phi.substitute_affine(np.eye(s.phi.n), -shift)
            shifted.append(
                SurfaceFunction(
                    Hypersurface(s.lo + shift, s.hi + shift, phi, s.beta, s.kappa * 2)
                )
            )
        y_shifted = y + np.concatenate([3 * shift, [0.0]])
        moved, err2 = surface_convolution(shifted, y_shifted, spec)
        assert moved == pytest.approx(base, rel=0.05, abs=0)

    def test_parallel_curves_rejected(self):
        s0 = linear_surface([-1e-4], [1e-4], [0.5])
        s1 = linear_surface([-1e-4], [1e-4], [0.5])
        spec = QuadratureSpec("tensor-midpoint", resolution=8)
        with pytest.raises(TransversalityError):
            surface_convolution([SurfaceFunction(s0), SurfaceFunction(s1)], np.array([0.0, 0.0]), spec)


def curved_bridge(seed=1, index=0):
    """The benchmark's curved bridge input: graphs +-x + 0.5 x^2 over
    [-0.05, 0.05] with seeded densities in [0.8, 1.2] on 8 cells."""
    rng = np.random.default_rng([seed, index, 2])
    out = []
    for slope in (1.0, -1.0):
        density = rng.uniform(0.8, 1.2, 8)
        surf = Hypersurface([-0.05], [0.05], Polynomial(1, {(1,): slope, (2,): 0.5}), 1.0, 2.5)
        out.append(SurfaceFunction(surf, GridFunction(np.array([-0.05]), 0.1 / 8, density)))
    return out


# The per-point route the batched surface_convolution replaced, kept as
# its oracle: one dict-algebra field, np.roots root, closed-form kappa
# and delta_integral per point and ordering.

def _oracle_embed(poly, shift, blocks, n_blocks, width, sign):
    A = np.zeros((poly.n, n_blocks * width))
    for a in range(width):
        for blk in blocks:
            A[a, blk * width + a] = sign
    return poly.substitute_affine(A, shift)


def oracle_declare_kappa(poly, beta):
    """The closed-form C^{1,beta} bound of one field, term by term over
    its dict partials: with R2 = (100 max(|grad G(0)|, 1))^(-1/beta),
    max(|S|, L (2 R2)^(1 - beta), 1) for S_i = sum_a |c_ia| R2^|a| and L
    the spectral norm of M_ij = sum_a |c_ia| a_j R2^(|a| - 1)."""
    k = poly.n
    g0 = poly.gradient(np.zeros((1, k)))[0]
    R2 = (100.0 * max(float(np.linalg.norm(g0)), 1.0)) ** (-1.0 / beta)
    S = np.zeros(k)
    M = np.zeros((k, k))
    for i, partial in enumerate(poly.partials):
        for a, c in partial.coeffs.items():
            S[i] += abs(c) * R2 ** sum(a)
            M[i] += abs(c) * np.array(a) * R2 ** (sum(a) - 1)
    L = float(np.linalg.norm(M, 2))
    return max(float(np.linalg.norm(S)), L * (2.0 * R2) ** (1.0 - beta), 1.0)


def oracle_polynomial(surfaces, y):
    """The reduction polynomial F(x_1', ..., x_{d-1}'; y) at one point y."""
    d = len(surfaces)
    width = n_blocks = d - 1
    total = width * n_blocks
    F = Polynomial.constant(total, -float(y[-1]))
    for j in range(n_blocks):
        F = F + _oracle_embed(surfaces[j].phi, None, [j], n_blocks, width, 1.0)
    return F + _oracle_embed(surfaces[d - 1].phi, y[:-1], range(n_blocks), n_blocks, width, -1.0)


def oracle_field(surfaces, y):
    d = len(surfaces)
    total = (d - 1) ** 2
    F = oracle_polynomial(surfaces, y)
    e_last = np.zeros((total, 1))
    e_last[-1, 0] = 1.0
    g = F.substitute_affine(e_last)
    coeffs = np.zeros(max((sum(k) for k in g.coeffs), default=0) + 1)
    for k, c in g.coeffs.items():
        coeffs[sum(k)] += c
    roots = np.roots(coeffs[::-1]) if coeffs.size > 1 else np.array([])
    real = roots[np.abs(roots.imag) < 1e-9].real if roots.size else np.array([])
    validity_radius = 0.5 * float(np.max(np.concatenate([s.hi - s.lo for s in surfaces])) + 1.0)
    if real.size == 0 or np.min(np.abs(real)) > validity_radius:
        raise ValidityError("no root of the reduction field near the origin")
    root = float(real[np.argmin(np.abs(real))])
    shift = np.zeros(total)
    shift[-1] = root
    F_t = F.substitute_affine(np.eye(total), shift)
    scale = float(F_t.partial(total - 1).evaluate(np.zeros((1, total)))[0])
    if abs(scale) < 0.5:
        raise TransversalityError(f"last partial derivative {scale:.3e} below 1/2 at the root")
    G = Polynomial(total, {k: (1.0 / scale) * c for k, c in F_t.coeffs.items()})
    beta = min(s.beta for s in surfaces)
    field = ScalarField(total - 1, G, beta=beta, kappa=oracle_declare_kappa(G, beta))
    return field, root, scale


def oracle_ordered(surface_functions, y, spec):
    d = len(surface_functions)
    surfaces = [sf.surface for sf in surface_functions]
    densities = [sf.input_function() for sf in surface_functions]
    width = d - 1
    field, root, scale = oracle_field(surfaces, y)

    def integrand(U):
        full = np.atleast_2d(U).copy()
        full[:, -1] += root
        out = np.ones(full.shape[0])
        acc = np.zeros((full.shape[0], width))
        for j in range(d - 1):
            block = full[:, j * width : (j + 1) * width]
            out *= densities[j].evaluate(block)
            acc += block
        return out * densities[d - 1].evaluate(y[:-1] - acc)

    window = None
    if field.n > 0:
        lo = np.concatenate([s.lo for s in surfaces[:-1]])[: field.n]
        hi = np.concatenate([s.hi for s in surfaces[:-1]])[: field.n]
        R1, _ = ift.ift_radii(field.beta, field.kappa)
        if float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)))) >= R1:
            raise DomainError("support radius exceeds the guaranteed neighbourhood")
        window = (lo, hi)
    value, err = delta_integral(field, integrand, window, spec)
    return value / abs(scale), err / abs(scale)


def oracle_convolution(surface_functions, y, spec, floor=1e-6):
    """(value, error, orderings tried) at one point, raising as the
    per-point route did."""
    d = len(surface_functions)
    y = np.asarray(y, dtype=float)
    surfaces = [sf.surface for sf in surface_functions]
    rows = [np.ones(d)]
    grads = [s.grad(np.zeros((1, s.base_dim)))[0] for s in surfaces[:-1]]
    grads.append(surfaces[-1].grad(np.atleast_2d(y[: d - 1]))[0])
    rows.extend([np.array([g[a] for g in grads]) for a in range(d - 1)])
    det = float(np.linalg.det(np.vstack(rows)))
    if abs(det) < floor:
        raise TransversalityError(f"reduction determinant {det:.3e} below the floor")

    def proxy(order):
        g_pen = surfaces[order[d - 2]].grad(np.zeros((1, d - 1)))[0][-1]
        g_last = surfaces[order[d - 1]].grad(np.atleast_2d(y[: d - 1]))[0][-1]
        return abs(g_pen - g_last)

    last_error = None
    for tried, order in enumerate(sorted(permutations(range(d)), key=proxy, reverse=True), 1):
        try:
            value, err = oracle_ordered([surface_functions[i] for i in order], y, spec)
            return value, err, tried
        except (TransversalityError, ValidityError, DomainError) as exc:
            last_error = exc
    raise last_error


def oracle_batch(surface_functions, Y, spec):
    """The per-point loop verify_thm74 ran: ValidityError gives 0, any
    other failure propagates."""
    values, tried = [], []
    for y in Y:
        try:
            value, _, count = oracle_convolution(surface_functions, y, spec)
        except ValidityError:
            value, count = 0.0, 0
        values.append(value)
        tried.append(count)
    return np.array(values), np.array(tried)


def far_and_near_curves():
    """Curved graphs over [-0.05, 0.05] and [0.9, 1.0]: where the proxy
    prefers solving for the far curve's parameter, its root lies outside
    the validity radius and the other ordering serves the point."""
    s0 = Hypersurface([-0.05], [0.05], Polynomial(1, {(1,): 1.0, (2,): 0.5}), 1.0, 2.5)
    s1 = Hypersurface([0.9], [1.0], Polynomial(1, {(1,): -1.0, (2,): 0.5}), 1.0, 2.5)
    rng = np.random.default_rng(5)
    return [
        SurfaceFunction(s0, GridFunction(np.array([-0.05]), 0.025, rng.uniform(0.5, 1.5, 4))),
        SurfaceFunction(s1, GridFunction(np.array([0.9]), 0.025, rng.uniform(0.5, 1.5, 4))),
    ]


def cubic_pair():
    """Cubic graphs, three roots per point and sampled quotients that
    depend on where the samples fall, with the points of their 8 x 8 grid."""
    cubic = [
        Hypersurface([-0.05], [0.05], Polynomial(1, {(1,): 1.0, (2,): 0.5, (3,): 40.0}), 1.0, 2.5),
        Hypersurface([-0.05], [0.05], Polynomial(1, {(1,): -1.0, (2,): 0.5, (3,): -30.0}), 1.0, 2.5),
    ]
    return cubic, convext._spatial_grid([SurfaceFunction(s) for s in cubic], 8)[0]


def curved_planes(r=3e-5):
    """Orthogonal planes bent by one shared quadratic, with the points of
    their 3 x 3 x 3 grid."""
    sfuncs, _, _ = orthogonal_planes(r=r)
    bend = Polynomial(2, {(2, 0): 0.5, (1, 1): -0.3, (0, 2): 0.4})
    surfaces = [Hypersurface(sf.surface.lo, sf.surface.hi, sf.surface.phi + bend, 1.0,
                             sf.surface.kappa) for sf in sfuncs]
    return surfaces, convext._spatial_grid([SurfaceFunction(s) for s in surfaces], 3)[0]


def curved_hyperplanes(r=1e-5):
    """Four transversal hyperplanes of R^4 bent by one shared quadratic,
    with the points of their 2 x 2 x 2 x 2 grid: fields in 9 variables."""
    rng = np.random.default_rng(4)
    while True:
        Q, _ = qr(rng.standard_normal((4, 4)))
        if np.min(np.abs(Q[3, :])) > 0.3:
            break
    bend = Polynomial(3, {(2, 0, 0): 0.5, (1, 1, 0): -0.3, (0, 1, 1): 0.2, (0, 0, 2): 0.4})
    surfaces = []
    for i in range(4):
        flat = linear_surface([-r] * 3, [r] * 3, -Q[:3, i] / Q[3, i])
        surfaces.append(Hypersurface(flat.lo, flat.hi, flat.phi + bend, 1.0, flat.kappa))
    return surfaces, convext._spatial_grid([SurfaceFunction(s) for s in surfaces], 2)[0]


FIELD_CASES = [cubic_pair(), curved_planes()]


def assert_matches_oracle(got, want):
    scale = np.max(np.abs(want))
    assert scale > 0
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


class TestBatchedConvolution:
    spec = QuadratureSpec("tensor-midpoint", resolution=8)

    def test_curved_bridge_grid_matches_oracle(self):
        sfuncs = curved_bridge()
        Y, _ = convext._spatial_grid(sfuncs, 32)
        want, _ = oracle_batch(sfuncs, Y, self.spec)
        got, _ = surface_convolution(sfuncs, Y, self.spec)
        assert got.shape == (1024,)
        assert np.count_nonzero(want == 0.0) > 0  # points outside the support
        assert_matches_oracle(got, want)

    def test_second_ordering_serves_where_the_first_fails(self):
        sfuncs = far_and_near_curves()
        Y, _ = convext._spatial_grid(sfuncs, 12)
        want, tried = oracle_batch(sfuncs, Y, self.spec)
        assert np.count_nonzero(tried == 2) > 0
        got, _ = surface_convolution(sfuncs, Y, self.spec)
        assert_matches_oracle(got, want)

    def test_d3_planes_midpoint_match_oracle(self):
        sfuncs, slopes, r = orthogonal_planes()
        spec = QuadratureSpec("tensor-midpoint", resolution=6)
        axes = [np.linspace(-r, r, 3), np.linspace(-r, r, 3), np.linspace(-2 * r, 2 * r, 3)]
        Y = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        want, _ = oracle_batch(sfuncs, Y, spec)
        got, _ = surface_convolution(sfuncs, Y, spec)
        assert_matches_oracle(got, want)

    @pytest.mark.parametrize("spec", [QuadratureSpec("tensor-midpoint", resolution=4),
                                      QuadratureSpec("monte-carlo", samples=500, seed=3)],
                             ids=["midpoint", "monte-carlo"])
    def test_d3_curved_planes_match_oracle(self, spec):
        sfuncs, slopes, r = orthogonal_planes(r=3e-5)
        rng = np.random.default_rng(9)
        curved = []
        for sf in sfuncs:
            s = sf.surface
            phi = s.phi + Polynomial(2, {(2, 0): 0.5, (1, 1): -0.3, (0, 2): 0.4})
            density = GridFunction(np.array([-r, -r]), r, rng.uniform(0.5, 1.5, (2, 2)))
            curved.append(SurfaceFunction(Hypersurface(s.lo, s.hi, phi, 1.0, s.kappa), density))
        Y, _ = convext._spatial_grid(curved, 3)
        want, _ = oracle_batch(curved, Y, spec)
        got, _ = surface_convolution(curved, Y, spec)
        assert_matches_oracle(got, want)

    def test_fields_match_oracle_fields(self):
        # root, scale and the closed-form kappa of every point, for every
        # ordering of the cubic d = 2 pair and the bent d = 3 planes
        for surfaces, Y in FIELD_CASES:
            served = 0
            for order in permutations(range(len(surfaces))):
                ordered = [surfaces[i] for i in order]
                fields, failures = convext.build_reduction_field(ordered, Y)
                for p, y in enumerate(Y):
                    if failures[p] is not None:
                        with pytest.raises(type(failures[p])):
                            oracle_field(ordered, y)
                        continue
                    field, root, scale = oracle_field(ordered, y)
                    assert fields.root[p] == pytest.approx(root, rel=1e-12, abs=1e-15)
                    assert fields.scale[p] == pytest.approx(scale, rel=1e-12, abs=0)
                    assert fields.kappa[p] == pytest.approx(field.kappa, rel=1e-12, abs=0)
                    served += 1
            assert served >= len(Y)

    @pytest.mark.parametrize("surfaces, Y", FIELD_CASES + [curved_hyperplanes()],
                             ids=["d2-cubic", "d3-planes", "d4-hyperplanes"])
    def test_kappa_bounds_the_sampled_regularity(self, surfaces, Y):
        # kappa is one-sided: on each field's R2 ball it is at least the
        # sampled |grad G| and the sampled Hoelder quotient of grad G
        rng = np.random.default_rng(21)
        served = 0
        for order in permutations(range(len(surfaces))):
            fields, failures = convext.build_reduction_field([surfaces[i] for i in order], Y)
            for p in np.flatnonzero([f is None for f in failures]):
                kappa = fields.kappa[p]
                _, R2 = ift.ift_radii(fields.beta, kappa)
                U, V = (ift._ball_samples(rng, ift.AUDIT_PAIRS, fields.n + 1, R2) for _ in "UV")
                dU, dV = (fields.gradient(Z[:, :-1], Z[None, :, -1], [p])[0] for Z in (U, V))
                assert np.linalg.norm(dU, axis=1).max() <= kappa
                assert ift.holder_quotient(U, V, dU, dV, fields.beta) <= kappa
                served += 1
        assert served >= len(Y)

    @pytest.mark.parametrize("spec", [QuadratureSpec("tensor-midpoint", resolution=4),
                                      QuadratureSpec("monte-carlo", samples=300, seed=3)],
                             ids=["midpoint", "monte-carlo"])
    @pytest.mark.parametrize("surfaces, Y", FIELD_CASES, ids=["d2-cubic", "d3-planes"])
    def test_rows_are_their_one_row_delta_integrals(self, surfaces, Y, spec):
        # each field's row of one batched call is its own delta_integral bit
        # for bit, for every ordering

        def integrand(U):
            return 1.0 + np.cos(1e3 * U[..., 0]) + U[..., -1] ** 2

        served = 0
        for order in permutations(range(len(surfaces))):
            ordered = [surfaces[i] for i in order]
            fields, failures = convext.build_reduction_field(ordered, Y)
            window = convext._support_window(ordered, fields.n) if fields.n else None
            values, errors = convext.coarea_integrals(
                fields, lambda U, rows: integrand(U), window, spec, failures
            )
            for p in np.flatnonzero([f is None for f in failures]):
                one = ift.PolynomialFields(fields.exponents, fields.tables[:, p : p + 1],
                                           fields.beta, fields.kappa[p : p + 1])
                got = convext.delta_integral(one, integrand, window, spec)
                assert got == (values[p], errors[p])
                served += 1
        assert served >= len(Y)

    @pytest.mark.parametrize("surfaces, Y", FIELD_CASES, ids=["d2-cubic", "d3-planes"])
    def test_tables_evaluate_the_reduction_polynomial(self, surfaces, Y):
        # G_p(x, t) = F(x, root_p + t; y_p) / scale_p and its partials, with F
        # built per point by the dict algebra, for every ordering
        rng = np.random.default_rng(12)
        checked = 0
        for order in permutations(range(len(surfaces))):
            ordered = [surfaces[i] for i in order]
            fields, failures = convext.build_reduction_field(ordered, Y)
            x = rng.uniform(-0.05, 0.05, (7, fields.n))
            for p in np.flatnonzero([f is None for f in failures]):
                t = rng.uniform(-0.05, 0.05, (1, 7))
                F = oracle_polynomial(ordered, Y[p])
                args = np.column_stack([x, fields.root[p] + t[0]])
                polys = [F] + [F.partial(a) for a in range(fields.n + 1)]
                want = np.stack([q.evaluate(args) for q in polys]) / fields.scale[p]
                got = np.concatenate([fields.value(x, t, [p]), fields.gradient(x, t, [p])[0].T])
                assert np.array_equal(fields.partial_t(x, t, [p])[0], got[-1])
                for g, w in zip(got, want):
                    assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
                checked += 1
        assert checked >= len(Y)

    def test_one_point_is_the_batch_of_one(self):
        sfuncs = curved_bridge()
        Y, _ = convext._spatial_grid(sfuncs, 32)
        values, errors = surface_convolution(sfuncs, Y[500:503], self.spec)
        for y, value, error in zip(Y[500:503], values, errors):
            assert surface_convolution(sfuncs, y, self.spec) == (value, error)

    def count_calls(self, monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_quadrature_blocks_change_no_value(self, monkeypatch):
        sfuncs, slopes, r = orthogonal_planes()
        spec = QuadratureSpec("tensor-midpoint", resolution=6)
        Y = np.random.default_rng(3).uniform(-r, r, (10, 3))
        whole = surface_convolution(sfuncs, Y, spec)
        # 3 points per quadrature chunk of 6^2 nodes and 7 arguments
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 3 * 36 * 7)
        calls = self.count_calls(monkeypatch, QuadratureSpec, "integrate")
        split = surface_convolution(sfuncs, Y, spec)
        assert len(calls) >= 3
        assert np.array_equal(split[0], whole[0])
        assert np.array_equal(split[1], whole[1])

    def test_curved_thm74_matches_recorded_numbers(self):
        # the per-point route's numbers for the seed-1 curved bridge
        rep = verify_thm74(curved_bridge(), 40.0, 8, self.spec)
        assert rep.lhs == pytest.approx(0.3827353444508662, rel=1e-12, abs=0)
        assert rep.conv_route == pytest.approx(0.43121952071631897, rel=1e-12, abs=0)
        assert rep.bridge_error == pytest.approx(0.1124350219232038, rel=1e-12, abs=0)


def scalar_failure(sfuncs, Y, spec):
    with pytest.raises(ValueError) as info:
        oracle_batch(sfuncs, Y, spec)
    return type(info.value)


class TestBatchedFailures:
    spec = QuadratureSpec("tensor-midpoint", resolution=8)

    def points(self):
        # a served point, a point whose field has no real root and a point
        # on the determinant's zero set (phi_1'(y_0) = phi_0'(0) at y_0 = 2)
        return np.array([[0.01, 0.0], [0.0, -2.0], [2.0, 0.0]])

    def check(self, Y, expected):
        sfuncs = curved_bridge()
        assert scalar_failure(sfuncs, Y, self.spec) is expected
        with pytest.raises(expected):
            surface_convolution(sfuncs, Y, self.spec)

    def test_determinant_floor(self):
        ok, missed, flat = self.points()
        with pytest.raises(ValidityError):
            oracle_convolution(curved_bridge(), missed, self.spec)
        self.check(np.array([ok, missed, flat, ok]), TransversalityError)

    def test_first_failing_point_decides(self, monkeypatch):
        ok, missed, flat = self.points()
        monkeypatch.setattr(ift, "NORMALISATION_TOL", -1.0)
        self.check(np.array([missed, flat, ok]), TransversalityError)
        self.check(np.array([missed, ok, flat]), FieldDeclarationError)

    def test_one_point_raises_its_validity_error(self):
        with pytest.raises(ValidityError):
            surface_convolution(curved_bridge(), self.points()[1], self.spec)

    def test_parallel_curves_exit_one(self, tmp_path, capsys):
        curve = {"U": {"lo": [-1e-4], "hi": [1e-4]},
                 "phi": {"terms": [{"powers": [1], "c": 0.5}]}, "beta": 1.0, "kappa": 2.5}
        path = tmp_path / "parallel.json"
        path.write_text(json.dumps({"surfaces": [curve, curve], "y": [0.0, 0.0]}))
        assert main(["convolve-surfaces", "--input", str(path)]) == 1
        assert "reduction determinant" in capsys.readouterr().err

    def test_convolve_surfaces_takes_one_point(self, tmp_path, capsys):
        curve = {"U": {"lo": [-1e-4], "hi": [1e-4]},
                 "phi": {"terms": [{"powers": [1], "c": 1.0}]}, "beta": 1.0, "kappa": 2.5}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"surfaces": [curve, curve], "y": [[0.0, 0.0], [1e-5, 0.0]]}))
        assert main(["convolve-surfaces", "--input", str(path)]) == 1
        assert "one point" in capsys.readouterr().err


class TestExtensionOperator:
    def test_flat_zero_frequency(self):
        surf = linear_surface([0.0], [1.0], [0.0], kappa=1.0)
        assert extension_operator(surf, None, np.array([0.0, 0.0])) == pytest.approx(1.0)

    def test_full_oscillation_cancels(self):
        surf = linear_surface([0.0], [1.0], [0.0], kappa=1.0)
        val = extension_operator(surf, None, np.array([2 * math.pi, 0.0]))
        assert abs(val) <= 1e-12

    def test_parabola_against_adaptive_oracle(self):
        surf = Hypersurface([0.0], [1.0], Polynomial(1, {(2,): 1.0}), 1.0, 2.1)
        for lam in (10.0, 50.0):
            val = extension_on_grid(surf, None, np.array([[0.0, lam]]), 4096).item()
            re = quad(lambda x: math.cos(lam * x * x), 0, 1, limit=400)[0]
            im = quad(lambda x: math.sin(lam * x * x), 0, 1, limit=400)[0]
            assert abs(val - complex(re, im)) <= 1e-6

    def test_single_frequency_matches_dense_midpoint_sum(self):
        surf = Hypersurface([-0.5, 0.0], [0.5, 1.0], Polynomial(2, {(2, 0): 0.3, (1, 1): -0.2}), 1.0, 2.0)
        rng = np.random.default_rng(4)
        g = GridFunction(np.array([-0.5, 0.0]), 0.25, rng.uniform(0.2, 1.0, (4, 4)))
        xi = np.array([3.0, -2.0, 5.0])
        res = 40
        val = extension_on_grid(surf, g, xi[None, :], res).item()
        axes = [lo + (hi - lo) * (np.arange(res) + 0.5) / res for lo, hi in zip(surf.lo, surf.hi)]
        total = 0j
        for x0 in axes[0]:
            for x1 in axes[1]:
                x = np.array([x0, x1])
                phase = xi[:2] @ x + xi[2] * surf.graph(x[None, :])[0, 2]
                total += g.evaluate(x[None, :])[0] * complex(math.cos(phase), math.sin(phase))
        dense = total * (1.0 / res) ** 2
        assert abs(val - dense) <= 1e-13 * abs(dense)

    def test_resolution_floor_reads_the_whole_box(self):
        # grad phi = 2 (x0 - x1) (1, -1) vanishes on the diagonal of the box
        # and reaches |4| at its other corners: 10 points per wavelength at
        # |xi| = 20 need ceil(10 * 20 * (1 + 4) * 2 / (2 pi)) = 319 per axis
        phi = Polynomial(2, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0})
        surf = Hypersurface([-1.0, -1.0], [1.0, 1.0], phi, 1.0, 4.0)
        assert convext._required_resolution(surf, 20.0, MAX_EXTENSION_RESOLUTION) == 319

    def test_refuses_undersampled_frequency(self):
        surf = linear_surface([0.0], [1.0], [0.0], kappa=1.0)
        with pytest.raises(ResolutionBudgetError):
            extension_operator(surf, None, np.array([0.0, 1e7]), max_resolution=128)


def dense_extension(surface, g, nodes, u):
    """The dense frequency-by-parameter phase sum over the product grid
    of the node columns, flattened in ij order."""
    axes = [lo + (hi - lo) * (np.arange(u) + 0.5) / u for lo, hi in zip(surface.lo, surface.hi)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    graph = surface.graph(pts)
    cell = float(np.prod((surface.hi - surface.lo) / u))
    w = (g.evaluate(pts) if g is not None else np.ones(pts.shape[0])) * cell
    Xi = np.stack([m.ravel() for m in np.meshgrid(*nodes.T, indexing="ij")], axis=1)
    return (np.exp(1j * Xi @ graph.T) * w).sum(axis=1)


class TestSeparableExtension:
    def check(self, surface, g, nodes, u):
        got = extension_on_grid(surface, g, nodes, u)
        assert got.shape == (nodes.shape[0],) * nodes.shape[1]
        want = dense_extension(surface, g, nodes, u)
        assert np.max(np.abs(got.ravel() - want)) <= 1e-13 * np.max(np.abs(want))
        return got

    def test_flat_d2_without_density(self):
        rng = np.random.default_rng(21)
        nodes = rng.uniform(-30.0, 30.0, (9, 2))
        self.check(linear_surface([-1.0], [1.0], [1.0]), None, nodes, 120)

    def test_curved_d2_with_density(self):
        surf = Hypersurface([-0.5], [0.5], Polynomial(1, {(1,): -1.0, (2,): 0.5}), 1.0, 2.0)
        rng = np.random.default_rng(22)
        g = GridFunction(np.array([-0.5]), 0.25, rng.uniform(0.2, 1.0, 4))
        nodes = rng.uniform(-40.0, 40.0, (11, 2))
        self.check(surf, g, nodes, 96)

    def test_d3_nonseparable_phi_on_unequal_box(self):
        # the x1 x2 term couples the base axes inside the last-axis factor
        phi = Polynomial(2, {(2, 0): 0.3, (1, 1): -0.7, (0, 1): 0.2, (0, 2): 0.1})
        surf = Hypersurface([-0.5, 0.0], [0.5, 2.0], phi, 1.0, 2.0)
        rng = np.random.default_rng(23)
        g = GridFunction(np.array([-0.5, 0.0]), 0.5, rng.uniform(0.2, 1.0, (2, 4)))
        nodes = np.column_stack([
            np.linspace(-6.0, 6.0, 5), np.linspace(0.5, 9.0, 5), np.linspace(-12.0, -1.0, 5)
        ])
        got = self.check(surf, g, nodes, 14)
        # ij order: entry (i, j, l) is the extension at (nodes[i,0], nodes[j,1], nodes[l,2])
        xi = np.array([nodes[3, 0], nodes[1, 1], nodes[4, 2]])
        single = extension_on_grid(surf, g, xi[None, :], 14)
        assert single.shape == (1, 1, 1)
        assert abs(got[3, 1, 4] - single.item()) <= 1e-13 * abs(single.item())

    def test_last_axis_nodes_span_several_chunks(self, monkeypatch):
        # three last-axis nodes per chunk: chunks of 3, 3 and 2 over 8 nodes
        monkeypatch.setattr(convext, "_CHUNK_ENTRIES", 3 * 10**2)
        phi = Polynomial(2, {(1, 1): 0.5, (0, 2): -0.3})
        surf = Hypersurface([0.0, -1.0], [1.0, 0.5], phi, 1.0, 2.0)
        rng = np.random.default_rng(24)
        nodes = rng.uniform(-8.0, 8.0, (8, 3))
        self.check(surf, None, nodes, 10)

    def test_nodes_must_have_one_column_per_axis(self):
        with pytest.raises(ValueError):
            extension_on_grid(linear_surface([-1.0], [1.0], [1.0]), None, np.zeros((4, 3)), 8)


def full_grid_flat_convolution(surface_functions, Y):
    """The flat d = 2 route on the whole (n, 2) point array Y at once: the
    oracle for the row blocks of convext._flat_convolution_2d."""
    s0, s1 = (sf.surface for sf in surface_functions)
    g0 = surface_functions[0].input_function()
    g1 = surface_functions[1].input_function()
    c0 = float(s0.grad(np.zeros((1, 1)))[0][0])
    c1 = float(s1.grad(np.zeros((1, 1)))[0][0])
    a0 = float(s0.phi.evaluate(np.zeros((1, 1)))[0])
    a1 = float(s1.phi.evaluate(np.zeros((1, 1)))[0])
    denom = c0 - c1
    if abs(denom) < 1e-12:
        raise TransversalityError("flat curves are parallel")
    x_star = (Y[:, 1] - a0 - a1 - c1 * Y[:, 0]) / denom
    vals = g0.evaluate(x_star[:, None]) * g1.evaluate((Y[:, 0] - x_star)[:, None])
    return vals / abs(denom)


def affine_curve(lo, hi, slope, offset, density=None):
    """The line phi(x) = slope x + offset over [lo, hi], with the density
    values spread over equal cells (a box indicator when None)."""
    phi = Polynomial(1, {(0,): offset, (1,): slope})
    surface = Hypersurface([lo], [hi], phi, 1.0, 2.0 + abs(slope))
    if density is None:
        return SurfaceFunction(surface)
    return SurfaceFunction(surface, GridFunction(np.array([lo]), (hi - lo) / density.size, density))


class TestFlatConvolutionBlocks:
    """The row blocks of the flat d = 2 route against the full-grid oracle,
    bit for bit."""

    def grid_pair(self):
        rng = np.random.default_rng(19)
        return [
            affine_curve(-1.0, 1.0, 1.0, 0.0, rng.uniform(0.8, 1.2, 8)),
            affine_curve(-1.0, 1.0, -1.0, 0.0, rng.uniform(0.8, 1.2, 8)),
        ]

    def offset_pair(self):
        rng = np.random.default_rng(23)
        return [
            affine_curve(-0.3, 0.7, 0.7, 0.37, rng.uniform(0.5, 1.5, 5)),
            affine_curve(-0.9, 0.2, -1.3, -1.1, rng.uniform(0.5, 1.5, 7)),
        ]

    def indicator_pair(self):
        return [affine_curve(-0.3, 0.7, 0.7, 0.37), affine_curve(-0.9, 0.2, -1.3, -1.1)]

    def check(self, sfuncs, count, rows):
        axes, _ = convext._spatial_axes(sfuncs, count)
        Y, _ = convext._spatial_grid(sfuncs, count)
        blocks = list(convext._flat_convolution_2d(sfuncs, axes))
        full, last = divmod(count, rows)
        assert [b.size for b in blocks] == [rows * count] * full + ([last * count] if last else [])
        got = np.concatenate(blocks)
        want = full_grid_flat_convolution(sfuncs, Y)
        assert np.count_nonzero(want) > count
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("pair", ["grid_pair", "offset_pair", "indicator_pair"])
    def test_default_blocks_match_full_grid(self, pair):
        self.check(getattr(self, pair)(), 1024, 64)

    @pytest.mark.parametrize("pair", ["offset_pair", "indicator_pair"])
    def test_ragged_last_block(self, monkeypatch, pair):
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 7 * 40 + 39)
        self.check(getattr(self, pair)(), 40, 7)

    def test_rows_longer_than_a_block_go_one_at_a_time(self, monkeypatch):
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 30)
        self.check(self.offset_pair(), 40, 1)

    def test_parallel_lines_raise(self):
        sfuncs = [affine_curve(-1.0, 1.0, 0.5, 0.0), affine_curve(-1.0, 1.0, 0.5, 0.2)]
        with pytest.raises(TransversalityError):
            verify_thm74(sfuncs, 10.0, 16, QuadratureSpec(resolution=8))

    def test_parallel_lines_exit_one(self, tmp_path, capsys):
        curve = {"U": {"lo": [-1.0], "hi": [1.0]},
                 "phi": {"terms": [{"powers": [1], "c": 0.5}]}, "beta": 1.0, "kappa": 2.5}
        path = tmp_path / "parallel.json"
        path.write_text(json.dumps({"surfaces": [curve, curve]}))
        assert main(["verify-thm74", "--input", str(path), "--resolution", "16",
                     "--freq-halfwidth", "10"]) == 1
        err = capsys.readouterr().err
        assert "parallel" in err and "Traceback" not in err


class TestThm74:
    def segments(self):
        s0 = linear_surface([-1.0], [1.0], [1.0])
        s1 = linear_surface([-1.0], [1.0], [-1.0])
        return [SurfaceFunction(s0), SurfaceFunction(s1)]

    def test_bridge_small_and_improving(self):
        spec = QuadratureSpec("tensor-midpoint", resolution=64)
        rep256 = verify_thm74(self.segments(), 45.0, 256, spec)
        assert rep256.bridge_error <= 0.05
        assert not rep256.refusal
        rep512 = verify_thm74(self.segments(), 45.0, 512, spec)
        assert rep512.bridge_error < rep256.bridge_error

    def test_bridge_matches_recorded_dense_route(self):
        # criterion 10's numbers from the dense frequency-by-parameter sum
        spec = QuadratureSpec("tensor-midpoint", resolution=64)
        recorded = {
            256: (8.854094535712349, 8.88662850054308, 0.003661002013164324),
            512: (8.853906868561026, 8.881859716459113, 0.0031471841247714114),
        }
        for res, (lhs, conv_route, bridge_error) in recorded.items():
            rep = verify_thm74(self.segments(), 45.0, res, spec)
            assert rep.lhs == pytest.approx(lhs, rel=1e-12)
            assert rep.conv_route == pytest.approx(conv_route, rel=1e-12)
            assert rep.bridge_error == pytest.approx(bridge_error, rel=1e-12, abs=0)

    def test_flat_route_memory_is_bounded(self):
        # a full 1024 x 1024 spatial grid and its temporaries peak near 57 MiB
        spec = QuadratureSpec("tensor-midpoint", resolution=64)
        verify_thm74(self.segments(), 45.0, 256, spec)
        tracemalloc.start()
        try:
            verify_thm74(self.segments(), 45.0, 256, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_zero_density_gives_zero(self):
        sfuncs = self.segments()
        zero = GridFunction(np.array([-1.0]), 1.0, np.zeros(2))
        sfuncs[0] = SurfaceFunction(sfuncs[0].surface, zero)
        spec = QuadratureSpec("tensor-midpoint", resolution=16)
        rep = verify_thm74(sfuncs, 10.0, 32, spec)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_ratio_stable_under_box_doubling(self):
        spec = QuadratureSpec("tensor-midpoint", resolution=32)
        rep = verify_thm74(self.segments(), 45.0, 128, spec)
        rep2 = verify_thm74(self.segments(), 90.0, 256, spec)
        assert rep2.ratio == pytest.approx(rep.ratio, rel=0.10)

    def test_truncation_too_small_refuses(self):
        spec = QuadratureSpec("tensor-midpoint", resolution=16)
        rep = verify_thm74(self.segments(), 0.6, 24, spec)
        assert rep.refusal
        assert rep.bridge_error > 0.2

    def test_norm_exponent(self):
        rep = verify_thm74(self.segments(), 10.0, 32, QuadratureSpec(resolution=8))
        # d = 2: exponent 2, |U| = 2 per segment
        assert rep.input_norms[0] == pytest.approx(2.0 ** 0.5, rel=1e-12)


class TestConvolutionBoundSanity:
    def test_flat_pointwise_bound(self):
        # sup of the convolution never exceeds the closed-form product bound
        sfuncs, slopes, r = orthogonal_planes(seed=31)
        grads = np.vstack([np.ones(3), np.column_stack(slopes)])
        eps = abs(np.linalg.det(grads))
        masses = [(2 * r) ** 2 for _ in range(3)]  # |U_j|
        d = 3
        qprime = (d - 1) / (d - 2)  # conjugate of d-1
        norms = [m ** (1 / qprime) for m in masses]
        rng = np.random.default_rng(14)
        ys = np.column_stack(
            [
                rng.uniform(-r, r, size=40),
                rng.uniform(-r, r, size=40),
                rng.uniform(-4 * r, 4 * r, size=40),
            ]
        )
        sup_conv = 0.0
        for y in ys:
            try:
                value = exact_flat_conv_3d(slopes, y, r)
            except Exception:
                value = 0.0
            sup_conv = max(sup_conv, value)
        flat_constant = 2.0 * 10.0**d
        bound = flat_constant * eps ** (-1.0 / (d - 1)) * np.prod(norms)
        assert sup_conv <= bound
