"""Quadrature layer: masses, ratios, discrete inequality, convolution report."""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blt.datum import BLDatum, ProjectionScheme, bl_constant_classC
from blt.inputs import (
    BoxIndicator,
    GridFunction,
    PiecewiseLinearGridFunction,
    ZeroMassError,
    convolve_grids,
)
from blt.quadrature import (
    QuadratureSpec,
    UnboundedDomainError,
    _is_scaled_projection_datum,
    _localised_products,
    _map_factors,
    _product_integrand,
    _support_region,
    ball_inequality_report,
    bl_ratio,
    canonical_extremizer,
    discrete_finner,
    grid_product_integral,
    lattice_box,
    lattice_product_sum,
)
from blt.geometry import grid_points
from tests.conftest import loomis_whitney_maps, random_class_c_datum
from tests.polytope_oracle import box_preimage_volume


@dataclass
class GaussianFunction:
    """exp(-pi <A y, y>) with A positive definite, unbounded in support:
    the input of the closed-form gaussian_ratio cross-check, integrated
    over a stated region."""

    covariance: np.ndarray

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.exp(-np.pi * np.einsum("ni,ij,nj->n", points, self.covariance, points))

    def integral(self) -> float:
        return float(1.0 / np.sqrt(np.linalg.det(self.covariance)))


def lw_scheme():
    return ProjectionScheme(3, [1, 1, 1])


def x_grid_8():
    mesh = np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


class TestIntegrate:
    def test_grid_unit_mass(self):
        g = GridFunction(np.zeros(2), 0.5, np.ones((2, 2)))
        assert g.integral() == pytest.approx(1.0)

    def test_gaussian_normalised(self):
        assert GaussianFunction(np.eye(2)).integral() == pytest.approx(1.0)

    def test_box_determinant(self):
        assert BoxIndicator(2 * np.eye(2)).integral() == pytest.approx(4.0)

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(1), 1.0, np.array([1.0, -0.5]))


class TestBoxRule:
    def test_stacked_integrals_match_single_ones(self):
        lo, hi = np.array([0.0, -1.0]), np.array([1.0, 0.5])

        def stacked(x):
            return np.stack([np.cos(x[:, 0]) * x[:, 1] ** 2, np.exp(x[:, 0] - x[:, 1])])

        for spec in (QuadratureSpec(resolution=12), QuadratureSpec("monte-carlo", samples=500, seed=2)):
            values, errors = spec.integrate(stacked, lo, hi)
            assert values.shape == errors.shape == (2,)
            for k in range(2):
                value, error = spec.integrate(lambda x: stacked(x)[k], lo, hi)
                assert isinstance(value, float) and isinstance(error, float)
                assert values[k] == pytest.approx(value, rel=1e-14, abs=0)
                assert errors[k] == pytest.approx(error, rel=1e-12, abs=0)

    def test_error_estimate_off(self):
        lo, hi = np.zeros(2), np.ones(2)
        integrand = lambda x: np.exp(x.sum(axis=1))  # noqa: E731
        for spec in (QuadratureSpec(resolution=8), QuadratureSpec("monte-carlo", samples=50, seed=1)):
            value, error = spec.integrate(integrand, lo, hi)
            assert error > 0
            off = replace(spec, error_estimate=False)
            assert off.integrate(integrand, lo, hi) == (value, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_points_per_call_bounds_every_call(self, n):
        for spec in (QuadratureSpec(resolution=6), QuadratureSpec("monte-carlo", samples=70, seed=1)):
            sizes = []

            def integrand(x):
                sizes.append(x.shape[0])
                return np.ones(x.shape[0])

            value, _ = spec.integrate(integrand, np.zeros(n), np.full(n, 2.0))
            assert value == pytest.approx(2.0**n, rel=1e-12)
            assert max(sizes) == spec.points_per_call(n)

    def test_monte_carlo_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            QuadratureSpec("monte-carlo", samples=1, seed=1)


class TestIntegrateProduct:
    def product_cases(self, lw_datum):
        grids, gaussians = recorded_inputs()
        rng = np.random.default_rng(12)
        shifted = GridFunction(np.array([0.37, 0.0]), 0.37, rng.uniform(0.5, 1.5, (2, 3)))
        conv = [convolve_grids(g, shifted) for g in grids]
        # exponent 1 takes no power; the last axis is read by no factor
        partial = BLDatum(3, [np.eye(3)[[0]], np.eye(3)[[1]]], np.array([1.0, 0.5]))
        line = [GridFunction(np.array([-1.0]), 0.4, rng.uniform(0.5, 1.5, 6)) for _ in range(2)]
        return [(lw_datum, grids), (lw_datum, gaussians), (lw_datum, conv), (partial, line),
                (scaled_lw_datum(), grids), (scaled_lw_datum(), conv)]

    @pytest.mark.parametrize("resolution", [1, 7, 16, 33])
    def test_midpoint_matches_product_integrand(self, lw_datum, resolution):
        lo, hi = np.full(3, -1.5), np.full(3, 1.7)
        spec = QuadratureSpec(resolution=resolution)
        for datum, inputs in self.product_cases(lw_datum):
            got = spec.integrate_product(_map_factors(datum, inputs), lo, hi)
            want = spec.integrate(_product_integrand(_map_factors(datum, inputs)), lo, hi)
            assert isinstance(got[0], float) and isinstance(got[1], float)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
            # the error is a difference of two rules, each summed to rel 1e-16 of
            # the value, so it is held to rel 1e-12 of the value it estimates
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12 * want[0])

    def test_monte_carlo_draws_and_multiplies_as_integrate(self, lw_datum):
        lo, hi = np.full(3, -1.5), np.full(3, 1.7)
        spec = QuadratureSpec("monte-carlo", samples=3000, seed=4)
        for datum, inputs in self.product_cases(lw_datum):
            got = spec.integrate_product(_map_factors(datum, inputs), lo, hi)
            assert got == spec.integrate(_product_integrand(_map_factors(datum, inputs)), lo, hi)

    def conv_case(self):
        rng = np.random.default_rng(31)
        f = [GridFunction(np.array([0.0, -1.0]), 0.5, rng.uniform(0.5, 1.5, (3, 4)))
             for _ in range(3)]
        fp = [GridFunction(np.array([0.5, 0.0]), 0.5, rng.uniform(0.5, 1.5, (2, 3)))
              for _ in range(3)]
        x_grid = lattice_x_grid([-1.0] * 3, [2.5] * 3, 0.5)
        return f, fp, x_grid

    @pytest.mark.parametrize("spec, recorded", [
        (QuadratureSpec(resolution=64), 0.6493315242276669),
        (QuadratureSpec("monte-carlo", samples=4000, seed=7), 0.6436680068806818),
    ], ids=["midpoint", "monte-carlo"])
    def test_conv_term_matches_the_integrand_route(self, lw_datum, spec, recorded):
        # recorded: conv_term before the separable midpoint sum
        f, fp, x_grid = self.conv_case()
        report = ball_inequality_report(lw_datum, f, fp, x_grid, spec)
        want = loop_conv_ratio(lw_datum, f, fp, spec)
        if spec.mode == "monte-carlo":
            assert report.conv_term == want
        assert report.conv_term == pytest.approx(want, rel=1e-12, abs=0)
        assert report.conv_term == pytest.approx(recorded, rel=1e-12, abs=0)


def scaled_lw_datum(sign=-1.0):
    """Loomis-Whitney with each row scaled, one entry by sign: off the
    lattice path, but separable."""
    scale = [[2.0, 0.5], [sign * 1.5, 1.0], [0.75, 3.0]]
    return BLDatum(3, [np.diag(s) @ B for s, B in zip(scale, loomis_whitney_maps())], np.full(3, 0.5))


class TestScaledProjections:
    @pytest.mark.parametrize("spec", [QuadratureSpec(resolution=24), QuadratureSpec(resolution=1)],
                             ids=["midpoint", "midpoint-1"])
    def test_bl_ratio_matches_the_full_grid_rule(self, spec):
        datum = scaled_lw_datum(1.0)
        grids, _ = recorded_inputs()
        lo, hi = _support_region(datum, grids)
        want = spec.integrate(_product_integrand(_map_factors(datum, grids)), lo, hi)
        denom = float(np.prod([g.integral() ** 0.5 for g in grids]))
        got = bl_ratio(datum, grids, None, spec)
        assert got[0] == pytest.approx(want[0] / denom, rel=1e-12, abs=0)
        assert got[1] == pytest.approx(want[1] / denom, rel=1e-12, abs=1e-12 * got[0])

    def test_only_scaled_projections_take_the_exact_grid_integral(self, monkeypatch):
        # a row on two axes sends every ratio to bl_ratio; scaled rows send
        # R(f), R(f') and the sweep's one block to the exact grid integral
        from blt import quadrature

        calls = []
        kernel = quadrature.grid_product_integral
        monkeypatch.setattr(quadrature, "grid_product_integral",
                            lambda *args, **kw: calls.append(1) or kernel(*args, **kw))
        mixed = BLDatum(3, [np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                            *loomis_whitney_maps()[1:]], np.full(3, 0.5))
        rng = np.random.default_rng(14)
        f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (2, 2))) for _ in range(3)]
        x_grid = lattice_x_grid([0.0] * 3, [2.0] * 3, 1.0)
        spec = QuadratureSpec(resolution=8)
        assert not _is_scaled_projection_datum(mixed)
        ball_inequality_report(mixed, f, f, x_grid, spec)
        assert not calls
        doubled = BLDatum(3, [2.0 * B for B in loomis_whitney_maps()], np.full(3, 0.5))
        ball_inequality_report(doubled, f, f, x_grid / 2.0, spec)
        assert len(calls) == 3

    def test_ball_check_on_doubled_maps(self):
        # doubled maps: every R is 1/8 of the unit-map value at the halved x
        rng = np.random.default_rng(13)
        f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (3, 3))) for _ in range(3)]
        fp = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (3, 3))) for _ in range(3)]
        unit = BLDatum(3, loomis_whitney_maps(), np.full(3, 0.5))
        doubled = BLDatum(3, [2.0 * B for B in loomis_whitney_maps()], np.full(3, 0.5))
        x_grid = lattice_x_grid([0.0] * 3, [5.0] * 3, 1.0)
        spec = QuadratureSpec(resolution=48)
        want = ball_inequality_report(unit, f, fp, x_grid, spec)
        got = ball_inequality_report(doubled, f, fp, x_grid / 2.0, spec)
        assert got.lhs == pytest.approx(want.lhs / 64.0, rel=1e-12)
        assert got.sup_term == pytest.approx(want.sup_term / 8.0, rel=1e-12)
        assert got.excluded_grid_points == want.excluded_grid_points


def recorded_inputs():
    rng = np.random.default_rng(5)
    grids = [
        GridFunction(np.array([0.1, -0.2]), 0.37, rng.uniform(0.2, 1.0, (5, 4))) for _ in range(3)
    ]
    gaussians = [GaussianFunction(np.eye(2) * s) for s in (1.0, 1.5, 0.7)]
    return grids, gaussians


# (value, error) pairs of bl_ratio on recorded_inputs() as computed before
# QuadratureSpec.integrate became the one box rule.
@pytest.mark.parametrize("spec, grid_want, gauss_want", [
    (QuadratureSpec(resolution=24),
     (0.6593217765128931, 0.0004181263903379483), (0.9475116971100271, 5.2124791371949875e-05)),
    (QuadratureSpec(resolution=1), (0.504001057537675, 0.0), (30.36578698711025, 0.0)),
    (QuadratureSpec("monte-carlo", samples=5000, seed=7),
     (0.6587316595807277, 0.0034199071941892686), (0.9465586597049499, 0.04620292873379755)),
], ids=["midpoint", "midpoint-1", "monte-carlo"])
def test_bl_ratio_recorded_values(lw_datum, spec, grid_want, gauss_want):
    grids, gaussians = recorded_inputs()
    region = (np.full(3, -1.5), np.full(3, 1.7))
    # errors are held to rel 1e-12 of the value they estimate
    grid = bl_ratio(lw_datum, grids, None, spec)
    assert grid == pytest.approx(grid_want, rel=1e-12, abs=1e-12 * grid_want[0])
    gauss = bl_ratio(lw_datum, gaussians, region, spec)
    assert gauss == pytest.approx(gauss_want, rel=1e-12, abs=1e-12 * gauss_want[0])


def corner_loop_evaluate(pl, points):
    """Tent-basis sum over the 2^k corners of each point's cell, reading
    nodes through a validity mask instead of a zero-padded copy."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    u = (points - pl.origin) / pl.spacing
    base = np.floor(u).astype(np.int64)
    frac = u - base
    out = np.zeros(points.shape[0])
    k = pl.dim
    shape = np.asarray(pl.node_values.shape)
    for corner in range(2**k):
        bits = np.array([(corner >> a) & 1 for a in range(k)])
        idx = base + bits
        valid = np.all((idx >= 0) & (idx < shape), axis=1)
        w = np.ones(points.shape[0])
        for a in range(k):
            w = w * (frac[:, a] if bits[a] else (1.0 - frac[:, a]))
        vals = np.zeros(points.shape[0])
        vals[valid] = pl.node_values[tuple(idx[valid].T)]
        out += w * vals
    return out


class TestPiecewiseLinearEvaluate:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_corner_loop(self, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(30):
            shape = rng.integers(1, 6, size=k)
            pl = PiecewiseLinearGridFunction(
                rng.uniform(-2, 2, k), float(rng.uniform(0.3, 1.5)), rng.uniform(0, 2, shape)
            )
            lo, hi = pl.support_box()
            inside = rng.uniform(lo, hi, size=(200, k))
            around = rng.uniform(lo - 2 * pl.spacing, hi + 2 * pl.spacing, size=(200, k))
            knots = pl.origin + pl.spacing * rng.integers(-2, shape + 2, size=(60, k))
            points = np.vstack([inside, around, knots])
            want = corner_loop_evaluate(pl, points)
            assert np.max(np.abs(pl.evaluate(points) - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_map_coordinates(self, k):
        # the order-1 spline of scipy.ndimage, the kernel evaluate replaced
        from scipy.ndimage import map_coordinates

        rng = np.random.default_rng(50 + k)
        for _ in range(50):
            shape = rng.integers(1, 6, size=k)
            pl = PiecewiseLinearGridFunction(
                rng.uniform(-2, 2, k), float(rng.uniform(0.3, 1.5)), rng.uniform(0, 2, shape)
            )
            lo, hi = pl.support_box()
            inside = rng.uniform(lo, hi, size=(200, k))
            # up to four cells off the support on each side
            around = rng.uniform(lo - 4 * pl.spacing, hi + 4 * pl.spacing, size=(200, k))
            knots = pl.origin + pl.spacing * rng.integers(-3, shape + 3, size=(60, k))
            points = np.vstack([inside, around, knots])
            want = map_coordinates(
                pl.node_values, ((points - pl.origin) / pl.spacing).T,
                order=1, mode="grid-constant", cval=0.0, prefilter=False,
            )
            assert np.max(np.abs(pl.evaluate(points) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_beyond_support(self):
        pl = PiecewiseLinearGridFunction(np.zeros(2), 0.5, np.ones((3, 2)))
        lo, hi = pl.support_box()
        far = np.array([lo - 0.01, hi + 0.01, [lo[0] - 0.2, 0.3], [0.4, hi[1]],
                        [lo[0] - 1.3, 0.3], [0.3, hi[1] + 7.9], [-1e19, 1e19]])
        assert np.all(pl.evaluate(far) == 0.0)

    def test_non_finite_points_read_zero(self):
        pl = PiecewiseLinearGridFunction(np.zeros(2), 0.5, np.ones((3, 2)))
        odd = np.array([[np.nan, 0.3], [0.3, np.nan], [np.inf, 0.3], [0.3, -np.inf],
                        [np.nan, np.inf], [0.3, 0.3]])
        assert np.array_equal(pl.evaluate(odd), [0.0] * 5 + [1.0])

    @pytest.mark.parametrize("origin, spacing, nodes, message", [
        ([0.0], 1.0, [1.0, np.nan], "finite"),
        ([0.0], 1.0, [np.inf, 1.0], "finite"),
        ([np.nan], 1.0, [1.0, 1.0], "finite"),
        ([0.0], 0.0, [1.0, 1.0], "spacing"),
        ([0.0], 1.0, [1.0, -0.5], "nonnegative"),
        ([0.0, 0.0], 1.0, [1.0, 1.0], "origin length"),
        ([0.0, 0.0], 1e300, [[1.0]], "cell volume"),
    ])
    def test_refused_as_grid_functions_are(self, origin, spacing, nodes, message):
        with pytest.raises(ValueError, match=message):
            PiecewiseLinearGridFunction(np.array(origin), spacing, np.array(nodes))
        with pytest.raises(ValueError, match=message):
            GridFunction(np.array(origin), spacing, np.array(nodes))


class TestBlRatio:
    def test_unit_boxes_over_unit_cube(self, lw_datum):
        spec = QuadratureSpec("tensor-midpoint", resolution=32)
        value, err = bl_ratio(
            lw_datum, [BoxIndicator(np.eye(2))] * 3, (np.zeros(3), np.ones(3)), spec
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_inputs_match_closed_form(self, lw_datum):
        from blt.datum import gaussian_ratio

        spec = QuadratureSpec("tensor-midpoint", resolution=72)
        value, err = bl_ratio(
            lw_datum,
            [GaussianFunction(np.eye(2))] * 3,
            (np.full(3, -4.0), np.full(3, 4.0)),
            spec,
        )
        closed = gaussian_ratio(lw_datum, [np.eye(2)] * 3)
        assert value == pytest.approx(closed, abs=max(3 * err, 1e-6))

    def test_zero_mass_rejected(self, lw_datum):
        zero = GridFunction(np.zeros(2), 1.0, np.zeros((2, 2)))
        good = GridFunction(np.zeros(2), 1.0, np.ones((2, 2)))
        with pytest.raises(ZeroMassError):
            bl_ratio(
                lw_datum,
                [good, zero, good],
                None,
                QuadratureSpec("tensor-midpoint", resolution=8),
            )

    @pytest.mark.parametrize("turn", [0.0, 0.3], ids=["one-axis-rows", "rotated-rows"])
    def test_unbounded_without_region_rejected(self, turn):
        # two one-row maps on R^3 leave a free direction, so the composite
        # support of bounded inputs is unbounded: read off interval
        # intersections for coordinate rows, off the vertices for turned ones
        c, s = np.cos(turn), np.sin(turn)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        datum = BLDatum(3, [np.array([[1.0, 0.0, 0.0]]) @ rotation,
                            np.array([[0.0, 1.0, 0.0]]) @ rotation], np.full(2, 0.5))
        inputs = [GridFunction(np.zeros(1), 1.0, np.ones(2))] * 2
        spec = QuadratureSpec("tensor-midpoint", resolution=8)
        with pytest.raises(UnboundedDomainError):
            bl_ratio(datum, inputs, None, spec)

    @pytest.mark.parametrize("origin", [[50.0, 0.0], [2.0, 0.0]], ids=["empty", "flat"])
    def test_support_without_volume_gives_zero(self, origin):
        # doubled maps bound the support by intervals, not on the lattice:
        # f_2 apart from f_1 along x_0 leaves a composite support that is
        # empty, or flat at x_0 = 1, and neither is unbounded
        datum = BLDatum(3, [2 * B for B in loomis_whitney_maps()], np.full(3, 0.5))
        f = [GridFunction(np.zeros(2), 1.0, np.ones((2, 2)))] * 2
        f.append(GridFunction(np.array(origin), 1.0, np.ones((2, 2))))
        spec = QuadratureSpec("tensor-midpoint", resolution=8)
        assert bl_ratio(datum, f, None, spec) == (0.0, 0.0)
        with pytest.raises(ZeroMassError, match="no volume"):
            ball_inequality_report(datum, f, f, np.zeros((1, 3)), spec)

    def test_monte_carlo_reproducible(self, lw_datum):
        spec = QuadratureSpec("monte-carlo", samples=20_000, seed=13)
        inputs = [BoxIndicator(np.eye(2))] * 3
        region = (np.zeros(3), np.ones(3))
        a = bl_ratio(lw_datum, inputs, region, spec)
        b = bl_ratio(lw_datum, inputs, region, spec)
        assert a == b  # bitwise

    def test_monte_carlo_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            QuadratureSpec("monte-carlo", samples=100)

    def test_grid_refinement_within_error_estimate(self, lw_datum):
        # fixed smooth data sampled on successively finer grids
        def sampled_grid(spacing):
            axes = [np.arange(0, 2.0, spacing) + spacing / 2] * 2
            X, Y = np.meshgrid(*axes, indexing="ij")
            vals = 1.0 + 0.5 * np.sin(X) * np.cos(Y)
            return GridFunction(np.zeros(2), spacing, vals)

        spec = QuadratureSpec("tensor-midpoint", resolution=64)
        region = (np.zeros(3), np.full(3, 2.0))
        coarse, err = bl_ratio(lw_datum, [sampled_grid(0.25)] * 3, region, spec)
        fine, _ = bl_ratio(lw_datum, [sampled_grid(0.125)] * 3, region, spec)
        assert abs(fine - coarse) <= 3 * max(err, 1e-4)


def random_reads(rng, d, ranks):
    """One map per rank: rows on distinct random axes with slopes of
    either sign and size 0.3-2.5, and offsets y0 within 0.5."""
    reads = []
    for rank in ranks:
        axes = rng.choice(d, size=rank, replace=False)
        slopes = rng.choice([-1.0, 1.0], rank) * rng.uniform(0.3, 2.5, rank)
        reads.append([(int(a), float(s), float(y)) for a, s, y in
                      zip(axes, slopes, rng.uniform(-0.5, 0.5, rank))])
    return reads


def random_grids(rng, reads):
    """One GridFunction per map, on its own spacing and non-aligned origin,
    with about a fifth of its cells 0."""
    grids = []
    for own in reads:
        shape = rng.integers(2, 7, len(own))
        values = rng.uniform(0.2, 2.0, shape) * (rng.uniform(size=shape) > 0.2)
        grids.append(GridFunction(rng.uniform(-1.5, -0.5, len(own)), float(rng.uniform(0.3, 0.8)),
                                  values))
    return grids


def covering_case(rng):
    """Loomis-Whitney rows with slopes of either sign and size 0.3-2.5 and
    offsets within 0.3, and positive grids on their own spacings and
    non-aligned origins that cover the image of [-0.5, 0.5]^3."""
    reads = []
    for axes in ([1, 2], [0, 2], [0, 1]):
        slopes = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.3, 2.5, 2)
        reads.append([(a, float(s), float(y)) for a, s, y in zip(axes, slopes, rng.uniform(-0.3, 0.3, 2))])
    grids = [GridFunction(rng.uniform(-2.1, -1.8, 2), float(rng.uniform(0.3, 0.6)),
                          rng.uniform(0.2, 2.0, (14, 14))) for _ in reads]
    return reads, grids


def as_tuples(grids):
    return [(g.values, g.origin, g.spacing) for g in grids]


class TestGridProductIntegral:
    def test_hand_computed_line(self):
        # y = 1 - 2u on u in [-1, 1] reads f = (1, 2) on [0, 1) and [1, 2):
        # 2 on (-1/2, 0], 1 on (0, 1/2]
        got = grid_product_integral([[(0, -2.0, 1.0)]], [(np.array([1.0, 2.0]), np.zeros(1), 1.0)],
                                    [1.0], (np.array([-1.0]), np.array([1.0])))
        assert got.shape == () and float(got) == 1.5

    @pytest.mark.parametrize("d, ranks", [(1, [1, 1]), (2, [1, 2, 1]), (3, [2, 2, 2]),
                                          (3, [1, 2, 3]), (4, [3, 1, 2])])
    def test_matches_brute_force(self, d, ranks):
        # midpoints on and off the lattices, and most integrals positive
        rng = np.random.default_rng(100 + 10 * d + len(ranks))
        positive = 0
        for _ in range(20):
            reads = random_reads(rng, d, ranks)
            grids = random_grids(rng, reads)
            exponents = rng.uniform(0.2, 1.5, len(ranks))
            box = (rng.uniform(-1.0, -0.2, d), rng.uniform(0.2, 1.0, d))
            got = grid_product_integral(reads, as_tuples(grids), exponents, box)
            want = brute_integral(reads, grids, exponents, box)
            assert got.shape == ()
            assert float(got) == pytest.approx(want, rel=1e-12, abs=1e-300)
            positive += want > 0
        assert positive >= 12

    def test_extra_cuts_change_nothing_but_rounding(self):
        reads, grids = covering_case(np.random.default_rng(7))
        box = (np.full(3, -0.5), np.full(3, 0.5))
        want = brute_integral(reads, grids, [0.5] * 3, box)
        cuts = [np.random.default_rng(a).uniform(-1.0, 1.0, 7) for a in range(3)]
        got = grid_product_integral(reads, as_tuples(grids), [0.5] * 3, box, cuts)
        assert float(got) == pytest.approx(want, rel=1e-12, abs=0) and want > 0

    def test_weights_mask_the_widths(self):
        # a mask below a cut gives the integral over the box cut short there
        reads, grids = covering_case(np.random.default_rng(8))
        box = (np.full(3, -0.5), np.full(3, 0.5))
        cuts = [np.array([0.1]), np.array([]), np.array([])]

        def below(a, mids):
            return np.stack([np.ones(mids.size), (mids < 0.1) | (a > 0)])

        whole, part = grid_product_integral(reads, as_tuples(grids), [0.5] * 3, box, cuts, below)
        assert whole == grid_product_integral(reads, as_tuples(grids), [0.5] * 3, box, cuts)
        short = brute_integral(reads, grids, [0.5] * 3, (box[0], np.array([0.1, 0.5, 0.5])))
        assert part == pytest.approx(short, rel=1e-12, abs=0) and 0 < part < whole

    def test_empty_box_gives_zero(self):
        # an inverted box and a flat one; disjoint lattices give an inverted box
        reads, grids = covering_case(np.random.default_rng(9))
        for hi in (np.array([0.5, -0.6, 0.5]), np.array([0.5, -0.5, 0.5])):
            got = grid_product_integral(reads, as_tuples(grids), [0.5] * 3, (np.full(3, -0.5), hi))
            assert got.shape == () and got == 0.0
        apart = as_tuples(grids)
        apart[0] = (apart[0][0], apart[0][1] + 40.0, apart[0][2])
        lo, hi = lattice_box(reads, apart, 3)
        assert np.any(lo > hi)
        assert grid_product_integral(reads, apart, [0.5] * 3, (lo, hi)) == 0.0

    def test_unread_axis_is_unbounded(self):
        with pytest.raises(UnboundedDomainError):
            lattice_box([[(0, 1.0, 0.0)]], [(np.ones(2), np.zeros(1), 1.0)], 2)

    def test_batch_rows_are_their_single_calls(self):
        rng = np.random.default_rng(10)
        reads, grids = covering_case(rng)
        box = (np.full(3, -0.5), np.full(3, 0.5))
        batched = [(np.stack([g.values * rng.uniform(0.5, 2.0, g.values.shape) for _ in range(5)]),
                    g.origin, g.spacing) for g in grids]
        got = grid_product_integral(reads, batched, [0.5] * 3, box)
        assert got.shape == (5,)
        for i in range(5):
            single = [(v[i], o, h) for v, o, h in batched]
            assert got[i] == grid_product_integral(reads, single, [0.5] * 3, box)


class TestDiscreteFinner:
    def test_constant_inputs_equality(self):
        lhs, rhs = discrete_finner([np.ones((2, 2))] * 3, lw_scheme())
        assert lhs == pytest.approx(8.0, abs=1e-14)
        assert rhs == pytest.approx(8.0, abs=1e-14)

    def test_point_mass(self):
        arrays = []
        for _ in range(3):
            a = np.zeros((3, 3))
            a[0, 0] = 1.0
            arrays.append(a)
        lhs, rhs = discrete_finner(arrays, lw_scheme())
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_random_trials_never_violate(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            arrays = [rng.uniform(0, 1, (4, 4)) for _ in range(3)]
            lhs, rhs = discrete_finner(arrays, lw_scheme())
            assert lhs <= rhs * (1 + 1e-12)

    def test_perturbed_constants_strict(self):
        arrays = [np.ones((2, 2)) for _ in range(3)]
        arrays[0][0, 0] = 1.5
        lhs, rhs = discrete_finner(arrays, lw_scheme())
        assert lhs < rhs * (1 - 1e-6)

    def test_negative_entry_rejected(self):
        bad = [np.ones((2, 2)), np.array([[1.0, -1.0], [1.0, 1.0]]), np.ones((2, 2))]
        with pytest.raises(ValueError):
            discrete_finner(bad, lw_scheme())

    def test_single_block_rejected(self):
        with pytest.raises(ValueError):
            discrete_finner([np.ones(())], ProjectionScheme(3, [3]))

    def test_mixed_kernel_dimensions(self):
        # one array per block on a [1, 2] split of three axes
        scheme = ProjectionScheme(3, [1, 2])
        rng = np.random.default_rng(3)
        f1 = rng.uniform(0, 1, (3, 3))  # axes {1, 2}
        f2 = rng.uniform(0, 1, 3)  # axis {0}
        lhs, rhs = discrete_finner([f1, f2], scheme)
        # m = 2: exponent 1, direct product structure gives equality
        assert lhs == pytest.approx(f2.sum() * f1.sum(), rel=1e-12)
        assert lhs <= rhs * (1 + 1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.uniform(0, 2, (3, 3)) for _ in range(3)]
        lhs, rhs = discrete_finner(arrays, lw_scheme())
        assert lhs <= rhs * (1 + 1e-12)


def expand_dims_product_sum(blocks, exponents, d):
    """Reference for lattice_product_sum: forms the whole d-dimensional field."""
    axis_lo = np.full(d, -(2**62), dtype=np.int64)
    axis_hi = np.full(d, 2**62, dtype=np.int64)
    for values, axes, off in blocks:
        for pos, k in enumerate(axes):
            axis_lo[k] = max(axis_lo[k], off[pos])
            axis_hi[k] = min(axis_hi[k], off[pos] + values.shape[pos])
    if np.any(axis_hi <= axis_lo):
        return 0.0
    field = np.ones(tuple(int(axis_hi[a] - axis_lo[a]) for a in range(d)))
    for (values, axes, off), p in zip(blocks, exponents):
        slices = tuple(
            slice(int(axis_lo[k] - off[pos]), int(axis_hi[k] - off[pos]))
            for pos, k in enumerate(axes)
        )
        other_axes = tuple(a for a in range(d) if a not in axes)
        field = field * np.expand_dims(np.power(values[slices], p), axis=other_axes)
    return float(field.sum())


class TestLatticeProductSum:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_expand_dims_field(self, data):
        sizes = data.draw(st.sampled_from([[1, 1, 1], [1, 2], [2, 1, 1]]))
        scheme = ProjectionScheme(sum(sizes), sizes)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        blocks, exponents = [], []
        for j in range(scheme.m):
            axes = scheme.complement(j)
            shape = data.draw(st.lists(st.integers(1, 4), min_size=len(axes), max_size=len(axes)))
            values = rng.uniform(0.0, 2.0, shape) * (rng.uniform(size=shape) > 0.2)
            offset = np.array(
                data.draw(st.lists(st.integers(-3, 3), min_size=len(axes), max_size=len(axes))),
                dtype=np.int64,
            )
            blocks.append((values, axes, offset))
            exponents.append(data.draw(st.floats(0.0, 1.0)))
        got = lattice_product_sum(blocks, exponents, scheme.d)
        want = expand_dims_product_sum(blocks, exponents, scheme.d)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_disjoint_boxes_sum_to_zero(self):
        scheme = lw_scheme()
        blocks = [
            (np.ones((2, 2)), scheme.complement(0), np.array([0, 0])),
            (np.ones((2, 2)), scheme.complement(1), np.array([0, 0])),
            (np.ones((2, 2)), scheme.complement(2), np.array([0, 5])),
        ]
        assert lattice_product_sum(blocks, [0.5] * 3, 3) == 0.0

    def test_uncovered_axis_rejected(self):
        with pytest.raises(ValueError):
            lattice_product_sum([(np.ones(2), [0], np.zeros(1, dtype=np.int64))], [1.0], 2)


def loop_localised_product(fj, fpj, c):
    """Reference for _localised_products: one centre and one cell at a time."""
    h = fj.spacing
    shift = (c - fj.origin - fpj.origin) / h
    if np.any(np.abs(np.round(shift) - shift) > 1e-9):
        return None
    K = np.round(shift).astype(np.int64)
    vals = np.zeros_like(fpj.values)
    for idx in np.ndindex(fpj.values.shape):
        src = tuple(int(K[a]) - 1 - idx[a] for a in range(len(idx)))
        if all(0 <= s < fj.values.shape[a] for a, s in enumerate(src)):
            vals[idx] = fj.values[src] * fpj.values[idx]
    if vals.sum() == 0.0:
        return None
    return GridFunction(fpj.origin.copy(), h, vals)


class TestLocalisedProduct:
    def test_matches_cell_loop_for_every_integer_shift(self):
        # shifts run from no overlap through partial to full overlap and out again
        rng = np.random.default_rng(8)
        fj = GridFunction(np.array([1.0, -1.0]), 0.5, rng.uniform(0.1, 1.0, (3, 4)))
        fpj = GridFunction(np.array([-0.5, 0.0]), 0.5, rng.uniform(0.1, 1.0, (4, 2)))
        shifts = np.array([[K0, K1] for K0 in range(-2, 10) for K1 in range(-2, 9)], dtype=float)
        centres = fj.origin + fpj.origin + 0.5 * shifts
        got, off_lattice = _localised_products(fj, fpj, centres)
        assert got.shape == (len(centres), 4, 2) and not off_lattice.any()
        seen_none = 0
        for c, values in zip(centres, got):
            want = loop_localised_product(fj, fpj, c)
            if want is None:
                seen_none += 1
                assert not values.any()
                continue
            np.testing.assert_array_equal(values, want.values)
        assert seen_none > 0

    def test_zero_cells_in_overlap_give_none(self):
        fj = GridFunction(np.zeros(1), 1.0, np.array([0.0, 0.0, 1.0]))
        fpj = GridFunction(np.zeros(1), 1.0, np.array([1.0, 1.0, 0.0]))
        # K = 1 pairs only f[0] with f'[0]; f[0] is 0
        assert loop_localised_product(fj, fpj, np.array([1.0])) is None
        got, off_lattice = _localised_products(fj, fpj, np.array([[1.0]]))
        assert not got.any() and not off_lattice.any()

    def test_off_lattice_shift_gives_none(self):
        fj = GridFunction(np.zeros(2), 1.0, np.ones((2, 2)))
        centres = np.array([[1.5, 2.0], [1.0, 2.0], [np.nan, 1.0]])
        got, off_lattice = _localised_products(fj, fj, centres)
        np.testing.assert_array_equal(off_lattice, [True, False, True])
        assert not got[off_lattice].any() and got[1].any()


def lattice_ratio(datum, grids):
    """R for unit coordinate projections and grids on one lattice through
    the aligned lattice sum, scaled by the cell volume."""
    h = grids[0].spacing
    blocks = [(g.values, [int(np.argmax(row)) for row in B], np.round(g.origin / h).astype(np.int64))
              for B, g in zip(datum.maps, grids)]
    numerator = lattice_product_sum(blocks, datum.p, datum.d) * h**datum.d
    return numerator / np.prod([np.power(g.integral(), pj) for g, pj in zip(grids, datum.p)])


def brute_integral(reads, grids, exponents, box):
    """Reference for grid_product_integral on unbatched GridFunctions: each
    axis of the box is cut at every pulled-back lattice line of every
    row, and the integrand, by `evaluate` at the (N, d) midpoints of the
    whole product grid, is summed against the cell volumes."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    if np.any(hi <= lo):
        return 0.0
    cuts = [[lo[a], hi[a]] for a in range(lo.size)]
    for own, g in zip(reads, grids):
        for r, (a, slope, y0) in enumerate(own):
            for k in range(g.values.shape[r] + 1):
                u = (g.origin[r] + k * g.spacing - y0) / slope
                if lo[a] < u < hi[a]:
                    cuts[a].append(u)
    axes = [np.unique(c) for c in cuts]
    mids = grid_points([0.5 * (u[1:] + u[:-1]) for u in axes])
    volumes = np.prod(grid_points([np.diff(u) for u in axes]), axis=1)
    values = volumes.copy()
    for own, g, p in zip(reads, grids, exponents):
        y = np.stack([y0 + slope * mids[:, a] for a, slope, y0 in own], axis=1)
        values *= g.evaluate(y) ** p
    return float(values.sum())


def datum_reads(datum):
    return [[(int(a), float(B[r, a]), 0.0) for r, a in enumerate(np.argmax(B != 0.0, axis=1))]
            for B in datum.maps]


def brute_ratio(datum, grids):
    """R for scaled coordinate projections on any grids by brute_integral
    over the box every lattice pulls back to."""
    reads = datum_reads(datum)
    lo = np.full(datum.d, -np.inf)
    hi = np.full(datum.d, np.inf)
    for own, g in zip(reads, grids):
        for r, (a, slope, _) in enumerate(own):
            ends = sorted((g.origin[r] / slope, (g.origin[r] + g.values.shape[r] * g.spacing) / slope))
            lo[a], hi[a] = max(lo[a], ends[0]), min(hi[a], ends[1])
    numerator = brute_integral(reads, grids, datum.p, (lo, hi))
    return numerator / np.prod([g.integral() ** pj for g, pj in zip(grids, datum.p)])


def loop_sup(datum, f, fprime, x_grid, ratio):
    """lhs and the per-x sup sweep: one localisation per map and one
    ratio(datum, grids) per x, ties going to the first x.  Returns (lhs,
    sup_term, sup_argmax, excluded)."""
    sup_val, sup_arg, excluded = -np.inf, x_grid[0], 0
    for x in x_grid:
        g_inputs = []
        for B, fj, fpj in zip(datum.maps, f, fprime):
            g = loop_localised_product(fj, fpj, B @ x)
            if g is None or g.integral() <= 0.0:
                break
            g_inputs.append(g)
        if len(g_inputs) < datum.m:
            excluded += 1
            continue
        val = ratio(datum, g_inputs)
        if val > sup_val:
            sup_val, sup_arg = val, x
    if not np.isfinite(sup_val):
        raise ZeroMassError("every grid point produced a zero-mass localisation")
    return ratio(datum, f) * ratio(datum, fprime), sup_val, sup_arg, excluded


def loop_conv_ratio(datum, f, fprime, spec):
    """R(f * f') by `integrate` on the product integrand over the
    knot-snapped support box: the route before the separable midpoint sum."""
    conv = [convolve_grids(fj, fpj) for fj, fpj in zip(f, fprime)]
    h = conv[0].spacing
    region = _support_region(datum, conv)
    lo = np.floor(region[0] / h) * h
    hi = np.ceil(region[1] / h) * h
    cells = max(int(np.max(np.round((hi - lo) / h))), 1)
    rule = replace(spec, resolution=cells * max(1, int(np.ceil(spec.resolution / cells))),
                   error_estimate=False)
    value, _ = rule.integrate(_product_integrand(_map_factors(datum, conv)), lo, hi)
    return value / float(np.prod([c.integral() ** pj for c, pj in zip(conv, datum.p)]))


def lattice_x_grid(lo, hi, h):
    axes = [np.arange(a, b + h / 2, h) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def sweep_case(name, lw_datum):
    """(datum, f, fprime, x_grid) of one sup-sweep oracle case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "random":
        # every support holds the cell [h, 2h] on each of its axes, so lhs > 0
        h = 0.5
        f, fp = [
            [GridFunction(h * rng.integers(0, 2, 2), h, rng.uniform(0.5, 1.5, rng.integers(2, 5, 2)))
             for _ in range(3)]
            for _ in range(2)
        ]
        return lw_datum, f, fp, lattice_x_grid([-1.0] * 3, [4.0] * 3, h)
    if name == "excluded":
        # zero cells, and x far from the supports
        holes = [rng.uniform(size=(3, 3)) > 0.4 for _ in range(3)]
        f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (3, 3)) * hole) for hole in holes]
        fp = [GridFunction(np.ones(2), 1.0, rng.uniform(0.5, 1.5, (2, 3))) for _ in range(3)]
        return lw_datum, f, fp, lattice_x_grid([-3.0] * 3, [9.0] * 3, 1.0)[::3]
    if name == "off-lattice":
        # the x on the half lattice are excluded by the per-x route as well
        f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (2, 3))) for _ in range(3)]
        fp = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (3, 2))) for _ in range(3)]
        return lw_datum, f, fp, lattice_x_grid([0.0] * 3, [4.0] * 3, 0.5)
    if name == "single-cell":
        # single-cell f' localise to single cells: every kept x has ratio 1 up to rounding
        f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (3, 3))) for _ in range(3)]
        fp = [GridFunction(np.zeros(2), 1.0, np.ones((1, 1)))] * 3
        return lw_datum, f, fp, lattice_x_grid([-1.0] * 3, [4.0] * 3, 1.0)
    if name == "non-coordinate":
        # doubled maps: scaled projections off the unit lattice sum
        datum = BLDatum(3, [2 * B for B in loomis_whitney_maps()], np.full(3, 0.5))
        f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (2, 2))) for _ in range(3)]
        fp = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (2, 2))) for _ in range(3)]
        return datum, f, fp, lattice_x_grid([0.0] * 3, [2.0] * 3, 0.5)
    if name == "mixed-spacing":
        # map 1 on a finer lattice, each g_j^x at the spacing of f_j;
        # the x on the half lattice are off the lattices of maps 0 and 2
        h = [1.0, 0.5, 1.0]
        f = [GridFunction(np.zeros(2), hj, rng.uniform(0.5, 1.5, (3, 2))) for hj in h]
        fp = [GridFunction(np.full(2, hj), hj, rng.uniform(0.5, 1.5, (2, 3))) for hj in h]
        return lw_datum, f, fp, lattice_x_grid([0.0] * 3, [4.0] * 3, 0.5)
    raise KeyError(name)


class TestSupSweep:
    @pytest.mark.parametrize(
        "name",
        ["random", "excluded", "off-lattice", "single-cell", "non-coordinate", "mixed-spacing"],
    )
    def test_matches_per_x_loop(self, lw_datum, name):
        # unit projections on one lattice keep the bits of the lattice sum;
        # the other scaled projections are held to the brute-force integral
        datum, f, fp, x_grid = sweep_case(name, lw_datum)
        spec = QuadratureSpec("tensor-midpoint", resolution=8)
        report = ball_inequality_report(datum, f, fp, x_grid, spec)
        aligned = name not in ("non-coordinate", "mixed-spacing")
        ratio = lattice_ratio if aligned else brute_ratio
        lhs, sup_term, sup_argmax, excluded = loop_sup(datum, f, fp, x_grid, ratio)
        if aligned:
            assert report.sup_term == sup_term
            assert report.lhs == lhs > 0
        else:
            assert report.sup_term == pytest.approx(sup_term, rel=1e-12, abs=0)
            assert report.lhs == pytest.approx(lhs, rel=1e-12, abs=0) and lhs > 0
        np.testing.assert_array_equal(report.sup_argmax, sup_argmax)
        assert report.excluded_grid_points == excluded
        assert 0 < excluded < len(x_grid)
        slack = sup_term * loop_conv_ratio(datum, f, fp, spec) / lhs - 1.0
        assert report.slack == pytest.approx(slack, rel=1e-12, abs=0)

    def test_off_lattice_x_leaves_the_report(self, lw_datum):
        # an x the sweep excludes (off the lattice) changes no number
        rng = np.random.default_rng(3)
        f, fp = [[GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (3, 3))) for _ in range(3)]
                 for _ in range(2)]
        x_grid = lattice_x_grid([0.0] * 3, [5.0] * 3, 1.0)
        spec = QuadratureSpec(resolution=64)
        want = ball_inequality_report(lw_datum, f, fp, x_grid, spec)
        got = ball_inequality_report(lw_datum, f, fp, np.vstack([x_grid, [[0.5] * 3]]), spec)
        assert (got.lhs, got.sup_term) == (want.lhs, want.sup_term)
        np.testing.assert_array_equal(got.sup_argmax, want.sup_argmax)
        assert got.excluded_grid_points == want.excluded_grid_points + 1

    def test_ties_go_to_the_first_x(self, lw_datum):
        # unit values and single-cell f': every kept x has ratio exactly 1
        f = [GridFunction(np.zeros(2), 1.0, np.ones((2, 2)))] * 3
        fp = [GridFunction(np.zeros(2), 1.0, np.ones((1, 1)))] * 3
        x_grid = lattice_x_grid([-1.0] * 3, [3.0] * 3, 1.0)[::-1]
        report = ball_inequality_report(lw_datum, f, fp, x_grid, QuadratureSpec(resolution=8))
        kept = [x for x in x_grid if all(loop_localised_product(fj, fpj, B @ x) is not None
                                         for B, fj, fpj in zip(lw_datum.maps, f, fp))]
        assert len(kept) == 8 and report.sup_term == 1.0
        np.testing.assert_array_equal(report.sup_argmax, kept[0])

    def test_blocks_of_x_match_one_block(self, lw_datum, monkeypatch):
        from blt import geometry

        datum, f, fp, x_grid = sweep_case("random", lw_datum)
        x_grid = x_grid[::4]
        spec = QuadratureSpec(resolution=8)
        whole = ball_inequality_report(datum, f, fp, x_grid, spec)
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 7)
        blocked = ball_inequality_report(datum, f, fp, x_grid, spec)
        assert blocked.sup_term == whole.sup_term
        assert blocked.excluded_grid_points == whole.excluded_grid_points
        np.testing.assert_array_equal(blocked.sup_argmax, whole.sup_argmax)

    def test_every_point_excluded_raises(self, lw_datum):
        f = [GridFunction(np.zeros(2), 1.0, np.ones((2, 2)))] * 3
        far = lattice_x_grid([20.0] * 3, [22.0] * 3, 1.0)
        with pytest.raises(ZeroMassError, match="every grid point"):
            loop_sup(lw_datum, f, f, far, lattice_ratio)
        with pytest.raises(ZeroMassError, match="every grid point"):
            ball_inequality_report(lw_datum, f, f, far, QuadratureSpec(resolution=8))


class TestCanonicalExtremizer:
    def test_loomis_whitney_unit_squares(self, lw_datum):
        boxes, ratio = canonical_extremizer(lw_datum)
        assert ratio == pytest.approx(1.0, abs=1e-14)
        for box in boxes:
            assert np.allclose(np.abs(box.matrix), np.eye(2))

    def test_doubled_maps_frozen_ratio(self):
        datum = BLDatum(3, [2 * B for B in loomis_whitney_maps()], np.full(3, 0.5))
        _, ratio = canonical_extremizer(datum)
        assert ratio == pytest.approx(0.125, rel=1e-12, abs=0)

    def test_rotated_invariance(self):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        datum = BLDatum(3, [B @ Q for B in loomis_whitney_maps()], np.full(3, 0.5))
        _, ratio = canonical_extremizer(datum)
        assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_ratio_equals_constant_on_random_data(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            datum, _, _, _ = random_class_c_datum(rng, int(rng.integers(3, 6)))
            _, ratio = canonical_extremizer(datum)
            assert ratio == pytest.approx(bl_constant_classC(datum), rel=1e-10, abs=0)

    def test_bl_ratio_reproduces_constant_exactly(self, lw_datum):
        # the composite support is the unit cube, where the midpoint rule is exact
        boxes, _ = canonical_extremizer(lw_datum)
        spec = QuadratureSpec("tensor-midpoint", resolution=8)
        value, err = bl_ratio(lw_datum, boxes, None, spec)
        assert err == 0.0
        assert value == pytest.approx(bl_constant_classC(lw_datum), rel=1e-10)
        assert box_preimage_volume(lw_datum.maps, boxes) == pytest.approx(value, rel=1e-10)

    def test_bl_ratio_exact_path_random_datum(self):
        # the extremizer polytope measured by the Qhull oracle
        rng = np.random.default_rng(6)
        datum, _, _, _ = random_class_c_datum(rng, 3)
        boxes, _ = canonical_extremizer(datum)
        denom = np.prod([f.integral() ** pj for f, pj in zip(boxes, datum.p)])
        value = box_preimage_volume(datum.maps, boxes) / denom
        assert value == pytest.approx(bl_constant_classC(datum), rel=1e-9)


def loop_convolve(f, g):
    """Reference for convolve_grids' node values: one shifted copy of g
    per cell of f."""
    acc = np.zeros(tuple(a + b - 1 for a, b in zip(f.values.shape, g.values.shape)))
    for idx in np.ndindex(f.values.shape):
        window = tuple(slice(i, i + s) for i, s in zip(idx, g.values.shape))
        acc[window] += f.values[idx] * g.values
    return acc * f.spacing**f.dim


class TestConvolution:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_cell_loop(self, k):
        rng = np.random.default_rng(60 + k)
        for _ in range(30):
            h = float(rng.uniform(0.2, 1.5))
            f, g = (GridFunction(rng.uniform(-2, 2, k), h,
                                 rng.uniform(0, 2, rng.integers(1, 5, k)) * (rng.uniform(size=1) > 0.1))
                    for _ in range(2))
            conv = convolve_grids(f, g)
            want = loop_convolve(f, g)
            assert conv.node_values.shape == want.shape
            np.testing.assert_allclose(conv.node_values, want, rtol=1e-15, atol=0)
            np.testing.assert_array_equal(conv.origin, f.origin + g.origin + h)

    def test_exact_mass_identity(self):
        rng = np.random.default_rng(7)
        f = GridFunction(np.zeros(2), 0.5, rng.uniform(0, 1, (3, 4)))
        g = GridFunction(np.array([1.0, -0.5]), 0.5, rng.uniform(0, 1, (2, 2)))
        conv = convolve_grids(f, g)
        assert conv.integral() == pytest.approx(f.integral() * g.integral(), rel=1e-12, abs=0)

    def test_pointwise_against_direct_integral(self):
        rng = np.random.default_rng(8)
        f = GridFunction(np.zeros(1), 1.0, rng.uniform(0, 1, 3))
        g = GridFunction(np.zeros(1), 1.0, rng.uniform(0, 1, 2))
        conv = convolve_grids(f, g)
        ys = np.linspace(-0.5, 5.5, 41)[:, None]
        fine = np.linspace(0, 5, 20001)
        for y in ys:
            direct = np.trapezoid(
                f.evaluate((y - fine)[:, None]) * g.evaluate(fine[:, None]), fine
            )
            assert conv.evaluate(y[None, :])[0] == pytest.approx(direct, abs=2e-3)


class TestBallReport:
    def test_single_cell_frozen_closed_ratio(self, lw_datum):
        spec = QuadratureSpec("tensor-midpoint", resolution=32)
        f = [GridFunction(np.zeros(2), 1.0, np.ones((1, 1)))] * 3
        report = ball_inequality_report(lw_datum, f, f, x_grid_8(), spec)
        # both sides close at ratio 1: lhs = sup * conv exactly
        assert report.lhs == pytest.approx(1.0, abs=1e-10)
        assert report.sup_term == pytest.approx(1.0, abs=1e-10)
        assert report.conv_term == pytest.approx(1.0, rel=5e-3)
        assert report.slack >= -5e-2
        assert report.flag == "consistent"

    def test_extremizer_one_sided_form(self, lw_datum):
        spec = QuadratureSpec("tensor-midpoint", resolution=32)
        rng = np.random.default_rng(9)
        f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (4, 4))) for _ in range(3)]
        boxes, _ = canonical_extremizer(lw_datum)
        fprime = [GridFunction(np.zeros(2), 1.0, np.ones((1, 1)))] * 3
        report = ball_inequality_report(lw_datum, f, fprime, x_grid_8(), spec)
        assert report.details["ratio_f"] <= report.sup_term * (1 + 1e-9)

    def test_singleton_grid_sup(self, lw_datum):
        spec = QuadratureSpec("tensor-midpoint", resolution=32)
        f = [GridFunction(np.zeros(2), 1.0, np.ones((2, 2)))] * 3
        report = ball_inequality_report(lw_datum, f, f, np.array([[2.0, 2.0, 2.0]]), spec)
        assert report.excluded_grid_points == 0
        assert report.sup_term > 0

    def test_zero_mass_rejected(self, lw_datum):
        spec = QuadratureSpec("tensor-midpoint", resolution=16)
        zero = [GridFunction(np.zeros(2), 1.0, np.zeros((2, 2)))] * 3
        good = [GridFunction(np.zeros(2), 1.0, np.ones((2, 2)))] * 3
        with pytest.raises(ZeroMassError):
            ball_inequality_report(lw_datum, good, zero, x_grid_8(), spec)

    def test_degenerate_origin_grid_symmetric_inputs(self, lw_datum):
        # singleton sup at the origin for inputs centred there
        spec = QuadratureSpec("tensor-midpoint", resolution=32)
        rng = np.random.default_rng(11)
        vals = rng.uniform(0.5, 1.5, (4, 4))
        sym = 0.5 * (vals + vals[::-1, ::-1])
        f = [GridFunction(np.full(2, -2.0), 1.0, sym) for _ in range(3)]
        report = ball_inequality_report(lw_datum, f, f, np.zeros((1, 3)), spec)
        assert report.excluded_grid_points == 0
        assert np.allclose(report.sup_argmax, 0.0)
        assert report.sup_term > 0

    def test_random_trials_within_tolerance(self, lw_datum):
        spec = QuadratureSpec("tensor-midpoint", resolution=64)
        rng = np.random.default_rng(10)
        for _ in range(5):
            f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (4, 4))) for _ in range(3)]
            fp = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (4, 4))) for _ in range(3)]
            report = ball_inequality_report(lw_datum, f, fp, x_grid_8(), spec)
            assert report.slack >= -5e-2
            assert report.flag == "consistent"


def test_lattice_exact_path_matches_generic_quadrature(lw_datum):
    # the exact grid integral must agree with the midpoint rule when the
    # rule's cells tile the lattice cells exactly
    rng = np.random.default_rng(23)
    grids = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.2, 1.0, (4, 4))) for _ in range(3)]
    box = (np.zeros(3), np.full(3, 4.0))
    numerator = grid_product_integral(
        datum_reads(lw_datum), [(g.values, g.origin, g.spacing) for g in grids], lw_datum.p, box
    )
    exact = float(numerator) / np.prod([g.integral() ** 0.5 for g in grids])
    spec = QuadratureSpec("tensor-midpoint", resolution=64, error_estimate=False)
    generic, _ = bl_ratio(lw_datum, grids, box, spec)
    assert exact == pytest.approx(generic, rel=1e-12, abs=0)
