"""Quadrature layer: masses, ratios, discrete inequality, convolution report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blt.datum import BLDatum, ProjectionScheme, bl_constant_classC
from blt.inputs import (
    BoxIndicator,
    GaussianFunction,
    GridFunction,
    ZeroMassError,
    convolve_grids,
    integrate,
)
from blt.quadrature import (
    QuadratureSpec,
    UnboundedDomainError,
    ball_inequality_report,
    bl_ratio,
    canonical_extremizer,
    _localised_product,
    discrete_finner,
    lattice_product_sum,
)
from tests.conftest import loomis_whitney_maps, random_class_c_datum


def lw_scheme():
    return ProjectionScheme(3, [1, 1, 1])


def x_grid_8():
    mesh = np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


class TestIntegrate:
    def test_grid_unit_mass(self):
        g = GridFunction(np.zeros(2), 0.5, np.ones((2, 2)))
        assert integrate(g) == pytest.approx(1.0)

    def test_gaussian_normalised(self):
        assert integrate(GaussianFunction(np.eye(2))) == pytest.approx(1.0)

    def test_box_determinant(self):
        assert integrate(BoxIndicator(2 * np.eye(2))) == pytest.approx(4.0)

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(1), 1.0, np.array([1.0, -0.5]))


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

    def test_unbounded_without_region_rejected(self, lw_datum):
        spec = QuadratureSpec("tensor-midpoint", resolution=8)
        with pytest.raises(UnboundedDomainError):
            bl_ratio(lw_datum, [GaussianFunction(np.eye(2))] * 3, None, spec)

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
    """Reference for _localised_product: one cell at a time."""
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
        seen_none = 0
        for K0 in range(-2, 10):
            for K1 in range(-2, 9):
                c = fj.origin + fpj.origin + 0.5 * np.array([K0, K1])
                got = _localised_product(fj, fpj, c)
                want = loop_localised_product(fj, fpj, c)
                if want is None:
                    seen_none += 1
                    assert got is None
                    continue
                np.testing.assert_array_equal(got.values, want.values)
                np.testing.assert_array_equal(got.origin, want.origin)
                assert got.spacing == want.spacing
        assert seen_none > 0

    def test_zero_cells_in_overlap_give_none(self):
        fj = GridFunction(np.zeros(1), 1.0, np.array([0.0, 0.0, 1.0]))
        fpj = GridFunction(np.zeros(1), 1.0, np.array([1.0, 1.0, 0.0]))
        # K = 1 pairs only f[0] with f'[0]; f[0] is 0
        assert loop_localised_product(fj, fpj, np.array([1.0])) is None
        assert _localised_product(fj, fpj, np.array([1.0])) is None

    def test_off_lattice_shift_gives_none(self):
        fj = GridFunction(np.zeros(2), 1.0, np.ones((2, 2)))
        assert _localised_product(fj, fj, np.array([1.5, 2.0])) is None


class TestCanonicalExtremizer:
    def test_loomis_whitney_unit_squares(self, lw_datum):
        boxes, ratio = canonical_extremizer(lw_datum)
        assert ratio == pytest.approx(1.0, abs=1e-14)
        for box in boxes:
            assert np.allclose(np.abs(box.matrix), np.eye(2))

    def test_doubled_maps_frozen_ratio(self):
        datum = BLDatum(3, [2 * B for B in loomis_whitney_maps()], np.full(3, 0.5))
        _, ratio = canonical_extremizer(datum)
        assert ratio == pytest.approx(0.125, rel=1e-12)

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
            assert ratio == pytest.approx(bl_constant_classC(datum), rel=1e-10)

    def test_bl_ratio_reproduces_constant_exactly(self, lw_datum):
        # exact indicator path, no sampling
        boxes, _ = canonical_extremizer(lw_datum)
        spec = QuadratureSpec("tensor-midpoint", resolution=8)
        value, err = bl_ratio(lw_datum, boxes, None, spec)
        assert err == 0.0
        assert value == pytest.approx(bl_constant_classC(lw_datum), rel=1e-10)

    def test_bl_ratio_exact_path_random_datum(self):
        rng = np.random.default_rng(6)
        datum, _, _, _ = random_class_c_datum(rng, 3)
        boxes, _ = canonical_extremizer(datum)
        spec = QuadratureSpec("tensor-midpoint", resolution=8)
        value, err = bl_ratio(datum, boxes, None, spec)
        assert value == pytest.approx(bl_constant_classC(datum), rel=1e-9)


class TestConvolution:
    def test_exact_mass_identity(self):
        rng = np.random.default_rng(7)
        f = GridFunction(np.zeros(2), 0.5, rng.uniform(0, 1, (3, 4)))
        g = GridFunction(np.array([1.0, -0.5]), 0.5, rng.uniform(0, 1, (2, 2)))
        conv = convolve_grids(f, g)
        assert integrate(conv) == pytest.approx(integrate(f) * integrate(g), rel=1e-12)

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
    # the aligned-lattice shortcut must agree with the midpoint rule when
    # the rule's cells tile the lattice cells exactly
    from blt.quadrature import _lattice_bl_exact

    rng = np.random.default_rng(23)
    grids = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.2, 1.0, (4, 4))) for _ in range(3)]
    fast = _lattice_bl_exact(lw_datum, grids)
    spec = QuadratureSpec("tensor-midpoint", resolution=64, error_estimate=False)
    generic, _ = bl_ratio(lw_datum, grids, (np.zeros(3), np.full(3, 4.0)), spec)
    assert fast == pytest.approx(generic, rel=1e-12)
