"""Scale decomposition: derived constants, pigeonholing, cells, disjointness."""

import math

import numpy as np
import pytest

from blt import scales
from blt.datum import ProjectionScheme
from blt.geometry import grid_polygon_mass, grid_slab_mass
from blt.inputs import GridFunction
from blt.nonlinear import RegularityError, perturbed_projection
from blt.quadrature import midpoint_axes
from blt.scales import (
    Cube,
    FrameError,
    ScaleError,
    build_frame,
    clip_grid_outside_box,
    compute_delta0,
    decompose,
    image_window,
    phi_factorization,
    pigeonhole_sequences,
    sigma_map,
    verify_disjointness,
    verify_induction_step,
    verify_nonlinear_bl,
)
from tests.conftest import (
    flagship_scale_setup,
    l1m_grid_for_map,
    linear_family,
    loomis_whitney_maps,
    perturbed_lw_maps,
)


def linear_lw_families():
    return [linear_family(B) for B in loomis_whitney_maps()]


def gentle_params(M=None):
    # small kappa raises delta0 so unit tests run on few cells
    return compute_delta0(1.0, 1e-4, 1.25, 1.5, 3, 3, M)


def uniform_inputs_for(maps, cube, value=1.0, cells=12):
    out = []
    for fam in maps:
        J = fam.jacobian(cube.center)
        c_img = fam.value(cube.center)[0]
        halfw = np.abs(J).sum(axis=1) * cube.side / 2 * 1.5
        spacing = 2 * float(halfw.max()) / cells
        origin = np.floor((c_img - halfw) / spacing) * spacing
        shape = tuple(int(np.ceil(2 * halfw[a] / spacing)) + 1 for a in range(2))
        out.append(GridFunction(origin, spacing, np.full(shape, value)))
    return out



class TestRegularityAudit:
    def test_quotient_above_kappa_is_refused(self):
        # the Jacobian of x0 + 5 x0^2 moves by 10 |x - y| in its first entry
        fam = perturbed_projection(np.eye(2), [{(2, 0): 5.0}], 1.0, 1.0)
        with pytest.raises(RegularityError, match="Hoelder quotient"):
            fam.validate(np.zeros(2), 0.1, np.random.default_rng(0))
        bounded = perturbed_projection(np.eye(2), [{(2, 0): 5.0}], 1.0, 10.0)
        bounded.validate(np.zeros(2), 0.1, np.random.default_rng(0))

    def test_rank_deficient_jacobian_is_refused(self):
        fam = linear_family(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(RegularityError, match="rank deficiency"):
            fam.validate(np.zeros(2), 0.1, np.random.default_rng(0))

class TestComputeDelta0:
    def test_frozen_flagship_values(self):
        params = compute_delta0(1.0, 1.0, 1.25, 1.5, 3, 3)
        assert params.c_d == pytest.approx(1e-3, rel=1e-12, abs=0)
        assert params.delta0 == pytest.approx(1e-6, rel=1e-12, abs=0)

    def test_kappa_to_zero_second_term_binds(self):
        params = compute_delta0(1.0, 1e-12, 1.25, 1.5, 3, 3)
        assert params.delta0 == pytest.approx(0.25**4, rel=1e-9)

    def test_alpha1_to_limit_shrinks(self):
        deltas = [
            compute_delta0(1.0, 1.0, 1.25, a1, 3, 3).delta0 for a1 in (1.5, 1.8, 1.95, 1.99)
        ]
        assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))

    def test_ordering_violations_rejected(self):
        with pytest.raises(ScaleError):
            compute_delta0(1.0, 1.0, 1.5, 1.25, 3, 3)
        with pytest.raises(ScaleError):
            compute_delta0(0.4, 1.0, 1.25, 1.5, 3, 3)

    @pytest.mark.parametrize("args", [
        (math.inf, 1.0, 1.25, 1.5), (1.0, math.inf, 1.25, 1.5), (1.0, math.nan, 1.25, 1.5),
        (1.0, 1.0, math.nan, 1.5),
    ])
    def test_non_finite_parameters_rejected(self, args):
        with pytest.raises(ScaleError):
            compute_delta0(*args, 3, 3)

    def test_constraints_hold_at_delta0(self):
        for kappa in (1.0, 0.3, 5.0):
            p = compute_delta0(1.0, kappa, 1.25, 1.5, 3, 3)
            assert kappa * p.delta0**p.beta <= 100.0 ** (-3) * (1 + 1e-12)
            assert 24 * 3 * kappa * p.delta0 ** (1 + p.beta - p.alpha1) < 1
            assert 4 * 3 * kappa * p.delta0 ** (1 + p.beta) <= p.delta0**p.alpha1 / 3 * (1 + 1e-12)


class TestSigmaMap:
    def test_loomis_whitney(self):
        assert sigma_map(ProjectionScheme(3, [1, 1, 1])).tolist() == [1, 2, 0]

    def test_two_block(self):
        assert sigma_map(ProjectionScheme(3, [1, 2])).tolist() == [1, 0, 0]

    def test_block_permutation_fixed_point_free(self):
        for sizes in ([1, 1, 1], [2, 1, 1], [1, 2, 3]):
            scheme = ProjectionScheme(sum(sizes), sizes)
            sigma = sigma_map(scheme)
            for j, block in enumerate(scheme.blocks):
                assert all(sigma[i] != j for i in block)


class TestPigeonhole:
    def test_constant_density_first_interval_and_factor(self):
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        scheme = ProjectionScheme(3, [1, 1, 1])
        frame = build_frame(maps, cube.center, scheme)
        sigma = sigma_map(scheme)
        inputs = uniform_inputs_for(maps, cube)
        delta = cube.side
        seq = pigeonhole_sequences(inputs[1], cube, 0, frame, sigma, params, maps[1])
        assert seq.certificates_hold()
        gaps = np.diff(seq.s)
        a0w = delta**params.alpha0
        assert np.all(gaps >= 0.5 * a0w * (1 - 1e-9))
        assert np.all(gaps <= a0w * (1 + 1e-9))
        # uniform interior mass: ties resolved to the first candidate
        assert np.mean(np.isclose(gaps, 0.5 * a0w, rtol=1e-9)) >= 0.6
        # mass factor about 2 delta^(a1-a0) for uniform density
        for step in seq.steps:
            if step.window_mass > 0:
                factor = step.selected_mass / step.window_mass
                assert factor <= 2.05 * delta ** (params.alpha1 - params.alpha0)

    def test_zero_mass_trivially_certified(self):
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        scheme = ProjectionScheme(3, [1, 1, 1])
        frame = build_frame(maps, cube.center, scheme)
        sigma = sigma_map(scheme)
        far = GridFunction(np.array([10.0, 10.0]), 0.01, np.ones((4, 4)))
        seq = pigeonhole_sequences(far, cube, 0, frame, sigma, params, maps[1])
        assert seq.certificates_hold()
        assert all(step.selected_mass == 0.0 for step in seq.steps)

    def test_point_mass_avoided(self):
        # a narrow spike strictly inside one candidate interval is never selected
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        scheme = ProjectionScheme(3, [1, 1, 1])
        frame = build_frame(maps, cube.center, scheme)
        sigma = sigma_map(scheme)
        delta = cube.side
        d_a0 = delta**params.alpha0
        d_a1 = delta**params.alpha1
        # dry run on the uniform input fixes the step positions; the grid
        # must resolve the candidate width so the spike stays in one candidate
        base = uniform_inputs_for(maps, cube, cells=200)[1]
        dry = pigeonhole_sequences(base, cube, 0, frame, sigma, params, maps[1])
        func = dry.functional
        # place the spike mid-way into the first candidate of an interior step
        spike_s = dry.s[3] + 0.5 * d_a0 + 0.5 * d_a1
        vals = base.values.copy()
        centers = base.cell_centers()
        s_vals = (centers @ func.w - func.offset) / func.c
        target = np.argmin(np.abs(s_vals - spike_s))
        cell = np.unravel_index(target, vals.shape)
        spike_s = float(s_vals[target])
        vals[cell] *= 1e7
        spiky = GridFunction(base.origin, base.spacing, vals)
        seq = pigeonhole_sequences(spiky, cube, 0, frame, sigma, params, maps[1])
        assert seq.certificates_hold()
        margin = np.sqrt(2.0) * base.spacing / func.c
        for n in range(1, len(seq.s)):
            lo, hi = seq.s[n] - margin, seq.s[n] + d_a1 + margin
            assert not (lo <= spike_s <= hi)

    def test_batched_candidates_match_single_slab_calls(self):
        # each step measures its N candidates and its window in one call;
        # one call per slab gives the same bits, and the selected candidate
        # is the lowest index of least mass (many exact ties in the zero
        # half of the second input)
        linear, gentle = linear_lw_families(), gentle_params()
        small = Cube(np.zeros(3), gentle.delta0)
        half = uniform_inputs_for(linear, small)[1]
        half.values[: half.values.shape[0] // 2] = 0.0
        cases = [flagship_scale_setup(seed=2), (linear, gentle, small, [half] * 3)]
        ties = 0
        for fams, prm, cb, ins in cases:
            d_a0, d_a1 = cb.side**prm.alpha0, cb.side**prm.alpha1
            for seq in decompose(fams, cb, ins, prm).sequences:
                fW = image_window(fams[seq.map_index], cb, ins[seq.map_index])
                func = seq.functional

                def single(lo, hi):
                    im_lo, im_hi = func.image_interval(lo, hi)
                    return grid_slab_mass(fW.values, fW.origin, fW.spacing, func.w, im_lo, im_hi)

                for step in seq.steps:
                    zeta0 = step.s_current + 0.5 * d_a0
                    cand = step.candidate_masses
                    expected = [single(zeta0 + r * d_a1, zeta0 + (r + 1) * d_a1)
                                for r in range(len(cand))]
                    assert np.array_equal(cand, expected)
                    assert step.window_mass == single(zeta0, step.s_current + d_a0)
                    least = np.flatnonzero(cand == cand.min())
                    ties += len(least) > 1
                    assert step.s_next == zeta0 + int(least[0]) * d_a1
        assert ties > 0

    def test_too_large_delta_rejected(self):
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0 * 4)
        scheme = ProjectionScheme(3, [1, 1, 1])
        frame = build_frame(maps, cube.center, scheme)
        sigma = sigma_map(scheme)
        inputs = uniform_inputs_for(maps, cube)
        with pytest.raises(ScaleError):
            pigeonhole_sequences(inputs[1], cube, 0, frame, sigma, params, maps[1])


def argsort_search(deco, points):
    """`Decomposition._search` by the route it replaced: each axis is
    searched in sorted order and the positions are scattered back."""
    T = deco.frame.t_values(np.atleast_2d(points) - deco.cube.center)
    pos = np.empty((len(deco.edges), len(T)), dtype=np.intp)
    for i, e in enumerate(deco.edges):
        order = np.argsort(T[:, i])
        pos[i, order] = np.searchsorted(e, T[order, i], side="left")
    return T, pos


class TestDecomposition:
    def build(self, maps=None, params=None, input_value=1.0):
        maps = maps or linear_lw_families()
        params = params or gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        inputs = uniform_inputs_for(maps, cube, input_value)
        return decompose(maps, cube, inputs, params), inputs

    def test_linear_cells_are_axis_boxes(self):
        deco, _ = self.build()
        assert np.allclose(deco.frame.a, np.eye(3))
        assert np.allclose(np.abs(deco.frame.v), np.eye(3))
        delta = deco.cube.side
        for i in range(3):
            lo0, hi0 = deco.interval_bounds(i, 1, 0)
            assert hi0 - lo0 == pytest.approx(
                0.5 * delta**deco.params.alpha0 - delta**deco.params.alpha1 / 3.0, rel=1e-9, abs=0
            )
            lo1, hi1 = deco.interval_bounds(i, 1, 1)
            assert hi1 - lo1 == pytest.approx(delta**deco.params.alpha1 / 3.0, rel=1e-12, abs=0)

    def test_widths_within_stated_ranges(self):
        deco, _ = self.build()
        delta = deco.cube.side
        a0w = delta**deco.params.alpha0
        a1w = delta**deco.params.alpha1
        for i in range(3):
            for n in range(deco.main_count(i)):
                lo, hi = deco.interval_bounds(i, n, 0)
                assert 0.5 * a0w - a1w < hi - lo < a0w + a1w

    def test_center_in_exactly_one_cell(self):
        deco, _ = self.build()
        n, chi, valid, _ = deco.locate_points(np.zeros((1, 3)))
        assert valid[0]

    def test_coverage_sampled(self):
        deco, _ = self.build()
        rng = np.random.default_rng(2)
        pts = deco.cube.sample(rng, 10000)
        n, chi, valid, dist = deco.locate_points(pts)
        near = dist < 1e-12
        if near.any():
            pts = pts[~near]
            n, chi, valid, dist = deco.locate_points(pts)
        assert valid.all()

    def test_main_cells_match_located_cells(self):
        # the integrand's main-cell mask is valid & all(chi == 0), read from
        # the same search; points beyond the cube, on interval edges and
        # outside the covered parameter range included
        maps, params, cube, inputs = flagship_scale_setup(seed=2)
        deco = decompose(maps, cube, inputs, params)
        rng = np.random.default_rng(3)
        half = 0.6 * cube.side
        G = deco.frame.t_matrix()
        on_edges = np.stack([rng.choice(e, 500) for e in deco.edges], axis=1)
        pts = np.concatenate([
            cube.center + rng.uniform(-half, half, (4000, 3)),
            on_edges @ np.linalg.inv(G).T + cube.center,
        ])
        _, chi, valid, _ = deco.locate_points(pts)
        main = valid & np.all(chi == 0, axis=1)
        assert 0 < main.sum() < valid.sum() < len(pts)
        assert np.array_equal(deco.main_cells(pts), main)
        # with the edges cut short, cube points fall below and above them
        deco.edges = [e[2:-2] for e in deco.edges]
        _, chi, valid, _ = deco.locate_points(pts)
        assert not np.array_equal(valid, cube.contains(pts))
        assert np.array_equal(deco.main_cells(pts), valid & np.all(chi == 0, axis=1))

    def test_search_matches_the_sorted_route(self):
        maps, params, cube, inputs = flagship_scale_setup(seed=2)
        deco = decompose(maps, cube, inputs, params)
        half = cube.side / 2.0
        axes, _ = midpoint_axes(cube.center - half, cube.center + half, 16)
        grid_ordered = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        rng = np.random.default_rng(4)
        scattered = cube.center + rng.uniform(-0.6 * cube.side, 0.6 * cube.side, (5000, 3))
        for points in (grid_ordered, scattered):
            T, pos = deco._search(points)
            want_T, want_pos = argsort_search(deco, points)
            assert np.array_equal(T, want_T) and np.array_equal(pos, want_pos)

    def test_full_buffer_cell_volume_bound(self):
        deco, _ = self.build()
        delta = deco.cube.side
        widths = [hi - lo for lo, hi in (deco.interval_bounds(i, 1, 1) for i in range(3))]
        vol = math.prod(widths) / abs(np.linalg.det(deco.frame.t_matrix()))
        assert vol <= (delta**deco.params.alpha1) ** 3 * (1 + 10.0 ** (-3)) ** 3

    def test_cell_diameter_within_double_scale(self):
        deco, _ = self.build()
        delta = deco.cube.side
        for i in range(3):
            lo, hi = deco.interval_bounds(i, 0, 0)
            assert hi - lo <= 2 * delta**deco.params.alpha0


class TestPhiFactorization:
    def test_linear_projection_is_identity(self):
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        fam = linear_lw_families()[0]
        phi = phi_factorization(fam, cube, [0])
        pts = cube.sample(np.random.default_rng(3), 200) - cube.center
        assert np.allclose(phi.evaluate_local(pts), pts, atol=1e-15)
        assert phi.checks["max_drift"] == pytest.approx(0.0, abs=1e-18)

    def test_linear_non_projection_affine(self):
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        P = loomis_whitney_maps()[0] + 2e-7 * np.array([[0.3, 0.1, -0.2], [0.0, 0.2, 0.1]])
        fam = linear_family(P)
        phi = phi_factorization(fam, cube, [0])
        assert phi.checks["identity_derivative_residual"] <= 1e-8
        assert phi.checks["factorisation_residual"] <= 1e-18

    def test_quadratic_drift_bound_sampled(self):
        maps, params, cube, _ = flagship_scale_setup()
        for j, fam in enumerate(maps):
            phi = phi_factorization(fam, cube, [j], sample_count=10000, seed=4)
            assert phi.checks["drift_ok"]
            assert phi.checks["max_drift"] <= phi.checks["drift_bound"]

    def test_far_from_projection_rejected(self):
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        bad = linear_family(loomis_whitney_maps()[0] + 0.5)
        with pytest.raises(FrameError):
            phi_factorization(bad, cube, [0])


class TestDisjointness:
    def test_linear_margin_is_full_gap(self):
        params = gentle_params()
        maps = linear_lw_families()
        cube = Cube(np.zeros(3), params.delta0)
        inputs = uniform_inputs_for(maps, cube)
        deco = decompose(maps, cube, inputs, params)
        report = verify_disjointness(maps[0], deco, 0, np.zeros(3, dtype=int), 3000, seed=5)
        assert report.violations == 0
        assert report.allowance_term == 0.0
        assert report.min_margin >= report.separation_term * (1 - 1e-9)

    def test_perturbed_buffer_pattern(self):
        maps, params, cube, inputs = flagship_scale_setup()
        deco = decompose(maps, cube, inputs, params)
        report = verify_disjointness(maps[1], deco, 1, np.array([0, 1, 0]), 3000, seed=6)
        assert report.violations == 0
        assert report.min_margin > 0

    def test_inflated_kappa_reports_negative_margin(self):
        # constraint (b) deliberately broken: the report flags, not raises
        maps, params, cube, inputs = flagship_scale_setup()
        deco = decompose(maps, cube, inputs, params)
        from blt.nonlinear import NonlinearMapFamily

        inflated = NonlinearMapFamily(3, maps[0].components, maps[0].beta, maps[0].kappa * 1e6)
        report = verify_disjointness(inflated, deco, 0, np.zeros(3, dtype=int), 2000, seed=7)
        assert report.min_margin < 0
        assert report.violations > 0


class TestInductionStep:
    def test_linear_constant_inputs_main_term(self):
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        inputs = uniform_inputs_for(maps, cube, value=2.0)
        params.M = 1.0 / max(f.spacing for f in inputs)
        report = verify_induction_step(maps, cube, inputs, params, 32, seed=8)
        assert report.finner_ok
        assert report.buffer_bounds_ok
        assert report.pigeonhole_ok
        # exact geometry: type-0 intervals cover all but the thin buffers
        delta = cube.side
        gain = delta ** ((params.alpha1 - params.alpha0) / 2.0)
        assert report.main_fraction >= 1 - 10.0**3 * gain / (1 + 10.0**3 * gain)
        assert report.certified_factor <= report.factor_bound
        # coordinate projections have constant 1, so the tube-mass route
        # dominates the direct main-term integral (equality up to the
        # boundary tubes and quadrature)
        main_lhs = report.main_fraction * report.lhs
        assert main_lhs <= report.main_sum * (1 + 1e-9)
        assert report.main_sum <= 1.6 * main_lhs

    def test_buffer_totals_under_uniform_bound(self):
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        inputs = uniform_inputs_for(maps, cube)
        params.M = 1.0 / max(f.spacing for f in inputs)
        report = verify_induction_step(maps, cube, inputs, params, 16, seed=9)
        gain = 4.0 * cube.side ** (params.alpha1 - params.alpha0)
        for chi, info in report.buffer_totals.items():
            assert info["total"] <= gain * inputs[info["map"]].integral() * (1 + 1e-9)
            assert info["ok"]

    def test_zero_inputs_vacuous(self):
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        inputs = uniform_inputs_for(maps, cube, value=0.0)
        params.M = 1.0 / max(f.spacing for f in inputs)
        report = verify_induction_step(maps, cube, inputs, params, 8, seed=10)
        assert report.lhs == 0.0
        assert report.main_sum == 0.0
        assert report.buffer_bounds_ok and report.finner_ok
        assert report.certified_factor == pytest.approx(1.0)

    def test_coarse_inputs_rejected(self):
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        inputs = uniform_inputs_for(maps, cube)
        params.M = 10.0 / min(f.spacing for f in inputs)  # demands finer grids
        with pytest.raises(ScaleError):
            verify_induction_step(maps, cube, inputs, params, 8)

    def test_perturbed_instance_bounds(self):
        maps, params, cube, inputs = flagship_scale_setup(seed=3)
        report = verify_induction_step(maps, cube, inputs, params, 32, seed=11)
        assert report.finner_ok and report.buffer_bounds_ok and report.pigeonhole_ok
        assert report.main_sum <= report.finner_rhs * (1 + 1e-9)
        assert report.finner_rhs <= report.input_rhs * (1 + 1e-9)


    def test_rank_one_tubes_d2(self):
        # two perturbed rank-1 projections: every tube and slab mass takes
        # the exact interval-overlap route; the reference numbers were
        # computed by the earlier per-rank tube-mass code
        maps = [
            perturbed_projection(np.array([[0.0, 1.0]]), [{(2, 0): 0.3}], 1.0, 1.0),
            perturbed_projection(np.array([[1.0, 0.0]]), [{(0, 2): 0.3}], 1.0, 1.0),
        ]
        params = compute_delta0(1.0, 1.0, 1.25, 1.5, 2, 2)
        cube = Cube(np.zeros(2), params.delta0)
        rng = np.random.default_rng(2)
        inputs = [l1m_grid_for_map(fam, cube, rng) for fam in maps]
        params.M = 1.0 / max(f.spacing for f in inputs)
        report = verify_induction_step(maps, cube, inputs, params, 32, seed=3)
        assert report.finner_ok and report.buffer_bounds_ok and report.pigeonhole_ok
        expected = {
            "lhs": 1.0325113999775738e-08,
            "main_sum": 1.1120511814416179e-08,
            "finner_rhs": 1.1120511814416179e-08,
            "input_rhs": 2.5679993838713982e-08,
            "main_fraction": 0.8435601032170764,
            "certified_factor": 1.293690938816278,
        }
        for key, value in expected.items():
            assert getattr(report, key) == pytest.approx(value, rel=1e-12, abs=0), key
        assert report.tube_norms[0] == pytest.approx(0.00010420285443488479, rel=1e-12, abs=0)
        assert report.tube_norms[1] == pytest.approx(0.00010671983867164852, rel=1e-12, abs=0)
        totals = {chi: info["total"] for chi, info in report.buffer_totals.items()}
        assert totals[(1, 0)] == pytest.approx(1.6219488544595507e-05, rel=1e-12, abs=0)
        assert totals[(0, 1)] == pytest.approx(1.466018852960327e-05, rel=1e-12, abs=0)
        assert totals[(1, 1)] == totals[(1, 0)]

    def test_loomis_whitney_d4_rank3_tubes(self, monkeypatch):
        # maps R^4 -> R^3: every tube mass takes the rank-3 subdivision
        # route, on a three-axis grid of tubes with broadcast offsets
        d = 4
        maps = [linear_family(np.delete(np.eye(d), j, axis=0)) for j in range(d)]
        params = compute_delta0(1.0, 1e-4, 1.1, 1.5, d, d)
        cube = Cube(np.zeros(d), params.delta0)
        rng = np.random.default_rng(4)
        inputs = [l1m_grid_for_map(fam, cube, rng, cells=4) for fam in maps]
        params.M = 1.0 / max(f.spacing for f in inputs)
        calls = []

        def recording(values, origin, h, halfplanes):
            masses = grid_polygon_mass(values, origin, h, halfplanes)
            calls.append((values, origin, h, halfplanes, masses))
            return masses

        monkeypatch.setattr(scales, "grid_polygon_mass", recording)
        report = verify_induction_step(maps, cube, inputs, params, 8, seed=1)
        assert report.finner_ok and report.buffer_bounds_ok and report.pigeonhole_ok
        assert len(calls) == d
        for j, (values, origin, h, halfplanes, masses) in enumerate(calls):
            assert np.ndim(values) == 3 and masses.ndim == 3 and masses.sum() > 0
            flat = [(n, np.broadcast_to(c, masses.shape).ravel()) for n, c in halfplanes]
            want = grid_polygon_mass(values, origin, h, flat).reshape(masses.shape)
            assert np.array_equal(masses, want)
            assert report.tube_norms[j] == float(want.sum())

    def test_flagship_step_matches_recorded_numbers(self):
        # recorded from the route that measured one tube and one candidate
        # slab per call; the batched masses must reproduce it
        maps, params, cube, inputs = flagship_scale_setup(seed=1)
        report = verify_induction_step(maps, cube, inputs, params, 32, seed=5)
        assert report.finner_ok and report.buffer_bounds_ok and report.pigeonhole_ok
        expected = {
            "lhs": 1.0083988383256997e-18,
            "main_sum": 1.0931841985067378e-18,
            "finner_rhs": 1.0963658944476828e-18,
            "input_rhs": 4.069951343517514e-18,
            "main_fraction": 0.9076030460154925,
            "certified_factor": 2.0802995418317787,
        }
        for key, value in expected.items():
            assert getattr(report, key) == pytest.approx(value, rel=1e-12, abs=0), key
        norms = [1.0672916318417097e-12, 1.0490457929176055e-12, 1.0735777039574522e-12]
        for j, value in enumerate(norms):
            assert report.tube_norms[j] == pytest.approx(value, rel=1e-12, abs=0)
        per_axis = [6.250106978245369e-14, 5.807340280566401e-14, 5.912642129596822e-14]
        for chi, info in report.buffer_totals.items():
            assert info["total"] == pytest.approx(per_axis[info["axis"]], rel=1e-12, abs=0), chi

    def test_flagship_step_keeps_the_clipping_route_numbers(self):
        # recorded from the Sutherland-Hodgman tube masses, the mask-route
        # grid lookups and the locate_points main-cell mask; the integral
        # sees the same points and values, so its numbers keep their bits
        maps, params, cube, inputs = flagship_scale_setup(seed=1)
        report = verify_induction_step(maps, cube, inputs, params, 32, seed=5)
        assert report.lhs == 1.0083988383256997e-18
        assert report.main_fraction == 0.9076030460154925
        assert report.main_sum == pytest.approx(1.093184198506739e-18, rel=1e-12, abs=0)
        norms = [1.06729163184171e-12, 1.0490457929176051e-12, 1.073577703957454e-12]
        for j, value in enumerate(norms):
            assert report.tube_norms[j] == pytest.approx(value, rel=1e-12, abs=0)
        totals = {
            (1, 0, 0): 6.250106978245368e-14,
            (0, 1, 0): 5.807340280566399e-14,
            (1, 1, 0): 6.250106978245368e-14,
            (0, 0, 1): 5.912642129596821e-14,
            (1, 0, 1): 6.250106978245368e-14,
            (0, 1, 1): 5.807340280566399e-14,
            (1, 1, 1): 6.250106978245368e-14,
        }
        assert report.buffer_totals.keys() == totals.keys()
        for chi, value in totals.items():
            assert report.buffer_totals[chi]["total"] == pytest.approx(value, rel=1e-12, abs=0)


class TestNonlinearBL:
    def test_linear_ratio_below_one(self):
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        inputs = uniform_inputs_for(maps, cube)
        report = verify_nonlinear_bl(maps, np.zeros(3), inputs, params, 32)
        assert report.ratio <= 1.0 + 1e-9
        assert report.holds

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_midpoint_resolution_below_one_rejected(self, resolution):
        # no points once gave ratio -0.0 and "holds", or a TypeError
        maps = linear_lw_families()
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        inputs = uniform_inputs_for(maps, cube)
        with pytest.raises(ValueError, match="resolution must be >= 1"):
            verify_nonlinear_bl(maps, np.zeros(3), inputs, params, resolution)
        params.M = 1.0 / max(f.spacing for f in inputs)
        with pytest.raises(ValueError, match="resolution must be >= 1"):
            verify_induction_step(maps, cube, inputs, params, resolution)

    def test_frozen_bound_value(self):
        params = compute_delta0(1.0, 1.0, 1.25, 1.5, 3, 3)
        maps, _, cube, inputs = flagship_scale_setup()
        report = verify_nonlinear_bl(maps, np.zeros(3), inputs, params, 16)
        expected = 3 * math.log(10.0) + 1000.0 * (1e-6) ** 0.125 / (1 - 2.0**-0.125)
        assert report.log_bound == pytest.approx(expected, rel=1e-12)
        assert report.margin_log > 0
        assert report.holds

    def test_non_canonical_maps_rejected(self):
        rng = np.random.default_rng(12)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        maps = [linear_family(B @ Q) for B in loomis_whitney_maps()]
        params = gentle_params()
        cube = Cube(np.zeros(3), params.delta0)
        inputs = uniform_inputs_for(maps, cube)
        with pytest.raises(ScaleError):
            verify_nonlinear_bl(maps, np.zeros(3), inputs, params, 8)


class TestSlabContainment:
    def test_triple_slab_contains_buffer_image(self):
        # sampled points of a buffer pull-back map into the concentric triple
        maps, params, cube, inputs = flagship_scale_setup(seed=4)
        deco = decompose(maps, cube, inputs, params)
        rng = np.random.default_rng(13)
        i = 0
        chi = np.array([1, 0, 0], dtype=np.int8)
        pts, labels = deco.sample_cells(rng, chi, 2000)
        fam = maps[int(deco.sigma[i])]
        func = deco.sequences[i].functional
        d_a1 = cube.side**params.alpha1
        values = fam.value(pts)
        s_img = (values @ func.w - func.offset) / func.c
        for n in np.unique(labels[:, i]):
            sel = labels[:, i] == n
            lo, hi = deco.sequences[i].s[n], deco.sequences[i].s[n] + d_a1
            assert np.all(s_img[sel] >= lo - 1e-18)
            assert np.all(s_img[sel] <= hi + 1e-18)


def test_clip_box_with_non_finite_bounds():
    # cell indices clamp in float: an infinite bound reaches the grid's
    # edge, and a NaN bound clamps to index 0
    f = GridFunction(np.zeros(2), 1.0, np.arange(1.0, 10.0).reshape(3, 3))
    kept = clip_grid_outside_box(f, np.array([1.0, -np.inf]), np.array([np.inf, 2.0])).values
    assert np.array_equal(kept, [[0, 0, 0], [4, 5, 0], [7, 8, 0]])
    kept = clip_grid_outside_box(f, np.array([np.nan, 0.0]), np.array([3.0, 3.0])).values
    assert np.array_equal(kept, f.values)
    assert not clip_grid_outside_box(f, np.array([0.0, 0.0]), np.array([3.0, np.nan])).values.any()


def test_flagship_inputs_in_constancy_class():
    # constant at scale 1/M: cells no wider than 1/M, positive throughout,
    # and adjacent cells within a factor 2 of each other
    maps, params, cube, inputs = flagship_scale_setup(seed=2)
    for f in inputs:
        assert f.spacing <= 1.0 / params.M * (1 + 1e-12)
        assert np.all(f.values > 0)
        for axis in range(f.values.ndim):
            v = np.moveaxis(f.values, axis, 0)
            assert np.all(v[:-1] <= 2 * v[1:]) and np.all(v[1:] <= 2 * v[:-1])
