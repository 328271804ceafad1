"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from blt.datum import (
    BLDatum,
    ProjectionScheme,
    bl_constant_classC,
    gaussian_ratio,
    is_class_C,
    kernel_basis,
    projection_datum,
    search_bl_constant,
    tensor_lift,
    transform_datum,
)
from blt.geometry import grid_polygon_mass
from blt.ift import ScalarField, eta_gradient, ift_radii, solve_eta
from blt.inputs import GridFunction
from blt.polynomials import Polynomial
from blt.quadrature import (
    QuadratureSpec,
    ball_inequality_report,
    canonical_extremizer,
    discrete_finner,
)
from blt.scales import (
    decompose,
    phi_factorization,
    verify_disjointness,
    verify_nonlinear_bl,
)
from blt.convext import SurfaceFunction, surface_convolution, verify_thm74
from tests.conftest import (
    flagship_scale_setup,
    loomis_whitney_maps,
    random_class_c_datum,
)
from tests.test_convext import exact_flat_conv_3d, linear_surface, orthogonal_planes


def report_line(number: int, ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def lw_datum():
    return BLDatum(3, loomis_whitney_maps(), np.full(3, 0.5))


def test_criterion_01_discrete_finner_oracle():
    start = time.perf_counter()
    scheme = ProjectionScheme(3, [1, 1, 1])
    lhs, rhs = discrete_finner([np.ones((2, 2))] * 3, scheme)
    equality = abs(lhs - rhs) <= 1e-14 * rhs
    rng = np.random.default_rng(1001)
    ok = equality
    for _ in range(200):
        arrays = [rng.uniform(0.0, 1.0, (4, 4)) for _ in range(3)]
        lhs, rhs = discrete_finner(arrays, scheme)
        ok &= lhs <= rhs * (1 + 1e-12)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report_line(1, ok, "discrete product-projection inequality, 200 seeded trials",
                f"runtime {elapsed:.2f}s")


def test_criterion_02_extremizer_matches_constant():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    ok = True
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(3, 6))
        datum, _, _, _ = random_class_c_datum(rng, d)
        constant = bl_constant_classC(datum)
        _, ratio = canonical_extremizer(datum)
        rel = abs(ratio - constant) / constant
        worst = max(worst, rel)
        ok &= rel <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report_line(2, ok, "parallelepiped extremizer ratio equals the closed form on 50 data",
                f"worst rel {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_03_gaussian_extremality():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(1003)
    # identity covariances on coordinate-projection data
    for sizes in ([1, 1, 1], [2, 1, 1], [1, 2, 2], [2, 2], [3, 1, 1]):
        scheme = ProjectionScheme(sum(sizes), sizes)
        datum = projection_datum(scheme)
        value = gaussian_ratio(datum, [np.eye(B.shape[0]) for B in datum.maps])
        ok &= abs(value - 1.0) <= 1e-10
    worst = 1.0
    for trial in range(20):
        d = int(rng.integers(3, 6))
        datum, _, _, _ = random_class_c_datum(rng, d)
        constant = bl_constant_classC(datum)
        result = search_bl_constant(datum, 2000, seed=2000 + trial)
        ok &= result.estimate >= 0.99 * constant
        ok &= result.estimate <= constant * (1 + 1e-9)
        worst = min(worst, result.estimate / constant)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report_line(3, ok, "gaussian search certifies >= 0.99 of the constant, never above",
                f"worst fraction {worst:.4f}, runtime {elapsed:.1f}s")


def test_criterion_04_scaling_law():
    rng = np.random.default_rng(1004)
    datum = lw_datum()
    base = bl_constant_classC(datum)
    ok = True
    worst = 0.0
    for _ in range(100):
        C = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        Cj = [rng.standard_normal((2, 2)) + 3 * np.eye(2) for _ in range(3)]
        moved, scale = transform_datum(datum, C, Cj)
        rel = abs(bl_constant_classC(moved) - scale * base) / (scale * base)
        worst = max(worst, rel)
        ok &= rel <= 1e-9
    report_line(4, ok, "constant scaling law over 100 random intertwiners",
                f"worst rel {worst:.2e}")


def test_criterion_05_r5_tensor_lift():
    maps = []
    for j in range(5):
        rows = np.zeros((2, 5))
        rows[0, (j + 3) % 5] = 1.0
        rows[1, (j + 4) % 5] = 1.0
        maps.append(rows)
    lifted, recipe = tensor_lift(maps, [(j, (j + 2) % 5) for j in range(5)])
    ok, _ = is_class_C(lifted)
    worst = 0.0
    for j in range(5):
        ns = kernel_basis(lifted.maps[j])
        target = np.zeros(5)
        target[(j + 2) % 5] = 1.0
        gap = min(np.linalg.norm(ns[:, 0] - target), np.linalg.norm(ns[:, 0] + target))
        worst = max(worst, gap)
        ok &= ns.shape[1] == 1 and gap <= 1e-10
    report_line(5, ok, "five-fold tensor lift lands in the direct-sum class",
                f"worst kernel gap {worst:.2e}")


def test_criterion_06_decomposition_certificates():
    start = time.perf_counter()
    maps, params, cube, inputs = flagship_scale_setup(seed=1006)
    scheme = ProjectionScheme(3, [1, 1, 1])
    deco = decompose(maps, cube, inputs, params)
    sequences = deco.sequences
    pigeon_ok = all(seq.certificates_hold() for seq in sequences)
    # independent recheck of the recorded closed-form slab masses by
    # clipping every cell against the slab's two halfplanes
    recheck_ok = True
    for seq in sequences:
        d_a1 = cube.side**params.alpha1
        fam = maps[seq.map_index]
        from blt.scales import image_window

        fW = image_window(fam, cube, inputs[seq.map_index])
        func = seq.functional
        for step in seq.steps[:: max(1, len(seq.steps) // 6)]:
            im_lo, im_hi = func.image_interval(step.s_next, step.s_next + d_a1)
            indep = grid_polygon_mass(
                fW.values, fW.origin, fW.spacing, [(func.w, im_hi), (-func.w, -im_lo)]
            )
            recheck_ok &= abs(indep - step.selected_mass) <= 1e-9 * max(
                1e-300, step.window_mass
            ) + 1e-12 * abs(indep)
            recheck_ok &= step.selected_mass <= 4.0 * cube.side ** (
                params.alpha1 - params.alpha0
            ) * step.window_mass + 1e-12 * (step.window_mass + 1e-300)
    rng = np.random.default_rng(1066)
    pts = cube.sample(rng, 10000)
    n, chi, valid, dist = deco.locate_points(pts)
    near = dist < 1e-12
    attempts = 0
    while near.any() and attempts < 50:
        pts[near] = cube.sample(rng, int(near.sum()))
        n, chi, valid, dist = deco.locate_points(pts)
        near = dist < 1e-12
        attempts += 1
    coverage_ok = bool(valid.all())
    phi_ok = True
    for j, fam in enumerate(maps):
        phi = phi_factorization(fam, cube, scheme.blocks[j], sample_count=10000, seed=7 + j)
        phi_ok &= phi.checks["drift_ok"]
    violations = 0
    pairs = 0
    min_margin = np.inf
    for j in range(3):
        rep = verify_disjointness(maps[j], deco, j, np.zeros(3, dtype=np.int8), 33334, seed=50 + j)
        violations += rep.violations
        pairs += rep.pairs_checked
        min_margin = min(min_margin, rep.min_margin)
    elapsed = time.perf_counter() - start
    ok = (
        pigeon_ok and recheck_ok and coverage_ok and phi_ok
        and violations == 0 and pairs >= 100000 and elapsed < 60.0
    )
    report_line(
        6, ok, "buffered decomposition certificates at the derived top scale",
        f"pairs {pairs}, min margin {min_margin:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_07_nonlinear_bound():
    start = time.perf_counter()
    maps, params, cube, inputs = flagship_scale_setup(seed=1007)
    rep = verify_nonlinear_bl(maps, np.zeros(3), inputs, params, 48)
    expected_log = 3 * math.log(10.0) + 1000.0 * params.delta0**0.125 / (1 - 2.0**-0.125)
    elapsed = time.perf_counter() - start
    ok = (
        rep.holds
        and rep.margin_log > 0
        and abs(rep.log_bound - expected_log) <= 1e-9 * expected_log
        and elapsed < 60.0
    )
    report_line(
        7, ok, "cube ratio sits below the explicit global constant",
        f"log margin {rep.margin_log:.1f}, runtime {elapsed:.1f}s",
    )


def test_criterion_08_implicit_function_solver():
    start = time.perf_counter()
    fields = [
        ScalarField(2, Polynomial(3, {(0, 0, 1): 1.0, (1, 0, 0): -0.3, (0, 1, 0): 0.2}), 1.0, 1.0),
        ScalarField(2, Polynomial(3, {(0, 0, 1): 1.0, (1, 1, 0): 1.0, (0, 0, 2): 0.1}), 1.0, 2.0),
        ScalarField(1, Polynomial(2, {(0, 1): 1.0, (2, 0): 1.0}), 1.0, 2.0),
        ScalarField(3, Polynomial(4, {(0, 0, 0, 1): 1.0, (1, 0, 1, 0): 0.5, (0, 2, 0, 0): 0.4}), 1.0, 2.0),
        ScalarField(
            2,
            Polynomial(
                3,
                {(0, 0, 1): 1.0, (1, 0, 0): 0.25, (0, 1, 0): -0.15, (2, 0, 0): 0.3, (0, 1, 1): 0.2},
            ),
            1.0,
            2.0,
        ),
    ]
    ok = True
    for fid, field in enumerate(fields):
        field.sampled_holder_audit(seed=fid)
        R1, R2 = ift_radii(field.beta, field.kappa)
        rng = np.random.default_rng(3000 + fid)
        X = rng.uniform(-R1 / 2, R1 / 2, size=(100, field.n))
        sol = solve_eta(field, X, tol=1e-12)
        ok &= bool(np.all(np.abs(sol.residual) <= 1e-12))
        ok &= sol.iterations <= sol.iteration_cap
        ok &= bool(np.all(np.abs(sol.eta) <= R2 * (1 + 1e-12)))
        ok &= sol.max_ratio <= 0.5 + 1e-9
        grads = eta_gradient(field, X, sol.eta)
        h = 1e-7
        for a in range(field.n):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, a] += h
            Xm[:, a] -= h
            fd = (
                solve_eta(field, Xp, tol=1e-15).eta - solve_eta(field, Xm, tol=1e-15).eta
            ) / (2 * h)
            rel = np.abs(grads[:, a] - fd) / np.maximum(np.abs(fd), 1e-9)
            ok &= bool(np.max(rel) <= 1e-6)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report_line(8, ok, "contraction solver and implicit gradients on 5 fields",
                f"runtime {elapsed:.2f}s")


def test_criterion_09_flat_singular_convolution():
    sfuncs, slopes, r = orthogonal_planes(seed=1009)
    y = np.array([1e-5, -5e-6, 0.0])
    spec = QuadratureSpec("monte-carlo", samples=1_000_000, seed=1009)
    value, stderr = surface_convolution(sfuncs, y, spec)
    exact = exact_flat_conv_3d(slopes, y, r)
    rel = abs(value - exact) / exact
    ok = rel <= 0.01 and abs(value - exact) <= 3 * stderr + 1e-3 * exact
    report_line(9, ok, "flat singular convolution matches the affine-slice value",
                f"rel err {rel:.2e}, 3 sigma {3 * stderr / exact:.2e}")


def test_criterion_10_plancherel_bridge():
    start = time.perf_counter()
    sfuncs = [
        SurfaceFunction(linear_surface([-1.0], [1.0], [1.0])),
        SurfaceFunction(linear_surface([-1.0], [1.0], [-1.0])),
    ]
    spec = QuadratureSpec("tensor-midpoint", resolution=64)
    rep256 = verify_thm74(sfuncs, 45.0, 256, spec)
    rep512 = verify_thm74(sfuncs, 45.0, 512, spec)
    elapsed = time.perf_counter() - start
    ok = (
        rep256.bridge_error <= 0.05
        and rep512.bridge_error < rep256.bridge_error
        and not rep256.refusal
        and elapsed < 120.0
    )
    report_line(
        10, ok, "frequency and convolution routes agree through the transform constant",
        f"bridge {rep256.bridge_error:.4f} -> {rep512.bridge_error:.4f}, runtime {elapsed:.0f}s",
    )


def test_criterion_11_ball_factorisation():
    datum = lw_datum()
    spec = QuadratureSpec("tensor-midpoint", resolution=64)
    mesh = np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij")
    x_grid = np.stack([m.ravel() for m in mesh], axis=1)
    rng = np.random.default_rng(1011)
    ok = True
    worst_slack = np.inf
    for trial in range(50):
        f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (4, 4))) for _ in range(3)]
        fp = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (4, 4))) for _ in range(3)]
        rep = ball_inequality_report(datum, f, fp, x_grid, spec)
        worst_slack = min(worst_slack, rep.slack)
        ok &= rep.slack >= -5e-2
    # one-sided form with the parallelepiped extremizer as localiser
    f = [GridFunction(np.zeros(2), 1.0, rng.uniform(0.5, 1.5, (4, 4))) for _ in range(3)]
    extremizer = [GridFunction(np.zeros(2), 1.0, np.ones((1, 1)))] * 3
    rep = ball_inequality_report(datum, f, extremizer, x_grid, spec)
    ok &= rep.details["ratio_f"] <= rep.sup_term * (1 + 1e-9)
    report_line(11, ok, "convolution factorisation slack across 50 seeded trials",
                f"worst slack {worst_slack:+.4f}")
