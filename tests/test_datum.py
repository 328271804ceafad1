"""Datum model: class membership, constants, transforms, reduction, search."""

import numpy as np
import pytest

from blt.datum import (
    BLDatum,
    DatumError,
    NotClassCError,
    ProjectionScheme,
    SearchResult,
    bl_constant_classC,
    gaussian_ratio,
    is_class_C,
    projection_datum,
    reduce_to_projections,
    search_bl_constant,
    tensor_lift,
    transform_datum,
)
from tests.conftest import loomis_whitney_maps, random_class_c_datum


def oracle_ratio(datum, factors, cond_limit=None) -> float:
    """The gaussian ratio from Cholesky factors with every block of G and
    every log term computed afresh: the reference for GaussianRatio."""
    scaling = float(np.dot(datum.p, datum.row_dims))
    if abs(scaling - datum.d) > 1e-9:
        raise DatumError("scaling condition violated")
    blocks = []
    log_prod = 0.0
    for j, (B, L) in enumerate(zip(datum.maps, factors)):
        diag = np.diag(L)
        if np.any(diag <= 0):
            raise DatumError(f"factor {j} is not positive definite")
        log_prod += datum.p[j] * 2.0 * float(np.log(diag).sum())
        blocks.append(np.sqrt(datum.p[j]) * (B.T @ L))
    G = np.hstack(blocks)
    sing = np.linalg.svd(G, compute_uv=False)
    if sing[-1] <= 0:
        raise DatumError("aggregated quadratic form is not positive definite")
    if cond_limit is not None and sing[0] / sing[-1] > cond_limit:
        raise DatumError("configuration too ill-conditioned for a trusted value")
    logdet_M = 2.0 * float(np.log(sing[: datum.d]).sum())
    return float(np.exp(-0.5 * logdet_M + 0.5 * log_prod))


def oracle_search(datum, budget: int, seed: int, events: dict) -> SearchResult:
    """The coordinate ascent on oracle_ratio, with an unchecked start.
    Counts rejected candidates in events["rejected"] and records the
    evaluation count of each re-anneal in events["anneals"]."""
    rng = np.random.default_rng(seed)
    dims = datum.row_dims
    factors = [np.eye(dj) for dj in dims]
    coords = [(j, a, b) for j, dj in enumerate(dims) for a in range(dj) for b in range(a + 1)]
    best = oracle_ratio(datum, factors)
    evaluations = 1

    def propose(j, a, b, direction, step):
        current = factors[j][a, b]
        if current != 0.0:
            candidate = current * np.exp(direction * step)
        else:
            scale = np.sqrt(abs(factors[j][a, a] * factors[j][b, b])) or 1.0
            candidate = direction * step * scale
        if a == b and candidate <= 0.0:
            return None
        return candidate

    def try_value(j, a, b, candidate):
        nonlocal evaluations
        current = factors[j][a, b]
        factors[j][a, b] = candidate
        try:
            value = oracle_ratio(datum, factors, cond_limit=1e6)
        except DatumError:
            value = -np.inf
            events["rejected"] += 1
        evaluations += 1
        factors[j][a, b] = current
        return value

    steps = np.full(len(coords), 1.0)
    stall_sweeps = 0
    while evaluations < budget:
        improved = False
        order = rng.permutation(len(coords))
        for pos in order:
            if evaluations >= budget:
                break
            j, a, b = coords[pos]
            accepted = False
            for direction in (1.0, -1.0):
                if evaluations >= budget:
                    break
                stride = steps[pos]
                candidate = propose(j, a, b, direction, stride)
                if candidate is None:
                    continue
                value = try_value(j, a, b, candidate)
                if value <= best:
                    continue
                best = value
                factors[j][a, b] = candidate
                accepted = True
                while evaluations < budget:
                    stride *= 2.0
                    nxt = propose(j, a, b, direction, stride)
                    if nxt is None:
                        break
                    value = try_value(j, a, b, nxt)
                    if value > best:
                        best = value
                        factors[j][a, b] = nxt
                    else:
                        stride *= 0.5
                        break
                steps[pos] = min(stride, 64.0)
                break
            if accepted:
                improved = True
            else:
                steps[pos] = max(steps[pos] * 0.5, 1e-12)
        if not improved:
            stall_sweeps += 1
            if stall_sweeps >= 3 and np.all(steps < 1e-10):
                steps[:] = 0.25
                stall_sweeps = 0
                events["anneals"].append(evaluations)
        else:
            stall_sweeps = 0
    return SearchResult(float(best), [L @ L.T for L in factors], evaluations)


def result_bits(res: SearchResult):
    return (
        res.estimate.hex(),
        [[float(x).hex() for x in A.ravel()] for A in res.covariances],
        res.evaluations,
    )


def direct_sum_datum(blocks: list[int], seed: int) -> BLDatum:
    """The projection datum of the given kernel blocks, intertwined by
    seeded matrices of condition number below 8."""
    rng = np.random.default_rng(seed)

    def well_conditioned(k):
        while True:
            M = rng.standard_normal((k, k))
            s = np.linalg.svd(M, compute_uv=False)
            if s[0] / s[-1] < 8.0:
                return M

    base = projection_datum(ProjectionScheme(sum(blocks), blocks))
    C = well_conditioned(base.d)
    datum, _ = transform_datum(base, C, [well_conditioned(B.shape[0]) for B in base.maps])
    return datum


def r5_example_maps() -> list[np.ndarray]:
    """Maps on R^5 whose derivative kernels are spans of three cyclically
    consecutive coordinate axes."""
    maps = []
    for j in range(5):
        rows = np.zeros((2, 5))
        rows[0, (j + 3) % 5] = 1.0
        rows[1, (j + 4) % 5] = 1.0
        maps.append(rows)
    return maps


class TestClassMembership:
    def test_loomis_whitney_in_class(self, lw_datum):
        ok, diag = is_class_C(lw_datum)
        assert ok and diag.reason == "ok"

    def test_wrong_exponents_rejected(self):
        datum = BLDatum(3, loomis_whitney_maps(), np.full(3, 1.0 / 3.0))
        ok, diag = is_class_C(datum)
        assert not ok
        assert "exponent" in diag.reason

    def test_r5_kernel_sum_mismatch(self):
        datum = BLDatum(5, r5_example_maps(), np.full(5, 0.5))
        ok, diag = is_class_C(datum)
        assert not ok
        assert diag.kernel_dim_sum == 15
        assert "kernel" in diag.reason

    def test_degenerate_transversality(self):
        P1, P2, _ = loomis_whitney_maps()
        datum = BLDatum(3, [P1, P1, P2], np.full(3, 0.5))
        ok, diag = is_class_C(datum)
        assert not ok and "transversality" in diag.reason

    @pytest.mark.parametrize("scale", [1e-3, 1e-6, 1e4])
    def test_transversality_test_is_free_of_scale(self, scale):
        # the quantity scales like the product of all map entries (1e-18 at
        # 1e-3), its ratio to the product of the map norms does not
        datum = BLDatum(3, [scale * B for B in loomis_whitney_maps()], np.full(3, 0.5))
        ok, diag = is_class_C(datum)
        assert ok and diag.reason == "ok"
        assert diag.transversality == pytest.approx(-(scale**6), rel=1e-12)
        assert bl_constant_classC(datum) == pytest.approx(scale**-3, rel=1e-12)

    def test_near_parallel_kernels_refused_at_any_scale(self):
        # kernels e_1, e_2 and e_1 + 1e-12 e_3: |det[N_1 N_2 N_3]| is about 1e-12
        P1, P2, _ = loomis_whitney_maps()
        P3 = np.array([[0.0, 1.0, 0.0], [1e-12, 0.0, -1.0]])
        for scale in (1.0, 1e4):
            datum = BLDatum(3, [scale * P1, scale * P2, scale * P3], np.full(3, 0.5))
            ok, diag = is_class_C(datum)
            assert not ok and "transversality" in diag.reason

    def test_membership_invariant_under_transform(self, lw_datum):
        rng = np.random.default_rng(5)
        for _ in range(10):
            C = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            Cj = [rng.standard_normal((2, 2)) + 3 * np.eye(2) for _ in range(3)]
            moved, _ = transform_datum(lw_datum, C, Cj)
            assert is_class_C(moved)[0]


class TestClosedFormConstant:
    def test_loomis_whitney_is_one(self, lw_datum):
        assert bl_constant_classC(lw_datum) == pytest.approx(1.0, abs=1e-14)

    def test_doubled_maps(self):
        datum = BLDatum(3, [2 * B for B in loomis_whitney_maps()], np.full(3, 0.5))
        assert bl_constant_classC(datum) == pytest.approx(0.125, rel=1e-12, abs=0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            maps = [B @ Q for B in loomis_whitney_maps()]
            datum = BLDatum(3, maps, np.full(3, 0.5))
            assert bl_constant_classC(datum) == pytest.approx(1.0, rel=1e-10)

    def test_rejects_non_class_data(self):
        datum = BLDatum(3, loomis_whitney_maps(), np.full(3, 1.0 / 3.0))
        with pytest.raises(NotClassCError):
            bl_constant_classC(datum)


class TestTransform:
    def test_identity(self, lw_datum):
        out, scale = transform_datum(lw_datum, np.eye(3), [np.eye(2)] * 3)
        assert scale == 1.0
        for B, B2 in zip(lw_datum.maps, out.maps):
            assert np.allclose(B, B2)

    def test_frozen_dilation_scale(self, lw_datum):
        # prod |det 2I_2|^{1/2} / |det 2I_3| = 8 / 8
        _, scale = transform_datum(lw_datum, 2 * np.eye(3), [2 * np.eye(2)] * 3)
        assert scale == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_group_law_roundtrip(self, lw_datum):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        Cj = [rng.standard_normal((2, 2)) + 3 * np.eye(2) for _ in range(3)]
        moved, s1 = transform_datum(lw_datum, C, Cj)
        back, s2 = transform_datum(moved, np.linalg.inv(C), [np.linalg.inv(M) for M in Cj])
        assert s1 * s2 == pytest.approx(1.0, rel=1e-12)
        for B, B2 in zip(lw_datum.maps, back.maps):
            assert np.allclose(B, B2, atol=1e-12)

    def test_scaling_law_random(self, lw_datum):
        rng = np.random.default_rng(2)
        base = bl_constant_classC(lw_datum)
        for _ in range(50):
            C = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            Cj = [rng.standard_normal((2, 2)) + 3 * np.eye(2) for _ in range(3)]
            moved, scale = transform_datum(lw_datum, C, Cj)
            assert bl_constant_classC(moved) == pytest.approx(scale * base, rel=1e-9)

    def test_singular_rejected(self, lw_datum):
        with pytest.raises(DatumError):
            transform_datum(lw_datum, np.zeros((3, 3)), [np.eye(2)] * 3)


class TestReduction:
    def test_loomis_whitney_certificate(self, lw_datum):
        cert = reduce_to_projections(lw_datum)
        assert np.allclose(np.abs(cert.A), np.eye(3))
        for Cj in cert.Cj:
            assert np.allclose(np.abs(Cj), np.eye(2))
        assert cert.max_projection_residual(lw_datum) <= 1e-9
        assert [len(b) for b in cert.scheme.blocks] == [1, 1, 1]

    def test_rotated_datum_unit_determinant(self):
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        datum = BLDatum(3, [B @ Q for B in loomis_whitney_maps()], np.full(3, 0.5))
        cert = reduce_to_projections(datum)
        assert abs(cert.det_A) == pytest.approx(1.0, rel=1e-10)

    def test_random_d4_identities(self):
        # both sides of the constant identity computed independently
        rng = np.random.default_rng(4)
        from blt.exterior import row_wedge_norm, transversality_quantity

        for _ in range(10):
            datum, _, _, _ = random_class_c_datum(rng, 4)
            cert = reduce_to_projections(datum)
            quantity = transversality_quantity(datum.maps)
            lhs = abs(cert.det_A) / np.prod(
                [abs(det) ** (1.0 / (datum.m - 1)) for det in cert.det_Cj]
            )
            assert lhs == pytest.approx(abs(quantity) ** (-1.0 / (datum.m - 1)), rel=1e-9)
            norms = [row_wedge_norm(B) for B in datum.maps]
            assert quantity == pytest.approx(cert.det_A * np.prod(norms), rel=1e-9)

    def test_roundtrip_to_projections(self, lw_datum):
        rng = np.random.default_rng(6)
        for _ in range(10):
            datum, base, _, _ = random_class_c_datum(rng, 3)
            cert = reduce_to_projections(datum)
            moved, _ = transform_datum(datum, cert.A, cert.Cj)
            for j in range(datum.m):
                target = cert.scheme.projection_matrix(j)
                assert np.linalg.norm(moved.maps[j] - target) <= 1e-9


class TestGaussianRatio:
    def test_identity_covariances_loomis_whitney(self, lw_datum):
        assert gaussian_ratio(lw_datum, [np.eye(2)] * 3) == pytest.approx(1.0, abs=1e-14)

    def test_dilation_invariance(self, lw_datum):
        rng = np.random.default_rng(7)
        covs = []
        for _ in range(3):
            L = np.tril(rng.standard_normal((2, 2))) + 2 * np.eye(2)
            covs.append(L @ L.T)
        lam = 1.7
        scaled = [lam * A for A in covs]
        assert gaussian_ratio(lw_datum, scaled) == pytest.approx(
            gaussian_ratio(lw_datum, covs), rel=1e-12, abs=0
        )

    def test_projection_datum_identity_equals_constant(self):
        scheme = ProjectionScheme(5, [2, 1, 2])
        datum = projection_datum(scheme)
        identity_covs = [np.eye(B.shape[0]) for B in datum.maps]
        assert gaussian_ratio(datum, identity_covs) == pytest.approx(
            bl_constant_classC(datum), rel=1e-12
        )

    def test_scaling_condition_required(self, lw_datum):
        bad = BLDatum(3, lw_datum.maps, np.array([0.5, 0.5, 0.4]))
        with pytest.raises(DatumError):
            gaussian_ratio(bad, [np.eye(2)] * 3)

    def test_non_positive_definite_rejected(self, lw_datum):
        with pytest.raises(DatumError):
            gaussian_ratio(lw_datum, [np.eye(2), -np.eye(2), np.eye(2)])

    def test_never_beats_constant(self):
        rng = np.random.default_rng(8)
        draws = 0
        while draws < 500:
            datum, _, _, _ = random_class_c_datum(rng, rng.integers(3, 5))
            constant = bl_constant_classC(datum)
            for _ in range(25):
                covs = []
                for B in datum.maps:
                    k = B.shape[0]
                    L = np.tril(rng.standard_normal((k, k))) + 2 * np.eye(k)
                    covs.append(L @ L.T)
                assert gaussian_ratio(datum, covs) <= constant * (1 + 1e-9)
                draws += 1

    def test_monte_carlo_oracle_d2(self):
        # independent numerical integration of the gaussian numerator
        B1 = np.array([[1.0, 0.0]])
        B2 = np.array([[0.6, 0.8]])
        datum = BLDatum(2, [B1, B2], np.array([1.0, 1.0]))
        covs = [np.array([[1.3]]), np.array([[0.7]])]
        closed = gaussian_ratio(datum, covs)
        rng = np.random.default_rng(9)
        L = 4.0
        pts = rng.uniform(-L, L, size=(2_000_000, 2))
        f1 = np.exp(-np.pi * covs[0][0, 0] * (pts @ B1.T)[:, 0] ** 2)
        f2 = np.exp(-np.pi * covs[1][0, 0] * (pts @ B2.T)[:, 0] ** 2)
        numerator = (f1 * f2).mean() * (2 * L) ** 2
        denom = covs[0][0, 0] ** -0.5 * covs[1][0, 0] ** -0.5
        mc = numerator / denom
        assert closed == pytest.approx(mc, rel=5e-3)


class TestSearch:
    def test_reaches_known_constant(self, lw_datum):
        res = search_bl_constant(lw_datum, 500, seed=0)
        assert res.estimate >= 0.99 * 1.0
        assert res.estimate <= 1.0 + 1e-9

    def test_deterministic_and_monotone_in_budget(self, lw_datum):
        rng = np.random.default_rng(10)
        datum, _, _, _ = random_class_c_datum(rng, 3)
        a = search_bl_constant(datum, 400, seed=3)
        b = search_bl_constant(datum, 400, seed=3)
        assert a.estimate == b.estimate
        c = search_bl_constant(datum, 1200, seed=3)
        assert c.estimate >= a.estimate

    def test_upper_bound_never_exceeded(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            datum, _, _, _ = random_class_c_datum(rng, 4)
            constant = bl_constant_classC(datum)
            res = search_bl_constant(datum, 800, seed=1)
            assert res.estimate <= constant * (1 + 1e-6)

    def test_zero_budget_rejected(self, lw_datum):
        with pytest.raises(ValueError):
            search_bl_constant(lw_datum, 0, seed=0)

    def test_scaling_condition_precondition(self, lw_datum):
        bad = BLDatum(3, lw_datum.maps, np.array([0.5, 0.5, 0.4]))
        with pytest.raises(DatumError):
            search_bl_constant(bad, 10, seed=0)


class TestIncrementalRatio:
    """The search's evaluator against the fresh evaluation, bit for bit."""

    @pytest.mark.parametrize("blocks", [[1, 1, 1], [2, 1, 1], [2, 2, 1]])
    def test_search_matches_oracle_bitwise(self, blocks):
        datum = direct_sum_datum(blocks, seed=sum(blocks))
        events = {"rejected": 0, "anneals": []}
        want = oracle_search(datum, 3000, 1, events)
        got = search_bl_constant(datum, 3000, 1)
        assert events["anneals"], "budget too small to reach the re-anneal branch"
        assert result_bits(got) == result_bits(want)
        assert got.evaluations == 3000
        assert got.conditioning_rejections == events["rejected"]
        if blocks == [2, 2, 1]:
            assert events["rejected"] > 0

    def test_rejected_candidates_match_oracle_bitwise(self):
        # The dimension condition fails on ker B_0 (1 > 0 + 1/2), so the
        # ratio is unbounded and the ascent runs into the conditioning check.
        datum = BLDatum(2, [np.array([[1.0, 0.0]]), np.eye(2)], np.array([1.0, 0.5]))
        events = {"rejected": 0, "anneals": []}
        want = oracle_search(datum, 3000, 1, events)
        got = search_bl_constant(datum, 3000, 1)
        assert events["rejected"] > 100
        assert result_bits(got) == result_bits(want)
        assert got.conditioning_rejections == events["rejected"]

    def test_gaussian_ratio_matches_oracle_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            datum, _, _, _ = random_class_c_datum(rng, int(rng.integers(3, 6)))
            covs = []
            for B in datum.maps:
                k = B.shape[0]
                M = rng.standard_normal((k, k))
                covs.append(M @ M.T + 0.1 * np.eye(k))
            factors = [np.linalg.cholesky(0.5 * (A + A.T)) for A in covs]
            assert gaussian_ratio(datum, covs).hex() == oracle_ratio(datum, factors).hex()

    def test_ill_conditioned_start_is_refused(self):
        # cond(G) is about 2e7 at identity factors; the unchecked start
        # reported a value above the closed form 1e7.
        datum = BLDatum(2, [np.array([[1.0, 0.0]]), np.array([[1.0, 1e-7]])], np.ones(2))
        assert bl_constant_classC(datum) == pytest.approx(1e7, rel=1e-9)
        assert oracle_ratio(datum, [np.eye(1)] * 2) > 1e7
        with pytest.raises(DatumError, match="identity start.*ill-conditioned"):
            search_bl_constant(datum, 100, seed=0)


class TestTensorLift:
    def test_r5_scheme_produces_class_c(self):
        from blt.datum import kernel_basis

        maps = r5_example_maps()
        lifted, recipe = tensor_lift(maps, [(j, (j + 2) % 5) for j in range(5)])
        ok, _ = is_class_C(lifted)
        assert ok
        assert np.allclose(lifted.p, 0.25)
        for j in range(5):
            ns = kernel_basis(lifted.maps[j])
            assert ns.shape[1] == 1
            target = np.zeros(5)
            target[(j + 2) % 5] = 1.0
            assert min(
                np.linalg.norm(ns[:, 0] - target), np.linalg.norm(ns[:, 0] + target)
            ) <= 1e-10
        assert recipe.scheme == [(j, (j + 2) % 5) for j in range(5)]

    def test_singleton_tuples_keep_maps(self):
        maps = loomis_whitney_maps()
        lifted, _ = tensor_lift(maps, [(0,), (1,), (2,)])
        for B, B2 in zip(maps, lifted.maps):
            assert np.allclose(B, B2)

    def test_repeated_index_rejected(self):
        with pytest.raises(DatumError):
            tensor_lift(loomis_whitney_maps(), [(0, 0), (1,), (2,)])

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(DatumError):
            tensor_lift([np.eye(3)[:2], np.eye(4)[:2]], [(0,), (1,)])
