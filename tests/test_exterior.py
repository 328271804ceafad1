"""Exterior algebra: the reference algebra's frozen basis cases and
invariants, and the determinant routes of `blt.exterior` against it."""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blt.datum import (
    BLDatum,
    DatumError,
    is_class_C,
    kernel_basis,
    oriented_kernel_basis,
    reduce_to_projections,
)
from blt.exterior import (
    ExteriorError,
    cross_like,
    null_space,
    relative_transversality,
    row_wedge_norm,
    transversality_quantity,
)
from tests import exterior_oracle as oracle
from tests.conftest import loomis_whitney_maps
from tests.exterior_oracle import MultiVector, hodge_star, inner_product, rows_wedge, wedge


def e(d, *idx):
    return MultiVector(d, len(idx), {tuple(sorted(idx)): 1.0})


def minors_oracle(B: np.ndarray) -> dict:
    """Independent coefficient computation: signed maximal minors by
    explicit determinant expansion over column subsets."""
    B = np.atleast_2d(B)
    k, d = B.shape
    out = {}
    for cols in itertools.combinations(range(d), k):
        val = float(np.linalg.det(B[:, cols]))
        if val != 0.0:
            out[cols] = val
    return out


class TestWedge:
    def test_basis_product(self):
        u = wedge(e(3, 0), e(3, 1))
        assert u.terms == {(0, 1): 1.0}

    def test_antisymmetry_annihilates(self):
        assert wedge(e(3, 0), e(3, 0)).prune().terms == {}

    def test_bilinearity(self):
        u = MultiVector(3, 1, {(0,): 1.0, (1,): 1.0})
        out = wedge(u, e(3, 1)).prune()
        assert out.terms == {(0, 1): 1.0}

    def test_dimension_mismatch(self):
        with pytest.raises(ExteriorError):
            wedge(e(3, 0), e(4, 0))

    def test_grade_overflow(self):
        with pytest.raises(ExteriorError):
            wedge(e(2, 0, 1), e(2, 0))

    def test_associativity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = (MultiVector.from_vector(rng.standard_normal(5)) for _ in range(3))
            left = wedge(wedge(a, b), c)
            right = wedge(a, wedge(b, c))
            for key in set(left.terms) | set(right.terms):
                assert left.coefficient(key) == pytest.approx(right.coefficient(key), abs=1e-12)


class TestHodgeStar:
    def test_plane_to_axis(self):
        assert hodge_star(e(3, 0, 1)).terms == {(2,): 1.0}

    def test_volume_to_scalar(self):
        assert hodge_star(e(3, 0, 1, 2)).terms == {(): 1.0}

    def test_involution_on_vector(self):
        out = hodge_star(hodge_star(e(3, 0)))
        assert out.terms == {(0,): 1.0}

    @given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_double_star_sign(self, d, k, seed):
        k = min(k, d)
        rng = np.random.default_rng(seed)
        keys = list(itertools.combinations(range(d), k))
        coeffs = rng.standard_normal(len(keys))
        u = MultiVector(d, k, {key: float(c) for key, c in zip(keys, coeffs)})
        out = hodge_star(hodge_star(u))
        sign = (-1.0) ** (k * (d - k))
        for key in keys:
            assert out.coefficient(key) == pytest.approx(sign * u.coefficient(key), abs=1e-14)

    @given(st.integers(2, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_wedge_with_dual_recovers_inner_product(self, d, k, seed):
        k = min(k, d)
        rng = np.random.default_rng(seed)
        keys = list(itertools.combinations(range(d), k))
        u = MultiVector(d, k, {key: float(c) for key, c in zip(keys, rng.standard_normal(len(keys)))})
        v = MultiVector(d, k, {key: float(c) for key, c in zip(keys, rng.standard_normal(len(keys)))})
        pairing = wedge(u, hodge_star(v)).coefficient(tuple(range(d)))
        expected = inner_product(u, v)
        assert pairing == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestInnerProduct:
    def test_orthonormal_gram(self):
        assert inner_product(e(3, 0, 1), e(3, 0, 1)) == 1.0

    def test_distinct_keys_orthogonal(self):
        assert inner_product(e(3, 0, 1), e(3, 0, 2)) == 0.0

    def test_bilinear(self):
        u = wedge(MultiVector.from_vector(np.array([2.0, 0, 0])), e(3, 1))
        assert inner_product(u, e(3, 0, 1)) == pytest.approx(2.0)

    def test_gram_determinant_on_decomposables(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            U = rng.standard_normal((2, 4))
            V = rng.standard_normal((2, 4))
            got = inner_product(rows_wedge(U), rows_wedge(V))
            gram = np.array([[U[i] @ V[j] for j in range(2)] for i in range(2)])
            assert got == pytest.approx(float(np.linalg.det(gram)), rel=1e-12, abs=1e-12)


class TestRowsWedge:
    def test_coordinate_rows(self):
        u = rows_wedge(loomis_whitney_maps()[0])
        assert u.terms == {(1, 2): 1.0}

    def test_rank_deficient_vanishes(self):
        B = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert rows_wedge(B).prune(1e-15).terms == {}

    def test_frozen_two_row_example(self):
        # minors of ((1,1,0),(0,1,0)): only columns {0,1} survive
        u = rows_wedge(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
        assert u.prune(1e-15).terms == {(0, 1): 1.0}

    def test_empty_matrix_rejected(self):
        with pytest.raises(ExteriorError):
            rows_wedge(np.zeros((0, 3)))

    @pytest.mark.parametrize("shape", [(2, 4), (3, 5)])
    def test_against_minor_oracle(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        for _ in range(25):
            B = rng.standard_normal(shape)
            got = rows_wedge(B)
            expected = minors_oracle(B)
            keys = set(got.terms) | set(expected)
            for key in keys:
                assert got.coefficient(key) == pytest.approx(
                    expected.get(key, 0.0), rel=1e-12, abs=1e-12
                )


class TestTransversality:
    def test_loomis_whitney_magnitude_one(self):
        assert abs(transversality_quantity(loomis_whitney_maps())) == pytest.approx(1.0)

    def test_overlapping_kernels_vanish(self):
        # two copies of the same projection share a kernel line
        P1, P2, _ = loomis_whitney_maps()
        quantity = transversality_quantity([P1, P1, P2])
        assert quantity == pytest.approx(0.0, abs=1e-14)

    def test_scaled_maps_frozen_value(self):
        maps = [2.0 * B for B in loomis_whitney_maps()]
        assert abs(transversality_quantity(maps)) == pytest.approx(64.0)

    def test_kernel_dimension_mismatch_rejected(self):
        maps = loomis_whitney_maps()[:2]
        with pytest.raises(ExteriorError):
            transversality_quantity(maps)

    def test_swap_preserves_magnitude(self):
        # the dual blocks have grade 1 here, so a swap flips the sign only
        maps = loomis_whitney_maps()
        base = transversality_quantity(maps)
        swapped = transversality_quantity([maps[1], maps[0], maps[2]])
        assert swapped == pytest.approx(-base, rel=1e-12)

    def test_relative_quantity_is_the_kernel_determinant(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            maps = [rng.standard_normal((2, 3)) for _ in range(3)]
            want = abs(np.linalg.det(np.hstack([null_space(B) for B in maps])))
            for scale in (1e-4, 1.0, 1e5):
                scaled = [scale * B for B in maps]
                got = relative_transversality(scaled, transversality_quantity(scaled))
                assert got == pytest.approx(want, rel=1e-10)

    def test_relative_quantity_of_a_zero_map_is_zero(self):
        P1, P2, _ = loomis_whitney_maps()
        maps = [P1, P2, np.zeros((2, 3))]
        assert relative_transversality(maps, transversality_quantity(maps)) == 0.0

    def test_multilinear_in_blocks(self):
        maps = loomis_whitney_maps()
        scaled = [maps[0] * 3.0, maps[1], maps[2]]
        assert transversality_quantity(scaled) == pytest.approx(
            9.0 * transversality_quantity(maps), rel=1e-12
        )


@st.composite
def kernel_split_maps(draw):
    """Maps B_j with random kernel dimensions k_j >= 1 summing to d, with
    gaussian entries or entries in {-1, 0, 1} (which hit exactly
    rank-deficient maps and overlapping kernels)."""
    d = draw(st.integers(2, 6))
    cuts = draw(st.sets(st.integers(1, d - 1), min_size=1, max_size=d - 1))
    kernel_dims = np.diff([0, *sorted(cuts), d])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return [rng.integers(-1, 2, (d - k, d)).astype(float) for k in kernel_dims]
    return [rng.standard_normal((d - k, d)) for k in kernel_dims]


@given(kernel_split_maps())
@settings(max_examples=60, deadline=None)
def test_determinant_routes_match_the_reference_algebra(maps):
    d = maps[0].shape[1]
    close = dict(rel=1e-10, abs=1e-12)
    # |transversality| <= prod ||X_j||, and its rounding error near 0 is
    # of that size too (an exact 0 came out as -8.3e-12 at scale 8.5e4)
    scale = max(1.0, float(np.prod([rows_wedge(B).norm() for B in maps])))
    near_zero = dict(rel=1e-10, abs=1e-12 * scale)
    quantity = oracle.transversality_quantity(maps)
    assert transversality_quantity(maps) == pytest.approx(quantity, **near_zero)
    for B in maps:
        assert row_wedge_norm(B) == pytest.approx(rows_wedge(B).norm(), **close)
        if np.linalg.matrix_rank(B) == B.shape[0]:
            ns = kernel_basis(B)
            want = ns.copy()
            if oracle.orientation_pairing(B, ns) < 0:
                want[:, 0] = -want[:, 0]
            assert np.array_equal(oriented_kernel_basis(B), want)
    vectors = np.vstack(maps)[: d - 1]  # the maps hold (m - 1) d >= d rows
    np.testing.assert_allclose(cross_like(vectors), oracle.cross_like(vectors), rtol=1e-10, atol=1e-12)
    # reduce_to_projections checks quantity = det(A) prod ||X_j|| against
    # itself (both sides come from the same kernel bases); the reference
    # algebra is the independent side of that identity, sign included
    try:
        datum = BLDatum(d, maps, np.full(len(maps), 1.0 / (len(maps) - 1)))
    except DatumError:  # a rank-deficient map
        return
    if is_class_C(datum)[0]:
        cert = reduce_to_projections(datum)
        norms = np.prod([row_wedge_norm(B) for B in maps])
        assert cert.det_A * norms == pytest.approx(quantity, **near_zero)


def test_cross_like_matches_cross_product():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rows = rng.standard_normal((2, 3))
        got = cross_like(rows)
        assert np.allclose(got, np.cross(rows[0], rows[1]), atol=1e-12)


def _rank_deficient(rng, m, n):
    rank = int(rng.integers(0, min(m, n) + 1))
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


def _assert_same_kernel(A):
    got = null_space(A)
    want = scipy.linalg.null_space(A)
    assert got.shape == want.shape
    np.testing.assert_allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-12)


class TestNullSpace:
    """`null_space` against scipy.linalg.null_space as the oracle."""

    def test_random_rank_deficient(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m, n = (int(k) for k in rng.integers(1, 9, size=2))
            _assert_same_kernel(_rank_deficient(rng, m, n))

    def test_zero_matrix_gives_the_identity_basis(self):
        got = null_space(np.zeros((2, 5)))
        _assert_same_kernel(np.zeros((2, 5)))
        np.testing.assert_allclose(got @ got.T, np.eye(5), rtol=0, atol=1e-15)

    def test_full_rank_square_gives_an_empty_basis(self):
        A = np.random.default_rng(22).standard_normal((6, 6))
        assert null_space(A).shape == (6, 0)
        _assert_same_kernel(A)

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_single_rows(self, width):
        rng = np.random.default_rng(23 + width)
        for _ in range(20):
            w = rng.standard_normal(width)
            w[rng.integers(0, width)] = 0.0
            _assert_same_kernel(w[None, :])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            null_space(np.array([[1.0, np.nan]]))

