"""Grid lookups against the mask route, and refusal of non-finite grids."""

import numpy as np
import pytest

from blt.convext import Hypersurface, SurfaceFunction
from blt.inputs import GridFunction
from blt.polynomials import Polynomial


def mask_route(f: GridFunction, points: np.ndarray) -> np.ndarray:
    """The lookup `GridFunction.evaluate` replaced: per-axis masks of the
    cell indices, an `all` over axes and a masked gather.  The masks are
    taken in float, so NaN, inf and huge coordinates are simply outside
    instead of going through an undefined float-to-int cast."""
    cell = np.floor((points - f.origin) / f.spacing)
    inside = np.all((cell >= 0) & (cell < np.asarray(f.values.shape)), axis=1)
    out = np.zeros(points.shape[0])
    out[inside] = f.values[tuple(cell[inside].astype(np.int64).T)]
    return out


def lookup_points(rng, f: GridFunction, count: int = 400) -> np.ndarray:
    """Points in and around the support, points on cell edges (the upper
    edge of the last cell included), and coordinates that are NaN, +-inf
    or +-1e19 next to ordinary ones."""
    lo, hi = f.support_box()
    k = f.dim
    span = hi - lo
    inner = rng.uniform(lo - 0.3 * span, hi + 0.3 * span, (count, k))
    shape = np.asarray(f.values.shape)
    edges = f.origin + f.spacing * rng.integers(-1, shape + 2, (count, k))
    odd = inner[: 8 * k].copy()
    for row, value in enumerate([np.nan, np.inf, -np.inf, 1e19, -1e19, np.nan, 1e19, -np.inf] * k):
        odd[row, row % k] = value
    return np.concatenate([inner, edges, odd])


class TestGridLookup:
    @pytest.mark.parametrize("shape", [(7,), (5, 4), (3, 4, 2)])
    @pytest.mark.parametrize("spacing", [0.5, 0.1, 1.0 / 3.0])
    def test_matches_mask_route(self, shape, spacing):
        rng = np.random.default_rng(len(shape))
        values = rng.uniform(0.5, 1.5, shape)
        f = GridFunction(rng.uniform(-1.0, 1.0, len(shape)), spacing, values)
        points = lookup_points(rng, f)
        assert np.array_equal(f.evaluate(points), mask_route(f, points))
        # a second call reads the same padded copy
        assert np.array_equal(f.evaluate(points[::-1]), mask_route(f, points[::-1]))

    def test_single_point_and_empty_batch(self):
        f = GridFunction(np.zeros(2), 1.0, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(f.evaluate(np.array([1.5, 0.5])), [3.0])
        assert f.evaluate(np.zeros((0, 2))).shape == (0,)


class TestNonFiniteGrids:
    @pytest.mark.parametrize(
        "origin, spacing, values",
        [
            ([0.0], 1.0, [1.0, np.nan]),
            ([0.0], 1.0, [np.inf, 1.0]),
            ([np.nan], 1.0, [1.0, 1.0]),
            ([-np.inf], 1.0, [1.0, 1.0]),
            ([0.0], np.nan, [1.0, 1.0]),
            ([0.0], np.inf, [1.0, 1.0]),
        ],
    )
    def test_refused(self, origin, spacing, values):
        with pytest.raises(ValueError, match="finite"):
            GridFunction(np.array(origin), spacing, np.array(values))

    def test_surface_density_refused(self):
        # a NaN density used to flow through SurfaceFunction into NaN norms
        surf = Hypersurface([-0.05], [0.05], Polynomial(1, {(1,): 1.0, (2,): 0.5}), 1.0, 2.5)
        density = np.array([1.0, np.nan, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            SurfaceFunction(surf, GridFunction(np.array([-0.05]), 0.025, density)).lp_norm(2.0)

    @pytest.mark.parametrize("spacing", [1e300, np.float64(1e300)])
    def test_cell_volume_beyond_double_range_refused(self, spacing):
        # 1e300 is finite, but its square overflowed `integral` with an OverflowError
        with pytest.raises(ValueError, match="cell volume"):
            GridFunction(np.zeros(2), spacing, np.ones((2, 2)))
