"""Exact geometric measures against Monte Carlo and closed-form oracles."""

import numpy as np
import pytest

from scipy.optimize import linprog

from blt import geometry
from blt.geometry import (
    SUBDIVISION,
    bounding_box_from_linear_constraints,
    grid_polygon_mass,
    grid_slab_mass,
)
from tests.polytope_oracle import polytope_volume


def clip_polygon_halfplane(vertices: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Scalar Sutherland-Hodgman clip of a convex polygon against {<y, n> <= c}."""
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) == 0:
        return vertices
    dist = vertices @ normal - offset
    keep = dist <= 0.0
    if np.all(keep):
        return vertices
    if not np.any(keep):
        return vertices[:0]
    out = []
    n = len(vertices)
    for i in range(n):
        j = (i + 1) % n
        vi, vj = vertices[i], vertices[j]
        di, dj = dist[i], dist[j]
        if di <= 0.0:
            out.append(vi)
        if (di <= 0.0) != (dj <= 0.0):
            t = di / (di - dj)
            out.append(vi + t * (vj - vi))
    return np.asarray(out)


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a (convex) polygon given in order."""
    if len(vertices) < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def sutherland_hodgman_areas(h: float, normals, offsets) -> np.ndarray:
    """(B,) areas of [0, h]^2 ∩ {<y, normals[p]> <= offsets[p, b] for all p},
    by batched Sutherland-Hodgman clipping (the rank-2 kernel the edge sum
    replaced): the B polygons live in one vertex array of 4 + P slots with
    a vertex count each, then a shoelace sum."""
    count = np.full(offsets.shape[1], 4)
    verts = np.zeros((len(count), 4 + len(normals), 2))
    verts[:, :4] = [[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]]
    for normal, offset in zip(normals, offsets):
        slots = np.arange(verts.shape[1])
        live = slots < count[:, None]
        succ = np.where(slots + 1 < count[:, None], slots + 1, 0)
        dist = verts[..., 0] * normal[0] + verts[..., 1] * normal[1] - offset[:, None]
        dist_next = np.take_along_axis(dist, succ, axis=1)
        inside = dist <= 0.0
        crossing = live & (inside != (dist_next <= 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(crossing, dist / (dist - dist_next), 0.0)
        nxt = np.take_along_axis(verts, succ[..., None], axis=1)
        emitted = np.stack([verts, verts + t[..., None] * (nxt - verts)], axis=2)
        keep = np.stack([live & inside, crossing], axis=2).reshape(len(count), -1)
        count = keep.sum(axis=1)
        rows, cols = np.nonzero(keep)
        verts = np.zeros((len(count), max(verts.shape[1], int(count.max(initial=0))), 2))
        verts[rows, np.cumsum(keep, axis=1)[rows, cols] - 1] = emitted.reshape(
            len(count), -1, 2
        )[rows, cols]
    live = np.arange(verts.shape[1]) < count[:, None]
    verts = np.where(live[..., None], verts, verts[:, :1])
    x, y = verts[..., 0], verts[..., 1]
    cross = x * np.roll(y, -1, axis=1) - y * np.roll(x, -1, axis=1)
    return np.where(count >= 3, 0.5 * np.abs(cross.sum(axis=1)), 0.0)


def oracle_mass(values, origin, h, halfplanes) -> float:
    """One region's grid mass, cell by cell: interval overlap at rank 1,
    a scalar polygon clip at rank 2, SUBDIVISION^k sub-cell midpoints at
    rank >= 3 (the route the batched masses replaced)."""
    values = np.asarray(values, dtype=float)
    k = values.ndim
    q = SUBDIVISION
    total = 0.0
    for idx in np.ndindex(values.shape):
        if values[idx] <= 0:
            continue
        corner = np.asarray(origin, dtype=float) + h * np.array(idx)
        if k == 1:
            lo, hi = corner[0], corner[0] + h
            for normal, offset in halfplanes:
                n = float(normal[0])
                if n > 0:
                    hi = min(hi, offset / n)
                elif n < 0:
                    lo = max(lo, offset / n)
                elif offset < 0:
                    hi = lo
            measure = max(hi - lo, 0.0)
        elif k == 2:
            poly = corner + np.array([[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]])
            for normal, offset in halfplanes:
                poly = clip_polygon_halfplane(poly, np.asarray(normal, dtype=float), offset)
            measure = polygon_area(poly)
        else:
            inside = 0
            for sub in np.ndindex((q,) * k):
                mid = corner + (np.array(sub) + 0.5) * (h / q)
                inside += all(mid @ normal <= offset for normal, offset in halfplanes)
            measure = inside * (h / q) ** k
        total += values[idx] * measure
    return total


def areas_below(origins, h, w, c):
    """Areas of the cells [o, o + h]^2 with {<y, w> <= c}, by the kernel of
    the rank-2 slab masses."""
    base, wx, wy = geometry._reflected_projections(np.asarray(origins, dtype=float), h, w)
    return geometry._square_areas_below(np.asarray(c, dtype=float) - base, h, wx, wy)


class TestBoxHalfspaceArea:
    @pytest.mark.parametrize("seed", range(6))
    def test_against_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.5, 2.0)
        origins = rng.uniform(-1, 1, size=(5, 2))
        w = rng.standard_normal(2)
        c = rng.uniform(-2, 2, size=5)
        areas = areas_below(origins, h, w, c)
        pts = rng.uniform(0, h, size=(200_000, 2))
        for k in range(5):
            inside = (pts + origins[k]) @ w <= c[k]
            mc = inside.mean() * h * h
            assert areas[k] == pytest.approx(mc, abs=4 * h * h / np.sqrt(len(pts)) + 1e-3)

    def test_axis_aligned_exact(self):
        origins = np.array([[0.0, 0.0]])
        # halfspace x <= 0.25 on the unit cell
        area = areas_below(origins, 1.0, np.array([1.0, 0.0]), np.array([0.25]))
        assert area[0] == pytest.approx(0.25)
        area = areas_below(origins, 1.0, np.array([0.0, -2.0]), np.array([-1.0]))
        assert area[0] == pytest.approx(0.5)

    def test_diagonal_triangle(self):
        origins = np.array([[0.0, 0.0]])
        # x + y <= 1 cuts half of the unit cell
        area = areas_below(origins, 1.0, np.array([1.0, 1.0]), np.array([1.0]))
        assert area[0] == pytest.approx(0.5)


class TestGridSlabMass:
    def test_constant_grid_full_slab(self):
        values = np.ones((3, 3))
        mass = grid_slab_mass(values, np.zeros(2), 1.0, np.array([1.0, 0.0]), -10.0, 10.0)
        assert mass == pytest.approx(9.0)

    def test_1d_interval_overlap(self):
        values = np.array([2.0, 4.0])
        mass = grid_slab_mass(values, np.zeros(1), 1.0, np.array([1.0]), 0.5, 1.5)
        assert mass == pytest.approx(2.0 * 0.5 + 4.0 * 0.5)

    def test_additivity_across_disjoint_slabs(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, (4, 4))
        w = np.array([0.8, -0.6])
        cuts = [-2.0, -0.5, 0.3, 1.1, 2.5]
        total = grid_slab_mass(values, np.zeros(2), 1.0, w, cuts[0], cuts[-1])
        parts = sum(
            grid_slab_mass(values, np.zeros(2), 1.0, w, lo, hi)
            for lo, hi in zip(cuts, cuts[1:])
        )
        assert parts == pytest.approx(total, rel=1e-12)

    def test_rank3_subdivision_consistent(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 1, (3, 3, 3))
        w = np.array([1.0, 0.5, -0.25])
        total_mass = values.sum()
        full = grid_slab_mass(values, np.zeros(3), 1.0, w, -10.0, 10.0)
        assert full == pytest.approx(total_mass, rel=1e-12)
        mid = grid_slab_mass(values, np.zeros(3), 1.0, w, -10.0, 1.0)
        rest = grid_slab_mass(values, np.zeros(3), 1.0, w, 1.0, 10.0)
        assert mid + rest == pytest.approx(full, rel=1e-12)


def slab_halfplanes(w, lo, hi):
    return [(w, hi), (-w, -lo)]


class TestOneMassRoutine:
    @pytest.mark.parametrize("rank", [1, 2])
    def test_exact_ranks_match_slab_mass(self, rank):
        rng = np.random.default_rng(6 + rank)
        values = rng.uniform(0, 1, (5,) * rank)
        origin = np.full(rank, -0.3)
        for w in (rng.standard_normal(rank), -rng.standard_normal(rank)):
            for lo, hi in ((-1.0, 0.45), (0.1, 0.12), (-5.0, 5.0), (3.0, 4.0)):
                slab = grid_slab_mass(values, origin, 0.5, w, lo, hi)
                poly = grid_polygon_mass(values, origin, 0.5, slab_halfplanes(w, lo, hi))
                assert poly == pytest.approx(slab, rel=1e-12, abs=1e-300)

    def test_rank1_interval_overlap(self):
        values = np.array([2.0, 4.0])
        halfplanes = [(np.array([2.0]), 3.0), (np.array([-1.0]), -0.5)]  # 0.5 <= y <= 1.5
        mass = grid_polygon_mass(values, np.zeros(1), 1.0, halfplanes)
        assert mass == pytest.approx(2.0 * 0.5 + 4.0 * 0.5, rel=1e-15, abs=0)
        assert grid_polygon_mass(values, np.zeros(1), 1.0, [(np.array([0.0]), -1.0)]) == 0.0

    def test_rank3_slab_is_the_same_measure(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, (3, 4, 3))
        w = np.array([1.0, 0.5, -0.25])
        for lo, hi in ((-10.0, 10.0), (-0.3, 1.1), (0.2, 0.9)):
            slab = grid_slab_mass(values, np.zeros(3), 1.0, w, lo, hi)
            poly = grid_polygon_mass(values, np.zeros(3), 1.0, slab_halfplanes(w, lo, hi))
            assert poly == slab
        assert grid_polygon_mass(values, np.zeros(3), 1.0, slab_halfplanes(w, -10.0, 10.0)) == (
            pytest.approx(values.sum(), rel=1e-12)
        )

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_additive_across_a_split(self, rank):
        rng = np.random.default_rng(9 + rank)
        values = rng.uniform(0, 1, (4,) * rank)
        origin = np.full(rank, -0.1)
        region = [(rng.standard_normal(rank), 1.3), (rng.standard_normal(rank), 0.9)]
        cut = rng.standard_normal(rank)
        whole = grid_polygon_mass(values, origin, 0.5, region)
        below = grid_polygon_mass(values, origin, 0.5, region + [(cut, 0.17)])
        above = grid_polygon_mass(values, origin, 0.5, region + [(-cut, -0.17)])
        assert whole > 0
        assert below + above == pytest.approx(whole, rel=1e-12)


def tube_regions(rng, rank):
    """Two slabs per region, as a map's tubes are cut: the normals w1, w2
    and (T,) bounds, with the edge cases in the first rows: an empty
    region (hi < lo on one slab), the whole grid, a region disjoint from
    the grid, a zero-width slab; random regions after them."""
    w1, w2 = rng.standard_normal(rank), rng.standard_normal(rank)
    lo1 = np.concatenate([[0.3, -1e3, 50.0, 0.2], rng.uniform(-1.5, 1.0, 9)])
    hi1 = np.concatenate([[0.1, 1e3, 51.0, 0.2], lo1[4:] + rng.uniform(0.05, 1.5, 9)])
    lo2 = np.concatenate([[-1.0, -1e3, -1.0, -1.0], rng.uniform(-1.5, 1.0, 9)])
    hi2 = np.concatenate([[1.0, 1e3, 1.0, 1.0], lo2[4:] + rng.uniform(0.05, 1.5, 9)])
    return [(w1, hi1), (-w1, -lo1), (w2, hi2), (-w2, -lo2)]


def sparse_grid(rng, rank):
    shape = (6,) if rank == 1 else (5, 4) if rank == 2 else (3, 4, 3)
    return np.clip(rng.uniform(-0.3, 1.0, shape), 0.0, None)


class TestBatchedMasses:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_polygon_batch_matches_scalar_oracle(self, rank, seed):
        rng = np.random.default_rng(100 * rank + seed)
        values = sparse_grid(rng, rank)
        origin = rng.uniform(-1.2, -0.8, rank)
        halfplanes = tube_regions(rng, rank)
        masses = grid_polygon_mass(values, origin, 0.5, halfplanes)
        oracle = [
            oracle_mass(values, origin, 0.5, [(n, c[t]) for n, c in halfplanes])
            for t in range(len(masses))
        ]
        scale = max(oracle)
        assert scale > 0
        assert masses.shape == (len(oracle),)
        assert np.all(np.abs(masses - oracle) <= 1e-12 * scale)
        assert masses[0] == 0.0 and masses[2] == 0.0
        assert masses[1] == pytest.approx(values.sum() * 0.5**rank, rel=1e-12)
        # a region's mass is the same bits alone as in its batch
        for t in (0, 1, 5, len(masses) - 1):
            alone = grid_polygon_mass(values, origin, 0.5, [(n, c[t]) for n, c in halfplanes])
            assert isinstance(alone, float) and alone == masses[t]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_slab_batch_matches_scalar_oracle(self, rank):
        rng = np.random.default_rng(40 + rank)
        values = sparse_grid(rng, rank)
        origin = rng.uniform(-1.2, -0.8, rank)
        w = rng.standard_normal(rank)
        lo = np.array([0.3, -1e3, 50.0, 0.2, *rng.uniform(-1.5, 1.0, 9)])
        hi = np.array([0.1, 1e3, 51.0, 0.2, *(lo[4:] + rng.uniform(0.05, 1.5, 9))])
        masses = grid_slab_mass(values, origin, 0.5, w, lo, hi)
        oracle = [oracle_mass(values, origin, 0.5, [(w, b), (-w, -a)]) for a, b in zip(lo, hi)]
        assert np.all(np.abs(masses - oracle) <= 1e-12 * max(oracle))
        assert masses[0] == 0.0 and masses[2] == 0.0 and masses[3] == 0.0
        for t in range(len(lo)):
            assert grid_slab_mass(values, origin, 0.5, w, lo[t], hi[t]) == masses[t]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_block_seams(self, rank, monkeypatch):
        rng = np.random.default_rng(70 + rank)
        values = sparse_grid(rng, rank)
        origin = rng.uniform(-1.2, -0.8, rank)
        halfplanes = tube_regions(rng, rank)
        w, lo, hi = halfplanes[0][0], -halfplanes[1][1], halfplanes[0][1]
        whole_poly = grid_polygon_mass(values, origin, 0.5, halfplanes)
        whole_slab = grid_slab_mass(values, origin, 0.5, w, lo, hi)
        # two regions' cells per block, and a few clipped pairs per batch
        cells = int(np.count_nonzero(values))
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 2 * cells)
        assert len(geometry._blocks(len(lo), cells)) >= 3
        assert np.array_equal(grid_polygon_mass(values, origin, 0.5, halfplanes), whole_poly)
        assert np.array_equal(grid_slab_mass(values, origin, 0.5, w, lo, hi), whole_slab)

    def test_empty_grid_and_empty_batch(self):
        zeros = np.zeros((3, 3))
        halfplanes = [(np.array([1.0, 0.0]), np.array([0.5, 2.0]))]
        assert np.array_equal(grid_polygon_mass(zeros, np.zeros(2), 1.0, halfplanes), [0.0, 0.0])
        values = np.ones((3, 3))
        none = grid_polygon_mass(values, np.zeros(2), 1.0, [(np.array([1.0, 0.0]), np.zeros(0))])
        assert none.shape == (0,)
        assert grid_slab_mass(values, np.zeros(2), 1.0, np.array([0.0, 1.0]), 3.0, 1.0) == 0.0


def tube_grid(rng, normals, rows: int = 6, cols: int = 5):
    """A map's tubes as `scales` cuts them: the slab bounds of normal w1
    vary along region axis 0, those of w2 along axis 1.  Row 0 is
    inverted (hi < lo), row 1 lies off the grid and column 0 has zero
    width; the other tubes are random."""
    w1, w2 = normals
    lo1 = np.concatenate([[0.3, 50.0], rng.uniform(-1.5, 1.0, rows - 2)])
    hi1 = np.concatenate([[0.1, 51.0], lo1[2:] + rng.uniform(0.05, 1.5, rows - 2)])
    lo2 = np.concatenate([[0.2], rng.uniform(-1.5, 1.0, cols - 1)])
    hi2 = np.concatenate([[0.2], lo2[1:] + rng.uniform(0.05, 1.5, cols - 1)])
    return [(w1, hi1[:, None]), (-w1, -lo1[:, None]), (w2, hi2[None, :]), (-w2, -lo2[None, :])]


def tube_normals(rng, rank: int, kind: str):
    w1 = rng.standard_normal(rank)
    if kind == "axis-aligned":
        return np.eye(rank)[0], 2.0 * np.eye(rank)[-1]
    if kind == "near-parallel":  # one pair within PARALLEL_TOL, one just outside it
        tilt = 1e-15 if rank % 2 else 1e-13
        return w1, w1 + tilt * np.linalg.norm(w1) * rng.standard_normal(rank)
    return w1, rng.standard_normal(rank)


def flattened(halfplanes):
    """The regions of a broadcast-offset call as one flat (T,) batch, in
    the row-major order of their grid, and the grid's shape."""
    shape = np.broadcast_shapes(*(np.shape(c) for _, c in halfplanes))
    return [(n, np.broadcast_to(c, shape).ravel()) for n, c in halfplanes], shape


def assert_matches_flat_call(values, origin, halfplanes):
    flat, shape = flattened(halfplanes)
    masses = grid_polygon_mass(values, origin, 0.5, halfplanes)
    assert masses.shape == shape
    assert np.array_equal(masses, grid_polygon_mass(values, origin, 0.5, flat).reshape(shape))
    return masses


class TestBroadcastOffsets:
    """A grid of regions whose offsets vary along one region axis each is
    measured with the same bits as the flat (T,) call of the same regions."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["random", "axis-aligned", "near-parallel"])
    def test_tube_grid_matches_the_flat_call(self, rank, kind):
        rng = np.random.default_rng(400 + 10 * rank + len(kind))
        values = sparse_grid(rng, rank)
        origin = rng.uniform(-1.2, -0.8, rank)
        tubes = tube_grid(rng, tube_normals(rng, rank, kind))
        masses = assert_matches_flat_call(values, origin, tubes)
        assert masses.shape == (6, 5) and masses.max() > 0
        assert np.all(masses[:2] == 0.0)  # the inverted row and the row off the grid

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_grid_without_positive_cells(self, rank):
        rng = np.random.default_rng(320 + rank)
        halfplanes = tube_grid(rng, tube_normals(rng, rank, "random"))
        masses = grid_polygon_mass(np.zeros((4,) * rank), np.zeros(rank), 0.5, halfplanes)
        assert masses.shape == (6, 5) and not masses.any()

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_scalar_offsets_mixed_with_arrays(self, rank):
        rng = np.random.default_rng(330 + rank)
        values = sparse_grid(rng, rank)
        origin = rng.uniform(-1.2, -0.8, rank)
        tubes = tube_grid(rng, tube_normals(rng, rank, "random"))
        cut = (rng.standard_normal(rank), 0.4)
        assert_matches_flat_call(values, origin, tubes + [cut])
        # a tube grid with one constant slab bound, and a 0-d array offset
        assert_matches_flat_call(values, origin, [tubes[0], (tubes[1][0], -0.9), *tubes[2:]])
        assert_matches_flat_call(values, origin, [*tubes[:3], (tubes[3][0], np.array(1.1))])

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_three_region_axes(self, rank):
        rng = np.random.default_rng(340 + rank)
        values = sparse_grid(rng, rank)
        origin = rng.uniform(-1.2, -0.8, rank)
        halfplanes = []
        for axis, count in enumerate((3, 4, 2)):
            shape = [1, 1, 1]
            shape[axis] = count
            w = rng.standard_normal(rank)
            lo = rng.uniform(-1.5, 0.5, count)
            halfplanes += [(w, (lo + rng.uniform(0.3, 1.5, count)).reshape(shape)),
                           (-w, -lo.reshape(shape))]
        masses = assert_matches_flat_call(values, origin, halfplanes)
        assert masses.shape == (3, 4, 2)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_ragged_last_region_block(self, rank, monkeypatch):
        rng = np.random.default_rng(350 + rank)
        values = sparse_grid(rng, rank)
        origin = rng.uniform(-1.2, -0.8, rank)
        halfplanes = tube_grid(rng, tube_normals(rng, rank, "random"), rows=7)
        whole = grid_polygon_mass(values, origin, 0.5, halfplanes)
        # blocks of 4 regions: they straddle rows of 5, and the last holds 3
        cells = int(np.count_nonzero(values))
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 4 * cells)
        assert [b.stop - b.start for b in geometry._blocks(whole.size, cells)][-2:] == [4, 3]
        assert np.array_equal(assert_matches_flat_call(values, origin, halfplanes), whole)

    def test_an_offset_may_vary_along_one_axis_only(self):
        values = np.ones((3, 3))
        w = np.array([1.0, 0.5])
        with pytest.raises(ValueError, match="one region axis"):
            grid_polygon_mass(values, np.zeros(2), 1.0, [(w, np.ones((2, 3)))])


def test_weighted_sums_match_the_per_row_dot_loop():
    rng = np.random.default_rng(12)
    for columns in (1, 2, 3, 7, 16, 33, 144, 1000):
        weights = rng.uniform(0.0, 1.0, (160, columns))
        for vals in (rng.uniform(0.0, 1.0, columns), rng.uniform(0.0, 1.0, 2 * columns)[::2]):
            oracle = np.array([np.dot(vals, row) for row in weights], dtype=float)
            assert np.array_equal(geometry._weighted_sums(weights, vals), oracle)


def ladder_slabs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut indices of a pigeonhole step's slabs over n + 2 cuts: the n
    consecutive candidates, then the window from the first cut to the last."""
    return np.append(np.arange(n), 0), np.append(np.arange(1, n + 1), n + 1)


class TestSlabCells:
    @pytest.mark.parametrize("w", [
        [1.0, 0.4], [0.35, -1.0], [-0.8, 0.55], [-1.1, -0.45],
        [1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
    ], ids=["oblique", "reflect-y", "reflect-x", "reflect-both", "x-axis", "y-axis", "zero"])
    def test_masses_match_grid_slab_mass(self, w, monkeypatch):
        rng = np.random.default_rng(11)
        values = sparse_grid(rng, 2)
        origin, h, w = np.array([-1.1, -0.9]), 0.5, np.array(w)
        n = 23
        cuts = np.sort(rng.uniform(-2.2, 2.2, n + 2))
        cells = geometry.SlabCells(values, origin, h, w)
        lo, hi = ladder_slabs(n)
        masses = cells.masses(cuts, lo, hi)
        assert np.array_equal(masses, grid_slab_mass(values, origin, h, w, cuts[lo], cuts[hi]))
        for t in range(n + 1):
            assert masses[t] == grid_slab_mass(values, origin, h, w, cuts[lo[t]], cuts[hi[t]])
        oracle = [oracle_mass(values, origin, h, slab_halfplanes(w, cuts[a], cuts[b]))
                  for a, b in zip(lo, hi)]
        assert np.all(np.abs(masses - oracle) <= 1e-12 * values.sum() * h * h)
        assert masses[-1] > 0.0
        # per block of slabs, the areas at each slab's own two cuts
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 2 * len(cells.vals))
        assert len(geometry._blocks(len(lo), 2 * len(cells.vals))) == n + 1
        assert np.array_equal(cells.masses(cuts, lo, hi), masses)
        if cells.wx > 0.0 and cells.wy > 0.0:
            # the cuts fall in each piece of the area: triangle, trapezoid and
            # the square less a triangle
            r = cuts[:, None] - cells.base
            short, long = sorted([cells.wx * h, cells.wy * h])
            assert short < long
            assert np.any((0.0 < r) & (r < short))
            assert np.any((short < r) & (r < long))
            assert np.any((long < r) & (r < short + long))

    def test_no_positive_cell_gives_exact_zeros(self):
        values = np.zeros((4, 5))
        values[1, 2] = -0.0
        cells = geometry.SlabCells(values, np.zeros(2), 0.5, np.array([0.6, -0.8]))
        assert len(cells.vals) == 0
        lo, hi = ladder_slabs(6)
        masses = cells.masses(np.linspace(-3.0, 3.0, 8), lo, hi)
        assert masses.shape == (7,)
        assert np.array_equal(masses, np.zeros(7)) and not np.any(np.signbit(masses))

    def test_upper_cut_below_lower_cut_is_empty(self):
        cells = geometry.SlabCells(np.ones((3, 3)), np.zeros(2), 1.0, np.array([0.0, 1.0]))
        masses = cells.masses(np.array([3.0, 1.0, 2.0]), np.array([0, 1]), np.array([1, 2]))
        assert masses[0] == 0.0 and masses[1] == 3.0

    @pytest.mark.parametrize("rank", [1, 3])
    def test_other_ranks_measure_two_halfplanes(self, rank):
        rng = np.random.default_rng(5 + rank)
        values = sparse_grid(rng, rank)
        origin, h, w = np.full(rank, -0.8), 0.5, rng.normal(size=rank)
        n = 9
        cuts = np.sort(rng.uniform(-1.5, 1.5, n + 2))
        cells = geometry.SlabCells(values, origin, h, w)
        lo, hi = ladder_slabs(n)
        masses = cells.masses(cuts, lo, hi)
        assert np.array_equal(masses, grid_polygon_mass(values, origin, h,
                                                        slab_halfplanes(w, cuts[lo], cuts[hi])))
        assert masses[-1] > 0.0
        assert np.array_equal(cells.masses(cuts[::-1], lo, hi), np.zeros(n + 1))


def area_cases(rng, h):
    """(normals, offsets) cases for the rank-2 area kernel in cell-local
    coordinates: random normals with P = 1..6, then zero, axis-aligned,
    parallel, anti-parallel and coincident normals, and offsets exactly on
    the cell's sides and through its corners."""
    cases = []
    for p in range(1, 7):
        normals = rng.standard_normal((p, 2))
        cases.append((normals, rng.uniform(-1.5, 1.5, (p, 64)) * h))
    axis = np.array([[1.0, 0.0], [0.0, -2.0], [-0.5, 0.0], [0.0, 3.0]])
    sides = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], (4, 64)) * h * np.abs(axis).sum(axis=1)[:, None]
    sides *= np.sign(axis.sum(axis=1))[:, None]
    cases.append((axis, sides))
    for _ in range(3):
        w, v = rng.standard_normal(2), rng.standard_normal(2)
        c = rng.uniform(-1.0, 1.0, (2, 64)) * h
        width = rng.choice([0.0, 0.0, 0.3, -0.3], 64) * h
        s = rng.choice([2.0, 3.0, 0.7])
        cases.append((np.array([w, s * w, v]), np.array([c[0], s * c[0], c[1]])))
        cases.append((np.array([w, -s * w, v]), np.array([c[0], -s * c[0] + width, c[1]])))
        cases.append((np.array([w, s * w, -v]), np.array([c[0], s * (c[0] + width), c[1]])))
        zero = np.array([w, [0.0, 0.0], v])
        cases.append((zero, np.array([c[0], rng.choice([-1.0, 0.0, 1.0], 64), c[1]])))
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    cases.append((corners, rng.choice([-1.0, 0.0, 1.0, 2.0], (3, 64)) * h))
    return cases


class TestClosedFormAreas:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("h", [1.0, 0.37, 1e-3])
    def test_matches_sutherland_hodgman(self, seed, h):
        rng = np.random.default_rng(seed)
        for normals, offsets in area_cases(rng, h):
            areas = geometry._clipped_square_areas(h, normals, offsets)
            oracle = sutherland_hodgman_areas(h, normals, offsets)
            assert np.all(areas >= 0.0)
            assert np.all(np.abs(areas - oracle) <= 1e-12 * h * h), normals

    def test_degenerate_regions(self):
        h = 0.5
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        cases = {
            "coincident with a side": ([x], [[h]], h * h),
            "zero-width strip": ([x, -2.0 * x], [[0.2], [-0.4]], 0.0),
            "strip on a side": ([x, -x], [[0.0], [0.0]], 0.0),
            "zero normal, c < 0": ([x, 0.0 * x], [[0.3], [-1.0]], 0.0),
            "zero normal, c = 0": ([x, 0.0 * x], [[0.3], [0.0]], 0.3 * h),
            "repeated halfplane": ([x + y, x + y], [[0.5], [0.5]], 0.125),
        }
        for name, (normals, offsets, expected) in cases.items():
            area = geometry._clipped_square_areas(h, np.array(normals), np.array(offsets))
            assert area[0] == pytest.approx(expected, abs=1e-15), name


class TestPolygonMass:
    def test_clip_square_to_triangle(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        clipped = clip_polygon_halfplane(square, np.array([1.0, 1.0]), 1.0)
        assert polygon_area(clipped) == pytest.approx(0.5)

    def test_grid_polygon_against_monte_carlo(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, (4, 4))
        halfplanes = [
            (np.array([1.0, 0.2]), 2.5),
            (np.array([-0.3, 1.0]), 2.0),
            (np.array([-1.0, -1.0]), -0.8),
        ]
        mass = grid_polygon_mass(values, np.zeros(2), 1.0, halfplanes)
        pts = rng.uniform(0, 4, size=(400_000, 2))
        keep = np.ones(len(pts), dtype=bool)
        for normal, offset in halfplanes:
            keep &= pts @ normal <= offset
        idx = np.floor(pts).astype(int)
        mc = values[idx[:, 0], idx[:, 1]][keep].sum() / len(pts) * 16.0
        assert mass == pytest.approx(mc, rel=0.02)


class TestPolytopeVolume:
    def test_unit_cube(self):
        A = np.vstack([np.eye(3), -np.eye(3)])
        b = np.concatenate([np.ones(3), np.zeros(3)])
        assert polytope_volume(A, b) == pytest.approx(1.0, rel=1e-9)

    def test_empty(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, 0.0])  # x <= -1 and x >= 0
        assert polytope_volume(A, b) == 0.0

    def test_flat(self):
        A = np.vstack([np.eye(2), -np.eye(2)])
        b = np.array([1.0, 0.0, 0.0, 0.0])  # 0 <= x <= 1, y = 0
        assert polytope_volume(A, b) == 0.0

    def test_interval_has_its_length(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([1.0, 0.0])  # 0 <= x <= 1
        assert polytope_volume(A, b) == 1.0
        A = np.array([[2.0], [-0.5], [0.0]])
        b = np.array([3.0, 1.0, 1.0])  # -2 <= x <= 1.5, plus a void row
        assert polytope_volume(A, b) == 3.5

    @pytest.mark.parametrize(
        "A, b, reason",
        [
            (np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 0.0]), "Qhull"),
            (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0, 1.0]), "Qhull"),
            (np.array([[1.0], [0.0]]), np.array([1.0, 1.0]), "LP"),
        ],
        ids=["strip", "half-strip", "half-line"],
    )
    def test_unbounded_raises_instead_of_zero(self, A, b, reason):
        with pytest.raises(ValueError, match=reason):
            polytope_volume(A, b)


def lp_box(mats, lows, highs, d):
    """Two LPs per axis over the rows B_j x <= hi_j and -B_j x <= -lo_j;
    "empty" when HiGHS finds them infeasible, None when it cannot bound
    them."""
    A = np.vstack([rows for B in mats for rows in (B, -B)])
    b = np.concatenate([bound for lo, hi in zip(lows, highs) for bound in (hi, -lo)])
    lo_out, hi_out = np.empty(d), np.empty(d)
    for a in range(d):
        c = np.eye(d)[a]
        low = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
        high = linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
        if low.status == 2 and high.status == 2:
            return "empty"
        if not (low.success and high.success):
            return None
        lo_out[a], hi_out[a] = low.fun, -high.fun
    return lo_out, hi_out


def single_entry_case(rng, d, scaled):
    """Maps whose rows have one nonzero entry each; the first map reads
    every axis, and some intervals are empty or points."""
    mats, lows, highs = [], [], []
    for j in range(int(rng.integers(1, 5))):
        k = int(rng.integers(1, d + 1)) if j else d
        B = np.zeros((k, d))
        entries = rng.choice([1.0, -1.0, 2.0, -0.5, 3.0, 0.1, -7.3], k) if scaled else np.ones(k)
        B[np.arange(k), rng.choice(d, k, replace=False)] = entries
        lo = np.round(rng.uniform(-3, 1, k), int(rng.integers(0, 17)))
        mats.append(B)
        lows.append(lo)
        highs.append(lo + rng.uniform(0, 4, k) * (rng.uniform() > 0.1))
    return mats, lows, highs


class TestBoundingBox:
    @pytest.mark.parametrize("scaled", [False, True], ids=["unit", "scaled"])
    def test_interval_box_matches_lp_bit_for_bit(self, scaled):
        rng = np.random.default_rng(41 + scaled)
        bounded = empty = 0
        for _ in range(40):
            d = int(rng.integers(1, 5))
            mats, lows, highs = single_entry_case(rng, d, scaled)
            got = bounding_box_from_linear_constraints(mats, lows, highs, d)
            want = lp_box(mats, lows, highs, d)
            if want is None:
                assert got is None
                continue
            if isinstance(want, str):
                assert np.any(got[0] > got[1])
                empty += 1
                continue
            bounded += 1
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        assert 10 < bounded < 40 and empty > 0

    def test_other_rows_go_through_the_lp(self, monkeypatch):
        calls = []
        def counted(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr("scipy.optimize.linprog", counted)
        maps = [np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]), np.array([[0.0, 0.0, 2.0]])]
        lows, highs = [np.zeros(2), np.array([-1.0])], [np.ones(2), np.array([3.0])]
        got = bounding_box_from_linear_constraints(maps, lows, highs, 3)
        assert len(calls) == 6
        want = lp_box(maps, lows, highs, 3)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_empty_intersection_detected(self):
        maps = [np.eye(2), np.array([[0.0, -2.0]])]
        lows, highs = [np.zeros(2), np.array([-6.0])], [np.ones(2), np.array([-4.0])]
        assert lp_box(maps, lows, highs, 2) == "empty"
        lo, hi = bounding_box_from_linear_constraints(maps, lows, highs, 2)
        assert lo[1] > hi[1]

    @pytest.mark.parametrize("row", [[1.0, 0.0], [1.0, 1.0]], ids=["intervals", "lp"])
    def test_empty_is_told_from_unbounded(self, row):
        # <row, x> in [0, 1] and in [2, 3] is empty, though no row bounds x
        # orthogonally to row; in [0, 1] and in [0.5, 2] it is unbounded
        maps = [np.array([row])] * 2
        lows, highs = [np.zeros(1), np.full(1, 2.0)], [np.ones(1), np.full(1, 3.0)]
        lo, hi = bounding_box_from_linear_constraints(maps, lows, highs, 2)
        assert np.any(lo > hi)
        lows, highs = [np.zeros(1), np.full(1, 0.5)], [np.ones(1), np.full(1, 2.0)]
        assert bounding_box_from_linear_constraints(maps, lows, highs, 2) is None

    def test_loomis_whitney_box(self):
        from tests.conftest import loomis_whitney_maps

        maps = loomis_whitney_maps()
        lows = [np.zeros(2)] * 3
        highs = [np.ones(2)] * 3
        box = bounding_box_from_linear_constraints(maps, lows, highs, 3)
        assert box is not None
        lo, hi = box
        assert np.allclose(lo, 0.0, atol=1e-9)
        assert np.allclose(hi, 1.0, atol=1e-9)

    def test_unbounded_detected(self):
        # single projection leaves a free direction
        maps = [np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])]
        box = bounding_box_from_linear_constraints(maps, [np.zeros(2)], [np.ones(2)], 3)
        assert box is None
