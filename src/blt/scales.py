"""Buffered scale decomposition for nonlinear submersions.

Given maps whose derivatives at the cube centre are the coordinate
projections (up to 100^{-d}), a cube of side delta <= delta0 is cut
into parallelepiped cells separated by thin buffer slabs.  The buffer
positions are pigeonholed against the input masses, the factorisation
B_j = dB_j(0) o Phi_j controls the nonlinear drift, and the resulting
tube images are provably disjoint.  Every quantitative step is exposed
as a certificate that can be rechecked independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datum import ProjectionScheme
from .exterior import cross_like, null_space
from .geometry import SlabCells, grid_polygon_mass, grid_slab_mass
from .inputs import GridFunction
from .nonlinear import NonlinearMapFamily, RegularityError
from .quadrature import _midpoint_integral, lattice_product_sum


class ScaleError(ValueError):
    """Scale parameters violate their ordering or smallness constraints."""


# Most slab masses one pigeonhole ladder may measure (steps times the N + 1
# candidate slabs of a step); the flagship ladders need under 2000.
LADDER_SLABS = 2**20


class FrameError(ValueError):
    """Kernel frame strays too far from the coordinate axes."""


@dataclass
class Cube:
    """Axis-parallel cube of side `side` centred at `center`."""

    center: np.ndarray
    side: float

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=float)
        if not (0 < self.side < math.inf and np.isfinite(self.center).all()):
            raise ValueError("cube side must be positive and finite, and its center finite")

    @property
    def d(self) -> int:
        return self.center.size

    def corners(self) -> np.ndarray:
        d = self.d
        signs = np.array(np.meshgrid(*[[-0.5, 0.5]] * d, indexing="ij")).reshape(d, -1).T
        return self.center + self.side * signs

    def contains(self, points: np.ndarray) -> np.ndarray:
        # One column at a time: an (N, d) array against a (d,) vector runs
        # numpy's inner loop only d elements long.
        points = np.atleast_2d(points)
        limit = self.side / 2.0 * (1 + 1e-12)
        inside = np.abs(points[:, 0] - self.center[0]) <= limit
        for i in range(1, self.d):
            inside &= np.abs(points[:, i] - self.center[i]) <= limit
        return inside

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        half = self.side / 2.0
        return self.center + rng.uniform(-half, half, size=(count, self.d))


@dataclass
class ScaleParams:
    """Exponents and derived scales of the decomposition.

    Requires 1 < alpha0 < alpha1 < 1 + beta.  delta0 is derived from
    c_d, which in turn is the largest admissible value enforcing the
    smallness constraints (a) kappa delta0^beta <= 100^{-d},
    (b) 24 d kappa delta0^{1+beta-alpha1} < 1 and
    (c) 4 d kappa delta0^{1+beta} <= delta0^{alpha1} / 3.
    """

    beta: float
    kappa: float
    alpha0: float
    alpha1: float
    d: int
    m: int
    c_d: float
    delta0: float
    M: float | None = None

    def gain_exponent(self) -> float:
        return (self.alpha1 - self.alpha0) / (self.m - 1)


def compute_delta0(
    beta: float,
    kappa: float,
    alpha0: float,
    alpha1: float,
    d: int,
    m: int,
    M: float | None = None,
) -> ScaleParams:
    """Derive (c_d, delta0) from the explicit smallness constraints.

    delta0 = min{(c_d/kappa)^{1/(1+beta-alpha1)},
                 (1/4)^{1/min(alpha0-1, alpha1-alpha0)}}
    with c_d the largest value in (0, kappa) whose induced first term
    satisfies constraints (a)-(c) above.
    """
    if not (1.0 < alpha0 < alpha1 < 1.0 + beta < math.inf):
        raise ScaleError(
            f"need 1 < alpha0 < alpha1 < 1+beta < inf, got ({alpha0}, {alpha1}, 1+{beta})"
        )
    if not (0 < kappa < math.inf) or d < 1 or m < 2:
        raise ScaleError("kappa must be positive and finite, d >= 1, m >= 2")
    if M is not None and not M > 0:
        raise ScaleError(f"M must be positive, got {M}")
    expo = 1.0 + beta - alpha1
    t2 = 0.25 ** (1.0 / min(alpha0 - 1.0, alpha1 - alpha0))
    cap_a = (100.0 ** (-d) / kappa) ** (1.0 / beta)
    cap_b = (1.0 / (24.0 * d * kappa)) ** (1.0 / expo) * (1.0 - 1e-12)  # strict bound
    cap_c = (1.0 / (12.0 * d * kappa)) ** (1.0 / expo)
    cap = min(cap_a, cap_b, cap_c)
    c_d = min(kappa * (1.0 - 1e-9), kappa * cap**expo)
    delta0 = min((c_d / kappa) ** (1.0 / expo), t2)
    if not delta0 > 0:
        raise ScaleError("derived delta0 is not positive")
    return ScaleParams(beta, kappa, alpha0, alpha1, d, m, float(c_d), float(delta0), M)


def sigma_map(scheme: ProjectionScheme) -> np.ndarray:
    """Axis-to-map assignment: axes in block j feed map (j+1) mod m.

    Block-wise this is a cyclic permutation, hence fixed-point free.
    """
    sigma = np.empty(scheme.d, dtype=np.int64)
    for j, block in enumerate(scheme.blocks):
        for i in block:
            sigma[i] = (j + 1) % scheme.m
    return sigma


@dataclass
class AxisImageFunctional:
    """Linear test for slab membership in the image space of one map.

    y lies in the image slab with parameters in J exactly when
    (<y, w> - offset) / c lies in J - base, where base is the parameter
    of the map's value at the cube centre (local coordinates).
    """

    axis: int
    map_index: int
    w: np.ndarray
    c: float
    offset: float

    def image(self, t):
        """<y, w> at the image-slab boundary of parameter t (float or array)."""
        return self.c * t + self.offset

    def image_interval(self, lo: float, hi: float) -> tuple[float, float]:
        return self.image(lo), self.image(hi)


@dataclass
class DecompositionFrame:
    """Kernel-adapted frame at the cube centre.

    Column k of `a` spans the matching kernel direction near e_k; row i
    of `v` is the generalised cross product of all other columns, so
    x -> <x, v_i> / |v_i|^2 is the slab parameter along axis i (in cube
    local coordinates).
    """

    a: np.ndarray
    v: np.ndarray
    v_sq: np.ndarray
    scheme: ProjectionScheme

    def t_values(self, points_local: np.ndarray) -> np.ndarray:
        T = np.atleast_2d(points_local) @ self.v.T
        for i, v_sq in enumerate(self.v_sq):
            T[:, i] /= v_sq
        return T

    def t_matrix(self) -> np.ndarray:
        return self.v / self.v_sq[:, None]


def build_frame(
    maps: list[NonlinearMapFamily], center: np.ndarray, scheme: ProjectionScheme
) -> DecompositionFrame:
    """Kernel frame a_k (nearest kernel vector to e_k) and normals v_i.

    Requires |a_k - e_k| <= 10^{-d} and |v_i| >= 1/2, both consequences
    of the derivative being within 100^{-d} of the projection.
    """
    d = scheme.d
    a = np.zeros((d, d))
    for j, fam in enumerate(maps):
        J = fam.jacobian(center)
        ns = null_space(J)
        if ns.shape[1] != len(scheme.blocks[j]):
            raise FrameError(f"kernel of map {j} has unexpected dimension")
        P = ns @ ns.T
        for k in scheme.blocks[j]:
            e = np.zeros(d)
            e[k] = 1.0
            proj = P @ e
            nrm = np.linalg.norm(proj)
            if nrm < 1e-12:
                raise FrameError(f"kernel of map {j} is orthogonal to axis {k}")
            a[:, k] = proj / nrm
    tol = 10.0 ** (-d)
    for k in range(d):
        gap = np.linalg.norm(a[:, k] - np.eye(d)[:, k])
        if gap > tol:
            raise FrameError(f"|a_{k} - e_{k}| = {gap:.3e} exceeds 10^-{d}")
    v = np.zeros((d, d))
    for i in range(d):
        others = [a[:, k] for k in range(d) if k != i]
        v[i] = cross_like(np.vstack(others))
        if abs(v[i][i]) > 0 and v[i][i] < 0:
            # orient along +e_i so parameters increase with the coordinate
            v[i] = -v[i]
    v_sq = np.einsum("ij,ij->i", v, v)
    if np.any(np.sqrt(v_sq) < 0.5):
        raise FrameError("some |v_i| fell below 1/2")
    return DecompositionFrame(a, v, v_sq, scheme)


def axis_image_functional(
    fam: NonlinearMapFamily,
    frame: DecompositionFrame,
    axis: int,
    map_index: int,
    center: np.ndarray,
) -> AxisImageFunctional:
    d = frame.scheme.d
    J0 = fam.jacobian(center)
    cols = [frame.a[:, k] for k in range(d) if k != axis]
    image_dirs = J0 @ np.column_stack(cols)
    w = null_space(image_dirs.T)
    if w.shape[1] != 1:
        raise FrameError(f"image slab normal is not unique on axis {axis}")
    w = w[:, 0]
    c = float((J0 @ frame.v[axis]) @ w)
    if c < 0:
        w, c = -w, -c
    if c <= 1e-12:
        raise FrameError(f"degenerate image functional on axis {axis}")
    offset = float(fam.value(center)[0] @ w)
    return AxisImageFunctional(axis, map_index, w, c, offset)


def clip_grid_outside_box(f: GridFunction, lo: np.ndarray, hi: np.ndarray) -> GridFunction:
    """Zero all cells not fully inside the outward cell-snapped box [lo, hi]."""
    h = f.spacing
    shape = np.asarray(f.values.shape, dtype=float)
    # cell indices clamped to [0, shape] in float (NaN to 0), so a huge or
    # non-finite bound never meets the undefined float -> int cast
    lo_idx = np.minimum(np.fmax(np.floor((np.asarray(lo) - f.origin) / h), 0.0), shape)
    hi_idx = np.minimum(np.fmax(np.ceil((np.asarray(hi) - f.origin) / h), 0.0), shape)
    vals = np.zeros_like(f.values)
    sel = tuple(slice(int(a), int(b)) for a, b in zip(lo_idx, hi_idx))
    vals[sel] = f.values[sel]
    return GridFunction(f.origin.copy(), h, vals)


def image_window(fam: NonlinearMapFamily, cube: Cube, f: GridFunction) -> GridFunction:
    """Clip f to a rigorous bounding box of the cube's image under the map.

    The box is the affine image interval bound inflated by the Hoelder
    drift kappa (sqrt(d) side/2)^{1+beta}, then snapped outward to whole
    grid cells so the clip is exact.
    """
    J = fam.jacobian(cube.center)
    c_img = fam.value(cube.center)[0]
    half = np.abs(J).sum(axis=1) * cube.side / 2.0
    drift = fam.holder_constant_effective() * (
        math.sqrt(cube.d) * cube.side / 2.0
    ) ** (1.0 + fam.beta)
    lo = c_img - half - drift
    hi = c_img + half + drift
    return clip_grid_outside_box(f, lo, hi)


@dataclass
class PigeonholeStep:
    n: int
    s_current: float
    s_next: float
    gap_lower_ok: bool
    gap_upper_ok: bool
    selected_mass: float
    window_mass: float
    candidate_masses: np.ndarray
    mass_bound_ok: bool


@dataclass
class PigeonholeSequence:
    axis: int
    map_index: int
    s: np.ndarray
    steps: list[PigeonholeStep]
    functional: AxisImageFunctional
    t_lo: float
    t_hi: float
    drift: float

    def certificates_hold(self) -> bool:
        return all(
            st.gap_lower_ok and st.gap_upper_ok and st.mass_bound_ok for st in self.steps
        )


def pigeonhole_sequences(
    f: GridFunction,
    cube: Cube,
    axis: int,
    frame: DecompositionFrame,
    sigma: np.ndarray,
    params: ScaleParams,
    fam: NonlinearMapFamily,
) -> PigeonholeSequence:
    """Buffer-position sequence along one axis with mass certificates.

    Starting below the cube, each step splits the admissible window
    [s_n + delta^a0/2, s_n + delta^a0] into N = floor(delta^{a0-a1}/2)
    candidate intervals of width delta^a1 and keeps the one of least
    clipped input mass (lowest index on ties), which certifies the mass
    bound with factor 4 delta^{a1-a0}.

    One `SlabCells` table of the clipped input serves every step, and a
    step measures its candidates and its window at its N + 2 cuts.  When
    the slab normal is axis-aligned (as on the flagship), the candidates
    lying in one cell column tie in exact arithmetic, so the
    lowest-index argmin chooses among rounding-level differences: any
    change to how a candidate's mass is summed changes s_n, and with it
    every number downstream of the ladder (the verify-step report too).
    """
    delta = cube.side
    if delta > params.delta0 * (1 + 1e-12):
        raise ScaleError(f"cube side {delta:.3e} exceeds delta0 {params.delta0:.3e}")
    d_a0 = delta**params.alpha0
    d_a1 = delta**params.alpha1
    if not d_a1 > 0:
        raise ScaleError(f"delta {delta:.3e} is too small: delta^alpha1 underflows")
    try:
        N = math.floor(0.5 * delta ** (params.alpha0 - params.alpha1))
    except OverflowError:
        raise ScaleError("delta^(alpha0 - alpha1) overflows: alpha0 and alpha1 are too far "
                         "apart") from None
    if N < 1:
        raise ScaleError("delta too large: no candidate interval fits the window")
    func = axis_image_functional(fam, frame, axis, int(sigma[axis]), cube.center)
    fW = image_window(fam, cube, f)
    corners_local = cube.corners() - cube.center
    t_corner = frame.t_values(corners_local)[:, axis]
    t_lo, t_hi = float(t_corner.min()), float(t_corner.max())
    drift = fam.drift_allowance(delta)

    s = [t_lo - drift - (4.0 / 3.0) * d_a1]
    steps: list[PigeonholeStep] = []
    limit = t_hi + d_a0
    # every step moves at least half a window, which bounds the ladder
    max_steps = (limit - s[0]) / (0.5 * d_a0) + 1
    if not max_steps * (N + 1) <= LADDER_SLABS:
        raise ScaleError(
            f"the ladder needs up to {max_steps:.3g} steps of {N + 1} slab masses, more than "
            f"{LADDER_SLABS}: alpha0 and alpha1 are too far apart at delta {delta:.3e}"
        )
    ladder = np.arange(N + 1) * d_a1
    # a step's N + 2 cuts are its candidates' boundaries, then the window's
    # upper end; slab r runs from cut lo[r] to cut hi[r], and slab N is the
    # whole window
    lo = np.append(np.arange(N), 0)
    hi = np.append(np.arange(1, N + 1), N + 1)
    cells = SlabCells(fW.values, fW.origin, fW.spacing, func.w)
    n = 0
    while s[-1] < limit:
        s_n = s[-1]
        zeta0 = s_n + 0.5 * d_a0
        cuts = func.image(np.append(zeta0 + ladder, s_n + d_a0))
        masses = cells.masses(cuts, lo, hi)
        cand, window = masses[:N], masses[N]
        r_star = int(np.argmin(cand))
        s_next = zeta0 + r_star * d_a1
        gap = s_next - s_n
        tol = 1e-12 * d_a0
        step = PigeonholeStep(
            n=n,
            s_current=s_n,
            s_next=s_next,
            gap_lower_ok=gap >= 0.5 * d_a0 - tol,
            gap_upper_ok=gap <= d_a0 + tol,
            selected_mass=float(cand[r_star]),
            window_mass=float(window),
            candidate_masses=cand,
            mass_bound_ok=bool(
                cand[r_star] <= 4.0 * delta ** (params.alpha1 - params.alpha0) * window
                + 1e-12 * (window + 1e-300)
            ),
        )
        steps.append(step)
        s.append(s_next)
        n += 1
        if n > 10_000_000:
            raise ScaleError("runaway pigeonhole iteration")
    return PigeonholeSequence(
        axis=axis,
        map_index=int(sigma[axis]),
        s=np.asarray(s),
        steps=steps,
        functional=func,
        t_lo=t_lo,
        t_hi=t_hi,
        drift=drift,
    )


@dataclass
class Decomposition:
    """Cells P(n, chi) of the cube, held implicitly via per-axis ladders.

    Along axis i, interval (n, 1) is (s_n + w/3, s_n + 2w/3] and
    interval (n, 0) is (s_n + 2w/3, s_{n+1} + w/3], with w = delta^a1;
    a cell is the intersection over axes of the slab pull-backs, cut to
    the cube.
    """

    cube: Cube
    frame: DecompositionFrame
    sigma: np.ndarray
    sequences: list[PigeonholeSequence]
    params: ScaleParams
    edges: list[np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        d_a1 = self.cube.side**self.params.alpha1
        third = d_a1 / 3.0
        self.edges = []
        for seq in self.sequences:
            s = seq.s
            e = np.empty(2 * len(s) - 1)
            e[0::2] = s + third
            e[1::2] = s[:-1] + 2.0 * third
            self.edges.append(e)

    def main_count(self, axis: int) -> int:
        return len(self.sequences[axis].s) - 1

    def interval_bounds(self, axis: int, n, chi: int):
        """(lo, hi) of interval (n, chi) on the axis; n may be an index array."""
        e = self.edges[axis]
        return e[2 * n + 1 - chi], e[2 * n + 2 - chi]

    def certificates_hold(self) -> bool:
        return all(seq.certificates_hold() for seq in self.sequences)

    def _search(self, points: np.ndarray):
        """Per-axis parameters T of global points, one column per axis, and
        their searchsorted positions in the interval edges, one row per
        axis.  The queries are searched in the order given: the midpoint
        sweep's come nearly sorted, and sorting them first and scattering
        the positions back cost more than it saved (on a 2-vCPU Xeon, the
        three searches of one 4096-point block of the 64^3 flagship sweep
        took 345-432 us sorted and 153-192 us in order)."""
        points = np.atleast_2d(points)
        local = np.empty(points.shape)
        for i, c in enumerate(self.cube.center):
            np.subtract(points[:, i], c, out=local[:, i])
        T = self.frame.t_values(local)
        pos = np.empty((len(self.edges), len(T)), dtype=np.intp)
        for i, e in enumerate(self.edges):
            pos[i] = np.searchsorted(e, T[:, i], side="left")
        return T, pos

    def locate_points(self, points: np.ndarray):
        """Cell assignment of global points.

        Returns (n, chi, valid, min_edge_distance); n and chi have one
        column per axis.  Points outside the covered parameter range or
        outside the cube are marked invalid.
        """
        T, pos = self._search(points)
        pos = pos.T
        last = np.array([len(e) - 1 for e in self.edges])
        valid = self.cube.contains(points) & np.all((pos >= 1) & (pos <= last), axis=1)
        k = np.clip(pos, 1, last) - 1
        chi = (k % 2 == 0).astype(np.int8)
        edge_dist = np.full(len(T), np.inf)
        for i, e in enumerate(self.edges):
            lo, hi = e[k[:, i]], e[k[:, i] + 1]
            edge_dist = np.minimum(edge_dist, np.minimum(np.abs(T[:, i] - lo), np.abs(hi - T[:, i])))
        return k // 2, chi, valid, edge_dist

    def main_cells(self, points: np.ndarray) -> np.ndarray:
        """Mask of the points in the cube that lie in a main cell (chi = 0
        on every axis): `valid & all(chi == 0)` of `locate_points`, which
        holds where every position is even and within [1, len(e) - 1].
        Every edge array has odd length, so an even position never passes
        the last edge."""
        _, pos = self._search(points)
        main = self.cube.contains(points)
        for row in pos:
            main &= ((row & 1) == 0) & (row > 0)
        return main

    def sample_cells(
        self, rng: np.random.Generator, chi: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform points of Q lying in cells of the given buffer pattern.

        Draws per-axis parameters in randomly chosen intervals of the
        requested type and rejects points outside the cube.  Returns
        (points, n_indices).
        """
        chi = np.asarray(chi, dtype=np.int8)
        d = self.cube.d
        G = self.frame.t_matrix()
        Ginv = np.linalg.inv(G)
        points = np.empty((0, d))
        labels = np.empty((0, d), dtype=np.int64)
        t_ranges = []
        for i in range(d):
            seq = self.sequences[i]
            options = []
            for nn in range(self.main_count(i)):
                lo, hi = self.interval_bounds(i, nn, int(chi[i]))
                if hi > seq.t_lo - 1e-300 and lo < seq.t_hi + 1e-300:
                    options.append((nn, lo, hi))
            if not options:
                raise ScaleError(f"no intervals of type {int(chi[i])} meet the cube on axis {i}")
            t_ranges.append(options)
        while points.shape[0] < count:
            batch = max(count, 1024)
            T = np.empty((batch, d))
            L = np.empty((batch, d), dtype=np.int64)
            for i in range(d):
                opts = t_ranges[i]
                pick = rng.integers(0, len(opts), size=batch)
                los = np.array([opts[k][1] for k in pick])
                his = np.array([opts[k][2] for k in pick])
                T[:, i] = rng.uniform(los, his)
                L[:, i] = [opts[k][0] for k in pick]
            X = T @ Ginv.T + self.cube.center
            keep = self.cube.contains(X)
            points = np.vstack([points, X[keep]])
            labels = np.vstack([labels, L[keep]])
        return points[:count], labels[:count]


def decompose(
    maps: list[NonlinearMapFamily],
    cube: Cube,
    inputs: list[GridFunction],
    params: ScaleParams,
) -> Decomposition:
    """Build the scheme, sigma, the kernel frame and one pigeonholed
    ladder per axis; axis i is cut against the input of map sigma(i)."""
    scheme = ProjectionScheme(cube.d, [cube.d - fam.d_out for fam in maps])
    sigma = sigma_map(scheme)
    frame = build_frame(maps, cube.center, scheme)
    sequences = [
        pigeonhole_sequences(inputs[j], cube, i, frame, sigma, params, maps[j])
        for i, j in enumerate(sigma.tolist())
    ]
    return Decomposition(cube, frame, sigma, sequences, params)


@dataclass
class PhiFactorization:
    """Exact factorisation B = dB(0) o Phi in cube-local coordinates."""

    fam: NonlinearMapFamily
    cube: Cube
    block: list[int]
    I_tilde: np.ndarray
    checks: dict

    def evaluate_local(self, local_points: np.ndarray) -> np.ndarray:
        local_points = np.atleast_2d(local_points)
        d = self.cube.d
        comp = [k for k in range(d) if k not in set(self.block)]
        B0 = self.fam.value(self.cube.center)[0]
        values = self.fam.value(local_points + self.cube.center) - B0
        J0 = self.fam.jacobian(self.cube.center)
        out = np.empty_like(local_points)
        for k in self.block:
            out[:, k] = local_points[:, k]
        kernel_cols = J0[:, self.block]
        rhs = values - local_points[:, self.block] @ kernel_cols.T
        solved = np.linalg.solve(self.I_tilde, rhs.T).T
        for pos, k in enumerate(comp):
            out[:, k] = solved[:, pos]
        return out

    def drift(self, local_points: np.ndarray) -> np.ndarray:
        local_points = np.atleast_2d(local_points)
        return np.linalg.norm(local_points - self.evaluate_local(local_points), axis=1)


def phi_factorization(
    fam: NonlinearMapFamily,
    cube: Cube,
    block: list[int],
    sample_count: int = 1000,
    seed: int = 0,
) -> PhiFactorization:
    """Construct Phi and audit its four properties by sampling.

    The components of Phi on the kernel block are the coordinates
    themselves; the rest solve I_tilde * rest = B(x) - sum_k x_k dB(0) e_k
    where I_tilde deletes the kernel columns of dB(0).
    """
    d = cube.d
    comp = [k for k in range(d) if k not in set(block)]
    J0 = fam.jacobian(cube.center)
    target = np.zeros((len(comp), d))
    for row, k in enumerate(comp):
        target[row, k] = 1.0
    gap = np.linalg.norm(J0 - target, ord=2)
    if gap > 100.0 ** (-d) * (1 + 1e-9):
        raise FrameError(f"||dB(0) - Pi|| = {gap:.3e} exceeds 100^-{d}")
    I_tilde = J0[:, comp]
    if np.linalg.norm(I_tilde - np.eye(len(comp)), ord=2) > 0.1:
        raise FrameError("I_tilde strays from the identity by more than 1/10")
    phi = PhiFactorization(fam, cube, list(block), I_tilde, {})
    rng = np.random.default_rng(seed)
    local = cube.sample(rng, sample_count) - cube.center
    # (ii) exact factorisation, checked numerically
    recomposed = phi.evaluate_local(local) @ J0.T
    direct = fam.value(local + cube.center) - fam.value(cube.center)[0]
    factor_resid = float(np.abs(recomposed - direct).max())
    # (i) dPhi(0) = I by finite differences
    h = cube.side * 1e-6
    eye_resid = 0.0
    origin = np.zeros((1, d))
    for a in range(d):
        e = np.zeros((1, d))
        e[0, a] = h
        col = (phi.evaluate_local(e) - phi.evaluate_local(-e))[0] / (2 * h)
        target_col = np.zeros(d)
        target_col[a] = 1.0
        eye_resid = max(eye_resid, float(np.abs(col - target_col).max()))
    # (iv) drift bound
    drift = phi.drift(local)
    bound = 2.0 * d * fam.holder_constant_effective() * cube.side ** (1.0 + fam.beta)
    drift_ok = bool(np.all(drift <= bound + 1e-15 * (1 + bound)))
    phi.checks = {
        "factorisation_residual": factor_resid,
        "identity_derivative_residual": eye_resid,
        "max_drift": float(drift.max(initial=0.0)),
        "drift_bound": bound,
        "drift_ok": drift_ok,
        "samples": sample_count,
    }
    return phi


@dataclass
class DisjointnessReport:
    map_index: int
    chi: np.ndarray
    pairs_checked: int
    violations: int
    min_margin: float
    separation_term: float
    allowance_term: float


def verify_disjointness(
    fam: NonlinearMapFamily,
    decomposition: Decomposition,
    j: int,
    chi: np.ndarray,
    n_pairs: int,
    seed: int,
) -> DisjointnessReport:
    """Sampled certificate that images of distinct tubes stay disjoint.

    For x, y in tubes with distinct transverse indices there is an axis
    i with |<x - y, v_i>| >= (delta^a1 / 3) |v_i|^2, while a shared
    image point would force |<x - y, v_i>| <= 4 d kappa delta^{1+beta} |v_i|.
    The margin reported is the sampled separation minus the allowance;
    a nonpositive margin counts as a violation (diagnostic, not raised).
    """
    rng = np.random.default_rng(seed)
    cube = decomposition.cube
    delta = cube.side
    params = decomposition.params
    scheme = decomposition.frame.scheme
    transverse = scheme.complement(j)
    v = decomposition.frame.v
    allowance = fam.drift_allowance(delta)
    margin_chunks = []
    collected = 0
    guard = 0
    while collected < n_pairs:
        want = n_pairs - collected
        X, LX = decomposition.sample_cells(rng, chi, 2 * max(want, 512))
        half_n = X.shape[0] // 2
        A, B = X[:half_n], X[half_n:]
        LA, LB = LX[:half_n], LX[half_n:]
        differ = np.any(LA[:, transverse] != LB[:, transverse], axis=1)
        A, B, LA, LB = A[differ], B[differ], LA[differ], LB[differ]
        if A.shape[0] > want:
            A, B, LA, LB = A[:want], B[:want], LA[:want], LB[:want]
        margins = np.full(A.shape[0], -np.inf)
        for i in transverse:
            active = LA[:, i] != LB[:, i]
            if not np.any(active):
                continue
            sep = np.abs((A[active] - B[active]) @ v[i])
            margin_i = sep - allowance * np.linalg.norm(v[i])
            margins[active] = np.maximum(margins[active], margin_i)
        margin_chunks.append(margins)
        collected += A.shape[0]
        guard += 1
        if guard > 1000:
            raise ScaleError("could not collect enough distinct-tube pairs")
    margins = np.concatenate(margin_chunks) if margin_chunks else np.empty(0)
    violations = int(np.sum(margins <= 0.0))
    min_norm_sq = float(min(decomposition.frame.v_sq[i] for i in transverse))
    return DisjointnessReport(
        map_index=j,
        chi=np.asarray(chi, dtype=np.int8),
        pairs_checked=int(margins.size),
        violations=violations,
        min_margin=float(margins.min(initial=np.inf)),
        separation_term=(delta**params.alpha1 / 3.0) * min_norm_sq,
        allowance_term=allowance,
    )


def _tube_halfplanes(
    functionals: list[AxisImageFunctional],
    intervals: list[tuple[np.ndarray, np.ndarray]],
    drift: float,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every tube image of one map as the intersection of its
    drift-inflated image slabs.

    intervals[pos] holds the (lo, hi) bounds of the main intervals along
    the pos-th transverse axis; the tubes are their products, and the
    offsets of the pos-th slab vary along the pos-th axis of the tube grid
    (shape (n0, 1) and (1, n1) for two axes), as `grid_polygon_mass` takes
    them.
    """
    halfplanes = []
    for pos, (func, (lo, hi)) in enumerate(zip(functionals, intervals)):
        im_lo, im_hi = func.image_interval(lo - drift, hi + drift)
        shape = [1] * len(intervals)
        shape[pos] = -1
        halfplanes.append((func.w, im_hi.reshape(shape)))
        halfplanes.append((-func.w, -im_lo.reshape(shape)))
    return halfplanes


def _composite_integrand(maps: list[NonlinearMapFamily], inputs: list[GridFunction], p: float):
    """x -> prod_j f_j(B_j(x))^p over a batch of points."""

    def integrand(points: np.ndarray) -> np.ndarray:
        out = np.ones(points.shape[0])
        for fam, f in zip(maps, inputs):
            out *= np.power(f.evaluate(fam.value(points)), p)
        return out

    return integrand


@dataclass
class InductionStepReport:
    delta: float
    lhs: float
    main_sum: float
    finner_rhs: float
    input_rhs: float
    main_fraction: float
    buffer_totals: dict
    buffer_bounds_ok: bool
    certified_factor: float
    factor_bound: float
    finner_ok: bool
    tube_norms: dict
    pigeonhole_ok: bool


def _validate_map(j: int, fam: NonlinearMapFamily, center, side: float, rng) -> None:
    """fam.validate, with a failure's message naming map j."""
    try:
        fam.validate(center, side, rng)
    except RegularityError as exc:
        raise RegularityError(f"map {j}: {exc}") from exc


def verify_induction_step(
    maps: list[NonlinearMapFamily],
    cube: Cube,
    inputs: list[GridFunction],
    params: ScaleParams,
    resolution: int,
    seed: int = 0,
) -> InductionStepReport:
    """Execute one decomposition step and check every verifiable bound.

    Produces the cube integral (by the midpoint rule at ``resolution``
    points per axis), the main-term bound through the tube
    masses and the discrete product-projection inequality, and the
    buffer-mass bounds with factor 4 delta^{a1-a0} per nonzero pattern.
    """
    delta = cube.side
    if delta > params.delta0 * (1 + 1e-12):
        raise ScaleError("cube side exceeds delta0")
    if params.M is not None:
        for j, f in enumerate(inputs):
            if f.spacing > 1.0 / params.M * (1 + 1e-12):
                raise ScaleError(f"input {j} spacing {f.spacing:.3e} coarser than 1/M")
    audit_rng = np.random.default_rng(seed)
    for j, fam in enumerate(maps):
        _validate_map(j, fam, cube.center, cube.side, audit_rng)
    d = cube.d
    m = len(maps)
    p = 1.0 / (m - 1)
    deco = decompose(maps, cube, inputs, params)
    scheme = deco.frame.scheme
    pigeonhole_ok = deco.certificates_hold()

    masses = [f.integral() for f in inputs]
    integrand = _composite_integrand(maps, inputs, p)

    def cube_and_main(points: np.ndarray) -> np.ndarray:
        vals = integrand(points)
        return np.stack([vals, vals * deco.main_cells(points)])

    half = delta / 2.0
    lhs, main_lhs = _midpoint_integral(
        cube_and_main, cube.center - half, cube.center + half, resolution, d
    )

    # chi = 0 tube masses, one array per map over the transverse main indices;
    # each axis slab must be expressed in the acting map's own image space
    fWs = [image_window(fam, cube, f) for fam, f in zip(maps, inputs)]
    tube_arrays = []
    for j, fam in enumerate(maps):
        transverse = scheme.complement(j)
        funcs = [axis_image_functional(fam, deco.frame, i, j, cube.center) for i in transverse]
        drift = fam.drift_allowance(delta)
        fW = fWs[j]
        intervals = [deco.interval_bounds(i, np.arange(deco.main_count(i)), 0) for i in transverse]
        halfplanes = _tube_halfplanes(funcs, intervals, drift)
        tube_arrays.append(grid_polygon_mass(fW.values, fW.origin, fW.spacing, halfplanes))
    # main sum through the discrete inequality on the tube masses
    zero = np.zeros(d, dtype=np.int64)
    main_sum = lattice_product_sum(
        [(F, scheme.complement(j), zero) for j, F in enumerate(tube_arrays)], [p] * m, d
    )
    tube_norms = {j: float(tube_arrays[j].sum()) for j in range(m)}
    finner_rhs = float(np.prod([tube_norms[j] ** p for j in range(m)]))
    input_rhs = float(np.prod([mass**p for mass in masses]))
    finner_ok = main_sum <= finner_rhs * (1 + 1e-9) + 1e-300 and all(
        tube_norms[j] <= masses[j] * (1 + 1e-9) + 1e-300 for j in range(m)
    )

    # buffer masses per nonzero pattern via the concentric-triple slabs
    gain = 4.0 * delta ** (params.alpha1 - params.alpha0)
    buffer_totals = {}
    buffer_ok = True
    certified_factor = 1.0
    d_a1 = delta**params.alpha1
    # each pattern's total depends only on its lowest set axis i_star, so
    # sweep the buffer slabs once per axis
    axis_totals = []
    for seq in deco.sequences:
        fW = fWs[seq.map_index]
        func = seq.functional
        # the n = 0 buffer sits strictly below the cube's parameter range by
        # the choice of s_1, so its tubes are empty and the sum starts at 1
        im_lo, im_hi = func.image_interval(seq.s[1:], seq.s[1:] + d_a1)
        buffers = grid_slab_mass(fW.values, fW.origin, fW.spacing, func.w, im_lo, im_hi)
        axis_totals.append(float(buffers.sum()))
    for code in range(1, 2**d):
        chi = np.array([(code >> i) & 1 for i in range(d)], dtype=np.int8)
        i_star = int(np.argmax(chi == 1))
        j = int(deco.sigma[i_star])
        total = axis_totals[i_star]
        bound = gain * masses[j]
        ok = total <= bound * (1 + 1e-9) + 1e-300
        buffer_ok &= ok
        buffer_totals[tuple(int(c) for c in chi)] = {
            "axis": i_star,
            "map": j,
            "total": float(total),
            "bound": float(bound),
            "ok": bool(ok),
        }
        certified_factor += (total / masses[j]) ** p if masses[j] > 0 else 0.0
    factor_bound = 1.0 + 10.0**d * delta ** params.gain_exponent()
    return InductionStepReport(
        delta=delta,
        lhs=float(lhs),
        main_sum=main_sum,
        finner_rhs=finner_rhs,
        input_rhs=input_rhs,
        main_fraction=float(main_lhs / lhs if lhs > 0 else 1.0),
        buffer_totals=buffer_totals,
        buffer_bounds_ok=bool(buffer_ok),
        certified_factor=float(certified_factor),
        factor_bound=float(factor_bound),
        finner_ok=bool(finner_ok),
        tube_norms=tube_norms,
        pigeonhole_ok=bool(pigeonhole_ok),
    )


@dataclass
class NonlinearBLReport:
    ratio: float
    log_ratio: float
    log_bound: float
    bound: float
    margin_log: float
    delta0: float
    holds: bool


def verify_nonlinear_bl(
    maps: list[NonlinearMapFamily],
    x0: np.ndarray,
    inputs: list[GridFunction],
    params: ScaleParams,
    resolution: int,
) -> NonlinearBLReport:
    """Compare the cube ratio against the explicit global constant
    10^d exp(10^d delta0^g / (1 - 2^{-g})), g = (a1 - a0)/(m - 1).

    The ratio integrates by the midpoint rule at ``resolution`` points per
    axis.  The bound overflows double precision for realistic parameters,
    so the comparison is carried out in logarithms.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    m = len(maps)
    p = 1.0 / (m - 1)
    scheme = ProjectionScheme(d, [d - fam.d_out for fam in maps])
    audit_rng = np.random.default_rng(0)
    for j, fam in enumerate(maps):
        _validate_map(j, fam, x0, params.delta0, audit_rng)
        resid = np.linalg.norm(fam.jacobian(x0) - scheme.projection_matrix(j))
        if resid > 1e-9:
            raise ScaleError(f"map {j} is not canonical at the base point ({resid:.3e})")
    masses = [f.integral() for f in inputs]
    if any(mass <= 0 for mass in masses):
        raise ScaleError("all input masses must be positive")
    integrand = _composite_integrand(maps, inputs, p)

    half = params.delta0 / 2.0
    numerator = _midpoint_integral(integrand, x0 - half, x0 + half, resolution, d)
    denom = float(np.prod([mass**p for mass in masses]))
    ratio = numerator / denom
    g = params.gain_exponent()
    log_bound = d * math.log(10.0) + 10.0**d * params.delta0**g / (1.0 - 2.0 ** (-g))
    log_ratio = math.log(ratio) if ratio > 0 else -math.inf
    bound = math.exp(log_bound) if log_bound < 700 else math.inf
    return NonlinearBLReport(
        ratio=float(ratio),
        log_ratio=float(log_ratio),
        log_bound=float(log_bound),
        bound=float(bound),
        margin_log=float(log_bound - log_ratio),
        delta0=params.delta0,
        holds=bool(log_ratio <= log_bound),
    )
