"""Singular convolution integrals, block lifts, and extension operators.

A distributional weight delta(F(u)) is realised through the co-area
convention: the integral over the graph of the implicit solution eta
of F = 0 in the last coordinate, weighted by 1/|d_last F|.  Flat and
curved hypersurfaces enter through their graph parameterisations, and
the frequency-side check of the product-extension estimate compares
against the convolution route through the Plancherel constant
(2 pi)^{d/2} for the e^{+i<xi, x>} convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space, subspace_angles

from .datum import block_index_tuples
from .exterior import MAX_DIMENSION, transversality_quantity
from .ift import (
    DomainError,
    FieldDeclarationError,
    ScalarField,
    eta_gradient,
    ift_radii,
    solve_eta,
)
from .inputs import BoxIndicator, GridFunction, InputFunction, integrate
from .polynomials import Polynomial
from .quadrature import QuadratureSpec


# Largest intermediate, in complex entries, of one extension_on_grid chunk.
_CHUNK_ENTRIES = 4_000_000


class TransversalityError(ValueError):
    """Surface normals fail the required transversality bound."""


class ValidityError(ValueError):
    """Query outside the neighbourhood where the reduction is controlled."""


class ResolutionBudgetError(ValueError):
    """Oscillatory quadrature would alias at the granted resolution."""


@dataclass
class Hypersurface:
    """Graph hypersurface x' -> (x', phi(x')) over a box parameter domain."""

    lo: np.ndarray
    hi: np.ndarray
    phi: Polynomial
    beta: float
    kappa: float

    def __post_init__(self) -> None:
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ValueError("parameter domain must be a nondegenerate box")
        if self.phi.n != self.lo.size:
            raise ValueError("graph function arity must match the domain dimension")
        self.grad_polys = [self.phi.partial(a) for a in range(self.phi.n)]

    @property
    def base_dim(self) -> int:
        return self.lo.size

    def graph(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.column_stack([points, self.phi.evaluate(points)])

    def grad(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.stack([g.evaluate(points) for g in self.grad_polys], axis=1)

    def audit_regularity(self, seed: int = 0, pairs: int = 1000) -> float:
        rng = np.random.default_rng(seed)
        X = rng.uniform(self.lo, self.hi, size=(pairs, self.base_dim))
        Y = rng.uniform(self.lo, self.hi, size=(pairs, self.base_dim))
        gaps = np.linalg.norm(X - Y, axis=1)
        keep = gaps > 0
        quot = (
            np.linalg.norm(self.grad(X)[keep] - self.grad(Y)[keep], axis=1)
            / gaps[keep] ** self.beta
        )
        worst = float(quot.max(initial=0.0))
        if worst > self.kappa * (1 + 1e-9):
            raise ValueError(
                f"sampled graph Hoelder quotient {worst:.3e} exceeds kappa {self.kappa}"
            )
        return worst


@dataclass
class SurfaceFunction:
    """Density carried by a hypersurface: grid values over the domain, or
    the domain indicator when values is None."""

    surface: Hypersurface
    values: GridFunction | None = None

    def input_function(self) -> InputFunction:
        if self.values is not None:
            return self.values
        widths = self.surface.hi - self.surface.lo
        return BoxIndicator(np.diag(widths), self.surface.lo.copy())

    def lp_norm(self, q: float) -> float:
        f = self.input_function()
        if isinstance(f, BoxIndicator):
            return integrate(f) ** (1.0 / q)
        assert isinstance(f, GridFunction)
        return float((np.sum(f.values**q) * f.spacing**f.dim) ** (1.0 / q))


def delta_integral(
    field: ScalarField,
    integrand,
    window: tuple[np.ndarray, np.ndarray] | None,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """Integral of integrand(u) against delta(F(u)) over the window.

    Realised as the base-space integral of
    integrand(x, eta(x)) / |d_last F(x, eta(x))| with eta the implicit
    solution.  The window is a box in the base space and must sit inside
    the ball B(0, R1); |d_last F| must stay >= 1/2 on the window.
    For a zero-dimensional base the value is a single weighted sample.
    """
    n = field.n
    R1, _ = ift_radii(field.beta, field.kappa)
    if n == 0:
        sol = solve_eta(field, np.zeros((1, 0)))
        weight = np.abs(field.partial_t(np.zeros((1, 0)), sol.eta))
        if weight[0] < 0.5:
            raise FieldDeclarationError("|d_last F| fell below 1/2 at the root")
        u = np.array([[sol.eta[0]]])
        return float(integrand(u)[0] / weight[0]), 0.0
    if window is None:
        raise ValueError("a window box is required for a positive-dimensional base")
    lo = np.asarray(window[0], dtype=float)
    hi = np.asarray(window[1], dtype=float)
    if lo.shape != (n,) or np.any(hi <= lo):
        raise ValueError("window must be a nondegenerate box in the base space")
    corner_radius = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    if corner_radius >= R1:
        raise DomainError(
            f"window corner radius {corner_radius:.3e} escapes B(0, R1), R1 = {R1:.3e}"
        )

    def weighted(points: np.ndarray) -> np.ndarray:
        sol = solve_eta(field, points)
        denom = np.abs(field.partial_t(points, sol.eta))
        if np.any(denom < 0.5):
            raise FieldDeclarationError("|d_last F| fell below 1/2 on the window")
        u = np.column_stack([points, sol.eta])
        return integrand(u) / denom

    if spec.mode == "monte-carlo":
        rng = np.random.default_rng(spec.seed)
        pts = rng.uniform(lo, hi, size=(spec.samples, n))
        vals = weighted(pts)
        vol = float(np.prod(hi - lo))
        value = vol * float(vals.mean())
        err = vol * float(vals.std(ddof=1) / math.sqrt(spec.samples))
        return value, err
    from .quadrature import _midpoint_integral

    value = _midpoint_integral(weighted, lo, hi, spec.resolution, n)
    coarse = _midpoint_integral(weighted, lo, hi, max(1, spec.resolution // 2), n)
    return value, abs(value - coarse)


def _embed_block(poly: Polynomial, block: int, n_blocks: int, width: int) -> Polynomial:
    total = n_blocks * width
    A = np.zeros((poly.n, total))
    for a in range(width):
        A[a, block * width + a] = 1.0
    return poly.substitute_affine(A)


def _embed_negated_sum(poly: Polynomial, shift: np.ndarray, n_blocks: int, width: int) -> Polynomial:
    total = n_blocks * width
    A = np.zeros((poly.n, total))
    for a in range(width):
        for blk in range(n_blocks):
            A[a, blk * width + a] = -1.0
    return poly.substitute_affine(A, shift)


def build_reduction_field(
    surfaces: list[Hypersurface], y: np.ndarray, seed: int = 0
) -> tuple[ScalarField, float, float]:
    """Scalar field for the convolution of d graph measures at the point y.

    F(x_1', ..., x_{d-1}') = sum_j phi_j(x_j') + phi_d(y' - sum x_j') - y_d.
    The returned field is translated to a root in the last coordinate and
    scaled to unit last-partial there; also returns (root, scale).
    """
    d = len(surfaces)
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise ValueError("y must live in the ambient space R^d")
    width = d - 1
    n_blocks = d - 1
    total = width * n_blocks
    F = Polynomial.constant(total, -float(y[-1]))
    for j in range(n_blocks):
        F = F + _embed_block(surfaces[j].phi, j, n_blocks, width)
    F = F + _embed_negated_sum(surfaces[d - 1].phi, y[:-1], n_blocks, width)
    # root of F along the last coordinate with all base coordinates at zero
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
    F_t = F.translate(shift)
    scale = float(F_t.partial(total - 1).evaluate(np.zeros((1, total)))[0])
    if abs(scale) < 0.5:
        raise TransversalityError(
            f"last partial derivative {scale:.3e} below 1/2 at the root"
        )
    G = F_t.scale(1.0 / scale)
    kappa = _declare_kappa(G, total, seed)
    field = ScalarField(total - 1, G, beta=min(s.beta for s in surfaces), kappa=kappa)
    return field, root, scale


def _declare_kappa(poly: Polynomial, total: int, seed: int) -> float:
    """Conservative C^{1,beta} bound for a normalised polynomial field.

    Sampled on the ball the radii induce, with a refinement pass and a
    x2 safety factor; the solver's runtime checks will still indict an
    inadequate declaration.
    """
    grads = [poly.partial(a) for a in range(total)]
    g0 = np.array([float(g.evaluate(np.zeros((1, total)))[0]) for g in grads])
    kappa = max(float(np.linalg.norm(g0)), 1.0)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        R2 = (100.0 * kappa) ** (-1.0)
        U = rng.standard_normal((400, total))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        U *= R2 * rng.uniform(0, 1, size=(400, 1)) ** (1 / total)
        V = rng.standard_normal((400, total))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        V *= R2 * rng.uniform(0, 1, size=(400, 1)) ** (1 / total)
        dU = np.stack([g.evaluate(U) for g in grads], axis=1)
        dV = np.stack([g.evaluate(V) for g in grads], axis=1)
        gaps = np.linalg.norm(U - V, axis=1)
        keep = gaps > 0
        quot = np.linalg.norm(dU[keep] - dV[keep], axis=1) / gaps[keep]
        sup_grad = float(np.linalg.norm(dU, axis=1).max())
        kappa = max(2.0 * float(quot.max(initial=0.0)), sup_grad, 1.0)
    return kappa


def surface_convolution(
    surface_functions: list[SurfaceFunction],
    y: np.ndarray,
    spec: QuadratureSpec,
    transversality_floor: float = 1e-6,
) -> tuple[float, float]:
    """Convolution of the d surface-carried densities evaluated at y.

    Reduces to a delta_integral of the product of the densities against
    the reduction field.  The convolution is permutation invariant, so
    the surfaces are reordered until the solved coordinate carries a
    last-partial of size at least 1/2; transversality guarantees some
    ordering works when the normals are in general position.
    Returns (value, error_estimate).
    """
    from itertools import permutations

    d = len(surface_functions)
    y = np.asarray(y, dtype=float)
    det = _reduction_det([sf.surface for sf in surface_functions], y)
    if abs(det) < transversality_floor:
        raise TransversalityError(f"reduction determinant {det:.3e} below the floor")

    def last_partial_proxy(order) -> float:
        # steeper solved coordinate means a larger guaranteed neighbourhood
        s_pen = surface_functions[order[d - 2]].surface
        s_last = surface_functions[order[d - 1]].surface
        g_pen = s_pen.grad(np.zeros((1, d - 1)))[0][-1]
        g_last = s_last.grad(np.atleast_2d(y[: d - 1]))[0][-1]
        return abs(g_pen - g_last)

    orders = sorted(permutations(range(d)), key=last_partial_proxy, reverse=True)
    last_error: Exception | None = None
    for order in orders:
        try:
            return _surface_convolution_ordered(
                [surface_functions[i] for i in order], y, spec
            )
        except (TransversalityError, ValidityError, DomainError) as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


def _surface_convolution_ordered(
    surface_functions: list[SurfaceFunction],
    y: np.ndarray,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    d = len(surface_functions)
    surfaces = [sf.surface for sf in surface_functions]
    y = np.asarray(y, dtype=float)
    densities = [sf.input_function() for sf in surface_functions]
    width = d - 1
    field, root, scale = build_reduction_field(surfaces, y)

    def integrand(U: np.ndarray) -> np.ndarray:
        # U carries base coordinates plus the solved last coordinate,
        # shifted back by the root translation
        U = np.atleast_2d(U)
        full = U.copy()
        full[:, -1] += root
        out = np.ones(U.shape[0])
        acc = np.zeros((U.shape[0], width))
        for j in range(d - 1):
            block = full[:, j * width : (j + 1) * width]
            out *= densities[j].evaluate(block)
            acc += block
        out *= densities[d - 1].evaluate(y[:-1] - acc)
        return out

    # delta_integral weights by 1/|d_t G| with G = F/scale, so the raw value
    # carries an extra |scale| against the 1/|d_t F| convention
    if field.n == 0:
        value, err = delta_integral(field, integrand, None, spec)
        return value / abs(scale), err / abs(scale)
    window = _support_window(surface_functions, field, root)
    if window is None:
        return 0.0, 0.0
    value, err = delta_integral(field, integrand, window, spec)
    return value / abs(scale), err / abs(scale)


def _reduction_det(surfaces: list[Hypersurface], y: np.ndarray) -> float:
    d = len(surfaces)
    rows = [np.ones(d)]
    grads = [s.grad(np.zeros((1, s.base_dim)))[0] for s in surfaces[:-1]]
    grads.append(surfaces[-1].grad(np.atleast_2d(y[: d - 1]))[0])
    rows.extend([np.array([g[a] for g in grads]) for a in range(d - 1)])
    return float(np.linalg.det(np.vstack(rows)))


def _support_window(
    surface_functions: list[SurfaceFunction], field: ScalarField, root: float
):
    """Box in base coordinates covering the integrand support, clipped to
    fit strictly inside B(0, R1)."""
    d = len(surface_functions)
    width = d - 1
    los, his = [], []
    for j in range(d - 1):
        sf = surface_functions[j]
        lo, hi = sf.surface.lo.copy(), sf.surface.hi.copy()
        los.append(lo)
        his.append(hi)
    lo = np.concatenate(los)[: field.n]
    hi = np.concatenate(his)[: field.n]
    R1, _ = ift_radii(field.beta, field.kappa)
    corner = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    if corner >= R1:
        raise DomainError(
            f"support radius {corner:.3e} exceeds the guaranteed neighbourhood R1 = {R1:.3e};"
            " rescale the surfaces"
        )
    if np.any(hi <= lo):
        return None
    return lo, hi


def build_corollary_maps(field: ScalarField, d: int) -> list["EtaBlockMap"]:
    """The d maps of the block construction on R^{d(d-2)}.

    For j < d-2 the map reads off block j; map d-2 couples the tail
    coordinates with the implicit function of the field; map d-1 is the
    sum of all the others.
    """
    n_amb = d * (d - 2)
    if field.n != n_amb:
        raise ValueError(f"field base dimension {field.n} != d(d-2) = {n_amb}")
    return [EtaBlockMap(field, d, j) for j in range(d)]


@dataclass
class EtaBlockMap:
    """One map of the block construction; value and Jacobian via the
    implicit function where needed."""

    field: ScalarField
    d: int
    index: int

    @property
    def n_ambient(self) -> int:
        return self.d * (self.d - 2)

    def _selector(self) -> np.ndarray:
        width = self.d - 1
        S = np.zeros((width, self.n_ambient))
        for a in range(width):
            S[a, self.index * width + a] = 1.0
        return S

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        d = self.d
        width = d - 1
        if self.index < d - 2:
            return points @ self._selector().T
        if self.index == d - 2:
            tail = points[:, (d - 2) * width :]
            sol = solve_eta(self.field, points)
            return np.column_stack([tail, sol.eta])
        total = np.zeros((points.shape[0], width))
        for j in range(d - 1):
            total += EtaBlockMap(self.field, d, j).value(points)
        return total

    def jacobian(self, point: np.ndarray) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        d = self.d
        width = d - 1
        if self.index < d - 2:
            return self._selector()
        if self.index == d - 2:
            sol = solve_eta(self.field, point[None, :])
            grad = eta_gradient(self.field, point[None, :], sol.eta)[0]
            J = np.zeros((width, self.n_ambient))
            for a in range(d - 2):
                J[a, (d - 2) * width + a] = 1.0
            J[width - 1, :] = grad
            return J
        J = np.zeros((width, self.n_ambient))
        for j in range(d - 1):
            J += EtaBlockMap(self.field, d, j).jacobian(point)
        return J


def expected_lift_kernels(d: int) -> list[np.ndarray]:
    """Kernel bases of the lifted block maps for the normalised field.

    These are the closed-form kernels valid when the field's base
    gradient is minus the sum of the block-diagonal unit entries, i.e.
    grad eta(0) has -1 in coordinate a of block a and zero elsewhere.
    """
    width = d - 1
    tail = d - 2
    n_amb = d * (d - 2)
    kernels = []
    for j0 in range(d - 2 - 1):
        w = np.zeros(width)
        w[j0] = 1.0
        w[j0 + 1] = -1.0
        U = null_space(w[None, :])
        K = np.zeros((n_amb, U.shape[1]))
        K[j0 * width : (j0 + 1) * width, :] = U
        K[(j0 + 1) * width : (j0 + 2) * width, :] = -U
        kernels.append(K)
    # the map reading the last full block couples into the tail
    w = np.zeros(width)
    w[d - 3] = 1.0
    w[d - 2] = -1.0
    U = null_space(w[None, :])
    K = np.zeros((n_amb, U.shape[1]))
    K[(d - 3) * width : (d - 2) * width, :] = U
    K[(d - 2) * width :, :] = -U[:tail, :]
    kernels.append(K)
    # the eta map: tail coordinates free
    K = np.zeros((n_amb, tail))
    K[(d - 2) * width :, :] = np.eye(tail)
    kernels.append(K)
    # the sum map: first block orthogonal to e_0
    w = np.zeros(width)
    w[0] = 1.0
    U = null_space(w[None, :])
    K = np.zeros((n_amb, U.shape[1]))
    K[:width, :] = U
    kernels.append(K)
    return kernels


@dataclass
class BlockLiftResult:
    lifted_jacobians: list[np.ndarray]
    kernels: list[np.ndarray]
    scheme: list[tuple[int, ...]]
    tensor_exponent: float
    kernel_match_residual: float
    transversality: float | None
    direct_sum_det: float


def block_lift(maps: list[EtaBlockMap], d: int) -> BlockLiftResult:
    """Stack the base maps per the cyclic index tuples and certify that the
    lifted kernels decompose the ambient space in direct sum.

    The kernel list is matched against the closed-form bases; the tensor
    recipe raises each selected density to the power 1/(d-2).
    """
    if d < 3:
        raise ValueError("the block lift needs d >= 3")
    if len(maps) != d:
        raise ValueError("one map per index is required")
    n_amb = d * (d - 2)
    origin = np.zeros(n_amb)
    scheme = block_index_tuples(d)
    if d == 3:
        lifted = [maps[t[0]].jacobian(origin) for t in scheme]
    else:
        lifted = [
            np.vstack([maps[i].jacobian(origin) for i in tup]) for tup in scheme
        ]
    kernels = [null_space(J) for J in lifted]
    expected = expected_lift_kernels(d) if d >= 4 else None
    resid = 0.0
    if expected is not None:
        for K, E in zip(kernels, expected):
            if K.shape[1] != E.shape[1]:
                raise TransversalityError("lifted kernel has unexpected dimension")
            angles = subspace_angles(K, E)
            resid = max(resid, float(np.sin(angles).max(initial=0.0)))
        if resid > 1e-8:
            raise TransversalityError(
                f"lifted kernels deviate from the closed forms by {resid:.3e}"
            )
    stacked = np.hstack(kernels)
    if stacked.shape != (n_amb, n_amb):
        raise TransversalityError("lifted kernel dimensions do not sum to the ambient one")
    direct_sum_det = float(np.linalg.det(stacked))
    quantity = None
    if n_amb <= MAX_DIMENSION:
        quantity = transversality_quantity(lifted)
        if abs(quantity) <= 1e-10:
            raise TransversalityError("lifted maps are not transversal")
    return BlockLiftResult(
        lifted_jacobians=lifted,
        kernels=kernels,
        scheme=scheme,
        tensor_exponent=1.0 / (d - 2),
        kernel_match_residual=resid,
        transversality=quantity,
        direct_sum_det=direct_sum_det,
    )


def extension_operator(
    surface: Hypersurface,
    g: GridFunction | None,
    xi: np.ndarray,
    resolution: int | None = None,
    max_resolution: int = 4096,
    min_resolution: int = 16,
) -> complex:
    """Oscillatory integral int_U g(x) e^{i <xi, (x, phi(x))>} dx.

    Midpoint rule with at least 10 points per oscillation wavelength at
    the given frequency (the floor of the rule size); refuses rather
    than aliasing when the floor exceeds the resolution budget.
    """
    xi = np.asarray(xi, dtype=float)
    k = surface.base_dim
    if xi.shape != (k + 1,):
        raise ValueError("frequency must live in the ambient space")
    floor = _required_resolution(surface, float(np.max(np.abs(xi))), min_resolution)
    if floor > max_resolution:
        raise ResolutionBudgetError(
            f"needs {floor} points per axis, budget {max_resolution}; raise the budget"
        )
    res = max(floor, resolution or 0)
    if res > max_resolution:
        raise ResolutionBudgetError(
            f"requested {res} points per axis, budget {max_resolution}"
        )
    return complex(extension_on_grid(surface, g, xi[None, :], res).item())


def _required_resolution(surface: Hypersurface, xi_max: float, min_resolution: int) -> int:
    widths = surface.hi - surface.lo
    # phase derivative bound per axis: |xi| (1 + Lip(phi))
    sample = np.linspace(surface.lo, surface.hi, 9)
    lip = float(np.abs(surface.grad(sample.reshape(-1, surface.base_dim))).max(initial=0.0))
    rate = xi_max * (1.0 + lip)
    need = int(np.ceil(10.0 * rate * float(widths.max()) / (2.0 * math.pi)))
    return max(min_resolution, need)


def extension_on_grid(
    surface: Hypersurface,
    g: GridFunction | None,
    nodes: np.ndarray,
    u_resolution: int,
) -> np.ndarray:
    """Midpoint-rule extension values over a tensor grid of frequencies.

    Column a of ``nodes`` (n, k+1) holds the frequency nodes of ambient
    axis a; the result holds E g(xi) at every xi of their product grid,
    shape (n,)*(k+1) in ``meshgrid(..., indexing="ij")`` order.  The
    parameter box carries u_resolution midpoints per axis.

    The phase <xi, (x, phi(x))> is linear in each base coordinate, so
    it splits into exp(i xi_last phi(x)) times one factor exp(i xi_a x_a)
    per base axis.  Per last-axis node the weighted phi factor is
    formed once and each base axis is contracted with its factor matrix:
    n u^k phase factors plus k tensor contractions, where a dense
    frequency-by-parameter sum would form n^{k+1} u^k.  Last-axis nodes
    go in chunks so no intermediate exceeds _CHUNK_ENTRIES complex
    entries.
    """
    k = surface.base_dim
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != k + 1:
        raise ValueError(f"nodes must be an (n, {k + 1}) array, one column per ambient axis")
    n = nodes.shape[0]
    u = u_resolution
    axes = [
        surface.lo[a] + (surface.hi[a] - surface.lo[a]) * (np.arange(u) + 0.5) / u
        for a in range(k)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    cell = float(np.prod((surface.hi - surface.lo) / u))
    weights = (g.evaluate(pts) if g is not None else np.ones(pts.shape[0])) * cell
    phi = surface.phi.evaluate(pts)
    factors = [np.exp(1j * np.outer(nodes[:, a], axes[a])) for a in range(k)]
    out = np.empty((n,) * (k + 1), dtype=complex)
    chunk = max(1, _CHUNK_ENTRIES // max(n, u) ** k)
    for start in range(0, n, chunk):
        last = nodes[start : start + chunk, k]
        block = (np.exp(1j * np.outer(last, phi)) * weights).reshape((last.size,) + (u,) * k)
        # axis 1 is the next base axis: (c, u_a, ..., u_{k-1}, n_0, ..., n_{a-1})
        # becomes (c, u_{a+1}, ..., u_{k-1}, n_0, ..., n_a)
        for factor in factors:
            block = np.tensordot(block, factor, axes=([1], [1]))
        out[..., start : start + chunk] = np.moveaxis(block, 0, -1)
    return out


def _flat_convolution_2d(
    surface_functions: list[SurfaceFunction], Y: np.ndarray
) -> np.ndarray:
    """Batched convolution values for two affine curves in the plane."""
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


def _surfaces_flat(surfaces: list[Hypersurface]) -> bool:
    return all(s.phi.degree() <= 1 for s in surfaces)


@dataclass
class Thm74Report:
    lhs: float
    conv_route: float
    bridge_error: float
    ratio: float
    input_norms: list[float]
    frequency_halfwidth: float
    resolution: int
    constant: float
    refusal: bool


def verify_thm74(
    surface_functions: list[SurfaceFunction],
    frequency_halfwidth: float,
    resolution: int,
    spec: QuadratureSpec,
    spatial_multiplier: int = 4,
) -> Thm74Report:
    """Two-route check of the product-extension estimate in L^2.

    lhs integrates |prod_j E_j g_j|^2 over the truncated frequency box;
    the convolution route integrates |conv|^2 over the spatial support
    box and carries the constant (2 pi)^{d/2}.  The report flags
    bridge errors above 20 percent as a refusal (truncation too small).
    """
    d = len(surface_functions[0].surface.lo) + 1
    if len(surface_functions) != d:
        raise ValueError("need d surfaces in ambient dimension d")
    for sf in surface_functions:
        sf.surface.audit_regularity(seed=0)
    R = float(frequency_halfwidth)
    axes = [(-R + 2 * R * (np.arange(resolution) + 0.5) / resolution) for _ in range(d)]
    nodes = np.stack(axes, axis=1)
    cell = (2.0 * R / resolution) ** d
    xi_max = R
    u_res = resolution
    for sf in surface_functions:
        need = _required_resolution(sf.surface, xi_max * math.sqrt(d), 16)
        u_res = max(u_res, need)
    prod = np.ones((resolution,) * d, dtype=complex)
    for sf in surface_functions:
        prod *= extension_on_grid(sf.surface, sf.values, nodes, u_res)
    lhs_sq = float((np.abs(prod) ** 2).sum() * cell)
    lhs = math.sqrt(lhs_sq)

    # spatial route over the summed support box
    lo = np.zeros(d)
    hi = np.zeros(d)
    for sf in surface_functions:
        s = sf.surface
        corners = np.array(
            np.meshgrid(*[[s.lo[a], s.hi[a]] for a in range(d - 1)], indexing="ij")
        ).reshape(d - 1, -1).T
        graphs = s.graph(corners)
        lo += graphs.min(axis=0)
        hi += graphs.max(axis=0)
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    sres = spatial_multiplier * resolution
    axes_y = [lo[a] + (hi[a] - lo[a]) * (np.arange(sres) + 0.5) / sres for a in range(d)]
    mesh_y = np.meshgrid(*axes_y, indexing="ij")
    Y = np.stack([m.ravel() for m in mesh_y], axis=1)
    if d == 2 and _surfaces_flat([sf.surface for sf in surface_functions]):
        conv = _flat_convolution_2d(surface_functions, Y)
    else:
        vals = []
        for y in Y:
            try:
                vals.append(surface_convolution(surface_functions, y, spec)[0])
            except ValidityError:
                vals.append(0.0)  # level set misses the controlled neighbourhood
        conv = np.array(vals)
    cell_y = float(np.prod((hi - lo) / sres))
    conv_sq = float((conv**2).sum() * cell_y)
    constant = (2.0 * math.pi) ** (d / 2.0)
    conv_route = constant * math.sqrt(conv_sq)
    bridge_error = abs(lhs - conv_route) / max(lhs, conv_route, 1e-300)
    q = (2.0 * d - 2.0) / (2.0 * d - 3.0)
    norms = [sf.lp_norm(q) for sf in surface_functions]
    norm_prod = float(np.prod(norms))
    ratio = lhs / norm_prod if norm_prod > 0 else (math.inf if lhs > 0 else 0.0)
    return Thm74Report(
        lhs=lhs,
        conv_route=conv_route,
        bridge_error=float(bridge_error),
        ratio=float(ratio),
        input_norms=norms,
        frequency_halfwidth=R,
        resolution=resolution,
        constant=constant,
        refusal=bool(bridge_error > 0.2),
    )
