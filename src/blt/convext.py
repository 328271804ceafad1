"""Singular convolution integrals and extension operators.

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
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np

from . import ift
from .geometry import blocks, grid_points
from .ift import (
    AUDIT_PAIRS,
    DomainError,
    FieldDeclarationError,
    PolynomialFields,
    _monomials,
    _translated_tables,
    contract,
    holder_quotient,
    ift_radii,
    iteration_cap,
)
from .inputs import BoxIndicator, GridFunction, InputFunction
from .polynomials import Polynomial
from .quadrature import QuadratureSpec, midpoint_axes


# Largest intermediate, in complex entries, of one extension_on_grid chunk.
_CHUNK_ENTRIES = 4_000_000
# Reduction determinants below this floor fail transversality.
_TRANSVERSALITY_FLOOR = 1e-6
# Fewest midpoints per axis of an extension integral, and most unless the
# caller grants more.
_MIN_EXTENSION_RESOLUTION = 16
MAX_EXTENSION_RESOLUTION = 4096
# Spatial midpoints per axis of verify_thm74, per frequency node per axis.
_SPATIAL_MULTIPLIER = 4


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
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("parameter domain must be a finite box")
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ValueError("parameter domain must be a nondegenerate box")
        if self.phi.n != self.lo.size:
            raise ValueError("graph function arity must match the domain dimension")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if not 0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")

    @property
    def base_dim(self) -> int:
        return self.lo.size

    def graph(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.column_stack([points, self.phi.evaluate(points)])

    def grad(self, points: np.ndarray) -> np.ndarray:
        return self.phi.gradient(points)

    def audit_regularity(self) -> None:
        """Raises if the sampled Hoelder quotient of grad phi over the
        parameter domain exceeds kappa."""
        rng = np.random.default_rng(0)
        X = rng.uniform(self.lo, self.hi, size=(AUDIT_PAIRS, self.base_dim))
        Y = rng.uniform(self.lo, self.hi, size=(AUDIT_PAIRS, self.base_dim))
        holder_quotient(X, Y, self.grad(X), self.grad(Y), self.beta, self.kappa, ValueError)


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
            return f.integral() ** (1.0 / q)
        assert isinstance(f, GridFunction)
        return float((np.sum(f.values**q) * f.spacing**f.dim) ** (1.0 / q))


def delta_integral(
    field: PolynomialFields,
    integrand,
    window: tuple[np.ndarray, np.ndarray] | None,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """Integral of integrand(u) against delta(F(u)) over the window for a
    one-field ``field`` (a ScalarField): the one-row call of
    coarea_integrals, which raises that row's failure.

    integrand maps (M, n + 1) points to (M,) values.  The window is a box
    in the base space and must sit inside the ball B(0, R1); |d_last F|
    must stay >= 1/2 on the window.  For a zero-dimensional base the value
    is a single weighted sample.
    """
    n = field.n
    if n > 0:
        if window is None:
            raise ValueError("a window box is required for a positive-dimensional base")
        lo = np.asarray(window[0], dtype=float)
        hi = np.asarray(window[1], dtype=float)
        if lo.shape != (n,) or hi.shape != (n,) or not np.all(hi > lo):
            raise ValueError("window must be a nondegenerate box in the base space")
        window = (lo, hi)
    failures: list[Exception | None] = [None]
    values, errors = coarea_integrals(
        field, lambda U, rows: integrand(U[0])[None], window, spec, failures
    )
    if failures[0] is not None:
        raise failures[0]
    return float(values[0]), float(errors[0])


def coarea_integrals(fields: PolynomialFields, integrand, window, spec: QuadratureSpec, failures):
    """The integrals of integrand against delta(G_p) over one shared base
    window, for every field p of ``fields`` whose entry of ``failures`` is
    None.

    Realised as the base-space integral of integrand(x, eta_p(x)) over
    |d_t G_p(x, eta_p(x))|, with eta_p the implicit solution that contract
    finds within the radius and cap of the field's kappa (tolerance
    1e-12).  integrand(U, rows) maps the points U, shape (R, M, n + 1), of
    the level sets of the fields ``rows`` to (R, M) values.  The window is
    a box in the base space, None for n = 0, where each value is a single
    weighted sample.  Fields go to spec.integrate in batches of about
    BLOCK_ENTRIES quadrature nodes times monomials (`blocks`), and a
    field's floats do not depend on its batch.

    A field whose window leaves its B(0, R1) (DomainError), whose solve
    fails or whose |d_t G| falls below 1/2 (FieldDeclarationError) gets
    its first failure written into ``failures``.  Returns (values, error
    estimates), each of shape (P,), 0 where a field failed.
    """
    n = fields.n
    P = len(failures)
    kappa = np.broadcast_to(fields.kappa, (P,))
    R1, R2 = ift_radii(fields.beta, kappa)
    caps = iteration_cap(fields.beta, kappa, 1e-12)
    live = np.array([p for p, f in enumerate(failures) if f is None], dtype=np.int64)
    if n > 0:
        corner = float(np.linalg.norm(np.maximum(np.abs(window[0]), np.abs(window[1]))))
        for p in live[corner >= R1[live]]:
            failures[p] = DomainError(
                f"window corner radius {corner:.3e} escapes B(0, R1), R1 = {R1[p]:.3e}"
            )
        live = live[corner < R1[live]]

    def record(rows, error) -> None:
        for p in rows:
            if failures[p] is None:
                failures[p] = error

    def weighted(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        run = contract(lambda eta, sub: fields.value(x, eta, rows[sub]),
                       R2[rows], caps[rows], 1e-12, x.shape[0])
        for r in np.flatnonzero(run.escaped | ~run.converged):
            record([rows[r]], run.error(r))
        denom = np.abs(fields.partial_t(x, run.eta, rows))
        record(rows[np.any(denom < 0.5, axis=1)],
               FieldDeclarationError("|d_last F| fell below 1/2 on the level set"))
        U = np.empty(run.eta.shape + (n + 1,))
        U[..., :n] = x
        U[..., n] = run.eta
        return integrand(U, rows) / denom

    values = np.zeros(P)
    errors = np.zeros(P)
    # each field counts its quadrature nodes times its monomials
    for block in blocks(live.size, spec.points_per_call(n) * fields.exponents.shape[0]):
        rows = live[block]
        if n == 0:
            values[rows] = weighted(np.zeros((1, 0)), rows)[:, 0]
        else:
            values[rows], errors[rows] = spec.integrate(lambda x: weighted(x, rows), *window)
    failed = np.array([f is not None for f in failures], dtype=bool)
    values[failed] = 0.0
    errors[failed] = 0.0
    return values, errors


@dataclass
class ReductionFields(PolynomialFields):
    """The normalised reduction fields of one surface ordering at a batch
    of points: G_p(x, t) = F(x, root_p + t; y_p) / scale_p, where F is the
    polynomial of build_reduction_field in the base coordinates (the
    solved one last) followed by y.  ``kappa`` holds each field's
    C^{1,beta} bound, computed from its partial tables by _kappa_bound (1
    where the point failed).
    """

    Y: np.ndarray
    root: np.ndarray
    scale: np.ndarray


def build_reduction_field(
    surfaces: list[Hypersurface], Y: np.ndarray
) -> tuple[ReductionFields, list[Exception | None]]:
    """Reduction fields for the convolution of d graph measures at the
    points Y, shape (P, d).

    F(x_1', ..., x_{d-1}'; y) = sum_j phi_j(x_j') + phi_d(y' - sum x_j') - y_d
    is built once as a polynomial in the base coordinates and y, and its
    coefficients, polynomials in y, are evaluated once per point.  Per
    point, F is translated to the real root nearest the origin along the
    last coordinate (as np.roots finds it), scaled to unit last partial
    there and given the closed-form kappa of _kappa_bound.  Also returns
    each point's failure, None where its field is valid: ValidityError
    (no root near the origin), TransversalityError (last partial below
    1/2 at the root), or the ScalarField checks (degree, normalisation).
    """
    d = len(surfaces)
    Y = np.asarray(Y, dtype=float)
    width = d - 1
    total = width * width
    n_vars = total + d
    F = Polynomial.linear_form(-np.eye(n_vars)[-1])
    for j in range(width):
        F = F + surfaces[j].phi.substitute_affine(np.eye(width, n_vars, k=j * width))
    negated_sum = np.hstack([-np.eye(width)] * width + [np.eye(width), np.zeros((width, 1))])
    F = F + surfaces[-1].phi.substitute_affine(negated_sum)

    exponents, coeffs = _coefficient_table(F, total, Y)
    # the coefficients of F along the last base coordinate
    on_line = [(e[-1], column) for e, column in zip(exponents, coeffs.T) if not any(e[:-1])]
    line = np.zeros((Y.shape[0], max(m for m, _ in on_line) + 1))
    for m, column in on_line:
        line[:, m] = column
    root = _nearest_real_root(line)
    validity_radius = 0.5 * float(np.max(np.concatenate([s.hi - s.lo for s in surfaces])) + 1.0)
    failures: list[Exception | None] = [None] * Y.shape[0]
    valid = np.abs(root) <= validity_radius
    for p in np.flatnonzero(~valid):
        failures[p] = ValidityError("no root of the reduction field near the origin")
    root[~valid] = 0.0

    degree = max(sum(e) for e in exponents)
    exponents, tables = _translated_tables(exponents, coeffs, root)
    # exponents[0] is zero, so column 0 holds each polynomial at the origin
    scale = tables[-1][:, 0].copy()
    for p in np.flatnonzero(valid & ~(np.abs(scale) >= 0.5)):
        failures[p] = TransversalityError(
            f"last partial derivative {scale[p]:.3e} below 1/2 at the root"
        )
    valid &= np.abs(scale) >= 0.5
    scale[~valid] = 1.0
    tables /= scale[:, None]
    live = np.flatnonzero(valid)
    beta = min(s.beta for s in surfaces)
    fields = ReductionFields(exponents, tables, beta, np.ones(Y.shape[0]), Y, root, scale)
    fields.kappa[live] = _kappa_bound(tables[1:, live], exponents, beta)

    # the ScalarField checks of its declared form; d_(n+1)G(0,0) = scale / scale is 1
    f0 = tables[0][:, 0]
    for p in live:
        failures[p] = ift.form_error(degree, f0[p])
    return fields, failures


def _coefficient_table(
    poly: Polynomial, k: int, Y: np.ndarray
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """poly as a polynomial in its k leading variables whose coefficients
    are polynomials in the trailing ones, evaluated at each row of Y: the
    exponents in the leading variables, A tuples, and the coefficients,
    shape (P, A)."""
    exponents = sorted({key[:k] for key in poly.coeffs})
    y_exponents = sorted({key[k:] for key in poly.coeffs})
    row = {e: a for a, e in enumerate(exponents)}
    column = {e: b for b, e in enumerate(y_exponents)}
    K = np.zeros((len(row), len(column)))
    for key, c in poly.coeffs.items():
        K[row[key[:k]], column[key[k:]]] = c
    y_monomials = _monomials(Y, np.array(y_exponents, dtype=np.int64))
    return exponents, np.add.reduce(y_monomials[:, None, :] * K, axis=-1)


def _nearest_real_root(C: np.ndarray) -> np.ndarray:
    """Per row of ascending coefficients C, shape (P, D + 1): the real root
    nearest the origin among those np.roots returns, NaN where none is.

    A zero constant term makes 0 a root, and the nearest.  Otherwise, as
    in np.roots, the roots are the eigenvalues of the companion matrix of
    the coefficients up to the highest nonzero one; those are found in
    stacks of rows of one degree.
    """
    nonzero = C != 0
    degree = C.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    root = np.where(nonzero.any(axis=1) & ~nonzero[:, 0], 0.0, np.nan)
    for m in np.unique(degree[nonzero[:, 0] & (degree > 0)]):
        rows = np.flatnonzero(nonzero[:, 0] & (degree == m))
        p = C[rows, m::-1]
        companion = np.zeros((rows.size, m, m))
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        roots = np.linalg.eigvals(companion)
        real = np.abs(roots.imag) < 1e-9
        best = np.argmin(np.where(real, np.abs(roots.real), np.inf), axis=1)
        root[rows] = np.where(real.any(axis=1), roots.real[np.arange(rows.size), best], np.nan)
    return root


def _kappa_bound(partials: np.ndarray, exponents: np.ndarray, beta: float) -> np.ndarray:
    """A C^{1,beta} bound for each field whose partials have the tables
    ``partials``, shape (k, P, A), over the monomials of ``exponents``.

    With kappa0 = max(|grad G(0)|, 1) and R2 = (100 kappa0)^(-1/beta), each
    monomial obeys |z^a| <= R2^|a| on the ball |z| <= R2.  There
    S = |(sum_a |c_ia| R2^|a|)_i| bounds |grad G|, and the spectral norm L
    of M_ij = sum_a |c_ia| a_j R2^(|a| - 1) bounds the Lipschitz constant of
    grad G, so the Hoelder quotient is at most L (2 R2)^(1 - beta).  The
    bound kappa = max(S, L (2 R2)^(1 - beta), 1) is at least kappa0, so its
    own R2 ball lies inside this one and the bound holds there too.
    """
    kappa0 = np.maximum(np.linalg.norm(partials[..., 0], axis=0), 1.0)
    _, R2 = ift_radii(beta, kappa0)
    weighted = np.abs(partials) * R2[:, None] ** exponents.sum(axis=1)
    S = np.linalg.norm(weighted.sum(axis=-1), axis=0)
    M = np.moveaxis(weighted @ exponents, 0, 1) / R2[:, None, None]
    L = np.linalg.norm(M, ord=2, axis=(1, 2))
    return np.maximum(np.maximum(S, L * (2.0 * R2) ** (1.0 - beta)), 1.0)


def surface_convolution(
    surface_functions: list[SurfaceFunction],
    y: np.ndarray,
    spec: QuadratureSpec,
):
    """Convolution of the d surface-carried densities at y, one point of
    shape (d,) or a batch of shape (P, d).

    Reduces to a delta_integral of the product of the densities against
    the reduction field.  The convolution is permutation invariant, so
    each point walks the surface orderings by a descending proxy of its
    last partial and takes the first ordering whose solved coordinate
    carries a last-partial of size at least 1/2; transversality
    guarantees some ordering works when the normals are in general
    position.  Returns (value, error_estimate): floats for one point,
    (P,) arrays for a batch.  One point raises its failure.  In a batch a
    point whose level set misses the controlled neighbourhood
    (ValidityError) gives 0, and any other failure raises the exception
    of the first failing point.
    """
    d = len(surface_functions)
    y = np.asarray(y, dtype=float)
    Y = np.atleast_2d(y)
    if Y.ndim != 2 or Y.shape[1] != d:
        raise ValueError("y must live in the ambient space R^d")
    values, errors, failures = _convolve_points(surface_functions, Y, spec)
    if y.ndim == 1:
        if failures[0] is not None:
            raise failures[0]
        return float(values[0]), float(errors[0])
    for failure in failures:
        if failure is not None and not isinstance(failure, ValidityError):
            raise failure
    return values, errors


def _convolve_points(surface_functions, Y, spec):
    """Values, error estimates and failures of the convolution at the
    points Y: each point tries its orderings in turn until one succeeds
    or fails with other than a Transversality, Validity or DomainError;
    a point that no ordering serves keeps the last ordering's failure."""
    d = len(surface_functions)
    surfaces = [sf.surface for sf in surface_functions]
    P = Y.shape[0]
    values = np.zeros(P)
    errors = np.zeros(P)
    failures: list[Exception | None] = [None] * P
    at_zero = [s.grad(np.zeros((1, d - 1)))[0] for s in surfaces]
    at_y = [s.grad(Y[:, : d - 1]) for s in surfaces]
    det = _reduction_det(at_zero[:-1], at_y[-1])
    flat = np.abs(det) < _TRANSVERSALITY_FLOOR
    for p in np.flatnonzero(flat):
        failures[p] = TransversalityError(f"reduction determinant {det[p]:.3e} below the floor")

    # steeper solved coordinate means a larger guaranteed neighbourhood
    orders = list(permutations(range(d)))
    proxy = np.column_stack(
        [np.abs(at_zero[o[d - 2]][-1] - at_y[o[d - 1]][:, -1]) for o in orders]
    )
    preference = np.argsort(-proxy, axis=1, kind="stable")

    retry = (TransversalityError, ValidityError, DomainError)
    pending = np.flatnonzero(~flat)
    for k in range(len(orders)):
        choice = preference[pending, k]
        for order in np.unique(choice):
            rows = pending[choice == order]
            ordered = [surface_functions[i] for i in orders[order]]
            values[rows], errors[rows], fails = _convolve_ordered(ordered, Y[rows], spec)
            for p, failure in zip(rows, fails):
                failures[p] = failure
        pending = np.array(
            [p for p in pending if isinstance(failures[p], retry)], dtype=np.int64
        )
    return values, errors, failures


def _convolve_ordered(surface_functions, Y, spec):
    """Values, error estimates and failures at the points Y with the
    surfaces in the given order; a failed point has value 0."""
    d = len(surface_functions)
    width = d - 1
    surfaces = [sf.surface for sf in surface_functions]
    densities = [sf.input_function() for sf in surface_functions]
    fields, failures = build_reduction_field(surfaces, Y)
    n = fields.n

    def integrand(U: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # the solved last coordinate, shifted back by the root translation
        R, M, _ = U.shape
        U[..., n] += fields.root[rows, None]
        out = np.ones((R, M))
        acc = np.zeros((R, M, width))
        for j in range(d - 1):
            block = U[..., j * width : (j + 1) * width]
            out *= densities[j].evaluate(block.reshape(-1, width)).reshape(R, M)
            acc += block
        last = fields.Y[rows, None, :-1] - acc
        return out * densities[d - 1].evaluate(last.reshape(-1, width)).reshape(R, M)

    window = _support_window(surfaces, n) if n > 0 else None
    values, errors = coarea_integrals(fields, integrand, window, spec, failures)
    # the co-area weight is 1/|d_t G| with G = F/scale, so the raw value
    # carries an extra |scale| against the 1/|d_t F| convention
    scale = np.abs(fields.scale)
    return values / scale, errors / scale, failures


def _reduction_det(at_zero: list[np.ndarray], at_y: np.ndarray) -> np.ndarray:
    """Per point, the determinant with a row of ones over the columns
    grad phi_j(0) of the first d - 1 surfaces and grad phi_d(y') of the
    last, at_y holding the latter for every point, shape (P, d - 1)."""
    d = len(at_zero) + 1
    M = np.ones((at_y.shape[0], d, d))
    M[:, 1:, :-1] = np.stack(at_zero, axis=1)
    M[:, 1:, -1] = at_y
    return np.linalg.det(M)


def _support_window(surfaces: list[Hypersurface], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Box in base coordinates covering the integrand support: the
    parameter boxes of all surfaces but the last, less the solved
    coordinate."""
    lo = np.concatenate([s.lo for s in surfaces[:-1]])[:n]
    hi = np.concatenate([s.hi for s in surfaces[:-1]])[:n]
    return lo, hi


def extension_operator(
    surface: Hypersurface,
    g: GridFunction | None,
    xi: np.ndarray,
    max_resolution: int = MAX_EXTENSION_RESOLUTION,
) -> complex:
    """Oscillatory integral int_U g(x) e^{i <xi, (x, phi(x))>} dx.

    Midpoint rule with 10 points per oscillation wavelength at the
    given frequency (`_required_resolution`, at least 16 per axis);
    refuses rather than aliasing when that exceeds the resolution budget.
    """
    xi = np.asarray(xi, dtype=float)
    k = surface.base_dim
    if xi.shape != (k + 1,):
        raise ValueError("frequency must live in the ambient space")
    res = _required_resolution(surface, float(np.max(np.abs(xi))), max_resolution)
    return complex(extension_on_grid(surface, g, xi[None, :], res).item())


def _required_resolution(surface: Hypersurface, xi_max: float, budget: int) -> int:
    """Parameter midpoints per axis for 10 per oscillation wavelength at
    frequencies up to xi_max; refuses when that exceeds the budget."""
    widths = surface.hi - surface.lo
    # phase derivative bound per axis: |xi| (1 + Lip(phi)), with grad phi
    # sampled on a grid of 9 points per axis
    sample = grid_points([np.linspace(lo, hi, 9) for lo, hi in zip(surface.lo, surface.hi)])
    lip = float(np.abs(surface.grad(sample)).max(initial=0.0))
    rate = xi_max * (1.0 + lip)
    need = 10.0 * rate * float(widths.max()) / (2.0 * math.pi)
    floor = max(_MIN_EXTENSION_RESOLUTION, math.ceil(need)) if math.isfinite(need) else need
    if floor > budget:
        raise ResolutionBudgetError(
            f"needs {floor} points per axis, budget {budget}; raise the budget"
        )
    return floor


def extension_on_grid(
    surface: Hypersurface,
    g: GridFunction | None,
    nodes: np.ndarray,
    u_resolution: int,
) -> np.ndarray:
    """Midpoint-rule extension values over a tensor grid of frequencies.

    Column a of ``nodes`` (n, k+1) holds the frequency nodes of ambient
    axis a; the result holds E g(xi) at every xi of their product grid,
    shape (n,)*(k+1) in ij order (`grid_points`).  The
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
    axes, cell = midpoint_axes(surface.lo, surface.hi, u)
    pts = grid_points(axes)
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


def _flat_convolution_2d(surface_functions: list[SurfaceFunction], axes: list[np.ndarray]):
    """Convolution values of two affine curves in the plane on the midpoint
    grid of ``axes`` (y0, y1), yielded one block of whole y0 rows at a
    time in ij order, each block at most BLOCK_ENTRIES points (`blocks`)
    unless one row is longer.

    The meeting point x* solves c0 x + a0 + c1 (y0 - x) + a1 = y1, and
    the value is g0(x*) g1(y0 - x*) / |c0 - c1|; per point the floats
    do not depend on the block size."""
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
    y0, y1 = axes
    shifted = y1 - a0 - a1
    for rows in blocks(y0.size, y1.size):
        block = y0[rows, None]
        x_star = (shifted - c1 * block) / denom
        vals = g0.evaluate(x_star.reshape(-1, 1)) * g1.evaluate((block - x_star).reshape(-1, 1))
        yield vals / abs(denom)


def _surfaces_flat(surfaces: list[Hypersurface]) -> bool:
    return all(s.phi.degree() <= 1 for s in surfaces)


def _spatial_axes(
    surface_functions: list[SurfaceFunction], count: int
) -> tuple[list[np.ndarray], float]:
    """Midpoint axes, count points each, over the summed support box of
    the graphs padded by 5 % per side, and the cell volume."""
    d = len(surface_functions)
    lo = np.zeros(d)
    hi = np.zeros(d)
    for sf in surface_functions:
        s = sf.surface
        graphs = s.graph(grid_points(zip(s.lo, s.hi)))
        lo += graphs.min(axis=0)
        hi += graphs.max(axis=0)
    pad = 0.05 * (hi - lo)
    return midpoint_axes(lo - pad, hi + pad, count)


def _spatial_grid(
    surface_functions: list[SurfaceFunction], points_per_axis: int
) -> tuple[np.ndarray, float]:
    """The points, in ij order, of the `_spatial_axes` grid, and its cell
    volume."""
    axes, cell = _spatial_axes(surface_functions, points_per_axis)
    return grid_points(axes), cell


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
    for i, sf in enumerate(surface_functions):
        try:
            sf.surface.audit_regularity()
        except ValueError as exc:
            raise ValueError(f"surface {i}: {exc}") from exc
    R = float(frequency_halfwidth)
    axes, cell = midpoint_axes(np.full(d, -R), np.full(d, R), resolution)
    nodes = np.stack(axes, axis=1)
    u_res = resolution
    for sf in surface_functions:
        u_res = max(u_res, _required_resolution(
            sf.surface, R * math.sqrt(d), MAX_EXTENSION_RESOLUTION
        ))
    prod = np.ones((resolution,) * d, dtype=complex)
    for sf in surface_functions:
        prod *= extension_on_grid(sf.surface, sf.values, nodes, u_res)
    lhs_sq = float((np.abs(prod) ** 2).sum() * cell)
    lhs = math.sqrt(lhs_sq)

    count = _SPATIAL_MULTIPLIER * resolution
    if d == 2 and _surfaces_flat([sf.surface for sf in surface_functions]):
        axes_y, cell_y = _spatial_axes(surface_functions, count)
        blocks = _flat_convolution_2d(surface_functions, axes_y)
        conv_sq = sum(float((conv**2).sum()) for conv in blocks) * cell_y
    else:
        Y, cell_y = _spatial_grid(surface_functions, count)
        conv = surface_convolution(surface_functions, Y, replace(spec, error_estimate=False))[0]
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
