"""Command-line surface: one subcommand per toolkit operation.

All I/O is JSON.  A command takes only the options it reads, and its
report's config records the values it used, defaults, seed and
quadrature rule included.  A regular output file is replaced atomically,
and identical (command, config) runs produce bitwise-identical files.
Exit codes: 0 computed/certified, 1 usage or input error, 2 the
mathematics said no (inequality violation or refusal diagnostic).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from . import convext, datum as datum_mod, ift, inputs as inputs_mod, quadrature, scales
from .polynomials import Polynomial

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2

# Commands that read --seed on every run; the integrating commands read
# it only under Monte Carlo (`_quad_spec`).
SEEDED_COMMANDS = {"gaussian-search", "verify-step"}


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read input {path}: {exc}") from exc


def _json_default(obj):
    """JSON form of the numpy values a result may hold; anything else is a
    programming error, not something to write as its str()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_report(path: str | None, report: dict) -> None:
    """Compact JSON with sorted keys, in one call of the C encoder.  A
    non-finite float, which JSON cannot carry, is refused before any
    file is written.

    A regular file (or a new one) is replaced atomically, through any
    symlinks, keeping the mode of the file it replaces (a new file gets
    the umask's); a device or FIFO is written directly."""
    try:
        text = json.dumps(report, sort_keys=True, default=_json_default, allow_nan=False)
    except ValueError as exc:
        raise UsageError(f"result is out of floating-point range: {exc}") from exc
    if path is None:
        print(text)
        return
    try:
        target = os.stat(path)
    except FileNotFoundError:
        target = None
    if target is not None and not stat.S_ISREG(target.st_mode):
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
        return
    if target is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        mode = stat.S_IMODE(target.st_mode)
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".blt-", suffix=".json")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _input_errors(kind: str):
    """Report a malformed payload (a missing key, a bad value, type or
    index) as a usage error."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"{kind} JSON missing field {exc}") from exc
    except (ValueError, TypeError, IndexError, OverflowError) as exc:
        raise UsageError(f"invalid {kind}: {exc}") from exc


def _parse_datum(payload) -> datum_mod.BLDatum:
    with _input_errors("datum"):
        return datum_mod.BLDatum(
            int(payload["d"]),
            [np.asarray(M, dtype=float) for M in payload["maps"]],
            np.asarray(payload["p"], dtype=float),
        )


def _parse_grid(payload) -> inputs_mod.GridFunction:
    with _input_errors("grid"):
        values = np.asarray(payload["values"], dtype=float)
        if "shape" in payload:
            values = values.reshape(tuple(int(s) for s in payload["shape"]))  # row-major
        origin = np.asarray(payload["origin"], dtype=float)
        return inputs_mod.GridFunction(origin, float(payload["spacing"]), values)


def _parse_poly(payload, n: int) -> Polynomial:
    return Polynomial.from_terms(n, payload["terms"])


def _parse_map_family(payload) -> scales.NonlinearMapFamily:
    with _input_errors("map"):
        d = int(payload["d"])
        comps = []
        for row in payload["rows"]:
            poly = Polynomial.linear_form(np.asarray(row["linear"], dtype=float))
            if row.get("terms"):
                poly = poly + _parse_poly(row, d)
            comps.append(poly)
        return scales.NonlinearMapFamily(d, comps, float(payload["beta"]), float(payload["kappa"]))


def _parse_field(payload) -> ift.ScalarField:
    with _input_errors("field"):
        n = int(payload["n"])
        poly = _parse_poly(payload, n + 1)
        return ift.ScalarField(n, poly, float(payload["beta"]), float(payload["kappa"]))


def _parse_surface(payload) -> convext.SurfaceFunction:
    with _input_errors("surface"):
        lo = np.asarray(payload["U"]["lo"], dtype=float)
        hi = np.asarray(payload["U"]["hi"], dtype=float)
        phi = _parse_poly(payload["phi"], lo.size)
        surf = convext.Hypersurface(lo, hi, phi, float(payload["beta"]), float(payload["kappa"]))
        values = _parse_grid(payload["values"]) if payload.get("values") else None
        return convext.SurfaceFunction(surf, values)


def _parse_surfaces(payload) -> list[convext.SurfaceFunction]:
    with _input_errors("surfaces"):
        surfaces = payload["surfaces"]
        if not isinstance(surfaces, list) or not surfaces:
            raise ValueError("surfaces must be a nonempty list")
    return [_parse_surface(s) for s in surfaces]


def _parse_point(payload, key: str) -> np.ndarray:
    with _input_errors("point"):
        point = np.asarray(payload[key], dtype=float)
        if not np.all(np.isfinite(point)):
            raise ValueError(f"{key} must be finite")
        return point


def _quad_spec(args, d: int) -> quadrature.QuadratureSpec:
    """The requested rule, else the midpoint rule up to 3 axes and Monte
    Carlo above; the rule is written back to args, so the config names
    it."""
    if args.mode is None:
        args.mode = "monte-carlo" if d > 3 else "tensor-midpoint"
    if args.mode == "monte-carlo" and args.seed is None:
        raise UsageError(
            f"{args.command} integrates by Monte Carlo here: provide --seed or set BLT_DEFAULT_SEED"
        )
    return quadrature.QuadratureSpec(
        mode=args.mode,
        resolution=args.resolution,
        samples=args.samples,
        seed=args.seed,
    )


def _convolution_spec(args, surface_count: int) -> quadrature.QuadratureSpec:
    """The rule for the delta integral behind a convolution of d surfaces,
    chosen by its base dimension (d - 1)^2 - 1."""
    return _quad_spec(args, (surface_count - 1) ** 2 - 1)


def _resolved_config(args) -> dict:
    """The values the command used: its options with their defaults, the
    seed and the quadrature rule resolved."""
    return {k: v for k, v in vars(args).items() if k != "command"}


def _integer(text: str, least: int, kind: str) -> int:
    """An option value that must be an integer >= least."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _integer(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    return _integer(text, 0, "nonnegative")


def _finite_float(text: str, positive: bool = False) -> float:
    """An option value that must be a finite number, and positive if asked."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 or not positive)):
        kind = "positive finite" if positive else "finite"
        raise argparse.ArgumentTypeError(f"must be a {kind} number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    return _finite_float(text, positive=True)


@functools.cache
def build_parser() -> Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so in-process callers of main() share it."""
    parser = Parser(prog="blt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: Parser, needs_input: bool = True, seed: bool = False, quad: bool = False,
               midpoint: bool = False, tol: float | None = None) -> None:
        """--output, --input unless the command reads none, --seed where it
        is read (seed, and quad under Monte Carlo), --resolution for the
        midpoint rule (midpoint), --mode and --samples too where Monte
        Carlo may run (quad), and --tol with its default (tol)."""
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--output", default=None, help="report path (stdout if omitted)")
        if seed or quad:
            p.add_argument("--seed", type=int, default=None,
                           help="random seed (default: $BLT_DEFAULT_SEED)")
        if quad:
            p.add_argument("--mode", choices=["tensor-midpoint", "monte-carlo"], default=None)
            p.add_argument("--samples", type=int, default=1_000_000,
                           help="Monte Carlo sample count")
        if quad or midpoint:
            p.add_argument("--resolution", type=_positive_int, default=64,
                           help="midpoint-rule points per axis")
        if tol is not None:
            p.add_argument("--tol", type=_finite_float, default=tol)

    common(sub.add_parser("bl-constant"))
    common(sub.add_parser("check-class-c"))
    common(sub.add_parser("reduce"))
    p = sub.add_parser("gaussian-search")
    common(p, seed=True)
    p.add_argument("--budget", type=int, default=2000)
    common(sub.add_parser("finner-discrete"), tol=1e-12)
    common(sub.add_parser("extremizer"), tol=1e-10)
    common(sub.add_parser("ball-check"), quad=True, tol=5e-2)
    p = sub.add_parser("delta0")
    common(p, needs_input=False)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--alpha1", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p = sub.add_parser("decompose")
    common(p, seed=True)  # read by nothing; the benchmark still passes it
    p.add_argument("--max-cells", type=_nonnegative_int, default=512)
    common(sub.add_parser("verify-step"), seed=True, midpoint=True)
    common(sub.add_parser("verify-nonlinear"), midpoint=True)
    p = sub.add_parser("ift-solve")
    common(p)
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    common(sub.add_parser("delta-integral"), quad=True)
    common(sub.add_parser("convolve-surfaces"), quad=True)
    p = sub.add_parser("extension")
    common(p)
    p.add_argument("--resolution", type=int, default=convext.MAX_EXTENSION_RESOLUTION,
                   help="per-axis budget (max_resolution): refuse when the rule needs more "
                        "points (default: %(default)s)")
    p = sub.add_parser("verify-thm74")
    common(p, quad=True)
    p.add_argument("--freq-halfwidth", type=_positive_float, default=40.0)
    return parser


def _resolve_seed(args) -> None:
    """An omitted --seed comes from BLT_DEFAULT_SEED, where --seed is taken."""
    if "seed" in vars(args) and args.seed is None:
        env = os.environ.get("BLT_DEFAULT_SEED")
        if env is not None:
            args.seed = int(env)
    if args.command in SEEDED_COMMANDS and args.seed is None:
        raise UsageError(
            f"{args.command} is stochastic: provide --seed or set BLT_DEFAULT_SEED"
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_seed(args)
        handler = HANDLERS[args.command]
        result, exit_code = handler(args)
        report = {
            "command": args.command,
            "config": _resolved_config(args),
            "result": result,
        }
        _write_report(args.output, report)
    except (UsageError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return exit_code


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _float_errors(kind: str):
    """Input (a datum, surfaces, a scales payload) whose numbers leave
    double range is an input error: overflow, division by zero and invalid
    operations raise instead of warning.  A non-finite result that gets
    past this is refused by `_write_report`."""

    def wrap(handler):
        @functools.wraps(handler)
        def run(args):
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                try:
                    return handler(args)
                except FloatingPointError as exc:
                    raise UsageError(f"{kind} out of floating-point range: {exc}") from exc

        return run

    return wrap


@_float_errors("datum")
def cmd_bl_constant(args):
    d = _parse_datum(_load_json(args.input))
    constant = datum_mod.bl_constant_classC(d)
    from .exterior import transversality_quantity

    return {"constant": constant, "transversality": transversality_quantity(d.maps)}, EXIT_OK


@_float_errors("datum")
def cmd_check_class_c(args):
    d = _parse_datum(_load_json(args.input))
    ok, diag = datum_mod.is_class_C(d)
    return {
        "is_class_c": ok,
        "reason": diag.reason,
        "kernel_dim_sum": diag.kernel_dim_sum,
        "transversality": diag.transversality,
        "exponent_deviation": diag.exponent_deviation,
    }, EXIT_OK


@_float_errors("datum")
def cmd_reduce(args):
    d = _parse_datum(_load_json(args.input))
    cert = datum_mod.reduce_to_projections(d)
    return {
        "A": cert.A,
        "Cj": cert.Cj,
        "blocks": cert.scheme.blocks,
        "det_A": cert.det_A,
        "det_Cj": cert.det_Cj,
        "projection_residual": cert.max_projection_residual(d),
    }, EXIT_OK


@_float_errors("datum")
def cmd_gaussian_search(args):
    d = _parse_datum(_load_json(args.input))
    res = datum_mod.search_bl_constant(d, args.budget, args.seed)
    return {
        "estimate": res.estimate,
        "covariances": res.covariances,
        "evaluations": res.evaluations,
        "conditioning_rejections": res.conditioning_rejections,
    }, EXIT_OK


@_float_errors("inputs")
def cmd_finner_discrete(args):
    payload = _load_json(args.input)
    with _input_errors("finner-discrete input"):
        scheme = datum_mod.ProjectionScheme(
            int(payload["d"]), [int(s) for s in payload["block_sizes"]]
        )
        arrays = [np.asarray(f, dtype=float) for f in payload["inputs"]]
        if not all(np.all(np.isfinite(f)) for f in arrays):
            raise ValueError("inputs must be finite")
    lhs, rhs = quadrature.discrete_finner(arrays, scheme)
    holds = lhs <= rhs * (1 + args.tol)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(holds)}, (EXIT_OK if holds else EXIT_REFUSED)


def cmd_extremizer(args):
    d = _parse_datum(_load_json(args.input))
    boxes, ratio = quadrature.canonical_extremizer(d)
    constant = datum_mod.bl_constant_classC(d)
    match = abs(ratio - constant) <= args.tol * max(abs(constant), 1.0)
    return {
        "ratio": ratio,
        "constant": constant,
        "match": bool(match),
        "boxes": [{"matrix": b.matrix, "offset": b.offset} for b in boxes],
    }, (EXIT_OK if match else EXIT_REFUSED)


@_float_errors("ball-check input")
def cmd_ball_check(args):
    payload = _load_json(args.input)
    with _input_errors("ball-check input"):
        d = _parse_datum(payload["datum"])
        f = [_parse_grid(g) for g in payload["f"]]
        if payload.get("fprime") == "extremizer":
            boxes, _ = quadrature.canonical_extremizer(d)
            fprime = [_box_to_grid(b, f[0].spacing) for b in boxes]
        else:
            fprime = [_parse_grid(g) for g in payload["fprime"]]
        xg = payload["x_grid"]
        if isinstance(xg, dict):
            lo = np.asarray(xg["lo"], dtype=float)
            hi = np.asarray(xg["hi"], dtype=float)
            if lo.shape != (d.d,) or hi.shape != (d.d,) or not np.all(np.isfinite([lo, hi])):
                raise ValueError(f"x_grid lo and hi must be finite points of R^{d.d}")
            count = int(xg["count"])
            axes = [lo[a] + (hi[a] - lo[a]) * np.arange(count) / max(count - 1, 1)
                    for a in range(d.d)]
            mesh = np.meshgrid(*axes, indexing="ij")
            x_grid = np.stack([m.ravel() for m in mesh], axis=1)
        else:
            x_grid = np.atleast_2d(np.asarray(xg, dtype=float))
        if x_grid.shape[1:] != (d.d,) or not x_grid.size or not np.all(np.isfinite(x_grid)):
            raise ValueError(f"x_grid must be a nonempty list of finite points of R^{d.d}")
    spec = _quad_spec(args, d.d)
    report = quadrature.ball_inequality_report(d, f, fprime, x_grid, spec, args.tol)
    code = EXIT_OK if report.flag == "consistent" else EXIT_REFUSED
    return {
        "lhs": report.lhs,
        "sup_term": report.sup_term,
        "conv_term": report.conv_term,
        "slack": report.slack,
        "flag": report.flag,
        "sup_argmax": report.sup_argmax,
        "excluded_grid_points": report.excluded_grid_points,
        "tolerance": args.tol,
    }, code


def _box_to_grid(box: inputs_mod.BoxIndicator, spacing: float) -> inputs_mod.GridFunction:
    """Grid representation of a box indicator; exact when the box is
    axis-parallel and lattice-aligned (the case for coordinate-projection
    extremizers), cell-sampled otherwise."""
    lo, hi = box.support_box()
    lo_idx = np.floor(lo / spacing)
    hi_idx = np.ceil(hi / spacing)
    shape = tuple(int(h - l) for l, h in zip(lo_idx, hi_idx))
    origin = lo_idx * spacing
    g = inputs_mod.GridFunction(origin, spacing, np.zeros(shape))
    centers = g.cell_centers()
    vals = box.evaluate(centers).reshape(shape)
    return inputs_mod.GridFunction(origin, spacing, vals)


def cmd_delta0(args):
    params = scales.compute_delta0(args.beta, args.kappa, args.alpha0, args.alpha1, args.d, args.m)
    return {
        "beta": params.beta,
        "kappa": params.kappa,
        "alpha0": params.alpha0,
        "alpha1": params.alpha1,
        "d": params.d,
        "m": params.m,
        "c_d": params.c_d,
        "delta0": params.delta0,
    }, EXIT_OK


def _scales_setup(payload):
    with _input_errors("scales"):
        maps = [_parse_map_family(mp) for mp in payload["maps"]]
        if not maps:
            raise UsageError("scales input needs at least one map")
        if len(payload["inputs"]) != len(maps):
            raise UsageError(f"{len(payload['inputs'])} inputs for {len(maps)} maps: one per map")
        params_payload = payload["params"]
        if not isinstance(params_payload, dict):
            raise ValueError("params must be an object")
        M = params_payload.get("M")
        params = scales.compute_delta0(
            float(params_payload["beta"]),
            float(params_payload["kappa"]),
            float(params_payload["alpha0"]),
            float(params_payload["alpha1"]),
            maps[0].d,
            len(maps),
            None if M is None else float(M),
        )
        cube_payload = payload.get("cube", {})
        center = np.asarray(cube_payload.get("center", [0.0] * maps[0].d), dtype=float)
        side = float(cube_payload.get("side", params.delta0))
        cube = scales.Cube(center, side)
        inputs_list = [_parse_grid(g) for g in payload["inputs"]]
    for j, (fam, g) in enumerate(zip(maps, inputs_list)):
        if g.dim != fam.d_out:
            raise UsageError(f"input {j} is a {g.dim}-d grid, map {j} has {fam.d_out} outputs")
    return maps, params, cube, inputs_list


@_float_errors("scales")
def cmd_decompose(args):
    payload = _load_json(args.input)
    maps, params, cube, inputs_list = _scales_setup(payload)
    deco = scales.decompose(maps, cube, inputs_list, params)
    shape = tuple(deco.main_count(i) for i in range(cube.d))
    per_pattern = math.prod(shape)
    det = abs(np.linalg.det(deco.frame.t_matrix()))
    cells = []
    for code in range(2**cube.d):
        count = min(args.max_cells - len(cells), per_pattern)
        if count <= 0:
            break
        chi = [(code >> i) & 1 for i in range(cube.d)]
        n = np.stack(np.unravel_index(np.arange(count), shape), axis=1)
        bounds = np.stack(
            [np.stack(deco.interval_bounds(i, n[:, i], chi[i]), axis=1) for i in range(cube.d)],
            axis=1,
        )
        volumes = np.prod(bounds[..., 1] - bounds[..., 0], axis=-1) / det  # widths / |det|
        cells += [
            {"n": ni, "chi": chi, "slab_bounds": bi, "volume_estimate": vi}
            for ni, bi, vi in zip(n.tolist(), bounds.tolist(), volumes.tolist())
        ]
    result = {
        "frame": deco.frame.a,
        "normals": deco.frame.v,
        "sigma": deco.sigma,
        "delta": cube.side,
        "delta0": params.delta0,
        "sequences": [
            {
                "axis": seq.axis,
                "map": seq.map_index,
                "s": seq.s,
                "certificates": [
                    {
                        "n": st.n,
                        "s_next": st.s_next,
                        "gap_ok": st.gap_lower_ok and st.gap_upper_ok,
                        "selected_mass": st.selected_mass,
                        "window_mass": st.window_mass,
                        "mass_bound_ok": st.mass_bound_ok,
                    }
                    for st in seq.steps
                ],
            }
            for seq in deco.sequences
        ],
        "cell_count_total": per_pattern * 2**cube.d,
        "cells_listed": len(cells),
        "cells": cells,
    }
    return result, (EXIT_OK if deco.certificates_hold() else EXIT_REFUSED)


def _params_block(params: scales.ScaleParams) -> dict:
    return {
        "beta": params.beta,
        "kappa": params.kappa,
        "alpha0": params.alpha0,
        "alpha1": params.alpha1,
        "c_d": params.c_d,
        "delta0": params.delta0,
        "M": params.M,
    }


@_float_errors("scales")
def cmd_verify_step(args):
    payload = _load_json(args.input)
    maps, params, cube, inputs_list = _scales_setup(payload)
    report = scales.verify_induction_step(
        maps, cube, inputs_list, params, args.resolution, args.seed
    )
    ok = report.finner_ok and report.buffer_bounds_ok and report.pigeonhole_ok
    return {
        "params": _params_block(params),
        "delta": report.delta,
        "lhs": report.lhs,
        "main_sum": report.main_sum,
        "finner_rhs": report.finner_rhs,
        "input_rhs": report.input_rhs,
        "main_fraction": report.main_fraction,
        "buffer_totals": {str(k): v for k, v in report.buffer_totals.items()},
        "certified_factor": report.certified_factor,
        "factor_bound": report.factor_bound,
        "finner_ok": report.finner_ok,
        "buffer_bounds_ok": report.buffer_bounds_ok,
        "pigeonhole_ok": report.pigeonhole_ok,
    }, (EXIT_OK if ok else EXIT_REFUSED)


@_float_errors("scales")
def cmd_verify_nonlinear(args):
    payload = _load_json(args.input)
    maps, params, cube, inputs_list = _scales_setup(payload)
    x0 = np.asarray(payload.get("x0", [0.0] * maps[0].d), dtype=float)
    report = scales.verify_nonlinear_bl(maps, x0, inputs_list, params, args.resolution)
    # bound overflows where log_bound passes 700, and a zero ratio has
    # log_ratio = -inf; JSON carries neither, so they are written as null
    return {
        "params": _params_block(params),
        "ratio": report.ratio,
        "log_ratio": _finite_or_none(report.log_ratio),
        "log_bound": report.log_bound,
        "bound": _finite_or_none(report.bound),
        "margin_log": _finite_or_none(report.margin_log),
        "delta0": report.delta0,
        "holds": report.holds,
    }, (EXIT_OK if report.holds else EXIT_REFUSED)


@_float_errors("field")
def cmd_ift_solve(args):
    payload = _load_json(args.input)
    field = _parse_field(payload)
    with _input_errors("ift-solve input"):
        x = np.atleast_2d(np.asarray(payload["x"], dtype=float))
        if x.ndim != 2 or x.shape[1] != field.n or not np.all(np.isfinite(x)):
            raise ValueError(f"x must be a list of finite points of R^{field.n}")
    sol = ift.solve_eta(field, x, tol=args.tol)
    grad = ift.eta_gradient(field, x, sol.eta, tol=args.tol)
    return {
        "x": x,
        "eta": sol.eta,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "iteration_cap": sol.iteration_cap,
        "max_contraction_ratio": sol.max_ratio,
        "gradient": grad,
    }, EXIT_OK


@_float_errors("field")
def cmd_delta_integral(args):
    payload = _load_json(args.input)
    with _input_errors("delta-integral input"):
        field = _parse_field(payload["field"])
        window = None
        if payload.get("window"):
            window = (
                np.asarray(payload["window"]["lo"], dtype=float),
                np.asarray(payload["window"]["hi"], dtype=float),
            )
        integrand_payload = payload.get("integrand", "one")
        if integrand_payload == "one":
            integrand = lambda U: np.ones(U.shape[0])  # noqa: E731
        else:
            lo = np.asarray(integrand_payload["lo"], dtype=float)
            hi = np.asarray(integrand_payload["hi"], dtype=float)
            if lo.shape != (field.n + 1,) or hi.shape != (field.n + 1,):
                raise ValueError(f"integrand bounds must be points of R^{field.n + 1}")

            def integrand(U, lo=lo, hi=hi):
                return np.all((U >= lo) & (U <= hi), axis=1).astype(float)

    value, err = convext.delta_integral(field, integrand, window, _quad_spec(args, field.n))
    return {"value": value, "error_estimate": err}, EXIT_OK


@_float_errors("surfaces")
def cmd_convolve_surfaces(args):
    payload = _load_json(args.input)
    sfuncs = _parse_surfaces(payload)
    y = _parse_point(payload, "y")
    if y.shape != (len(sfuncs),):
        raise UsageError("y must be one point of the ambient space R^d")
    value, err = convext.surface_convolution(sfuncs, y, _convolution_spec(args, len(sfuncs)))
    return {"value": value, "error_estimate": err}, EXIT_OK


@_float_errors("surface")
def cmd_extension(args):
    payload = _load_json(args.input)
    with _input_errors("surface"):
        sf = _parse_surface(payload["surface"] if "surface" in payload else payload)
    xi = _parse_point(payload, "xi")
    value = convext.extension_operator(sf.surface, sf.values, xi, max_resolution=args.resolution)
    return {"real": value.real, "imag": value.imag}, EXIT_OK


@_float_errors("surfaces")
def cmd_verify_thm74(args):
    payload = _load_json(args.input)
    sfuncs = _parse_surfaces(payload)
    report = convext.verify_thm74(
        sfuncs, args.freq_halfwidth, args.resolution, _convolution_spec(args, len(sfuncs))
    )
    return {
        "lhs": report.lhs,
        "conv_route": report.conv_route,
        "bridge_error": report.bridge_error,
        "ratio": report.ratio,
        "input_norms": report.input_norms,
        "frequency_halfwidth": report.frequency_halfwidth,
        "resolution": report.resolution,
        "constant": report.constant,
        "refusal": report.refusal,
    }, (EXIT_REFUSED if report.refusal else EXIT_OK)


HANDLERS = {
    "bl-constant": cmd_bl_constant,
    "check-class-c": cmd_check_class_c,
    "reduce": cmd_reduce,
    "gaussian-search": cmd_gaussian_search,
    "finner-discrete": cmd_finner_discrete,
    "extremizer": cmd_extremizer,
    "ball-check": cmd_ball_check,
    "delta0": cmd_delta0,
    "decompose": cmd_decompose,
    "verify-step": cmd_verify_step,
    "verify-nonlinear": cmd_verify_nonlinear,
    "ift-solve": cmd_ift_solve,
    "delta-integral": cmd_delta_integral,
    "convolve-surfaces": cmd_convolve_surfaces,
    "extension": cmd_extension,
    "verify-thm74": cmd_verify_thm74,
}


if __name__ == "__main__":
    sys.exit(main())
