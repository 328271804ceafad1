"""Correctness checks on ``blt`` reports, feeding the benchmark's failure count.

The checker reads exit codes and verdict fields and never compares report
bytes, because later changes may move results by rounding (the project
gates allow 1e-12 relative drift).  For every seed it checks invariants;
for the default seed it also compares key numbers of the first round with
stored references to a relative tolerance of ``REFERENCE_RTOL``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

REFERENCE_RTOL = 1e-9
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Report fields compared against the stored references, by command.
KEY_NUMBERS = {
    "verify-step": ("lhs", "main_sum", "finner_rhs", "input_rhs", "certified_factor"),
    "decompose": ("delta0",),
    "verify-thm74": ("lhs", "conv_route", "bridge_error"),
    "extension": ("real", "imag"),
    "convolve-surfaces": ("value",),
    "ball-check": ("lhs", "sup_term", "conv_term", "slack"),
    "gaussian-search": ("estimate",),
}


class CheckError(Exception):
    """A report that fails the checker."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _finite(result: dict, keys) -> None:
    for key in keys:
        value = result[key]
        _require(isinstance(value, (int, float)) and math.isfinite(value),
                 f"{key} = {value!r} is not a finite number")


def _density(surface: dict) -> tuple[float, float, np.ndarray]:
    grid = surface["values"]
    return float(grid["origin"][0]), float(grid["spacing"]), np.asarray(grid["values"], float)


def _density_at(surface: dict, x: float) -> float:
    origin, h, vals = _density(surface)
    i = int(math.floor((x - origin) / h))
    return float(vals[i]) if 0 <= i < vals.size else 0.0


def _load_input(argv: list[str]) -> dict:
    with open(argv[argv.index("--input") + 1]) as fh:
        return json.load(fh)


def check_verify_step(result: dict, call) -> None:
    for flag in ("finner_ok", "buffer_bounds_ok", "pigeonhole_ok"):
        _require(result[flag] is True, f"verify-step certificate {flag} is not true")
    for pattern, entry in result["buffer_totals"].items():
        _require(entry["ok"] is True, f"buffer pattern {pattern} fails its bound")
    _finite(result, KEY_NUMBERS["verify-step"])
    _require(result["certified_factor"] <= result["factor_bound"],
             "certified factor exceeds its bound")


def check_decompose(result: dict, call) -> None:
    for seq in result["sequences"]:
        for cert in seq["certificates"]:
            _require(cert["gap_ok"] and cert["mass_bound_ok"],
                     f"pigeonhole certificate {cert['n']} on axis {seq['axis']} fails")
    max_cells = int(call.argv[call.argv.index("--max-cells") + 1])
    _require(result["cells_listed"] == min(max_cells, result["cell_count_total"]),
             "decompose listed the wrong number of cells")


def check_verify_thm74(result: dict, call) -> None:
    _require(result["refusal"] is False, "verify-thm74 refused")
    _finite(result, KEY_NUMBERS["verify-thm74"])
    _require(result["lhs"] > 0 and result["conv_route"] > 0, "empty bridge routes")
    if call.context.get("flat"):
        _require(result["bridge_error"] <= 0.05,
                 f"flat bridge error {result['bridge_error']:.4f} above 0.05")


def check_extension(result: dict, call) -> None:
    """Closed form for a flat line phi = s x with piecewise-constant g:
    each cell contributes g_c (e^{i a b} - e^{i a a0}) / (i a), a = xi0 + s xi1.
    The midpoint rule keeps >= 10 points per wavelength, so it may differ
    from the closed form by a few percent of ||g||_1."""
    _finite(result, ("real", "imag"))
    payload = _load_input(call.argv)
    origin, h, vals = _density(payload)
    (slope,) = [t["c"] for t in payload["phi"]["terms"] if t["powers"] == [1]]
    xi = np.asarray(payload["xi"], float)
    a = xi[0] + slope * xi[1]
    left = origin + h * np.arange(vals.size)
    if abs(a) < 1e-12:
        exact = complex(vals.sum() * h)
    else:
        cells = vals * (np.exp(1j * a * (left + h)) - np.exp(1j * a * left))
        exact = complex(cells.sum() / (1j * a))
    got = complex(result["real"], result["imag"])
    l1 = float(vals.sum() * h)
    _require(abs(got - exact) <= 0.03 * l1,
             f"extension {got:.6g} differs from the closed form {exact:.6g}")


def check_convolve_surfaces(result: dict, call) -> None:
    """Two graphs phi = +-x + c x^2 meeting transversally: the value at
    y = graph_0(x0) + graph_1(x1) is g0(x0) g1(x1) / |phi_0'(x0) - phi_1'(x1)|."""
    _finite(result, ("value",))
    payload = _load_input(call.argv)
    x0, x1 = call.context["preimage"]
    s0, s1 = payload["surfaces"]

    def slope(surface, x):
        return sum(t["c"] * t["powers"][0] * x ** (t["powers"][0] - 1)
                   for t in surface["phi"]["terms"])

    exact = _density_at(s0, x0) * _density_at(s1, x1) / abs(slope(s0, x0) - slope(s1, x1))
    _require(math.isclose(result["value"], exact, rel_tol=1e-6),
             f"convolution {result['value']:.12g} differs from {exact:.12g}")


def check_ball_check(result: dict, call) -> None:
    _require(result["flag"] == "consistent", f"ball-check flag {result['flag']!r}")
    _finite(result, KEY_NUMBERS["ball-check"])
    _require(result["slack"] >= -result["tolerance"], "slack below the tolerance")


def check_gaussian_search(result: dict, call) -> None:
    _finite(result, ("estimate",))
    constant = call.context["constant"]
    ratio = result["estimate"] / constant
    _require(0.99 <= ratio <= 1.0 + 1e-9,
             f"gaussian-search estimate is {ratio:.12g} x bl-constant, outside [0.99, 1+1e-9]")
    budget = int(call.argv[call.argv.index("--budget") + 1])
    _require(result["evaluations"] == budget, "search stopped before its budget")


CHECKS = {
    "verify-step": check_verify_step,
    "decompose": check_decompose,
    "verify-thm74": check_verify_thm74,
    "extension": check_extension,
    "convolve-surfaces": check_convolve_surfaces,
    "ball-check": check_ball_check,
    "gaussian-search": check_gaussian_search,
}


def check_report(call, exit_code: int, report_path: str) -> dict:
    """Judge one call; returns the report's result block or raises CheckError."""
    _require(exit_code == 0, f"{call.command} exited with code {exit_code}")
    with open(report_path) as fh:
        report = json.load(fh)
    _require(report.get("command") == call.command, "report names another command")
    CHECKS[call.command](report["result"], call)
    return report["result"]


def key_numbers(command: str, result: dict) -> dict:
    numbers = {key: result[key] for key in KEY_NUMBERS[command]}
    if command == "decompose":
        certificates = [c for seq in result["sequences"] for c in seq["certificates"]]
        numbers["selected_mass_total"] = sum(c["selected_mass"] for c in certificates)
        numbers["window_mass_total"] = sum(c["window_mass"] for c in certificates)
    return numbers


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def compare_references(stored: dict, measured: dict) -> list[str]:
    """Mismatches between stored and measured key numbers, as messages."""
    problems = []
    for command, numbers in stored.items():
        got = measured.get(command)
        if got is None:
            problems.append(f"{command}: no report to compare")
            continue
        for key, want in numbers.items():
            if not math.isclose(got[key], want, rel_tol=REFERENCE_RTOL, abs_tol=1e-300):
                problems.append(f"{command}.{key}: {got[key]!r} != reference {want!r}")
    return problems
