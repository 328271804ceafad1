"""Command-line surface: schemas, exit codes, determinism."""

import ast
import importlib.util
import io
import json
import math
import os
import stat
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blt import cli, convext, scales
from blt.cli import _write_report, main
from tests.conftest import flagship_scale_setup


def run(tmp_path, name, argv, expect=0):
    out = tmp_path / f"{name}.json"
    code = main(argv + ["--output", str(out)])
    assert code == expect, f"exit {code} != {expect}"
    with open(out) as fh:
        return json.load(fh, parse_constant=_reject_constant)


LW_DATUM = {
    "d": 3,
    "maps": [
        [[0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0]],
    ],
    "p": [0.5, 0.5, 0.5],
}

# The commands that read a datum, with the options each needs.
DATUM_COMMANDS = {
    "bl-constant": ["bl-constant"],
    "check-class-c": ["check-class-c"],
    "reduce": ["reduce"],
    "gaussian-search": ["gaussian-search", "--seed", "1", "--budget", "20"],
}


# The commands that take --seed: gaussian-search and verify-step read it on
# every run, the four integrating commands under Monte Carlo, and decompose
# not at all (the benchmark still passes it).
SEED_COMMANDS = {"gaussian-search", "verify-step", "ball-check", "delta-integral",
                 "convolve-surfaces", "verify-thm74", "decompose"}


def seeded(command: str) -> list[str]:
    """The command, with --seed 1 if it takes --seed."""
    return [command, "--seed", "1"] if command in SEED_COMMANDS else [command]


@pytest.fixture
def lw_file(tmp_path):
    path = tmp_path / "lw.json"
    path.write_text(json.dumps(LW_DATUM))
    return str(path)


def test_cli_and_datum_commands_load_no_scipy(tmp_path, lw_file):
    # scipy is slow to import: only support boxes of maps whose rows read
    # several axes need it, and they import it on first use.  ball-check
    # runs on the benchmark's Loomis-Whitney lattice input.
    rng = np.random.default_rng(3)
    grids = [{"origin": [0.0, 0.0], "spacing": 1.0, "values": rng.uniform(0.5, 1.5, (4, 4)).tolist()}
             for _ in range(6)]
    ball = {"datum": LW_DATUM, "f": grids[:3], "fprime": grids[3:],
            "x_grid": {"lo": [0.0] * 3, "hi": [7.0] * 3, "count": 8}}
    ball_file = tmp_path / "ball.json"
    ball_file.write_text(json.dumps(ball))
    calls = [argv + ["--input", lw_file, "--output", str(tmp_path / f"{argv[0]}.json")]
             for argv in DATUM_COMMANDS.values()]
    calls.append(["ball-check", "--input", str(ball_file), "--seed", "1",
                  "--output", str(tmp_path / "ball-report.json")])
    code = (
        "import sys, blt.cli\n"
        "def scipy_loaded():\n"
        "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "assert not scipy_loaded(), 'import blt.cli loaded scipy'\n"
        f"for argv in {calls!r}:\n"
        "    assert blt.cli.main(argv) == 0, argv\n"
        "    assert not scipy_loaded(), argv[0] + ' loaded scipy'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_package_imports_no_scipy_but_optimize():
    # the LP of a support box is all the package takes from scipy: Qhull
    # (scipy.spatial) and the rest stay out of it
    imported = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                imported += [(path.name, f"scipy.{alias.name}") for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    scipy = [(name, module) for name, module in imported if module.split(".")[0] == "scipy"]
    assert scipy and all(module.split(".")[:2] == ["scipy", "optimize"] for _, module in scipy), scipy


class TestBasicCommands:
    def test_bl_constant(self, tmp_path, lw_file):
        report = run(tmp_path, "c", ["bl-constant", "--input", lw_file])
        assert report["result"]["constant"] == 1.0
        assert report["command"] == "bl-constant"
        assert report["config"]["input"] == lw_file

    def test_bl_constant_of_small_maps(self, tmp_path):
        # transversality -1e-18: the class-C test reads it relative to the map norms
        path = tmp_path / "lw-small.json"
        path.write_text(json.dumps({**LW_DATUM, "maps": (1e-3 * np.array(LW_DATUM["maps"])).tolist()}))
        report = run(tmp_path, "small", ["bl-constant", "--input", str(path)])
        assert report["result"]["constant"] == pytest.approx(1e9, rel=1e-12)
        assert report["result"]["transversality"] == pytest.approx(-1e-18, rel=1e-12)

    def test_check_class_c(self, tmp_path, lw_file):
        report = run(tmp_path, "cc", ["check-class-c", "--input", lw_file])
        assert report["result"]["is_class_c"] is True

    def test_reduce(self, tmp_path, lw_file):
        report = run(tmp_path, "r", ["reduce", "--input", lw_file])
        assert abs(abs(report["result"]["det_A"]) - 1.0) < 1e-12

    def test_delta0_closed_form(self, tmp_path):
        report = run(
            tmp_path,
            "d0",
            [
                "delta0", "--beta", "1", "--kappa", "1",
                "--alpha0", "1.25", "--alpha1", "1.5", "--d", "3", "--m", "3",
            ],
        )
        assert report["result"]["delta0"] == 1e-06
        assert report["result"]["c_d"] == 0.001

    def test_finner_constant_inputs(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps(
                {
                    "d": 3,
                    "block_sizes": [1, 1, 1],
                    "inputs": [[[1, 1], [1, 1]]] * 3,
                }
            )
        )
        report = run(tmp_path, "f", ["finner-discrete", "--input", str(path)])
        assert report["result"] == {"lhs": 8.0, "rhs": 8.0, "holds": True}

    def test_finner_beyond_double_range_is_usage_error(self, tmp_path, capsys):
        # entries near the double limit: the finner sums overflow
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"d": 3, "block_sizes": [1, 1, 1],
                                    "inputs": [[[1e308, 1e308], [1e308, 1e308]]] * 3}))
        out = tmp_path / "f-report.json"
        code = main(["finner-discrete", "--input", str(path), "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: inputs out of floating-point range")
        assert not out.exists()

    def test_non_finite_result_writes_no_report(self, tmp_path, lw_file, capsys, monkeypatch):
        monkeypatch.setitem(cli.HANDLERS, "bl-constant", lambda args: ({"constant": math.inf}, 0))
        out = tmp_path / "inf-report.json"
        assert main(["bl-constant", "--input", lw_file, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: result is out of floating-point range")
        assert not out.exists()
        assert not list(tmp_path.glob(".blt-*"))

    def test_loomis_whitney_beyond_twelve_dimensions(self, tmp_path):
        d = 13
        maps = [np.delete(np.eye(d), j, axis=0).tolist() for j in range(d)]
        path = tmp_path / "lw13.json"
        path.write_text(json.dumps({"d": d, "maps": maps, "p": [1.0 / (d - 1)] * d}))
        report = run(tmp_path, "lw13", ["bl-constant", "--input", str(path)])
        assert report["result"]["constant"] == 1.0

    def test_extremizer(self, tmp_path, lw_file):
        report = run(tmp_path, "x", ["extremizer", "--input", lw_file])
        assert report["result"]["match"] is True
        assert report["result"]["ratio"] == pytest.approx(1.0)

    def test_gaussian_search_requires_seed(self, tmp_path, lw_file, capsys):
        code = main(["gaussian-search", "--input", lw_file])
        assert code == 1

    def test_gaussian_search(self, tmp_path, lw_file):
        report = run(
            tmp_path,
            "g",
            ["gaussian-search", "--input", lw_file, "--seed", "3", "--budget", "300"],
        )
        assert report["result"]["estimate"] >= 0.99
        assert report["result"]["conditioning_rejections"] == 0

    def test_gaussian_search_reports_conditioning_rejections(self, tmp_path):
        # the constant is infinite (ker B_0 fails the dimension condition),
        # so the ascent runs into the conditioning check
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps({"d": 2, "maps": [[[1, 0]], [[1, 0], [0, 1]]], "p": [1, 0.5]}))
        report = run(tmp_path, "gu", ["gaussian-search", "--input", str(path), "--seed", "1",
                                      "--budget", "3000"])
        assert report["result"]["conditioning_rejections"] > 100

    def test_env_seed_honoured(self, tmp_path, lw_file):
        old = os.environ.get("BLT_DEFAULT_SEED")
        os.environ["BLT_DEFAULT_SEED"] = "17"
        try:
            report = run(
                tmp_path, "ge", ["gaussian-search", "--input", lw_file, "--budget", "100"]
            )
            assert report["config"]["seed"] == 17
        finally:
            if old is None:
                del os.environ["BLT_DEFAULT_SEED"]
            else:
                os.environ["BLT_DEFAULT_SEED"] = old

    def test_unknown_input_is_usage_error(self, tmp_path):
        code = main(["bl-constant", "--input", str(tmp_path / "missing.json")])
        assert code == 1

    def test_ift_solve(self, tmp_path):
        path = tmp_path / "field.json"
        payload = {
            "n": 2,
            "terms": [
                {"powers": [0, 0, 1], "c": 1.0},
                {"powers": [1, 0, 0], "c": -0.3},
                {"powers": [0, 1, 0], "c": 0.2},
            ],
            "beta": 1.0,
            "kappa": 1.0,
            "x": [[1e-4, 2e-4]],
        }
        path.write_text(json.dumps(payload))
        report = run(tmp_path, "ift", ["ift-solve", "--input", str(path)])
        assert report["result"]["eta"][0] == pytest.approx(0.3 * 1e-4 - 0.2 * 2e-4)
        assert report["result"]["gradient"][0] == pytest.approx([0.3, -0.2])

    def test_delta_integral(self, tmp_path):
        path = tmp_path / "di.json"
        payload = {
            "field": {
                "n": 2,
                "terms": [{"powers": [0, 0, 1], "c": 1.0}],
                "beta": 1.0,
                "kappa": 1.0,
            },
            "window": {"lo": [-2e-4, -2e-4], "hi": [2e-4, 2e-4]},
            "integrand": "one",
        }
        path.write_text(json.dumps(payload))
        report = run(tmp_path, "di", ["delta-integral", "--input", str(path), "--resolution", "8"])
        assert report["result"]["value"] == pytest.approx((4e-4) ** 2, rel=1e-12, abs=0)

    def mc_delta_integral_file(self, tmp_path):
        # n = 4 resolves to Monte Carlo
        path = tmp_path / "di4.json"
        payload = {
            "field": {
                "n": 4,
                "terms": [{"powers": [0, 0, 0, 0, 1], "c": 1.0}],
                "beta": 1.0,
                "kappa": 1.0,
            },
            "window": {"lo": [-2e-4] * 4, "hi": [2e-4] * 4},
            "integrand": {"lo": [-1e-4] * 5, "hi": [1e-4] * 5},
        }
        path.write_text(json.dumps(payload))
        return str(path)

    def test_unseeded_monte_carlo_is_usage_error(self, tmp_path, capsys):
        path = self.mc_delta_integral_file(tmp_path)
        out = tmp_path / "o.json"
        code = main(["delta-integral", "--input", path, "--samples", "1000", "--output", str(out)])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seeded_monte_carlo_is_reproducible(self, tmp_path):
        path = self.mc_delta_integral_file(tmp_path)
        out = tmp_path / "o.json"
        argv = ["delta-integral", "--input", path, "--samples", "1000", "--seed", "4",
                "--output", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_extension(self, tmp_path):
        path = tmp_path / "ext.json"
        payload = {
            "surface": {
                "U": {"lo": [0.0], "hi": [1.0]},
                "phi": {"terms": []},
                "beta": 1.0,
                "kappa": 1.0,
            },
            "xi": [0.0, 0.0],
        }
        path.write_text(json.dumps(payload))
        report = run(tmp_path, "ext", ["extension", "--input", str(path)])
        assert report["result"]["real"] == pytest.approx(1.0)


    def test_ball_check_with_extremizer(self, tmp_path, lw_file):
        import numpy as np

        rng = np.random.default_rng(4)
        payload = {
            "datum": json.loads(open(lw_file).read()),
            "f": [
                {"origin": [0.0, 0.0], "spacing": 1.0,
                 "values": rng.uniform(0.5, 1.5, (4, 4)).tolist()}
                for _ in range(3)
            ],
            "fprime": "extremizer",
            "x_grid": {"lo": [0.0, 0.0, 0.0], "hi": [7.0, 7.0, 7.0], "count": 8},
        }
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(payload))
        report = run(tmp_path, "ball", ["ball-check", "--input", str(path), "--seed", "1"])
        assert report["result"]["flag"] == "consistent"
        assert report["result"]["slack"] >= -5e-2


def ball_payload(lw_file, n_f, n_fprime):
    rng = np.random.default_rng(11)

    def grids(count):
        return [{"origin": [0.0, 0.0], "spacing": 1.0,
                 "values": rng.uniform(0.5, 1.5, (3, 3)).tolist()} for _ in range(count)]

    return {
        "datum": json.loads(open(lw_file).read()),
        "f": grids(n_f),
        "fprime": grids(n_fprime),
        "x_grid": {"lo": [0.0] * 3, "hi": [4.0] * 3, "count": 5},
    }


class TestBallCheckInputs:
    @pytest.mark.parametrize("n_f, n_fprime", [(2, 2), (3, 2), (4, 4)])
    def test_one_f_and_one_fprime_per_map(self, tmp_path, capsys, lw_file, n_f, n_fprime):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(ball_payload(lw_file, n_f, n_fprime)))
        out = tmp_path / "o.json"
        code = main(["ball-check", "--input", str(path), "--seed", "1", "--output", str(out)])
        assert code == 1
        assert "one of each per map" in capsys.readouterr().err
        assert not out.exists()

    def test_monte_carlo_reaches_the_convolution_term(self, tmp_path, lw_file):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(ball_payload(lw_file, 3, 3)))
        argv = ["ball-check", "--input", str(path), "--seed", "1"]
        midpoint = run(tmp_path, "mid", argv)["result"]
        out = tmp_path / "mc.json"
        mc_argv = argv + ["--mode", "monte-carlo", "--samples", "20000", "--output", str(out)]
        assert main(mc_argv) == 0
        first = out.read_bytes()
        assert main(mc_argv) == 0
        assert out.read_bytes() == first
        mc = json.loads(first)["result"]
        assert mc["conv_term"] != midpoint["conv_term"]
        assert mc["conv_term"] == pytest.approx(midpoint["conv_term"], rel=5e-2)
        # the sup and lhs terms are exact lattice sums under either rule
        assert mc["lhs"] == midpoint["lhs"] and mc["sup_term"] == midpoint["sup_term"]

    @pytest.mark.parametrize("factor, f_origins, message", [
        # the supports of f_0 and f_1 meet no common interval on axis 2 (nor do
        # those of f * f'): rejected before the convolution is formed
        (1, [[0.0, 0.0], [0.0, 10.0], [0.0, 0.0]], "R(f) R(f') is 0"),
        # f_2 leaves no volume on axis 1 that f_0 covers, but f * f' does
        (1, [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]], "R(f) R(f') is 0"),
        # doubled maps leave the lattice: the support box of f tells its
        # empty composite support from an unbounded one
        (2, [[0.0, 0.0], [0.0, 0.0], [50.0, 0.0]], "R(f) R(f') is 0"),
    ], ids=["disjoint-f-supports", "zero-lhs", "doubled-maps-empty"])
    def test_empty_supports_exit_1(self, tmp_path, capsys, lw_file, factor, f_origins, message):
        unit = {"spacing": 1.0, "values": [[1.0]]}
        datum = json.loads(open(lw_file).read())
        datum["maps"] = [[[factor * c for c in row] for row in B] for B in datum["maps"]]
        payload = {
            "datum": datum,
            "f": [{"origin": origin, **unit} for origin in f_origins],
            "fprime": [{"origin": [0.0, 0.0], "spacing": 1.0, "values": np.ones((2, 2)).tolist()}] * 3,
            "x_grid": {"lo": [0.0] * 3, "hi": [3.0] * 3, "count": 4},
        }
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "o.json"
        assert main(["ball-check", "--input", str(path), "--seed", "1", "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


NAN, INF = float("nan"), float("inf")
SURFACE = {"U": {"lo": [-1e-4], "hi": [1e-4]}, "phi": {"terms": [{"powers": [1], "c": 1.0}]},
           "beta": 1.0, "kappa": 2.5}


def curve(slope):
    return {"U": {"lo": [-0.05], "hi": [0.05]},
            "phi": {"terms": [{"powers": [1], "c": slope}, {"powers": [2], "c": 0.5}]},
            "beta": 1.0, "kappa": 2.5,
            "values": {"origin": [-0.05], "spacing": 0.025, "values": [1.0, 0.9, 1.1, 1.2]}}


# One file for all three commands: convolve-surfaces reads surfaces and y,
# extension reads surface and xi, verify-thm74 reads surfaces.
CURVES = {"surfaces": [curve(1.0), curve(-1.0)], "surface": curve(1.0),
          "y": [0.01, 0.002], "xi": [3.0, -2.0]}
LINES = {"surfaces": [SURFACE, {**SURFACE, "phi": {"terms": [{"powers": [1], "c": -1.0}]}}],
         "surface": SURFACE, "y": [5e-5, 1e-5], "xi": [1.0, 2.0]}


FIELD = {"n": 2, "terms": [{"powers": [0, 0, 1], "c": 1.0}], "beta": 1.0, "kappa": 1.0}


@pytest.mark.parametrize("payload, argv", [
    ({"surfaces": [{**SURFACE, "U": 5}, SURFACE]}, ["verify-thm74"]),
    ({"surfaces": [{**SURFACE, "phi": [1]}, SURFACE], "y": [0.0, 0.0]}, ["convolve-surfaces"]),
    ({"maps": [{"d": 3, "rows": "x", "beta": 1.0, "kappa": 1.0}]}, ["decompose"]),
    ({**FIELD, "terms": "x", "x": [[0.0, 0.0]]}, ["ift-solve"]),
    ({"field": FIELD, "window": {"lo": [-2e-4] * 2, "hi": [2e-4] * 2}},
     ["delta-integral", "--mode", "monte-carlo", "--seed", "1", "--samples", "1"]),
    ({"surfaces": [{**curve(1.0), "U": {"lo": [-INF], "hi": [0.05]}}, curve(-1.0)]},
     ["verify-thm74", "--resolution", "4"]),
    ({**CURVES, "surfaces": [{**curve(1.0), "U": {"lo": [-INF], "hi": [0.05]}}, curve(-1.0)]},
     ["convolve-surfaces"]),
    ({**CURVES, "surfaces": [{**curve(1.0), "kappa": 0.0}, curve(-1.0)]}, ["convolve-surfaces"]),
    ({**CURVES, "surface": {**curve(1.0), "beta": 1.5}}, ["extension"]),
    ({**CURVES, "surface": {**curve(1.0), "phi": {"terms": [{"powers": [2], "c": NAN}]}}},
     ["extension"]),
    ({"surfaces": [curve(1.0), {**curve(-1.0), "phi": {"terms": [{"powers": [1], "c": -1e9}]}}]},
     ["verify-thm74", "--resolution", "4"]),
], ids=["surface-U", "surface-phi", "map-rows", "field-terms", "one-sample", "thm74-lo-inf",
        "convolve-lo-inf", "convolve-kappa-zero", "extension-beta", "extension-nan-coefficient",
        "thm74-extension-budget"])
def test_malformed_input_is_usage_error(tmp_path, capsys, payload, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "o.json"
    code = main(argv + ["--input", str(path), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_thm74_refuses_a_graph_rougher_than_its_kappa(tmp_path, capsys):
    # phi' = 1 + 80 x moves by 80 |x - y|, above the declared kappa 2.5
    terms = [{"powers": [1], "c": 1.0}, {"powers": [2], "c": 40.0}]
    rough = {**curve(1.0), "phi": {"terms": terms}}
    path = tmp_path / "rough.json"
    path.write_text(json.dumps({"surfaces": [rough, curve(-1.0)]}))
    out = tmp_path / "o.json"
    assert main(["verify-thm74", "--input", str(path), "--resolution", "4",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "surface 0: sampled Hoelder quotient 8.000e+01 exceeds kappa 2.5" in err
    assert not out.exists()


def run_command(argv, path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def run_datum_command(path, command: str) -> tuple[int, str, str]:
    return run_command(DATUM_COMMANDS[command], path)


def expect_usage_error(tmp_path, payload, command: str, message: str) -> None:
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_datum_command(path, command)
    assert code == 1
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert out == ""


TWO_LINES = {"d": 2, "maps": [[[1, 0]], [[0, 1]]], "p": [1, 1]}


def scaled(obj, c):
    """Every number in a nested list times c; anything else kept."""
    if isinstance(obj, list):
        return [scaled(v, c) for v in obj]
    return obj * c if isinstance(obj, (int, float)) and not isinstance(obj, bool) else obj


@pytest.mark.parametrize("command", list(DATUM_COMMANDS))
@pytest.mark.parametrize("payload, message", [
    ({**LW_DATUM, "p": [0.5, 0.5, NAN]}, "exponent 2 is not finite"),
    ({**LW_DATUM, "p": [-INF, 0.5, 0.5]}, "exponent 0 is not finite"),
    ({**LW_DATUM, "maps": [[[0, 1, 0], [0, 0, INF]], *LW_DATUM["maps"][1:]]},
     "map 0 has a non-finite entry"),
    ({**LW_DATUM, "maps": [*LW_DATUM["maps"][:2], [[1, 0, 0], [0, NAN, 0]]]},
     "map 2 has a non-finite entry"),
], ids=["p-nan", "p-minus-inf", "map-inf", "map-nan"])
def test_non_finite_datum_is_usage_error(tmp_path, command, payload, message):
    expect_usage_error(tmp_path, payload, command, message)


@pytest.mark.parametrize("datum, command, message", [
    (LW_DATUM, "bl-constant", "datum out of floating-point range"),
    (LW_DATUM, "check-class-c", "datum out of floating-point range"),
    (LW_DATUM, "reduce", "datum out of floating-point range"),
    (TWO_LINES, "bl-constant", "datum out of floating-point range"),
    (TWO_LINES, "reduce", "datum out of floating-point range"),
])
def test_datum_beyond_double_range_is_usage_error(tmp_path, datum, command, message):
    # finite entries whose transversality (1e1200 for Loomis-Whitney,
    # 1e400 for two lines) overflows inside a block determinant or their
    # product, which raises under the command's float-error guard
    payload = {**datum, "maps": scaled(datum["maps"], 1e200)}
    expect_usage_error(tmp_path, payload, command, message)


def test_gaussian_search_refuses_an_ill_conditioned_start(tmp_path):
    payload = {"d": 2, "maps": [[[1.0, 0.0]], [[1.0, 1e-7]]], "p": [1.0, 1.0]}
    expect_usage_error(tmp_path, payload, "gaussian-search", "identity start")


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def test_write_report_encodes_numpy_values_compactly(tmp_path):
    out = tmp_path / "r.json"
    _write_report(str(out), {"ok": np.bool_(False), "n": np.int64(3), "x": np.float32(0.5),
                             "a": np.arange(2.0), "b": (1, 2)})
    text = out.read_text()
    assert text == '{"a": [0.0, 1.0], "b": [1, 2], "n": 3, "ok": false, "x": 0.5}\n'


class TestOutputTargets:
    def test_symlink_is_written_through(self, tmp_path, lw_file):
        real = tmp_path / "real.json"
        real.write_text("old")
        real.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(real)
        assert main(["bl-constant", "--input", lw_file, "--output", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert json.loads(real.read_text())["result"]["constant"] == 1.0
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert not list(tmp_path.glob(".blt-*"))

    def test_dangling_symlink_creates_its_target(self, tmp_path, lw_file):
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "new.json")
        assert main(["bl-constant", "--input", lw_file, "--output", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads((tmp_path / "new.json").read_text())["result"]["constant"] == 1.0

    def test_new_file_gets_the_umask_mode(self, tmp_path, lw_file):
        out = tmp_path / "o.json"
        umask = os.umask(0o027)
        try:
            assert main(["bl-constant", "--input", lw_file, "--output", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_fifo_is_written_not_replaced(self, tmp_path, lw_file):
        fifo = tmp_path / "pipe.json"
        os.mkfifo(fifo)
        # a nonblocking reader lets the writer open the FIFO without a thread
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["bl-constant", "--input", lw_file, "--output", str(fifo)]) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert json.loads(data)["result"]["constant"] == 1.0

    def test_symlink_to_a_device_is_written_through(self, tmp_path, lw_file):
        link = tmp_path / "null.json"
        link.symlink_to(os.devnull)
        assert main(["bl-constant", "--input", lw_file, "--output", str(link)]) == 0
        assert link.is_symlink() and stat.S_ISCHR(os.stat(link).st_mode)


def test_write_report_refuses_unknown_objects(tmp_path):
    out = tmp_path / "r.json"
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        _write_report(str(out), {"x": object()})
    assert not out.exists()
    assert not list(tmp_path.iterdir())


NUMBERS = st.one_of(
    st.sampled_from([NAN, INF, -INF, -0.5, 0.0, 1.5, 1e-300, 1e300]),
    st.floats(),
    st.integers(-3, 3),
)
ENTRIES = st.one_of(NUMBERS, st.text(max_size=3), st.none())
JUNK = st.one_of(ENTRIES, st.lists(ENTRIES, max_size=3),
                 st.dictionaries(st.text(max_size=2), ENTRIES, max_size=2))


@st.composite
def datum_payloads(draw):
    """A datum that meets the schema, with up to two defects: a wrong
    rank, count or dimension, a ragged or empty map, a non-finite,
    negative or out-of-range number, a string where a number belongs, or
    a field replaced by junk or dropped."""
    if draw(st.integers(0, 3)):
        payload = json.loads(json.dumps(draw(st.sampled_from([LW_DATUM, TWO_LINES]))))
    else:
        d = draw(st.integers(1, 4))
        m = draw(st.integers(2, 4))
        small = st.integers(-2, 2) | st.floats(-2, 2)
        maps = [draw(st.lists(st.lists(small, min_size=d, max_size=d), min_size=1, max_size=d))
                for _ in range(m)]
        rows = sum(len(B) for B in maps)
        p = draw(st.sampled_from([[1.0 / (m - 1)] * m, [d / rows] * m]))
        payload = {"d": d, "maps": maps, "p": p}
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(["entry", "exponent", "scale", "rank", "ragged", "empty",
                                       "count", "d", "junk", "drop"]))
        maps, p = payload.get("maps"), payload.get("p")
        if defect == "entry" and isinstance(maps, list) and maps and maps[0]:
            B = draw(st.sampled_from(maps))
            if isinstance(B, list) and B and isinstance(B[0], list) and B[0]:
                B[0][draw(st.integers(0, len(B[0]) - 1))] = draw(ENTRIES)
        elif defect == "exponent" and isinstance(p, list) and p:
            p[draw(st.integers(0, len(p) - 1))] = draw(ENTRIES)
        elif defect == "scale" and isinstance(maps, list):
            payload["maps"] = scaled(maps, draw(NUMBERS))
        elif defect == "rank" and isinstance(maps, list) and maps:
            B = draw(st.sampled_from(maps))
            if isinstance(B, list) and B:
                B.append(B[0])
        elif defect == "ragged" and isinstance(maps, list) and maps:
            B = draw(st.sampled_from(maps))
            if isinstance(B, list) and B and isinstance(B[-1], list):
                B[-1] = B[-1][:-1] if draw(st.booleans()) else [*B[-1], 1.0]
        elif defect == "empty" and isinstance(maps, list) and maps:
            maps[draw(st.integers(0, len(maps) - 1))] = draw(st.sampled_from([[], [[]]]))
        elif defect == "count" and isinstance(maps, list) and maps:
            if draw(st.booleans()):
                maps.pop()
            else:
                maps.append(maps[0])
        elif defect == "d":
            payload["d"] = draw(st.integers(-1, 6) | ENTRIES)
        elif defect == "junk":
            payload[draw(st.sampled_from(["d", "maps", "p"]))] = draw(JUNK)
        elif defect == "drop":
            payload.pop(draw(st.sampled_from(["d", "maps", "p"])), None)
    return payload


@given(payload=datum_payloads())
@settings(max_examples=100, deadline=None)
def test_fuzzed_datum_json_never_crashes(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzzed-datum.json"
    path.write_text(json.dumps(payload))
    for command in DATUM_COMMANDS:
        code, out, err = run_datum_command(path, command)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert err.startswith("error:")


def lattice_grid(values):
    return {"origin": [0.0, 0.0], "spacing": 1.0, "values": values}


# A ball-check input that meets the schema, on small lattice grids.
BALL = {
    "datum": LW_DATUM,
    "f": [lattice_grid([[1.0, 0.5, 1.5], [1.0, 1.0, 0.5], [1.5, 1.0, 1.0]])] * 3,
    "fprime": [lattice_grid([[1.0, 2.0], [0.5, 1.0]])] * 3,
    "x_grid": {"lo": [0.0] * 3, "hi": [2.0] * 3, "count": 3},
}
# Grid spacings and x_grid counts under fuzz: never small or large enough
# to ask for a huge grid.
SIZES = st.sampled_from([NAN, INF, -INF, -1, 0, 2, 2.5, "x", None])


@st.composite
def ball_payloads(draw):
    """The ball-check input, maybe with the extremizer as f', with up to two
    defects: a non-finite, negative or out-of-range number, a string where
    a number belongs, a grid too many or too few, a ragged grid, an x_grid
    box of the wrong dimension or an x_grid point list, or a field
    replaced by junk or dropped."""
    payload = json.loads(json.dumps(BALL))
    if draw(st.booleans()):
        payload["fprime"] = "extremizer"
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(["value", "spacing", "count", "ragged", "box", "points",
                                       "datum", "junk", "drop"]))
        grids = [g for key in ("f", "fprime") if isinstance(payload.get(key), list)
                 for g in payload[key] if isinstance(g, dict)]
        grid = draw(st.sampled_from(grids)) if grids else None
        x_grid = payload.get("x_grid")
        if defect == "value" and grid is not None:
            key = draw(st.sampled_from(["origin", "values"]))
            inner = grid.get(key)
            if key == "values" and isinstance(inner, list) and inner:
                inner = draw(st.sampled_from(inner))
            if isinstance(inner, list) and inner:
                inner[draw(st.integers(0, len(inner) - 1))] = draw(ENTRIES)
        elif defect == "spacing" and grid is not None:
            grid["spacing"] = draw(SIZES)
        elif defect == "count":
            key = draw(st.sampled_from(["f", "fprime"]))
            if isinstance(payload.get(key), list) and payload[key]:
                if draw(st.booleans()):
                    payload[key].pop()
                else:
                    payload[key].append(payload[key][0])
        elif defect == "ragged" and grid is not None and isinstance(grid.get("values"), list):
            values = grid["values"]
            if values and isinstance(values[-1], list):
                values[-1] = values[-1][:-1] if draw(st.booleans()) else [*values[-1], 1.0]
        elif defect == "box" and isinstance(x_grid, dict):
            key = draw(st.sampled_from(["lo", "hi", "count"]))
            if key == "count":
                x_grid[key] = draw(SIZES)
            elif isinstance(x_grid.get(key), list) and x_grid[key] and draw(st.booleans()):
                x_grid[key][draw(st.integers(0, len(x_grid[key]) - 1))] = draw(ENTRIES)
            else:
                x_grid[key] = draw(st.sampled_from([[0.0, 0.0], [0.0] * 4, [], 0.0]))
        elif defect == "points":
            points = [[0.0, 0.0, 0.0], [1.0, 2.0, 1.0]]
            if draw(st.booleans()):
                points[draw(st.integers(0, 1))][draw(st.integers(0, 2))] = draw(ENTRIES)
            else:
                points = draw(st.sampled_from([[[0.0, 0.0]], [0.0, 1.0, 2.0], [], [[]]]))
            payload["x_grid"] = points
        elif defect == "datum":
            payload["datum"] = draw(datum_payloads())
        elif defect == "junk":
            payload[draw(st.sampled_from(["datum", "f", "fprime", "x_grid"]))] = draw(JUNK)
        elif defect == "drop":
            target = draw(st.sampled_from([payload, grid, x_grid]))
            if isinstance(target, dict) and target:
                target.pop(draw(st.sampled_from(sorted(target))))
    return payload


@given(payload=ball_payloads())
@settings(max_examples=60, deadline=None)
def test_fuzzed_ball_check_json_never_crashes(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzzed-ball.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_command(["ball-check", "--seed", "1"], path)
    # ball-check exits 2 when the inequality check is not consistent
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        # a message, not the bare repr of a missing key
        assert err.startswith("error:") and out == "" and not err.startswith("error: '")
    else:
        json.loads(out, parse_constant=_reject_constant)


FINNER = {"d": 3, "block_sizes": [1, 1, 1], "inputs": [[[1.0, 2.0], [0.5, 1.0]]] * 3}


@st.composite
def finner_payloads(draw):
    """The finner-discrete input with up to two defects: a non-finite,
    negative or out-of-range number, a string where a number belongs, a
    wrong dimension or block size, an input too many or too few, a ragged
    or wrong-rank input, or a field replaced by junk or dropped."""
    payload = json.loads(json.dumps(FINNER))
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(["entry", "d", "block", "count", "ragged", "rank",
                                       "junk", "drop"]))
        inputs, blocks = payload.get("inputs"), payload.get("block_sizes")
        array = draw(st.sampled_from(inputs)) if isinstance(inputs, list) and inputs else None
        if defect == "entry" and isinstance(array, list) and array:
            row = draw(st.sampled_from(array))
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(ENTRIES)
        elif defect == "d":
            payload["d"] = draw(st.integers(-1, 6) | ENTRIES)
        elif defect == "block" and isinstance(blocks, list) and blocks:
            blocks[draw(st.integers(0, len(blocks) - 1))] = draw(st.integers(-1, 4) | ENTRIES)
        elif defect == "count" and isinstance(inputs, list) and inputs:
            if draw(st.booleans()):
                inputs.pop()
            else:
                inputs.append(inputs[0])
        elif defect == "ragged" and isinstance(array, list) and array:
            if isinstance(array[-1], list):
                array[-1] = array[-1][:-1] if draw(st.booleans()) else [*array[-1], 1.0]
        elif defect == "rank" and isinstance(inputs, list) and inputs:
            inputs[draw(st.integers(0, len(inputs) - 1))] = draw(
                st.sampled_from([[1.0, 2.0], [[[1.0]]], 1.0, [], [[]]]))
        elif defect == "junk":
            payload[draw(st.sampled_from(["d", "block_sizes", "inputs"]))] = draw(JUNK)
        elif defect == "drop":
            payload.pop(draw(st.sampled_from(["d", "block_sizes", "inputs"])), None)
    return payload


@given(payload=finner_payloads())
@settings(max_examples=100, deadline=None)
def test_fuzzed_finner_json_never_crashes(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzzed-finner.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_command(["finner-discrete"], path)
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error:") and out == "" and not err.startswith("error: '")
    else:
        json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("command", sorted(set(cli.HANDLERS) - {"delta0"}))
@pytest.mark.parametrize("payload", [[], {}], ids=["list", "object"])
def test_empty_payload_is_usage_error(tmp_path, command, payload):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_command(seeded(command), path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "unrecognized arguments" not in err


# The commands that read a surface file, with the options each needs.
SURFACE_COMMANDS = {
    "convolve-surfaces": ["convolve-surfaces"],
    "extension": ["extension"],
    "verify-thm74": ["verify-thm74", "--resolution", "4"],
}


def surface_numbers(surface):
    """(container, key) of every number of one surface."""
    U, values = surface.get("U"), surface.get("values")
    places = [(surface, "beta"), (surface, "kappa")]
    if isinstance(U, dict):
        places += [(U[k], i) for k in ("lo", "hi") if isinstance(U.get(k), list)
                   for i in range(len(U[k]))]
    terms = surface.get("phi", {}).get("terms") if isinstance(surface.get("phi"), dict) else None
    if isinstance(terms, list):
        places += [(t, "c") for t in terms if isinstance(t, dict)]
    if isinstance(values, dict):
        places += [(values, "spacing")]
        places += [(values[k], i) for k in ("origin", "values")
                   if isinstance(values.get(k), list) for i in range(len(values[k]))]
    return places


@st.composite
def surface_payloads(draw):
    """A surface file that meets the schema, with up to two defects: a
    non-finite, negative, huge or out-of-range number, a string where a
    number belongs, scaled graph coefficients, a wrong exponent or
    dimension, a surface too many or too few, or a field replaced by junk
    or dropped."""
    payload = json.loads(json.dumps(draw(st.sampled_from([CURVES, LINES]))))
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(["number", "point", "scale", "powers", "dimension",
                                       "count", "junk", "drop"]))
        surfaces = payload.get("surfaces")
        pool = [payload["surface"]] if isinstance(payload.get("surface"), dict) else []
        if isinstance(surfaces, list):
            pool += [s for s in surfaces if isinstance(s, dict)]
        surface = draw(st.sampled_from(pool)) if pool else None
        if defect == "number" and surface is not None:
            places = surface_numbers(surface)
            if places:
                container, key = draw(st.sampled_from(places))
                container[key] = draw(ENTRIES)
        elif defect == "point":
            key = draw(st.sampled_from(["y", "xi"]))
            if isinstance(payload.get(key), list) and payload[key]:
                payload[key][draw(st.integers(0, len(payload[key]) - 1))] = draw(ENTRIES)
        elif defect == "scale" and surface is not None and isinstance(surface.get("phi"), dict):
            factor = draw(st.sampled_from([1e3, 1e8, 1e154, 1e300, -1e-300]))
            surface["phi"] = {"terms": scaled_terms(surface["phi"].get("terms"), factor)}
        elif defect == "powers" and surface is not None and isinstance(surface.get("phi"), dict):
            terms = surface["phi"].get("terms")
            if isinstance(terms, list) and terms and isinstance(terms[-1], dict):
                terms[-1]["powers"] = draw(st.sampled_from([[-1], [0, 1], [], [5], [40], ["x"]]))
        elif defect == "dimension" and surface is not None and isinstance(surface.get("U"), dict):
            surface["U"] = {"lo": [-0.05, -0.05], "hi": [0.05, 0.05]}
        elif defect == "count" and isinstance(surfaces, list) and surfaces:
            if draw(st.booleans()):
                surfaces.pop()
            else:
                surfaces.append(surfaces[0])
        elif defect == "junk":
            payload[draw(st.sampled_from(["surfaces", "surface", "y", "xi"]))] = draw(JUNK)
        elif defect == "drop":
            if surface is not None and draw(st.booleans()):
                surface.pop(draw(st.sampled_from(["U", "phi", "beta", "kappa", "values"])), None)
            else:
                payload.pop(draw(st.sampled_from(["surfaces", "surface", "y", "xi"])), None)
    return payload


def scaled_terms(terms, factor):
    if not isinstance(terms, list):
        return terms
    return [{**t, "c": t["c"] * factor} if isinstance(t, dict) and isinstance(t.get("c"), float)
            else t for t in terms]


@given(payload=surface_payloads())
@settings(max_examples=60, deadline=None)
def test_fuzzed_surface_json_never_crashes(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzzed-surfaces.json"
    path.write_text(json.dumps(payload))
    for command, argv in SURFACE_COMMANDS.items():
        code, out, err = run_command(argv, path)
        # verify-thm74 exits 2 when its two routes disagree (a refusal)
        assert code in ((0, 1, 2) if command == "verify-thm74" else (0, 1)), (command, err)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error:") and out == ""
        else:
            json.loads(out, parse_constant=_reject_constant)


# One file for both field commands: ift-solve reads the field at the top
# level with x, delta-integral reads field, window and integrand.
FIELD_FILE = {**FIELD, "x": [[1e-4, 2e-4]], "field": FIELD,
              "window": {"lo": [-2e-4] * 2, "hi": [2e-4] * 2},
              "integrand": {"lo": [-1e-4] * 3, "hi": [1e-4] * 3}}
FIELD_COMMANDS = {
    "ift-solve": ["ift-solve"],
    "delta-integral": ["delta-integral", "--resolution", "8"],
}


@st.composite
def field_payloads(draw):
    """The field file with up to two defects: a non-finite, huge or
    out-of-range number, a string where a number belongs, wrong powers, a
    point, window or integrand bound too many or too few, or a field
    replaced by junk or dropped."""
    payload = json.loads(json.dumps(FIELD_FILE))
    if draw(st.booleans()):
        payload["integrand"] = "one"
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(["number", "powers", "point", "bound", "junk", "drop"]))
        field = draw(st.sampled_from([payload, payload.get("field")]))
        field = field if isinstance(field, dict) else None
        terms = field.get("terms") if field is not None else None
        term = draw(st.sampled_from(terms)) if isinstance(terms, list) and terms else None
        boxes = [b for b in (payload.get("window"), payload.get("integrand")) if isinstance(b, dict)]
        if defect == "number" and field is not None:
            key = draw(st.sampled_from(["n", "beta", "kappa", "c"]))
            target = term if key == "c" and isinstance(term, dict) else field
            target[key] = draw(ENTRIES | st.integers(-1, 6))
        elif defect == "powers" and isinstance(term, dict):
            term["powers"] = draw(st.sampled_from([[-1, 0, 1], [0, 1], [], [0, 0, 40], ["x", 0, 1]]))
        elif defect == "point" and isinstance(payload.get("x"), list):
            row = payload["x"][0] if payload["x"] else None
            if draw(st.booleans()) and isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(ENTRIES)
            else:
                payload["x"] = draw(st.sampled_from([[[1e-4]], [1e-4, 2e-4, 0.0], [], [[]]]))
        elif defect == "bound" and boxes:
            box = draw(st.sampled_from(boxes))
            key = draw(st.sampled_from(["lo", "hi"]))
            if isinstance(box.get(key), list) and box[key]:
                if draw(st.booleans()):
                    box[key][draw(st.integers(0, len(box[key]) - 1))] = draw(ENTRIES)
                else:
                    box[key] = box[key][:-1] if draw(st.booleans()) else [*box[key], 0.0]
        elif defect == "junk":
            payload[draw(st.sampled_from(["field", "window", "integrand", "x", "terms"]))] = (
                draw(JUNK))
        elif defect == "drop":
            target = draw(st.sampled_from([payload, field, *boxes]))
            if isinstance(target, dict) and target:
                target.pop(draw(st.sampled_from(sorted(target))))
    return payload


@given(payload=field_payloads())
@settings(max_examples=40, deadline=None)
def test_fuzzed_field_json_never_crashes(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzzed-field.json"
    path.write_text(json.dumps(payload))
    for command, argv in FIELD_COMMANDS.items():
        code, out, err = run_command(argv, path)
        assert code in (0, 1), (command, err)
        assert "Traceback" not in err
        if code == 1:
            # a message, not the bare repr of a missing key
            assert err.startswith("error:") and out == "" and not err.startswith("error: '")
        else:
            json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("change, command, message", [
    ({"window": 5}, "delta-integral", "invalid delta-integral input"),
    ({"integrand": {"lo": [-1e-4] * 3}}, "delta-integral", "missing field 'hi'"),
    ({"x": [[1e-4, "a"]]}, "ift-solve", "invalid ift-solve input"),
    ({"terms": [{"powers": [0, 0, 1], "c": INF}]}, "ift-solve", "coefficients must be finite"),
], ids=["window-number", "integrand-without-hi", "x-string", "coefficient-inf"])
def test_malformed_field_file_is_usage_error(tmp_path, change, command, message):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({**FIELD_FILE, **change}))
    code, out, err = run_command(FIELD_COMMANDS[command], path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("kappa", [NAN, INF], ids=["nan", "inf"])
@pytest.mark.parametrize("command", sorted(FIELD_COMMANDS))
def test_field_kappa_must_be_finite(tmp_path, command, kappa):
    field = {**FIELD, "kappa": kappa}
    path = tmp_path / "field.json"
    path.write_text(json.dumps({**FIELD_FILE, **field, "field": field}))
    code, out, err = run_command(FIELD_COMMANDS[command], path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "kappa must be positive and finite" in err


@pytest.mark.parametrize("command, tol, kind", [
    *[(command, tol, "finite") for command in ("finner-discrete", "extremizer", "ball-check")
      for tol in ("nan", "inf", "x")],
    *[("ift-solve", tol, "positive finite") for tol in ("nan", "inf", "0", "-1")],
])
def test_tol_out_of_range_is_usage_error(tmp_path, capsys, lw_file, command, tol, kind):
    # a non-finite tol reached the report writer; a nonpositive one made
    # ift-solve blame the field
    out = tmp_path / "o.json"
    assert main([command, "--input", lw_file, "--tol", tol, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument --tol: must be a {kind} number, got '{tol}'")
    assert not out.exists()


class TestExitCodes:
    def test_finner_violation_would_exit_two(self, tmp_path):
        # an artificial lhs > rhs cannot arise from valid inputs; drive the
        # branch with a negative tolerance so holds flips
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps(
                {"d": 3, "block_sizes": [1, 1, 1], "inputs": [[[1, 0.4], [0.2, 1]]] * 3}
            )
        )
        out = tmp_path / "r.json"
        code = main(
            ["finner-discrete", "--input", str(path), "--tol", "-0.5", "--output", str(out)]
        )
        assert code == 2

    @staticmethod
    def _nonlinear_payload(origin):
        """Three coordinate projections of R^3, each input the indicator
        of the 8 x 8 cell square with lower corner `origin`."""
        return {
            "maps": [
                {
                    "d": 3,
                    "rows": [
                        {"linear": [0, 1, 0]},
                        {"linear": [0, 0, 1]},
                    ],
                    "beta": 1.0,
                    "kappa": 1e-4,
                },
                {
                    "d": 3,
                    "rows": [
                        {"linear": [1, 0, 0]},
                        {"linear": [0, 0, 1]},
                    ],
                    "beta": 1.0,
                    "kappa": 1e-4,
                },
                {
                    "d": 3,
                    "rows": [
                        {"linear": [1, 0, 0]},
                        {"linear": [0, 1, 0]},
                    ],
                    "beta": 1.0,
                    "kappa": 1e-4,
                },
            ],
            "params": {"beta": 1.0, "kappa": 1e-4, "alpha0": 1.25, "alpha1": 1.5},
            "inputs": [
                {
                    "origin": list(origin),
                    "spacing": 0.0025,
                    "values": [[1.0] * 8] * 8,
                }
            ]
            * 3,
            "x0": [0.0, 0.0, 0.0],
        }

    def test_verify_nonlinear_exit_zero(self, tmp_path):
        path = tmp_path / "vn.json"
        path.write_text(json.dumps(self._nonlinear_payload([-0.01, -0.01])))
        report = run(
            tmp_path,
            "vn",
            ["verify-nonlinear", "--input", str(path), "--resolution", "16"],
        )
        assert report["result"]["holds"] is True
        # exp(log_bound) leaves double range; log_bound carries the value
        assert report["result"]["bound"] is None
        assert report["result"]["log_bound"] > 700

    def test_verify_nonlinear_zero_ratio(self, tmp_path):
        # the inputs vanish on the images of the cube around x0, so the
        # ratio is 0 and its logarithm -inf: written as null, and it holds
        path = tmp_path / "vn0.json"
        path.write_text(json.dumps(self._nonlinear_payload([1.0, 1.0])))
        report = run(
            tmp_path,
            "vn0",
            ["verify-nonlinear", "--input", str(path), "--resolution", "16"],
        )
        assert report["result"]["ratio"] == 0.0
        assert report["result"]["log_ratio"] is None
        assert report["result"]["margin_log"] is None
        assert report["result"]["holds"] is True


    def test_thm74_refusal_exit_two(self, tmp_path):
        payload = {
            "surfaces": [
                {"U": {"lo": [-1.0], "hi": [1.0]},
                 "phi": {"terms": [{"powers": [1], "c": 1.0}]},
                 "beta": 1.0, "kappa": 2.5},
                {"U": {"lo": [-1.0], "hi": [1.0]},
                 "phi": {"terms": [{"powers": [1], "c": -1.0}]},
                 "beta": 1.0, "kappa": 2.5},
            ]
        }
        path = tmp_path / "t74.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "r74.json"
        code = main([
            "verify-thm74", "--input", str(path), "--resolution", "24",
            "--freq-halfwidth", "0.6", "--output", str(out),
        ])
        assert code == 2

    @pytest.mark.parametrize("halfwidth", ["0", "-5", "nan", "inf"])
    def test_thm74_freq_halfwidth_must_be_positive_finite(self, tmp_path, capsys, halfwidth):
        curve = {"U": {"lo": [-1.0], "hi": [1.0]},
                 "phi": {"terms": [{"powers": [1], "c": 1.0}]}, "beta": 1.0, "kappa": 2.5}
        path = tmp_path / "t74.json"
        path.write_text(json.dumps({"surfaces": [curve, dict(curve, phi={"terms": [
            {"powers": [1], "c": -1.0}]})]}))
        out = tmp_path / "r74.json"
        code = main(["verify-thm74", "--input", str(path), "--resolution", "16",
                     "--freq-halfwidth", halfwidth, "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--freq-halfwidth" in err and "positive" in err
        assert "Traceback" not in err
        assert not out.exists()


    def test_convolve_surfaces(self, tmp_path):
        payload = {
            "surfaces": [
                {"U": {"lo": [-0.0001], "hi": [0.0001]},
                 "phi": {"terms": [{"powers": [1], "c": 1.0}]},
                 "beta": 1.0, "kappa": 2.5},
                {"U": {"lo": [-0.0001], "hi": [0.0001]},
                 "phi": {"terms": [{"powers": [1], "c": -1.0}]},
                 "beta": 1.0, "kappa": 2.5},
            ],
            "y": [0.00005, 0.00001],
        }
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(payload))
        report = run(tmp_path, "conv", ["convolve-surfaces", "--input", str(path)])
        # flat slopes +-1: value 1/|c0 - c1| = 0.5 inside the support
        assert report["result"]["value"] == pytest.approx(0.5, rel=1e-9)

    def test_thm74_success_exit_zero(self, tmp_path):
        payload = {
            "surfaces": [
                {"U": {"lo": [-1.0], "hi": [1.0]},
                 "phi": {"terms": [{"powers": [1], "c": 1.0}]},
                 "beta": 1.0, "kappa": 2.5},
                {"U": {"lo": [-1.0], "hi": [1.0]},
                 "phi": {"terms": [{"powers": [1], "c": -1.0}]},
                 "beta": 1.0, "kappa": 2.5},
            ]
        }
        path = tmp_path / "t74ok.json"
        path.write_text(json.dumps(payload))
        report = run(
            tmp_path,
            "t74ok",
            ["verify-thm74", "--input", str(path), "--resolution", "64",
             "--freq-halfwidth", "20.0"],
        )
        assert report["result"]["refusal"] is False
        assert report["result"]["bridge_error"] < 0.2


class TestDeterminism:
    def test_bitwise_identical_reports(self, tmp_path, lw_file):
        out = tmp_path / "a.json"
        argv = ["gaussian-search", "--input", lw_file, "--seed", "5", "--budget", "200",
                "--output", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_reports_embed_config(self, tmp_path):
        path = tmp_path / "f.json"
        payload = {"d": 3, "block_sizes": [1, 1, 1], "inputs": [[[1, 1], [1, 1]]] * 3}
        path.write_text(json.dumps(payload))
        report = run(tmp_path, "cfg", ["finner-discrete", "--input", str(path), "--tol", "0.5"])
        assert report["config"]["tol"] == 0.5

    def test_config_records_only_options_the_command_takes(self, tmp_path, lw_file):
        report = run(tmp_path, "cfg", ["bl-constant", "--input", lw_file])
        assert set(report["config"]) == {"input", "output"}

    @pytest.mark.parametrize("command, payload, tol", [
        ("finner-discrete", FINNER, 1e-12),
        ("extremizer", LW_DATUM, 1e-10),
        ("ift-solve", FIELD_FILE, 1e-12),
    ])
    def test_config_records_the_default_tol(self, tmp_path, command, payload, tol):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        assert run(tmp_path, "cfg", [command, "--input", str(path)])["config"]["tol"] == tol

    def test_env_seed_leaves_a_seedless_report_unchanged(self, tmp_path, lw_file, monkeypatch):
        monkeypatch.delenv("BLT_DEFAULT_SEED", raising=False)
        out = tmp_path / "bl.json"
        argv = ["bl-constant", "--input", lw_file, "--output", str(out)]
        assert main(argv) == 0
        plain = out.read_bytes()
        monkeypatch.setenv("BLT_DEFAULT_SEED", "17")
        assert main(argv) == 0
        assert out.read_bytes() == plain and b'"seed"' not in plain


class TestUnreadOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bl-constant", "--mode", "monte-carlo"],
            ["bl-constant", "--samples", "10"],
            ["bl-constant", "--resolution", "3"],
            ["bl-constant", "--tol", "0.5"],
            ["decompose", "--resolution", "8"],
            ["decompose", "--samples", "10"],
            ["gaussian-search", "--tol", "0.1"],
            ["extension", "--mode", "monte-carlo"],
            ["verify-step", "--tol", "0.1"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_option_a_command_never_reads_is_usage_error(self, tmp_path, capsys, lw_file, argv):
        out = tmp_path / "o.json"
        code = main([argv[0], "--input", lw_file] + argv[1:] + ["--output", str(out)])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(set(cli.HANDLERS) - SEED_COMMANDS))
    def test_seed_where_nothing_reads_it_is_usage_error(self, tmp_path, capsys, lw_file, command):
        required = (["--beta", "1", "--kappa", "1", "--alpha0", "1.25", "--alpha1", "1.5",
                     "--d", "3"] if command == "delta0" else ["--input", lw_file])
        out = tmp_path / "o.json"
        assert main([command, *required, "--seed", "1", "--output", str(out)]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-step", "verify-nonlinear"])
    def test_scale_verifiers_refuse_monte_carlo(self, tmp_path, capsys, lw_file, command):
        # they integrate by the midpoint rule only: --mode and --samples are
        # not theirs (verify-step takes --seed, verify-nonlinear does not)
        out = tmp_path / "o.json"
        for option in (["--mode", "monte-carlo"], ["--samples", "10"]):
            code = main(seeded(command) + ["--input", lw_file, *option, "--output", str(out)])
            assert code == 1
            assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
            assert not out.exists()

    def test_extension_resolution_is_the_budget(self, capsys):
        with pytest.raises(SystemExit):
            main(["extension", "--help"])
        assert "max_resolution" in capsys.readouterr().out

    def test_extension_default_budget_is_the_library_default(self, tmp_path, capsys):
        # phi(x) = x over [-1, 1] at xi = (30, 10) needs 191 points per axis
        path = tmp_path / "line.json"
        surface = {"U": {"lo": [-1.0], "hi": [1.0]}, "phi": {"terms": [{"powers": [1], "c": 1.0}]},
                   "beta": 1.0, "kappa": 1.0}
        path.write_text(json.dumps({"surface": surface, "xi": [30.0, 10.0]}))
        default = run(tmp_path, "default", ["extension", "--input", str(path)])
        wide = run(tmp_path, "wide", ["extension", "--input", str(path), "--resolution", "1024"])
        assert default["result"] == wide["result"]
        assert default["config"]["resolution"] == convext.MAX_EXTENSION_RESOLUTION == 4096
        out = tmp_path / "narrow.json"
        argv = ["extension", "--input", str(path), "--resolution", "64", "--output", str(out)]
        assert main(argv) == 1
        assert "needs 191 points per axis, budget 64" in capsys.readouterr().err
        assert not out.exists()


class TestConvolutionRule:
    """convolve-surfaces and verify-thm74 integrate the same delta integral,
    whose base has (d - 1)^2 - 1 axes: 0, 3 and 8 at d = 2, 3, 4."""

    def surfaces_file(self, tmp_path, d):
        surface = {"U": {"lo": [-1e-4] * (d - 1), "hi": [1e-4] * (d - 1)},
                   "phi": {"terms": [{"powers": [1] + [0] * (d - 2), "c": 1.0}]},
                   "beta": 1.0, "kappa": 2.5}
        path = tmp_path / f"surfaces{d}.json"
        path.write_text(json.dumps({"surfaces": [surface] * d, "y": [0.0] * d}))
        return str(path)

    @pytest.mark.parametrize("d, mode", [(2, "tensor-midpoint"), (3, "tensor-midpoint"),
                                         (4, "monte-carlo")])
    def test_both_commands_resolve_the_same_rule(self, tmp_path, monkeypatch, d, mode):
        from blt import convext

        seen = {}

        def convolution(sfuncs, y, spec):
            seen["convolve-surfaces"] = spec.mode
            return 0.0, 0.0

        def thm74(sfuncs, halfwidth, resolution, spec):
            seen["verify-thm74"] = spec.mode
            return convext.Thm74Report(1.0, 1.0, 0.0, 1.0, [1.0] * d, halfwidth, resolution,
                                       1.0, False)

        monkeypatch.setattr(convext, "surface_convolution", convolution)
        monkeypatch.setattr(convext, "verify_thm74", thm74)
        path = self.surfaces_file(tmp_path, d)
        for command in ("convolve-surfaces", "verify-thm74"):
            report = run(tmp_path, command, [command, "--input", path, "--seed", "3"])
            assert report["config"]["mode"] == mode
        assert seen == {"convolve-surfaces": mode, "verify-thm74": mode}

    def test_convolve_d4_without_seed_asks_for_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("BLT_DEFAULT_SEED", raising=False)
        out = tmp_path / "o.json"
        argv = ["convolve-surfaces", "--input", self.surfaces_file(tmp_path, 4), "--output", str(out)]
        assert main(argv) == 1
        assert "provide --seed" in capsys.readouterr().err
        assert not out.exists()


def bench_workloads(monkeypatch):
    """The benchmark's input generators, bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)
    spec.loader.exec_module(module)
    return module


class TestBallCheckSeed:
    """ball-check reads --seed only when it integrates by Monte Carlo."""

    def test_midpoint_rule_needs_no_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BLT_DEFAULT_SEED", raising=False)
        workloads = bench_workloads(monkeypatch)
        argv = workloads.linear_round(1, 0, str(tmp_path), workloads.TINY).primary.argv
        at = argv.index("--seed")
        unseeded = run(tmp_path, "unseeded", argv[:at] + argv[at + 2:])
        seeded_report = run(tmp_path, "seeded", argv[:at] + ["--seed", "1"] + argv[at + 2:])
        assert unseeded["result"] == seeded_report["result"]
        assert unseeded["config"]["seed"] is None
        assert unseeded["config"]["mode"] == "tensor-midpoint"
        assert unseeded["config"]["tol"] == 5e-2

    def test_monte_carlo_asks_for_a_seed(self, tmp_path, capsys, monkeypatch):
        # d = 4 Loomis-Whitney resolves to Monte Carlo
        monkeypatch.delenv("BLT_DEFAULT_SEED", raising=False)
        d = 4
        maps = [[[float(c == r + (r >= j)) for c in range(d)] for r in range(d - 1)]
                for j in range(d)]
        grid = {"origin": [0.0] * 3, "spacing": 1.0, "values": np.ones((2, 2, 2)).tolist()}
        path = tmp_path / "ball4.json"
        path.write_text(json.dumps({"datum": {"d": d, "maps": maps, "p": [1 / 3] * d},
                                    "f": [grid] * d, "fprime": [grid] * d,
                                    "x_grid": [[0.0] * d]}))
        out = tmp_path / "o.json"
        assert main(["ball-check", "--input", str(path), "--output", str(out)]) == 1
        assert "ball-check integrates by Monte Carlo here: provide --seed" in capsys.readouterr().err
        assert not out.exists()


def scales_payload():
    """The quadratically perturbed Loomis-Whitney maps (c = 0.3) at their
    top scale delta0 = 1e-6, with constant 12 x 12 grid inputs."""
    c = 0.3
    rows = [
        [
            {"linear": [0, 1, 0], "terms": [{"powers": [0, 0, 2], "c": c}]},
            {"linear": [0, 0, 1], "terms": [{"powers": [1, 1, 0], "c": c}]},
        ],
        [
            {"linear": [1, 0, 0], "terms": [{"powers": [0, 0, 2], "c": c}]},
            {"linear": [0, 0, 1], "terms": [{"powers": [1, 0, 1], "c": c}]},
        ],
        [
            {"linear": [1, 0, 0], "terms": [{"powers": [0, 2, 0], "c": c}]},
            {"linear": [0, 1, 0], "terms": [{"powers": [1, 1, 0], "c": c}]},
        ],
    ]
    maps = [{"d": 3, "rows": r, "beta": 1.0, "kappa": 1.0} for r in rows]
    delta0 = 1e-06
    spacing = delta0 / 8
    grid = {
        "origin": [-0.75 * delta0, -0.75 * delta0],
        "spacing": spacing,
        "values": [[1.0] * 12] * 12,
    }
    return {
        "maps": maps,
        "params": {"beta": 1.0, "kappa": 1.0, "alpha0": 1.25, "alpha1": 1.5, "M": 1.0 / spacing},
        "inputs": [grid] * 3,
    }


def coarse_scales_payload():
    """The scales payload at alpha0 = 1.1: 9 main intervals per axis."""
    payload = scales_payload()
    payload["params"]["alpha0"] = 1.1
    return payload


def flagship_payload():
    """The scales payload with the seeded random-walk inputs of
    `flagship_scale_setup`: the same maps, cube and delta0."""
    _, params, _, inputs = flagship_scale_setup(seed=1)
    payload = scales_payload()
    payload["params"]["M"] = params.M
    payload["inputs"] = [{"origin": g.origin.tolist(), "spacing": g.spacing,
                          "values": g.values.tolist()} for g in inputs]
    return payload


def cell_loop(deco, max_cells):
    """The first max_cells cells as the per-cell loop listed them: buffer
    patterns chi in binary order, np.ndindex over the main indices n of
    each, and one volume per cell, prod(widths) / |det t_matrix|."""
    d = deco.cube.d
    shape = tuple(deco.main_count(i) for i in range(d))
    det = abs(np.linalg.det(deco.frame.t_matrix()))
    cells = []
    for code in range(2**d):
        chi = [(code >> i) & 1 for i in range(d)]
        for n in np.ndindex(shape):
            if len(cells) >= max_cells:
                return cells
            bounds = [deco.interval_bounds(i, n[i], chi[i]) for i in range(d)]
            widths = [hi - lo for lo, hi in bounds]
            cells.append({
                "n": list(n),
                "chi": chi,
                "slab_bounds": [[float(lo), float(hi)] for lo, hi in bounds],
                "volume_estimate": float(np.prod(widths) / det),
            })
    return cells


# The scale commands under fuzz, with options that keep each run small.
SCALES_COMMANDS = {
    "decompose": ["decompose", "--max-cells", "8"],
    "verify-nonlinear": ["verify-nonlinear", "--resolution", "8"],
}


@st.composite
def scales_payloads(draw):
    """The scales payload with up to two defects in its map rows, grids or
    params: a non-finite, huge or out-of-range number, a string where a
    number belongs, a wrong exponent, a row, map or input too many or too
    few, a ragged grid, or a field replaced by junk or dropped."""
    payload = json.loads(json.dumps(scales_payload()))
    for _ in range(draw(st.integers(0, 2))):
        defect = draw(st.sampled_from(["linear", "coefficient", "powers", "rows", "map",
                                       "grid", "ragged", "param", "count", "junk", "drop"]))
        maps, inputs, params = payload.get("maps"), payload.get("inputs"), payload.get("params")
        fam = draw(st.sampled_from(maps)) if isinstance(maps, list) and maps else None
        rows = fam.get("rows") if isinstance(fam, dict) else None
        row = draw(st.sampled_from(rows)) if isinstance(rows, list) and rows else None
        term = (row["terms"][0] if isinstance(row, dict) and isinstance(row.get("terms"), list)
                and row["terms"] and isinstance(row["terms"][0], dict) else None)
        grid = draw(st.sampled_from(inputs)) if isinstance(inputs, list) and inputs else None
        if defect == "linear" and isinstance(row, dict) and isinstance(row.get("linear"), list):
            row["linear"][draw(st.integers(0, len(row["linear"]) - 1))] = draw(ENTRIES)
        elif defect == "coefficient" and term is not None:
            term["c"] = draw(NUMBERS | st.sampled_from([1e3, 1e154, -1e300]))
        elif defect == "powers" and term is not None:
            term["powers"] = draw(st.sampled_from([[-1, 0, 2], [0, 2], [], [40, 0, 0], ["x", 0, 0]]))
        elif defect == "rows" and isinstance(rows, list) and rows:
            if draw(st.booleans()):
                rows.pop()
            else:
                rows.append(rows[0])
        elif defect == "map" and isinstance(fam, dict):
            fam[draw(st.sampled_from(["d", "beta", "kappa"]))] = draw(
                NUMBERS | ENTRIES | st.integers(-1, 6))
        elif defect == "grid" and isinstance(grid, dict):
            key = draw(st.sampled_from(["origin", "spacing", "values"]))
            if key == "spacing":
                grid[key] = draw(ENTRIES | st.sampled_from([1e-300, 1e300, -1.25e-7]))
            elif isinstance(grid.get(key), list) and grid[key]:
                inner = grid[key] if key == "origin" else draw(st.sampled_from(grid[key]))
                if isinstance(inner, list) and inner:
                    inner[draw(st.integers(0, len(inner) - 1))] = draw(ENTRIES)
        elif defect == "ragged" and isinstance(grid, dict) and isinstance(grid.get("values"), list):
            values = grid["values"]
            if values and isinstance(values[-1], list):
                values[-1] = values[-1][:-1] if draw(st.booleans()) else [*values[-1], 1.0]
        elif defect == "param" and isinstance(params, dict):
            params[draw(st.sampled_from(["beta", "kappa", "alpha0", "alpha1", "M"]))] = draw(
                NUMBERS | ENTRIES | st.sampled_from([1.0 + 1e-9, 1.02, 1.1, 1.49, 1.999, 1e-300]))
        elif defect == "count":
            pool = [v for v in (maps, inputs) if isinstance(v, list) and v]
            if pool:
                items = draw(st.sampled_from(pool))
                if draw(st.booleans()):
                    items.pop()
                else:
                    items.append(items[0])
        elif defect == "junk":
            payload[draw(st.sampled_from(["maps", "inputs", "params"]))] = draw(JUNK)
        elif defect == "drop":
            target = draw(st.sampled_from([payload, params, fam, row, grid]))
            if isinstance(target, dict) and target:
                target.pop(draw(st.sampled_from(sorted(target))))
    return payload


@given(payload=scales_payloads())
@settings(max_examples=40, deadline=None)
def test_fuzzed_scales_json_never_crashes(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzzed-scales.json"
    path.write_text(json.dumps(payload))
    for command, argv in SCALES_COMMANDS.items():
        code, out, err = run_command(argv, path)
        assert code in (0, 1, 2), (command, err)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error:") and out == ""
        else:
            json.loads(out)


class TestScalesCommands:
    def test_decompose_exports_certificates(self, tmp_path):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(scales_payload()))
        report = run(
            tmp_path, "dec", ["decompose", "--input", str(path), "--seed", "1", "--max-cells", "8"]
        )
        result = report["result"]
        assert result["delta0"] == 1e-06
        assert len(result["sequences"]) == 3
        for seq in result["sequences"]:
            assert all(c["gap_ok"] is True and c["mass_bound_ok"] is True
                       for c in seq["certificates"])
        assert result["cells_listed"] == 8
        assert result["cell_count_total"] > 8

    @pytest.mark.parametrize("fails", [False, True])
    def test_decompose_certificates_are_json_booleans(self, tmp_path, monkeypatch, fails):
        # a failed certificate held as numpy.bool_ must come out as false,
        # not as the truthy string "False"
        decompose = scales.decompose

        def failing(*args):
            deco = decompose(*args)
            for seq in deco.sequences:
                for step in seq.steps:
                    step.mass_bound_ok = np.bool_(False)
            return deco

        if fails:
            monkeypatch.setattr(scales, "decompose", failing)
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(scales_payload()))
        report = run(tmp_path, "dec", ["decompose", "--input", str(path), "--max-cells", "1"],
                     expect=2 if fails else 0)
        flags = [c[key] for seq in report["result"]["sequences"] for c in seq["certificates"]
                 for key in ("gap_ok", "mass_bound_ok")]
        assert flags and all(type(flag) is bool for flag in flags)
        assert any(flag is False for flag in flags) == fails

    @pytest.mark.parametrize("payload, max_cells", [
        ("scales", 0),
        ("scales", 1),
        ("scales", 8),
        ("coarse", 729 + 100),  # 9^3 cells per buffer pattern: cut in the second
        ("coarse", 6000),  # above the 5832 cells in all
        ("flagship", 1),
        ("flagship", 8),
        ("flagship", 512),  # cut inside the first pattern
    ])
    def test_cell_table_matches_the_cell_loop(self, tmp_path, monkeypatch, payload, max_cells):
        payload = {"scales": scales_payload, "coarse": coarse_scales_payload,
                   "flagship": flagship_payload}[payload]()
        decos = []
        decompose = scales.decompose
        monkeypatch.setattr(scales, "decompose", lambda *a: decos.append(decompose(*a)) or decos[-1])
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(payload))
        result = run(tmp_path, "dec", ["decompose", "--input", str(path),
                                       "--max-cells", str(max_cells)])["result"]
        cells = cell_loop(decos[0], max_cells)
        assert result["cells_listed"] == len(cells) == min(max_cells, result["cell_count_total"])
        assert result["cells"] == cells

    @pytest.mark.parametrize("argv, option, kind", [
        (["verify-step", "--resolution", "0"], "--resolution", "positive"),
        (["verify-step", "--resolution", "-3"], "--resolution", "positive"),
        (["verify-nonlinear", "--resolution", "0"], "--resolution", "positive"),
        (["verify-nonlinear", "--resolution", "-2"], "--resolution", "positive"),
        (["decompose", "--max-cells", "-1"], "--max-cells", "nonnegative"),
    ])
    def test_counts_out_of_range_are_usage_errors(self, tmp_path, capsys, argv, option, kind):
        # a midpoint rule of no points once gave a verdict, or a traceback
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(scales_payload()))
        out = tmp_path / "out.json"
        argv = seeded(argv[0]) + argv[1:]
        assert main(argv + ["--input", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {option}: must be a {kind} integer, got '{argv[-1]}'")
        assert "Traceback" not in err and "unrecognized arguments" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decompose", "verify-nonlinear"])
    @pytest.mark.parametrize("defect, message", [
        (lambda p: p["params"].update(kappa=INF), "kappa must be positive and finite"),
        (lambda p: p["params"].update(M=0.0), "M must be positive"),
        (lambda p: p["params"].update(beta=[1.0]), "invalid scales"),
        (lambda p: p.update(params=None), "params must be an object"),
        (lambda p: p["maps"][0]["rows"][0]["terms"][0].update(c=INF), "coefficients must be finite"),
        (lambda p: p["maps"][0]["rows"][0]["terms"][0].update(powers=[-1, 0, 2]), "nonnegative"),
        (lambda p: p["inputs"][0].update(spacing=1e300), "cell volume"),
        (lambda p: p.update(cube={"side": NAN}), "cube side must be positive and finite"),
    ], ids=["kappa-inf", "M-zero", "beta-list", "params-null", "c-inf", "power-negative",
            "spacing-huge", "cube-side-nan"])
    def test_out_of_range_scales_input_is_usage_error(self, tmp_path, command, defect, message):
        payload = json.loads(json.dumps(scales_payload()))
        defect(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_command([command], path)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("command", ["verify-step", "verify-nonlinear"])
    def test_scale_verifiers_name_a_map_rougher_than_its_kappa(self, tmp_path, command):
        # map 1's first row becomes x0 + 50 x0^2, whose Jacobian moves by
        # 100 |x - y|, above the declared kappa 1
        payload = scales_payload()
        payload["maps"][1]["rows"][0]["terms"][0].update(powers=[2, 0, 0], c=50.0)
        path = tmp_path / "rough.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_command(seeded(command), path)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "map 1: sampled Hoelder quotient" in err

    @pytest.mark.parametrize("defect, message", [
        (lambda g: {**g, "origin": [NAN, g["origin"][1]]}, "grid origin and values must be finite"),
        (lambda g: {**g, "values": [[INF] * 12] + g["values"][1:]},
         "grid origin and values must be finite"),
        (lambda g: {**g, "spacing": INF}, "spacing must be positive and finite"),
    ], ids=["origin-nan", "value-inf", "spacing-inf"])
    def test_non_finite_grid_is_usage_error(self, tmp_path, defect, message):
        # the grid's own checks (inputs._lattice_arrays) give the message
        payload = scales_payload()
        payload["inputs"][0] = defect(payload["inputs"][0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_command(["decompose"], path)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_decompose_refuses_a_ladder_too_long(self, tmp_path):
        # alpha0 = 1.02 puts 4^24 / 2 candidate intervals in each window
        payload = scales_payload()
        payload["params"]["alpha0"] = 1.02
        path = tmp_path / "far.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_command(["decompose"], path)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "ladder needs up to" in err

    @pytest.mark.parametrize("command", ["verify-step", "decompose", "verify-nonlinear"])
    @pytest.mark.parametrize("defect", ["no maps", "too few inputs", "grid rank"])
    def test_malformed_scales_input_is_usage_error(self, tmp_path, capsys, command, defect):
        payload = scales_payload()
        if defect == "no maps":
            payload["maps"] = []
        elif defect == "too few inputs":
            payload["inputs"] = payload["inputs"][:2]
        else:
            grid = payload["inputs"][0]
            payload["inputs"][0] = {**grid, "origin": grid["origin"][:1], "values": grid["values"][0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = main(seeded(command) + ["--input", str(path), "--output", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "unrecognized arguments" not in err
        assert not (tmp_path / "o.json").exists()

    def test_decompose_needs_no_seed(self, tmp_path):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(scales_payload()))
        argv = ["decompose", "--input", str(path), "--max-cells", "8"]
        unseeded = run(tmp_path, "dec0", argv)
        seeded = run(tmp_path, "dec1", argv + ["--seed", "1"])
        assert unseeded["result"] == seeded["result"]

    def test_verify_step_certifies(self, tmp_path):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(scales_payload()))
        report = run(
            tmp_path,
            "vs",
            ["verify-step", "--input", str(path), "--seed", "2", "--resolution", "24"],
        )
        assert set(report["config"]) == {"input", "output", "seed", "resolution"}
        result = report["result"]
        assert result["finner_ok"] and result["buffer_bounds_ok"] and result["pigeonhole_ok"]
        assert result["certified_factor"] <= result["factor_bound"]
