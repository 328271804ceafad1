"""Command-line surface: schemas, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from blt.cli import main


def run(tmp_path, name, argv, expect=0):
    out = tmp_path / f"{name}.json"
    code = main(argv + ["--output", str(out)])
    assert code == expect, f"exit {code} != {expect}"
    with open(out) as fh:
        return json.load(fh)


@pytest.fixture
def lw_file(tmp_path):
    path = tmp_path / "lw.json"
    payload = {
        "d": 3,
        "maps": [
            [[0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0]],
        ],
        "p": [0.5, 0.5, 0.5],
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestBasicCommands:
    def test_bl_constant(self, tmp_path, lw_file):
        report = run(tmp_path, "c", ["bl-constant", "--input", lw_file])
        assert report["result"]["constant"] == 1.0
        assert report["command"] == "bl-constant"
        assert report["config"]["input"] == lw_file

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
        assert report["result"]["value"] == pytest.approx((4e-4) ** 2, rel=1e-12)

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


SURFACE = {"U": {"lo": [-1e-4], "hi": [1e-4]}, "phi": {"terms": [{"powers": [1], "c": 1.0}]},
           "beta": 1.0, "kappa": 2.5}
FIELD = {"n": 2, "terms": [{"powers": [0, 0, 1], "c": 1.0}], "beta": 1.0, "kappa": 1.0}


@pytest.mark.parametrize("payload, argv", [
    ({"surfaces": [{**SURFACE, "U": 5}, SURFACE]}, ["verify-thm74"]),
    ({"surfaces": [{**SURFACE, "phi": [1]}, SURFACE], "y": [0.0, 0.0]}, ["convolve-surfaces"]),
    ({"maps": [{"d": 3, "rows": "x", "beta": 1.0, "kappa": 1.0}]}, ["decompose"]),
    ({**FIELD, "terms": "x", "x": [[0.0, 0.0]]}, ["ift-solve"]),
    ({"field": FIELD, "window": {"lo": [-2e-4] * 2, "hi": [2e-4] * 2}},
     ["delta-integral", "--mode", "monte-carlo", "--seed", "1", "--samples", "1"]),
], ids=["surface-U", "surface-phi", "map-rows", "field-terms", "one-sample"])
def test_malformed_input_is_usage_error(tmp_path, capsys, payload, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "o.json"
    code = main(argv + ["--input", str(path), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
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

    def test_verify_nonlinear_exit_zero(self, tmp_path):
        payload = {
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
                    "origin": [-0.01, -0.01],
                    "spacing": 0.0025,
                    "values": [[1.0] * 8] * 8,
                }
            ]
            * 3,
            "x0": [0.0, 0.0, 0.0],
        }
        path = tmp_path / "vn.json"
        path.write_text(json.dumps(payload))
        report = run(
            tmp_path,
            "vn",
            ["verify-nonlinear", "--input", str(path), "--resolution", "16"],
        )
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
        assert set(report["config"]) == {"input", "output", "seed"}


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
        assert default["config"]["resolution"] is None
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
            run(tmp_path, command, [command, "--input", path, "--seed", "3"])
        assert seen == {"convolve-surfaces": mode, "verify-thm74": mode}

    def test_convolve_d4_without_seed_asks_for_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("BLT_DEFAULT_SEED", raising=False)
        out = tmp_path / "o.json"
        argv = ["convolve-surfaces", "--input", self.surfaces_file(tmp_path, 4), "--output", str(out)]
        assert main(argv) == 1
        assert "provide --seed" in capsys.readouterr().err
        assert not out.exists()


class TestScalesCommands:
    def scales_payload(self):
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

    def test_decompose_exports_certificates(self, tmp_path):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(self.scales_payload()))
        report = run(
            tmp_path, "dec", ["decompose", "--input", str(path), "--seed", "1", "--max-cells", "8"]
        )
        result = report["result"]
        assert result["delta0"] == 1e-06
        assert len(result["sequences"]) == 3
        for seq in result["sequences"]:
            assert all(c["gap_ok"] and c["mass_bound_ok"] for c in seq["certificates"])
        assert result["cells_listed"] == 8
        assert result["cell_count_total"] > 8

    @pytest.mark.parametrize("command", ["verify-step", "decompose", "verify-nonlinear"])
    @pytest.mark.parametrize("defect", ["no maps", "too few inputs", "grid rank"])
    def test_malformed_scales_input_is_usage_error(self, tmp_path, capsys, command, defect):
        payload = self.scales_payload()
        if defect == "no maps":
            payload["maps"] = []
        elif defect == "too few inputs":
            payload["inputs"] = payload["inputs"][:2]
        else:
            grid = payload["inputs"][0]
            payload["inputs"][0] = {**grid, "origin": grid["origin"][:1], "values": grid["values"][0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = main([command, "--input", str(path), "--seed", "1", "--output", str(tmp_path / "o.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_decompose_needs_no_seed(self, tmp_path):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(self.scales_payload()))
        argv = ["decompose", "--input", str(path), "--max-cells", "8"]
        unseeded = run(tmp_path, "dec0", argv)
        seeded = run(tmp_path, "dec1", argv + ["--seed", "1"])
        assert unseeded["result"] == seeded["result"]

    @pytest.mark.parametrize("command", ["verify-step", "verify-nonlinear"])
    def test_scale_verifiers_refuse_monte_carlo(self, tmp_path, capsys, command):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(self.scales_payload()))
        out = tmp_path / "o.json"
        code = main([command, "--input", str(path), "--seed", "1", "--mode", "monte-carlo",
                     "--samples", "10", "--output", str(out)])
        assert code == 1
        assert "midpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_step_certifies(self, tmp_path):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(self.scales_payload()))
        report = run(
            tmp_path,
            "vs",
            ["verify-step", "--input", str(path), "--seed", "2", "--resolution", "24"],
        )
        result = report["result"]
        assert result["finner_ok"] and result["buffer_bounds_ok"] and result["pigeonhole_ok"]
        assert result["certified_factor"] <= result["factor_bound"]
