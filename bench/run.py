"""Seeded command-line benchmark for ``blt``.

    python3 bench/run.py --workload induction --seed 1 --seconds 15 --trace 0

Runs one workload in this process as a closed loop: one caller issues one
``blt`` command at a time through ``blt.cli.main`` and waits for its report.
Inputs come from ``--seed`` (see ``workloads.py``); every report is checked
(see ``checker.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it give sample counts, percentiles and the environment.

``--trace 0`` reports the end-to-end metrics: median time of one call of
the workload's primary and of its secondary command, set-up time (median
of this process and ``SETUPS - 1`` fresh ones run one after another once
timing is over), all scaled to a reference machine speed (see
``calibrate``), and peak resident memory.  ``--trace 1`` runs every round
untraced and then traced (``spans.py``), checks that the reports are
byte-identical, and reports per-layer metrics: work counts from the first
round, self time as a share of command time (median over rounds) and the
tracing overhead.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
SETUPS = 3
CHILD_TIMEOUT_S = 150

# Machine speed on this shared host drifts by 20-25 % within seconds, in
# CPU time as much as in wall time, so every timing is scaled to a
# reference speed.  A fixed pure-Python loop (no numpy, so no setting the
# program makes can change it) runs after every call, more times after
# longer calls; a call's scaled time is
# wall * REFERENCE_LOOP_S / (median of the loops just before and after it).
REFERENCE_LOOP_S = 0.005


def calibrate() -> float:
    """Seconds one run of the calibration loop takes right now."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(30_000):
        acc += (i * 7) % 13
        table[i & 1023] = acc
    return time.perf_counter() - start


def loops_after(elapsed: float) -> list[float]:
    """Calibration loops after a call of ``elapsed`` seconds: one, plus one
    per half second of call up to seven, so a long call's speed estimate
    is not a single 5 ms sample."""
    return [calibrate() for _ in range(min(7, 1 + int(elapsed / 0.5)))]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sizes", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input, for the smoke tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (one fresh set-up)")
    parser.add_argument("--record-references", action="store_true",
                        help="store the first round's key numbers as the default-seed references")
    return parser.parse_args(argv)


def load_program():
    """Import ``blt`` from the checkout's ``src/`` only."""
    if not os.path.isfile(os.path.join(SRC, "blt", "cli.py")):
        print(f"error: no blt sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import blt.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(blt.cli.__file__))) != SRC:
        print(f"error: blt was imported from {blt.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return blt.cli


def blas_threads():
    """(library, thread count) of the OpenBLAS bundled with numpy, if any."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment() -> dict:
    import numpy as np
    import scipy

    blas, threads = blas_threads()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def percentiles(samples: list[float]) -> dict:
    """Median plus the highest of p90/p99 with at least ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    ordered = sorted(samples)
    for q in (99, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = ordered[int(len(ordered) * q / 100)]
            break
    return out


class Runner:
    """Runs ``blt`` calls, checks every report and keeps the tally."""

    def __init__(self, cli, workdir: str):
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.loops: list[float] = []  # the calibration loops after the last call

    def call(self, call, report: str):
        """Run one call; returns (start, wall seconds, result), result None on failure."""
        import checker

        self.attempted += 1
        if os.path.exists(report):
            os.unlink(report)  # a call that writes nothing must not pass on a stale report
        start = time.perf_counter()
        try:
            code = self.cli.main(call.argv + ["--output", report])
        except Exception:  # a traceback out of the CLI is a failed call
            elapsed = time.perf_counter() - start
            self.failures.append(f"{call.command}: {traceback.format_exc(limit=3)}")
            return start, elapsed, None
        elapsed = time.perf_counter() - start
        try:
            return start, elapsed, checker.check_report(call, code, report)
        except (checker.CheckError, OSError, KeyError, ValueError, TypeError) as exc:
            self.failures.append(f"{call.command}: {type(exc).__name__}: {exc}")
            return start, elapsed, None

    def timed_call(self, call, report: str):
        """``call`` and the calibration loops after it; returns (wall, scaled, result)."""
        _, elapsed, result = self.call(call, report)
        before, self.loops = self.loops, loops_after(elapsed)
        return elapsed, elapsed * REFERENCE_LOOP_S / statistics.median(before + self.loops), result

    def report_path(self, k: int) -> str:
        return os.path.join(self.workdir, f"report-{k}.json")


def set_up(runner: Runner, workload, seed: int, sizes) -> tuple[float, float, dict]:
    """Inputs of round 0 and one untimed warm-up call per command.

    Returns the set-up time since process start, raw and scaled by
    calibration loops run right after the warm-up, and the key numbers of
    the warm-up reports."""
    import checker

    rnd = workload.make_round(seed, 0, runner.workdir, sizes)
    numbers = {}
    for k, call in enumerate(rnd.calls[:2]):
        _, _, result = runner.call(call, runner.report_path(k))
        if result is not None:
            numbers[call.command] = checker.key_numbers(call.command, result)
    elapsed = time.perf_counter() - T0
    runner.loops = [calibrate() for _ in range(7)]
    return elapsed, elapsed * REFERENCE_LOOP_S / statistics.median(runner.loops), numbers


def fresh_setups(args) -> list[tuple[float, float]]:
    """(raw, scaled) set-up times of SETUPS - 1 fresh processes, one at a time."""
    times = []
    for _ in range(SETUPS - 1):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--sizes", args.sizes, "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((child["setup_wall_s"], child["setup_s"]))
    return times


def timed_rounds(runner: Runner, workload, args, sizes, on_round):
    """Rounds 1, 2, ... until ``args.seconds`` have passed (at least one)."""
    start = time.perf_counter()
    index = 1
    while True:
        rnd = workload.make_round(args.seed, index, runner.workdir, sizes)
        on_round(rnd)
        index += 1
        if time.perf_counter() - start >= args.seconds:
            return index - 1


def untraced(runner: Runner, workload, args, sizes) -> tuple[dict, dict]:
    wall: dict[int, list[float]] = {0: [], 1: []}
    scaled: dict[int, list[float]] = {0: [], 1: []}

    def on_round(rnd):
        for k, call in enumerate(rnd.calls):
            elapsed, norm, result = runner.timed_call(call, runner.report_path(k))
            if result is not None:
                wall[min(k, 1)].append(elapsed)
                scaled[min(k, 1)].append(norm)

    rounds = timed_rounds(runner, workload, args, sizes, on_round)
    setups = [(runner.setup_wall_s, runner.setup_s), *fresh_setups(args)]
    metrics = {
        "primary_s": (statistics.median(scaled[0]), "s"),
        "secondary_s": (statistics.median(scaled[1]), "s"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {
        "rounds": rounds,
        "scaled_s": {workload.primary: percentiles(scaled[0]),
                     workload.secondary: percentiles(scaled[1])},
        "wall_s": {workload.primary: percentiles(wall[0]),
                   workload.secondary: percentiles(wall[1])},
        "setup_s": {"n": len(setups), "wall": [w for w, _ in setups],
                    "scaled": [s for _, s in setups]},
    }
    return metrics, detail


# Spans whose self time the traced run reports, as a share of command
# time; each label sums the spans listed under it.
SHARE_SPANS = {
    name: [name]
    for name in (
        "cli.main",
        "scales.verify_induction_step",
        "scales.pigeonhole_sequences",
        "geometry.grid_polygon_mass",
        "geometry.grid_slab_mass",
        "quadrature.ball_inequality_report",
        "inputs.PiecewiseLinearGridFunction.evaluate",
        "inputs.GridFunction.evaluate",
        "inputs.convolve_grids",
        "nonlinear.value",
        "nonlinear.validate",
        "polynomials.evaluate",
        "polynomials.substitute_affine",
        "convext.extension_on_grid",
        "convext.surface_convolution",
        "convext.build_reduction_field",
        "ift.solve_eta",
        "datum.search_bl_constant",
    )
}
SHARE_SPANS["exterior"] = ["exterior.transversality_quantity", "exterior.cross_like"]
# Spans whose call count the traced run reports.
COUNTED_SPANS = [
    "scales.pigeonhole_sequences",
    "geometry.grid_polygon_mass",
    "geometry.grid_slab_mass",
    "quadrature.ball_inequality_report",
    "polynomials.evaluate",
    "polynomials.substitute_affine",
    "convext.surface_convolution",
    "ift.solve_eta",
]
# Work counters computed by the wrappers from arguments and return values.
COUNTERS = [
    "geometry.cells_scanned",
    "inputs.PiecewiseLinearGridFunction.evaluate.points",
    "inputs.GridFunction.evaluate.points",
    "nonlinear.value.points",
    "convext.phase_terms",
    "ift.iterations",
    "ift.points",
    "datum.search.evaluations",
]


def traced(runner: Runner, workload, args, sizes) -> tuple[dict, dict]:
    from spans import Tracer

    tracer = Tracer()
    per_round: list[dict] = []
    overheads: list[float] = []
    first: dict = {}

    def on_round(rnd):
        plain = []
        untraced_s = 0.0
        for k, call in enumerate(rnd.calls):
            _, elapsed, _ = runner.call(call, runner.report_path(k))
            untraced_s += elapsed
            plain.append(read_bytes(runner.report_path(k)))
        tracer.reset()
        traced_s = 0.0
        results = []
        with tracer:
            for k, call in enumerate(rnd.calls):
                _, elapsed, result = runner.call(call, runner.report_path(k))
                traced_s += elapsed
                results.append(result)
        for k, call in enumerate(rnd.calls):
            if read_bytes(runner.report_path(k)) != plain[k]:
                runner.failures.append(f"{call.command}: traced report differs from untraced")
        overheads.append(traced_s / untraced_s - 1.0)
        summary = tracer.summary()
        per_round.append(summary)
        if not first:
            first.update(summary=summary, counters=dict(tracer.counters),
                         report_bytes=sum(len(p or b"") for p in plain), results=results,
                         calls=rnd.calls)

    rounds = timed_rounds(runner, workload, args, sizes, on_round)

    def total_self(summary, names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    metrics = {}
    for label, names in SHARE_SPANS.items():
        shares = [total_self(s, names) / command_s(s) for s in per_round]
        metrics[f"{label}.self_share"] = (statistics.median(shares), "fraction")
    summary = first["summary"]
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = (summary.get(name, {}).get("calls", 0), "count")
    for name in COUNTERS:
        metrics[name] = (first["counters"].get(name, 0), "count")
    metrics["cli.report_bytes"] = (first["report_bytes"], "bytes")
    metrics["scales.ladder_steps"] = (ladder_steps(first["calls"], first["results"]), "count")
    conv = summary.get("convext.surface_convolution", {"calls": 0, "errors": {}})
    fields = summary.get("convext.build_reduction_field", {"calls": 0})
    metrics["convext.orderings_per_point"] = (
        fields["calls"] / conv["calls"] if conv["calls"] else 0.0, "ratio")
    metrics["convext.invalid_point_frac"] = (
        conv["errors"].get("ValidityError", 0) / conv["calls"] if conv["calls"] else 0.0,
        "fraction")
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "fraction")
    detail = {
        "rounds": rounds,
        "trace_overhead_frac": percentiles(overheads),
        "self_s_median": {
            name: statistics.median(s.get(name, {}).get("self_s", 0.0) for s in per_round)
            for name in sorted({n for s in per_round for n in s})
        },
        "calls_round_1": {name: entry["calls"] for name, entry in sorted(summary.items())},
    }
    return metrics, detail


def read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def command_s(summary: dict) -> float:
    """Traced time inside the CLI in one round: cli.main self time plus
    the self time of every span below it."""
    return sum(entry["self_s"] for entry in summary.values())


def ladder_steps(calls, results) -> int:
    """Pigeonhole steps certified by the round's decompose report."""
    return sum(
        len(seq["certificates"])
        for call, result in zip(calls, results)
        if call.command == "decompose" and result is not None
        for seq in result["sequences"]
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    import checker
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.FULL if args.sizes == "full" else workloads.TINY
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(cli, workdir)
        runner.setup_wall_s, runner.setup_s, numbers = set_up(runner, workload, args.seed, sizes)
        if args.setup_only:
            if runner.failures:
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
            print(json.dumps({"setup_wall_s": runner.setup_wall_s, "setup_s": runner.setup_s}))
            return 0
        if args.record_references:
            return record_references(args, numbers, runner)
        if args.seed == DEFAULT_SEED and args.sizes == "full":
            stored = checker.load_references().get(args.workload, {})
            runner.failures.extend(
                f"reference {p}" for p in checker.compare_references(stored, numbers))
        if args.trace:
            metrics, detail = traced(runner, workload, args, sizes)
        else:
            metrics, detail = untraced(runner, workload, args, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment(),
        error_rate=failed / runner.attempted,
        reference_checked=args.seed == DEFAULT_SEED and args.sizes == "full",
        failures=runner.failures[:10],
    )
    print(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def record_references(args, numbers: dict, runner: Runner) -> int:
    import checker

    if runner.failures or args.seed != DEFAULT_SEED or args.sizes != "full":
        print("error: references come from a clean full-size run at the default seed",
              file=sys.stderr)
        return 1
    try:
        stored = checker.load_references()
    except FileNotFoundError:
        stored = {}
    stored[args.workload] = numbers
    with open(checker.REFERENCES, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
