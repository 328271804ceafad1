"""Seeded input generators for the four benchmark workloads.

Each workload turns ``(seed, index)`` into the JSON inputs and ``blt``
argument lists of one *round*: one call of the workload's primary command
followed by a fixed number of calls of its secondary command.  Every round
of a run gets fresh inputs drawn from the run seed and the round index, so
no two timed calls repeat an input; the same seed always gives the same
rounds.  The program only ever sees the JSON files and the argument lists.

Sizes are fixed per workload, so the cost of a round depends on the seed
only through input values, never through problem size.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from blt.datum import ProjectionScheme, bl_constant_classC, projection_datum, transform_datum
from blt.scales import compute_delta0


@dataclass
class Call:
    """One ``blt`` invocation: the subcommand, its arguments (without
    ``--output``) and what the checker needs to judge its report."""

    command: str
    argv: list[str]
    context: dict = field(default_factory=dict)


@dataclass
class Round:
    primary: Call
    secondary: list[Call]

    @property
    def calls(self) -> list[Call]:
        return [self.primary, *self.secondary]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one workload; the smoke tests shrink them."""

    # induction
    grid_cells: int = 16
    step_resolution: int = 64
    max_cells: int = 512
    decompose_calls: int = 3
    # bridge / bridge-curved
    flat_resolution: int = 256
    flat_halfwidth: float = 45.0
    curved_resolution: int = 8
    density_cells: int = 8
    extension_calls: int = 8
    convolution_calls: int = 8
    # linear
    ball_count: int = 8
    search_budget: int = 10_000


FULL = Sizes()
TINY = Sizes(
    grid_cells=8,
    step_resolution=8,
    max_cells=16,
    decompose_calls=2,
    flat_resolution=32,
    flat_halfwidth=12.0,
    curved_resolution=2,
    extension_calls=2,
    convolution_calls=2,
    ball_count=3,
    search_budget=2000,
)

# Loomis-Whitney projections and the flagship quadratic perturbation
# (c = 0.3), canonical at the origin.
LW_MAPS = [
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
]
LW_PERTURBATION = [
    [[(0, 0, 2)], [(1, 1, 0)]],
    [[(0, 0, 2)], [(1, 0, 1)]],
    [[(0, 2, 0)], [(1, 1, 0)]],
]
FLAGSHIP = {"beta": 1.0, "kappa": 1.0, "alpha0": 1.25, "alpha1": 1.5}
PERTURBATION = 0.3

# Block sizes of the direct-sum data searched by gaussian-search, by d.
SEARCH_BLOCKS = {3: [1, 1, 1], 4: [2, 1, 1], 5: [2, 2, 1]}


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def _write(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _grid(origin, spacing: float, values: np.ndarray) -> dict:
    return {
        "origin": [float(o) for o in origin],
        "spacing": float(spacing),
        "values": values.tolist(),
    }


def flagship_maps() -> list[dict]:
    rows = []
    for proj, pert in zip(LW_MAPS, LW_PERTURBATION):
        rows.append(
            {
                "d": 3,
                "beta": FLAGSHIP["beta"],
                "kappa": FLAGSHIP["kappa"],
                "rows": [
                    {"linear": lin, "terms": [{"powers": list(k), "c": PERTURBATION} for k in keys]}
                    for lin, keys in zip(proj, pert)
                ],
            }
        )
    return rows


def flagship_grid(projection, side: float, rng: np.random.Generator, cells: int) -> tuple:
    """Positive grid covering the image of the cube of the given side at
    the origin, log-values a normalised random walk (neighbour ratio <= 2),
    the construction of the test suite's ``l1m_grid_for_map``."""
    J = np.asarray(projection, dtype=float)
    halfw = np.abs(J).sum(axis=1) * side / 2.0 * 1.5
    spacing = float(2.0 * halfw.max() / cells)
    origin = np.floor(-halfw / spacing) * spacing
    shape = tuple(int(np.ceil(2 * halfw[a] / spacing)) + 1 for a in range(len(halfw)))
    u = rng.standard_normal(shape)
    for axis in range(u.ndim):
        u = np.cumsum(u, axis=axis)
    u = 0.3 * (u - u.mean()) / max(1e-12, np.abs(u).max())
    return origin, spacing, np.exp(u)


def induction_round(seed: int, index: int, workdir: str, sizes: Sizes) -> Round:
    """verify-step on one flagship input, decompose on that input and on
    ``decompose_calls - 1`` more, so the cheap command gets samples too."""
    params = compute_delta0(FLAGSHIP["beta"], FLAGSHIP["kappa"], FLAGSHIP["alpha0"],
                            FLAGSHIP["alpha1"], 3, 3)
    rng = _rng(seed, index, 0)
    paths = []
    for k in range(sizes.decompose_calls):
        grids = [flagship_grid(p, params.delta0, rng, sizes.grid_cells) for p in LW_MAPS]
        payload = {
            "maps": flagship_maps(),
            "params": dict(FLAGSHIP, M=1.0 / max(g[1] for g in grids)),
            "inputs": [_grid(*g) for g in grids],
        }
        paths.append(_write(workdir, f"scales-{index}-{k}.json", payload))
    run_seed = str(int(rng.integers(1, 2**31)))
    return Round(
        Call("verify-step", ["verify-step", "--input", paths[0], "--seed", run_seed,
                             "--resolution", str(sizes.step_resolution)]),
        [Call("decompose", ["decompose", "--input", path, "--seed", run_seed,
                            "--max-cells", str(sizes.max_cells)])
         for path in paths],
    )


def _surface(lo: float, hi: float, terms: list[tuple[int, float]], density: np.ndarray) -> dict:
    spacing = (hi - lo) / density.size
    return {
        "U": {"lo": [lo], "hi": [hi]},
        "phi": {"terms": [{"powers": [p], "c": c} for p, c in terms]},
        "beta": 1.0,
        "kappa": 2.5,
        "values": _grid([lo], spacing, density),
    }


def bridge_round(seed: int, index: int, workdir: str, sizes: Sizes) -> Round:
    """Two transversal flat lines (slopes +-1 on [-1, 1]) with seeded
    piecewise-constant densities in [0.8, 1.2]."""
    rng = _rng(seed, index, 1)
    surfaces = [
        _surface(-1.0, 1.0, [(1, slope)], rng.uniform(0.8, 1.2, sizes.density_cells))
        for slope in (1.0, -1.0)
    ]
    path = _write(workdir, f"flat-{index}.json", {"surfaces": surfaces})
    primary = Call(
        "verify-thm74",
        ["verify-thm74", "--input", path, "--resolution", str(sizes.flat_resolution),
         "--freq-halfwidth", repr(sizes.flat_halfwidth)],
        {"flat": True},
    )
    secondary = []
    for k in range(sizes.extension_calls):
        xi = rng.uniform(-sizes.flat_halfwidth, sizes.flat_halfwidth, 2)
        ext = _write(workdir, f"ext-{index}-{k}.json",
                     dict(surfaces[k % 2], xi=[float(v) for v in xi]))
        secondary.append(Call("extension", ["extension", "--input", ext, "--resolution", "1024"]))
    return Round(primary, secondary)


def bridge_curved_round(seed: int, index: int, workdir: str, sizes: Sizes) -> Round:
    """Two curved quadratic graphs phi = +-x + 0.5 x^2 on [-0.05, 0.05]
    with seeded densities in [0.8, 1.2]."""
    rng = _rng(seed, index, 2)
    surfaces = [
        _surface(-0.05, 0.05, [(1, slope), (2, 0.5)],
                 rng.uniform(0.8, 1.2, sizes.density_cells))
        for slope in (1.0, -1.0)
    ]
    path = _write(workdir, f"curved-{index}.json", {"surfaces": surfaces})
    primary = Call(
        "verify-thm74",
        ["verify-thm74", "--input", path, "--resolution", str(sizes.curved_resolution)],
        {"flat": False},
    )
    secondary = []
    for k in range(sizes.convolution_calls):
        # a point of the joint support: y = graph_0(x0) + graph_1(x1)
        x0, x1 = rng.uniform(-0.04, 0.04, 2)
        y = [x0 + x1, (x0 + 0.5 * x0**2) + (-x1 + 0.5 * x1**2)]
        conv = _write(workdir, f"conv-{index}-{k}.json",
                      {"surfaces": surfaces, "y": [float(v) for v in y]})
        secondary.append(Call("convolve-surfaces", ["convolve-surfaces", "--input", conv],
                              {"preimage": (float(x0), float(x1))}))
    return Round(primary, secondary)


def _well_conditioned(rng: np.random.Generator, k: int, max_cond: float = 8.0) -> np.ndarray:
    while True:
        M = rng.standard_normal((k, k))
        s = np.linalg.svd(M, compute_uv=False)
        if s[0] / s[-1] < max_cond:
            return M


def search_datum(rng: np.random.Generator, d: int) -> tuple[dict, float]:
    """Direct-sum datum, the coordinate-projection datum of fixed block
    sizes intertwined by seeded well-conditioned matrices, and its
    closed-form constant."""
    base = projection_datum(ProjectionScheme(d, SEARCH_BLOCKS[d]))
    C = _well_conditioned(rng, d)
    Cj = [_well_conditioned(rng, B.shape[0]) for B in base.maps]
    datum, _ = transform_datum(base, C, Cj)
    payload = {"d": d, "maps": [B.tolist() for B in datum.maps], "p": datum.p.tolist()}
    return payload, bl_constant_classC(datum)


def linear_round(seed: int, index: int, workdir: str, sizes: Sizes) -> Round:
    """ball-check on seeded Loomis-Whitney grids, then gaussian-search once
    for each d in 3..5, so every round holds the same mix of search sizes."""
    rng = _rng(seed, index, 3)
    lw = {"d": 3, "maps": LW_MAPS, "p": [0.5, 0.5, 0.5]}
    ball = {
        "datum": lw,
        "f": [_grid([0.0, 0.0], 1.0, rng.uniform(0.5, 1.5, (4, 4))) for _ in range(3)],
        "fprime": [_grid([0.0, 0.0], 1.0, rng.uniform(0.5, 1.5, (4, 4))) for _ in range(3)],
        "x_grid": {"lo": [0.0] * 3, "hi": [float(sizes.ball_count - 1)] * 3,
                   "count": sizes.ball_count},
    }
    ball_path = _write(workdir, f"ball-{index}.json", ball)
    run_seed = str(int(rng.integers(1, 2**31)))
    searches = []
    for d in SEARCH_BLOCKS:
        datum, constant = search_datum(rng, d)
        path = _write(workdir, f"datum-{index}-{d}.json", datum)
        searches.append(Call("gaussian-search", ["gaussian-search", "--input", path, "--seed",
                                                 run_seed, "--budget", str(sizes.search_budget)],
                             {"constant": constant}))
    return Round(Call("ball-check", ["ball-check", "--input", ball_path, "--seed", run_seed]),
                 searches)


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    primary: str
    secondary: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("induction", induction_round, "verify-step", "decompose"),
        Workload("bridge", bridge_round, "verify-thm74", "extension"),
        Workload("bridge-curved", bridge_curved_round, "verify-thm74", "convolve-surfaces"),
        Workload("linear", linear_round, "ball-check", "gaussian-search"),
    )
}
