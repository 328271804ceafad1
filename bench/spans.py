"""Span tracing from outside the program, for the traced benchmark run.

``Tracer`` replaces chosen ``blt`` functions and methods with wrappers
that record a span (name, start, end, parent) per call plus work counts
taken from arguments and return values.  Modules import functions by
name (``blt.scales`` calls its own binding of ``grid_polygon_mass``), so
a module-level function is replaced in every ``blt`` module that binds
it; methods are replaced on their class.  Wrappers exist only inside
``with tracer:`` and the originals are restored on exit.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    error: str | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out


def _points(arg) -> int:
    return int(np.atleast_2d(np.asarray(arg)).shape[0]) if arg is not None else 0


def _positive_cells(values) -> int:
    return int(np.count_nonzero(np.asarray(values) > 0))


@dataclass
class Target:
    """A function to wrap: ``owner`` is a module name or ``module:Class``.

    ``count`` maps (args, kwargs, result) to {counter: amount}; it runs
    only after a successful call.
    """

    owner: str
    attr: str
    span: str
    count: object = None


def _phase_terms(args, kwargs, result):
    surface, _, Xi, u_res = args[:4]
    return {"convext.phase_terms": int(np.asarray(Xi).shape[0]) * int(u_res) ** surface.base_dim}


TARGETS = [
    Target("blt.cli", "main", "cli.main"),
    Target("blt.scales", "verify_induction_step", "scales.verify_induction_step"),
    Target("blt.scales", "pigeonhole_sequences", "scales.pigeonhole_sequences"),
    Target("blt.geometry", "grid_polygon_mass", "geometry.grid_polygon_mass",
           lambda a, k, r: {"geometry.cells_scanned": _positive_cells(a[0])}),
    Target("blt.geometry", "grid_slab_mass", "geometry.grid_slab_mass",
           lambda a, k, r: {"geometry.cells_scanned": _positive_cells(a[0])}),
    Target("blt.quadrature", "ball_inequality_report", "quadrature.ball_inequality_report"),
    Target("blt.inputs:PiecewiseLinearGridFunction", "evaluate",
           "inputs.PiecewiseLinearGridFunction.evaluate",
           lambda a, k, r: {"inputs.PiecewiseLinearGridFunction.evaluate.points": _points(a[1])}),
    Target("blt.inputs:GridFunction", "evaluate", "inputs.GridFunction.evaluate",
           lambda a, k, r: {"inputs.GridFunction.evaluate.points": _points(a[1])}),
    Target("blt.inputs", "convolve_grids", "inputs.convolve_grids"),
    Target("blt.nonlinear:NonlinearMapFamily", "value", "nonlinear.value",
           lambda a, k, r: {"nonlinear.value.points": _points(a[1])}),
    Target("blt.nonlinear:NonlinearMapFamily", "validate", "nonlinear.validate"),
    Target("blt.polynomials:Polynomial", "evaluate", "polynomials.evaluate"),
    Target("blt.polynomials:Polynomial", "substitute_affine", "polynomials.substitute_affine"),
    Target("blt.convext", "extension_on_grid", "convext.extension_on_grid", _phase_terms),
    Target("blt.convext", "surface_convolution", "convext.surface_convolution"),
    Target("blt.convext", "build_reduction_field", "convext.build_reduction_field"),
    Target("blt.ift", "solve_eta", "ift.solve_eta",
           lambda a, k, r: {"ift.iterations": int(r.iterations), "ift.points": int(r.eta.size)}),
    Target("blt.datum", "search_bl_constant", "datum.search_bl_constant",
           lambda a, k, r: {"datum.search.evaluations": int(r.evaluations)}),
    Target("blt.exterior", "transversality_quantity", "exterior.transversality_quantity"),
    Target("blt.exterior", "cross_like", "exterior.cross_like"),
]


@dataclass
class Tracer:
    targets: list[Target] = field(default_factory=lambda: list(TARGETS))
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, fn, target: Target):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(target.span, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if target.count is not None:
                for key, amount in target.count(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if (name == "blt" or name.startswith("blt.")) and m is not None]
        for target in self.targets:
            module_name, _, cls_name = target.owner.partition(":")
            module = sys.modules[module_name]
            if cls_name:
                cls = getattr(module, cls_name)
                original = inspect.getattr_static(cls, target.attr)
                self._replace(cls, target.attr, original, self._wrap(original, target))
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(original, target)
            for mod in modules:
                if mod.__dict__.get(target.attr) is original:
                    self._replace(mod, target.attr, original, wrapper)
        return self

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total self time and error counts."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "errors": {}})
            entry["calls"] += 1
            entry["self_s"] += own
            if span.error is not None:
                entry["errors"][span.error] = entry["errors"].get(span.error, 0) + 1
        return out
