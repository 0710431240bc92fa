"""Span tracer for the traced benchmark run.

Every public function of a layer module, and every public method of a class
defined there, is wrapped once; the wrapper is bound at every name that held
the original across the ``torsionkit.*`` modules, because modules bind
functions by name (``cli`` binds ``rho``, ``chirality`` binds
``spectral_projector``).  A span is (function, start, end, parent span, op id,
raised); spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "torsionkit"
LAYERS = ("linalg", "chain", "cw", "chirality", "holomorphy", "spectral", "gauge",
          "schemas", "cli")


class Span(NamedTuple):
    name: str      # "<layer>.<function>" or "<layer>.<Class>.<method>"
    start: float
    end: float
    parent: int    # index of the enclosing span, -1 at the top
    op: int
    raised: bool


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - union_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_targets() -> dict[str, tuple[object, str, object]]:
    """Span name -> (owner, attribute, original) for every function to wrap.

    The owner is the defining module for functions and the class for methods.
    """
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{layer}.{name}"] = (mod, name, obj)
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out[f"{layer}.{name}.{meth}"] = (obj, meth, fn)
    return out


class Tracer:
    """Install with ``with Tracer() as t:``; set ``t.op`` before each op."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op, raised)

        return traced

    def install(self) -> None:
        targets = layer_targets()
        wrappers = {}
        for name, (owner, attr, fn) in targets.items():
            wrappers[id(fn)] = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        originals = {id(fn): fn for _, _, fn in targets.values()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if originals.get(id(value)) is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def finished(self) -> list[Span]:
        """The spans of calls that have returned or raised."""
        return [s for s in self.spans if s is not None]


# Per-layer metric groups: metric name -> span names it sums.
GROUPS = {
    "linalg.spectral_projector": ["linalg.spectral_projector"],
    "linalg.invariant_subspace": ["linalg.invariant_subspace"],
    "linalg.rank_svd": ["linalg.rank_svd"],
    "linalg.subspace": ["linalg.col_space", "linalg.null_space", "linalg.row_space",
                        "linalg.complement_in_kernel"],
    "chain.cohomology": ["chain.cohomology"],
    "chain.canonical_iso": ["chain.canonical_iso"],
    "chain.torsion_acyclic": ["chain.torsion_acyclic"],
    "chain.les_of_ses": ["chain.les_of_ses"],
    "cw.build_cochain": ["cw.build_cochain", "cw.build_relative"],
    "cw.sigma": ["cw.sigma", "cw.sigma_boundary", "cw.sigma_relative"],
    "chirality.odd_signature": ["chirality.odd_signature"],
    "chirality.spectral_split": ["chirality.spectral_split"],
    "chirality.pm_split": ["chirality.pm_split"],
    "chirality.graded_determinant": ["chirality.graded_determinant"],
    "chirality.rho": ["chirality.rho"],
    "chirality.eta_xi_finite": ["chirality.eta_xi_finite"],
    "holomorphy.cr_order": ["holomorphy.cr_order"],
    "holomorphy.section_ratio_residual": ["holomorphy.section_ratio_residual"],
    "spectral.hurwitz": ["spectral.ZetaEvaluator.hurwitz",
                         "spectral.ZetaEvaluator.hurwitz_ds"],
    "spectral.gluing_check_lesch": ["spectral.gluing_check_lesch"],
    "spectral.k_squared_holomorphy": ["spectral.k_squared_holomorphy"],
    "gauge.pure_gauge_field": ["gauge.pure_gauge_field"],
    "gauge.solve_gauge_ode": ["gauge.solve_gauge_ode"],
    "gauge.gauge_transform": ["gauge.gauge_transform"],
    "gauge.residuals": ["gauge.temporal_residual", "gauge.curvature_residual"],
    "gauge.monodromy": ["gauge.monodromy"],
}
SELF_ONLY = {"schemas.load_document": ["schemas.load_document"],
             "schemas.parse_any": ["schemas.parse_any"],
             "cli.emit_report": ["cli.emit_report"]}


def layer_metrics(spans: list[Span], n_ops: int, work: dict[str, float]) -> dict[str, float]:
    """Per-op per-layer metrics from finished spans.

    work holds totals over the traced ops: ``stages`` (RK4 stages),
    ``factors`` (monodromy factors) and ``bytes_in`` (input document bytes).
    """
    selfs = self_times(spans)
    calls, self_s, errors = defaultdict(int), defaultdict(float), defaultdict(int)
    for s, t in zip(spans, selfs):
        layer = s.name.split(".", 1)[0]
        for key in (s.name, layer):
            calls[key] += 1
            self_s[key] += t
            errors[key] += s.raised
    rho_ok = sum(1 for s in spans if s.name == "chirality.rho" and not s.raised)
    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] * per_op
        out[f"{layer}.calls"] = calls[layer] * per_op
        out[f"{layer}.errors"] = errors[layer] * per_op
    for metric, names in GROUPS.items():
        out[f"{metric}.calls"] = sum(calls[n] for n in names) * per_op
        out[f"{metric}.self_s"] = sum(self_s[n] for n in names) * per_op
    for metric, names in SELF_ONLY.items():
        out[f"{metric}.self_s"] = sum(self_s[n] for n in names) * per_op
    n_rho = calls["chirality.rho"]
    out["chirality.spectral_split_per_rho"] = (
        calls["chirality.spectral_split"] / n_rho if n_rho else 0.0)
    out["chirality.rho_ok_ratio"] = rho_ok / n_rho if n_rho else 0.0
    out["schemas.bytes_in"] = work.get("bytes_in", 0) * per_op
    stages, factors = work.get("stages", 0), work.get("factors", 0)
    out["gauge.ode_us_per_stage"] = (
        1e6 * self_s["gauge.solve_gauge_ode"] / stages if stages else 0.0)
    out["gauge.monodromy_us_per_factor"] = (
        1e6 * self_s["gauge.monodromy"] / factors if factors else 0.0)
    return out
