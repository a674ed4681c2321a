"""Spans recorded around calls into kgstab's modules, from outside them.

A `Tracer` replaces a function in the namespace its caller looks it up
in with a wrapper that records one span per call: name, start, end,
parent span and run id.  Spans stay in memory until the run ends.  The
per-layer metrics are computed from the spans of one run id:

- `<layer>.s`     time inside the layer, counting nested calls once and
                  leaving out the tracer's own bookkeeping spans;
- `<layer>.self_s` that time minus the part its child spans cover;
- `<layer>.calls` the number of calls.

A target that no longer exists (a later refactor moved or renamed it)
is recorded as absent, and every metric built from it is left out.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from statistics import median, median_low


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)


def _fill_nnz(lu) -> dict:
    return {"fill_nnz": int(lu.L.nnz + lu.U.nnz)}


def _steps(record) -> dict:
    return {"steps": int(record.steps)}


# (span name, module, attribute, annotate).  Each function is wrapped in
# the namespace its caller looks it up in: `cli` imports the elliptic and
# potentials entry points by name, the other modules call through module
# globals or module attributes.
TARGETS = (
    ("cli.parse_scenario_dict", "kgstab.cli", "parse_scenario_dict", None),
    ("potentials.find_critical_point", "kgstab.cli", "find_critical_point", None),
    ("grids.neg_laplacian", "kgstab.grids", "neg_laplacian", None),
    ("elliptic.solve_limit_ground_state", "kgstab.cli", "solve_limit_ground_state", None),
    ("elliptic.continue_profile", "kgstab.cli", "continue_profile", None),
    ("elliptic.resolve_at_omega", "kgstab.stability", "resolve_at_omega", None),
    ("elliptic.splu", "kgstab.elliptic", "splu", _fill_nnz),
    ("stability.slope_numeric", "kgstab.stability", "slope_numeric", None),
    ("spectrum.assemble_L", "kgstab.spectrum", "assemble_L", None),
    ("spectrum.eig_low", "kgstab.spectrum", "eig_low", None),
    ("spectrum.eigsh", "kgstab.spectrum", "eigsh", None),
    ("dynamics.evolve", "kgstab.dynamics", "evolve", _steps),
    ("dynamics.sample", "kgstab.dynamics", "energy", None),
    ("dynamics.sample", "kgstab.dynamics", "charge", None),
    ("dynamics.sample", "kgstab.dynamics", "orbital_distance", None),
    ("io.write", "kgstab.io", "write_report", None),
    ("io.write", "kgstab.io", "write_csv", None),
    ("io.write", "kgstab.io", "trajectory_to_csv", None),
)

# metric name -> (span name, kind); kinds are s, self_s, calls or an attr
LAYER_METRICS = {
    "cli.parse_scenario_dict.s": ("cli.parse_scenario_dict", "s"),
    "potentials.find_critical_point.s": ("potentials.find_critical_point", "s"),
    "grids.neg_laplacian.s": ("grids.neg_laplacian", "s"),
    "grids.neg_laplacian.calls": ("grids.neg_laplacian", "calls"),
    "elliptic.solve_limit_ground_state.s": ("elliptic.solve_limit_ground_state", "s"),
    "elliptic.solve_limit_ground_state.calls": ("elliptic.solve_limit_ground_state", "calls"),
    "elliptic.continue_profile.s": ("elliptic.continue_profile", "s"),
    "elliptic.continue_profile.self_s": ("elliptic.continue_profile", "self_s"),
    "elliptic.continue_profile.calls": ("elliptic.continue_profile", "calls"),
    "elliptic.resolve_at_omega.s": ("elliptic.resolve_at_omega", "s"),
    "elliptic.resolve_at_omega.calls": ("elliptic.resolve_at_omega", "calls"),
    "elliptic.splu.s": ("elliptic.splu", "s"),
    "elliptic.splu.calls": ("elliptic.splu", "calls"),
    "elliptic.splu.fill_nnz": ("elliptic.splu", "fill_nnz"),
    "stability.slope_numeric.s": ("stability.slope_numeric", "s"),
    "stability.slope_numeric.calls": ("stability.slope_numeric", "calls"),
    "spectrum.assemble_L.s": ("spectrum.assemble_L", "s"),
    "spectrum.eig_low.s": ("spectrum.eig_low", "s"),
    "spectrum.eig_low.calls": ("spectrum.eig_low", "calls"),
    "spectrum.eigsh.s": ("spectrum.eigsh", "s"),
    "spectrum.eigsh.calls": ("spectrum.eigsh", "calls"),
    "dynamics.evolve.s": ("dynamics.evolve", "s"),
    "dynamics.evolve.self_s": ("dynamics.evolve", "self_s"),
    "dynamics.steps": ("dynamics.evolve", "steps"),
    "dynamics.sample.s": ("dynamics.sample", "s"),
    "dynamics.sample.calls": ("dynamics.sample", "calls"),
    "io.write.s": ("io.write", "s"),
}

# Spans that are bookkeeping of the tracer itself, not program work.
BOOKKEEPING = "trace.annotate"


class Tracer:
    """Records spans around the wrapped targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.run = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, start: float, end: float, attrs: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, start, end, parent, self.run, attrs or {})
        self.spans.append(s)
        return s

    def _wrap(self, name, fn, annotate):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            span = tracer.span(name, time.perf_counter(), float("nan"))
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                t0 = time.perf_counter()
                span.attrs.update(annotate(result))
                tracer.span(BOOKKEEPING, t0, time.perf_counter())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, modname, attr, annotate in self.targets:
            try:
                module = importlib.import_module(modname)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, annotate))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - covered(k for k in kids if k[1] > k[0])
    return out


def layer_metrics(spans: list[Span], absent=frozenset()) -> dict[str, float]:
    """The LAYER_METRICS of one run's spans; absent layers are left out."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    notes = [(s.start, s.end) for s in spans if s.name == BOOKKEEPING]

    def busy(s: Span) -> float:
        # the tracer's own bookkeeping inside a span is not the layer's time
        inside = sum(max(0.0, min(b, s.end) - max(a, s.start)) for a, b in notes)
        return (s.end - s.start) - inside

    def outermost(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                return False
            p = by_id[p].parent
        return True

    out: dict[str, float] = {}
    for metric, (name, kind) in LAYER_METRICS.items():
        if name in absent:
            continue
        mine = [s for s in spans if s.name == name]
        top = [s for s in mine if outermost(s)]
        if kind == "s":
            out[metric] = sum(busy(s) for s in top)
        elif kind == "self_s":
            out[metric] = sum(selfs[s.id] for s in top)
        elif kind == "calls":
            out[metric] = len(mine)
        else:
            out[metric] = sum(s.attrs.get(kind, 0) for s in mine)
    if "dynamics.evolve" not in absent:
        self_s = out["dynamics.evolve.self_s"]
        out["dynamics.steps_per_s"] = out["dynamics.steps"] / self_s if self_s > 0 else 0.0
    return out


def median_metrics(per_run: list[dict]) -> dict[str, float]:
    """Median of each metric over runs; counts stay whole numbers."""
    out = {}
    for k in per_run[0]:
        vals = [m[k] for m in per_run]
        out[k] = median_low(vals) if isinstance(vals[0], int) else median(vals)
    return out
