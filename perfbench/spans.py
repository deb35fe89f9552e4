"""Traced-run mode: wrap the library's public functions and constructors in
spans and counters, then reduce the spans to per-layer self times.

A probe is installed wherever its target is bound: on the class for
methods and constructors, and in every bvmsheaf module that imported a
function by name (e.g. bridge.is_separated), so internal calls are seen too.
Spans stay in memory (name, start, end, parent) and are written out at the
end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    module: str             # bvmsheaf submodule holding the target
    target: str             # "func", "Class.method", or "Class.make" (staticmethod)
    span: str | None        # self-time metric name, or None for count only
    count: str | None = None
    outermost: bool = False  # recursive functions: one span per outermost call
    tally: Callable | None = None  # (counters, result) -> None


def _tally_formulas(counts, rep):
    counts["bvm.formulas_checked"] += rep.formulas_checked


def _tally_antichains(counts, rep):
    counts["bvm.antichains_checked"] += rep.antichains_checked


PROBES = (
    Probe("balg", "BoolAlg.__init__", "balg.algebra_build_s", "balg.algebra_builds"),
    Probe("balg", "Elem.__and__", None, "balg.elem_ops"),
    Probe("balg", "Elem.__or__", None, "balg.elem_ops"),
    Probe("balg", "Elem.__invert__", None, "balg.elem_ops"),
    Probe("balg", "Elem.__le__", None, "balg.elem_ops"),
    Probe("topo", "FinTop.__init__", "topo.space_build_s", "topo.space_builds"),
    Probe("topo", "FinPoset.__init__", "topo.poset_build_s", "topo.poset_builds"),
    Probe("topo", "RoAlgebra.__init__", "topo.ro_algebra_s", "topo.ro_algebra_builds"),
    Probe("topo", "FinTop.regularize", "topo.regularize_s", "topo.regularize_calls"),
    Probe("topo", "FinPoset.refinements", None, "topo.refinements_calls"),
    Probe("topo", "boolean_completion", "topo.boolean_completion_s"),
    Probe("logic", "parse", "logic.parse_s", "logic.parse_calls"),
    Probe("bvm", "eval_formula", "bvm.eval_formula_s", "bvm.eval_formula_calls",
          outermost=True),
    Probe("bvm", "satisfies", "bvm.satisfies_s", outermost=True),
    Probe("bvm", "closed_pool", "bvm.closed_pool_s"),
    Probe("bvm", "is_full", "bvm.is_full_s", tally=_tally_formulas),
    Probe("bvm", "has_mixing", "bvm.has_mixing_s", tally=_tally_antichains),
    Probe("bvm", "validate", "bvm.validate_s"),
    Probe("sheaf", "Presheaf.make", "sheaf.presheaf_build_s", "sheaf.presheaf_builds"),
    Probe("sheaf", "is_separated", "sheaf.is_separated_s", "sheaf.is_separated_calls"),
    Probe("sheaf", "is_topological_sheaf", "sheaf.is_topological_sheaf_s"),
    Probe("sheaf", "lambda1", "sheaf.lambda1_s"),
    Probe("sheaf", "gamma0", "sheaf.gamma_s"),
    Probe("sheaf", "gamma1", "sheaf.gamma_s"),
    Probe("sheaf", "gamma_half", "sheaf.gamma_s"),
    Probe("sheaf", "sheafify", "sheaf.sheafify_s"),
    Probe("bridge", "L", "bridge.L_s", "bridge.L_calls"),
    Probe("bridge", "R", "bridge.R_s", "bridge.R_calls"),
    Probe("bridge", "adjunction_witness", "bridge.adjunction_witness_s"),
    Probe("bridge", "mixing_iff_sheaf", "bridge.mixing_iff_sheaf_s"),
    Probe("bridge", "mixify", "bridge.mixify_s"),
    Probe("bridge", "fullness_via_sections", "bridge.fullness_via_sections_s"),
    Probe("jsonio", "load_workspace", "jsonio.load_workspace_s"),
    Probe("cli", "_dispatch", "cli.dispatch_s"),
)

# Spans recorded outside any probe: the cli child's import of the package.
EXTRA_SPANS = ("cli.import_s",)
TALLIES = ("bvm.formulas_checked", "bvm.antichains_checked")
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.glue_s")


def layer_metrics() -> dict:
    """Every per-layer metric name with its unit, in a stable order."""
    out = {}
    for p in PROBES:
        if p.count:
            out[p.count] = "count"
        if p.span:
            out[p.span] = "s"
    out.update({name: "s" for name in EXTRA_SPANS})
    out.update({name: "count" for name in TALLIES})
    out.update({name: "s" for name in TRACE_METRICS})
    return out


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured elsewhere."""
        self.span_name.append(self._id(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)

    def self_times(self) -> Counter:
        """Self time per span name: duration minus the child spans inside."""
        out = Counter()
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            d = self.end[i] - self.start[i]
            if self.parent[i] >= 0:
                child[self.parent[i]] += d
        for i in range(len(self.start)):
            out[self.names[self.span_name[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def merge(self, other: dict) -> None:
        """Fold in the spans and counters a child process dumped."""
        base = len(self.start)
        for name_id, s, e, p in zip(other["span_name"], other["start"],
                                    other["end"], other["parent"]):
            self.span_name.append(self._id(other["names"][name_id]))
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + base if p >= 0 else -1)
        self.counts.update(other["counts"])

    def to_json(self) -> dict:
        return {"names": self.names, "span_name": list(self.span_name),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent), "counts": dict(self.counts)}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


def _wrap(tracer: Tracer, probe: Probe, fn):
    counts = tracer.counts
    count, span, tally = probe.count, probe.span, probe.tally
    if span is None:
        def counted(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)
        return counted

    depth = [0]

    def spanned(*args, **kwargs):
        if count:
            counts[count] += 1
        if probe.outermost and depth[0]:
            return fn(*args, **kwargs)
        depth[0] += 1
        idx = tracer.open(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            depth[0] -= 1
        if tally:
            tally(counts, out)
        return out
    return spanned


def install(tracer: Tracer) -> None:
    """Install every probe on the imported bvmsheaf modules."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "bvmsheaf" or name.startswith("bvmsheaf."))]
    for probe in PROBES:
        owner = sys.modules[f"bvmsheaf.{probe.module}"]
        if "." in probe.target:
            cls_name, attr = probe.target.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(_wrap(tracer, probe, raw.__func__)))
            else:
                setattr(cls, attr, _wrap(tracer, probe, raw))
            continue
        original = getattr(owner, probe.target)
        wrapped = _wrap(tracer, probe, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def per_layer(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metric values of a traced run."""
    selfs = tracer.self_times()
    out = {}
    for name, unit in layer_metrics().items():
        out[name] = (float(selfs.get(name, 0.0)) if unit == "s"
                     else int(tracer.counts.get(name, 0)))
    covered = sum(selfs.values())
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.glue_s"] = traced_wall - covered
    return out
