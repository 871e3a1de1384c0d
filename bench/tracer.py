"""Per-layer tracing for the btcomplex benchmark, from outside the package.

A Tracer wraps the public functions of the btcomplex layer modules (plus a
few named methods and private CLI helpers) for the duration of a ``with``
block, in the defining module and in every btcomplex module that imported the
same object with ``from ... import``.  Nothing under ``src/`` is edited.

Two passes, never combined:

* ``Tracer("spans")`` times every wrapped call.  A span's self time is its
  duration minus the time of the spans it called directly; a layer's self time
  is the sum over its spans.  The padics layer is not wrapped here, so its
  time stays inside the calling layer's self time.
* ``Tracer("counts")`` only counts: calls per wrapped function, padics
  operations, distinct restriction transitions and registry sizes.  Counts
  are deterministic for a fixed job list and seed.

Aggregates (not individual spans) are kept in memory and returned by
``snapshot()``; the grid workload makes millions of calls per pass.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("projline", "tree", "orbits", "chains", "cli")
# Private CLI helpers that make up "serialize": JSON encoding and writing.
EXTRA_FUNCTIONS = {"cli": ("_dump", "_emit")}
# Methods traced like functions: (module, class, method, span name).
METHODS = (("projline", "Ball", "subset", "projline.subset"),)
# Methods only counted, in the counts pass: metric -> (module, class, method).
COUNTED_METHODS = {
    "padics.mul_calls": ("padics", "PadicNum", "__mul__"),
    "padics.add_calls": ("padics", "PadicNum", "__add__"),
    "padics.inverse_calls": ("padics", "PadicNum", "inverse"),
    "padics.nums_built": ("padics", "PadicNum", "__init__"),
    "projline.gl2_built": ("projline", "GL2", "__init__"),
}


def _modules():
    pkg = importlib.import_module("btcomplex")
    mods = {name: importlib.import_module(f"btcomplex.{name}") for name in ("padics",) + LAYERS}
    return pkg, mods


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
            yield name, obj


class Tracer:
    """Install with ``with Tracer(mode) as t:``; read ``t.snapshot()`` after."""

    def __init__(self, mode: str):
        if mode not in ("spans", "counts"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.calls = defaultdict(int)  # span name -> calls
        self.inclusive = defaultdict(float)  # span name -> outermost-call seconds
        self.layer_self = defaultdict(float)  # layer -> self seconds
        self.sizes = defaultdict(int)
        self.cells = {metric: [0] for metric in COUNTED_METHODS}
        self.transitions = 0
        self.nonidentity = 0
        self._job_transitions = set()
        self._stack = []  # per open span: seconds spent in direct children
        self._depth = defaultdict(int)
        self._undo = []

    # -- installation ----------------------------------------------------------

    def __enter__(self):
        pkg, mods = _modules()
        holders = [pkg, *mods.values()]
        for layer in LAYERS:
            mod = mods[layer]
            names = dict(_public_functions(mod))
            for extra in EXTRA_FUNCTIONS.get(layer, ()):
                names[extra] = getattr(mod, extra)
            for name, fn in names.items():
                wrapped = self._wrap(f"{layer}.{name}", layer, fn)
                for holder in holders:
                    if vars(holder).get(name) is fn:
                        self._patch(holder, name, wrapped)
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, meth, self._wrap(span, layer, vars(cls)[meth]))
        if self.mode == "counts":
            for metric, (layer, cls_name, meth) in COUNTED_METHODS.items():
                cls = getattr(mods[layer], cls_name)
                self._patch(cls, meth, _count_into(self.cells[metric], vars(cls)[meth]))
        return self

    def __exit__(self, *exc):
        while self._undo:
            holder, name, orig = self._undo.pop()
            setattr(holder, name, orig)
        return False

    def _patch(self, holder, name, new):
        self._undo.append((holder, name, vars(holder)[name]))
        setattr(holder, name, new)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name, layer, fn):
        post = self._post_hook(name)
        if self.mode == "counts":
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if post is not None:
                    post(args, out)
                return out

            return counted
        return self._span(name, layer, fn)

    def _span(self, name, layer, fn):
        calls, inclusive, layer_self = self.calls, self.inclusive, self.layer_self
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def spanned(*args, **kwargs):
            calls[name] += 1
            depth[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                layer_self[layer] += dt - children
                if stack:
                    stack[-1] += dt
                depth[name] -= 1
                if not depth[name]:
                    inclusive[name] += dt

        return spanned

    def _post_hook(self, name):
        if self.mode != "counts":
            return None
        if name == "chains.restrict":
            return self._on_restrict
        if name == "orbits.build_registry":
            return self._on_registry
        if name == "chains.verify_exactness":
            return self._on_verify
        return None

    def _on_restrict(self, args, out):
        f, target = args
        if target != f.ball:
            self.nonidentity += 1
            key = (f.ball, target)
            if key not in self._job_transitions:
                self._job_transitions.add(key)
                self.transitions += 1

    def _on_registry(self, args, reg):
        self.sizes["vertex_records"] += sum(1 for _ in reg.all_vertex_records())
        self.sizes["edge_records"] += sum(1 for _ in reg.all_edge_records())
        self.sizes["minimal_records"] += len(reg.minimal_records())
        self.sizes["r"] += len(reg.nonmin_order)

    def _on_verify(self, args, report):
        self.sizes["dim_C1"] += report["dims"]["C1"]

    def begin_job(self):
        """Distinct transitions are counted per job (one registry, one degree)."""
        self._job_transitions = set()

    # -- results -------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "mode": self.mode,
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "layer_self_s": dict(self.layer_self),
            "sizes": dict(self.sizes),
            "counted": {metric: cell[0] for metric, cell in self.cells.items()},
            "restrict_transitions": self.transitions,
            "restrict_nonidentity_calls": self.nonidentity,
        }


def _count_into(cell, fn):
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted


def merge(snapshots) -> dict:
    """Sum snapshots of one mode (for example one per CLI job process)."""
    out = {}
    for snap in snapshots:
        for key, val in snap.items():
            if isinstance(val, dict):
                acc = out.setdefault(key, {})
                for k, v in val.items():
                    acc[k] = acc.get(k, 0) + v
            elif isinstance(val, str):
                out[key] = val
            else:
                out[key] = out.get(key, 0) + val
    return out


def layer_metrics(spans: dict, counts: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one spans and one counts
    snapshot of the same job list.  Values are (value, unit) pairs."""
    calls = counts.get("calls", {})
    incl = spans.get("inclusive_s", {})
    self_s = spans.get("layer_self_s", {})
    sizes = counts.get("sizes", {})
    counted = counts.get("counted", {})
    nonid = counts.get("restrict_nonidentity_calls", 0)
    trans = counts.get("restrict_transitions", 0)
    m = {metric: (counted.get(metric, 0), "count") for metric in COUNTED_METHODS}
    m["projline.subset_calls"] = (calls.get("projline.subset", 0), "count")
    m["projline.ball_image_calls"] = (calls.get("projline.moebius_ball_image", 0), "count")
    m["projline.ball_image_s"] = (incl.get("projline.moebius_ball_image", 0.0), "s")
    m["projline.ball_cells_calls"] = (calls.get("projline.ball_cells", 0), "count")
    m["projline.ball_cells_s"] = (incl.get("projline.ball_cells", 0.0), "s")
    m["tree.map_path_calls"] = (calls.get("tree.map_path", 0), "count")
    m["tree.map_path_s"] = (incl.get("tree.map_path", 0.0), "s")
    for fn in ("build_registry", "verify_counts", "check_partition"):
        m[f"orbits.{fn}_s"] = (incl.get(f"orbits.{fn}", 0.0), "s")
    for key in ("vertex_records", "edge_records", "minimal_records", "r"):
        m[f"orbits.{key}"] = (sizes.get(key, 0), "count")
    m["chains.restrict_calls"] = (calls.get("chains.restrict", 0), "count")
    m["chains.restrict_nonidentity_calls"] = (nonid, "count")
    m["chains.restrict_transitions"] = (trans, "count")
    m["chains.restrict_repeat_ratio"] = (1 - trans / nonid if nonid else 0.0, "ratio")
    for metric, fn in (("restrict", "restrict"), ("partial1", "partial1"), ("partial0", "partial0"),
                       ("kernel_lift", "kernel_lift"), ("assemble", "assemble_dbar1"),
                       ("verify", "verify_exactness")):
        m[f"chains.{metric}_s"] = (incl.get(f"chains.{fn}", 0.0), "s")
    m["chains.dim_C1"] = (sizes.get("dim_C1", 0), "count")
    m["cli.run_s"] = (incl.get("cli.run", 0.0), "s")
    m["cli.serialize_s"] = (
        sum(incl.get(f"cli.{fn}", 0.0) for fn in ("registry_json", "_dump", "_emit")), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return m
