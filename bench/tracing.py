"""Per-layer tracing of a ``train`` call, installed from outside the package.

A :class:`Tracer` wraps the public functions that training, evaluation and
set-up call in each ``fewshot_ibp`` module, the harness step functions and
``Tape.backward``.  Each wrapped call records a span (name, start, end,
parent) in flat arrays kept in memory; :meth:`Tracer.write` writes them once,
at the end.  Self times are derived from the spans.  Tensor primitives are
not wrapped: the tape already records them, so ``Tape.backward`` counts the
nodes it is about to walk, by op.  Python's cyclic collector is read through
``gc.callbacks``.

The modules bind names with ``from .x import f`` at import time, so a
wrapper replaces the original in every package namespace that holds it.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np

from fewshot_ibp import harness
from fewshot_ibp.tensor import Tape

PACKAGE = "fewshot_ibp"

# Spans are named "<module>.<function>"; layer functions add ".<kind>".
TRACED = {
    "harness": ("evaluate", "mean_box_width"),
    "learners": (
        "compute_prototypes",
        "cross_entropy",
        "protonet_logits",
        "maml_adapt",
        "maml_outer_step",
        "predict_accuracy",
    ),
    "bounds": ("propagate_prefix", "propagate_layer"),
    "interpolation": ("should_interpolate", "make_interpolated_task", "interpolate_batch"),
    "objective": ("bound_losses", "dynamic_weights", "total_loss"),
    "layers": ("build_network", "forward", "apply_layer"),
    "tensor": ("conv2d", "maxpool2d"),
    "optim": ("optimizer_step",),
    "episodes": ("load_dataset", "sample_task"),
    "config": ("resolve_data",),
}
STEP_FUNCTIONS = ("_protonet_step", "_maml_step")

# Fixed here, not read from the package, so the metric set stays the same.
NODE_OPS = (
    "add", "mul", "neg", "matmul", "transpose", "sum_", "reshape", "exp",
    "log", "relu", "abs_", "div", "sqrt", "conv2d", "maxpool2d",
)
LAYER_KINDS = ("fully_connected", "conv2d", "batchnorm", "relu", "maxpool2d", "flatten")
MAX_PREFIX_LAYERS = 4


def package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list[str]:
    """Names of tracing wrappers and gc callbacks still installed."""
    found = [
        f"{m.__name__}.{attr}"
        for m in package_modules()
        for attr, value in vars(m).items()
        if getattr(value, "bench_traced", None) is not None
    ]
    if getattr(vars(Tape)["backward"], "bench_traced", None) is not None:
        found.append("Tape.backward")
    found += [repr(cb) for cb in gc.callbacks if isinstance(getattr(cb, "__self__", None), Tracer)]
    return found


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        # arrays of numbers, so recording a span allocates no tracked object
        self._name = array("i")
        self._parent = array("i")
        self._in_step = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list = []
        self.steps = 0
        self._step_depth = 0
        self.nodes: dict[str, int] = {}
        self._counted = weakref.WeakKeyDictionary()  # tape -> nodes counted
        self.fired = 0
        self.trained_tasks = 0
        self.gc_gen2 = 0
        self.gc_pause_in_step = 0.0
        self._gc_t0 = 0.0
        self._box_depth = 0
        self._box_layer = 0
        self.box_width_sum = [0.0] * MAX_PREFIX_LAYERS
        self.box_width_n = [0] * MAX_PREFIX_LAYERS

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._in_step.append(self._step_depth > 0)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, before=None, after=None):
        """Span around ``fn``; ``name`` is a string or maps the layer (first
        argument) to one.  ``before()`` and ``after(result)`` keep counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            span = tracer._open(name if isinstance(name, str) else name(args[0]))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span)
                if after is not None:
                    after(result)

        wrapper.bench_traced = fn
        return wrapper

    # -- counters ---------------------------------------------------------

    def _enter_step(self):
        self.steps += 1
        self._step_depth += 1

    def _leave_step(self, _):
        self._step_depth -= 1

    def _count_fired(self, mask):
        if self._step_depth and mask is not None:
            self.fired += int(np.count_nonzero(mask))
            self.trained_tasks += int(np.size(mask))

    def _enter_box_width(self):
        self._box_depth += 1

    def _leave_box_width(self, _):
        self._box_depth -= 1

    def _enter_prefix(self):
        self._box_layer = 0

    def _layer_box(self, box):
        # boxes of mean_box_width: plain arrays, test queries after training
        if self._box_depth and box is not None:
            i = self._box_layer
            if i < MAX_PREFIX_LAYERS:
                self.box_width_sum[i] += float(np.mean(box.upper - box.lower))
                self.box_width_n[i] += 1
            self._box_layer += 1

    def _count_nodes(self, tape):
        """Nodes recorded on ``tape`` since its last backward, by op: the
        first part of the vjp's qualified name."""
        nodes = tape._nodes
        start = self._counted.get(tape, 0)
        counts = self.nodes
        for node in nodes[start:]:
            if node.vjp is not None:
                op = node.vjp.__qualname__.partition(".")[0]
                counts[op] = counts.get(op, 0) + 1
        self._counted[tape] = len(nodes)

    def _wrap_backward(self, original):
        tracer = self

        def backward(tape, loss, params, build_graph=False):
            if tracer._step_depth:
                tracer._count_nodes(tape)
            span = tracer._open("tensor.backward_graph" if build_graph else "tensor.backward")
            try:
                return original(tape, loss, params, build_graph=build_graph)
            finally:
                tracer._close(span)

        backward.bench_traced = original
        return backward

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        if info["generation"] == 2:
            self.gc_gen2 += 1
        if self._step_depth:
            self.gc_pause_in_step += time.perf_counter() - self._gc_t0

    # -- installation -----------------------------------------------------

    def _wrapper_for(self, module: str, fn_name: str, fn):
        name = f"{module}.{fn_name}"
        if fn_name in ("apply_layer", "propagate_layer"):
            by_kind = {k: f"{name}.{k}" for k in LAYER_KINDS}
            after = self._layer_box if fn_name == "propagate_layer" else None
            return self._wrap(fn, lambda layer: by_kind.get(layer.kind, name), after=after)
        if fn_name == "propagate_prefix":
            return self._wrap(fn, name, before=self._enter_prefix)
        if fn_name == "mean_box_width":
            return self._wrap(fn, name, self._enter_box_width, self._leave_box_width)
        if fn_name == "should_interpolate":
            return self._wrap(fn, name, after=self._count_fired)
        return self._wrap(fn, name)

    @contextmanager
    def installed(self):
        """Install every wrapper and the gc callback; remove them on exit."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, fn_names in TRACED.items():
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for fn_name in fn_names:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrapper_for(module, fn_name, fn))
        for fn_name in STEP_FUNCTIONS:
            fn = getattr(harness, fn_name)
            wrappers[id(fn)] = (
                fn,
                self._wrap(fn, "harness.step", self._enter_step, self._leave_step),
            )
        try:
            for mod in package_modules():
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            original = vars(Tape)["backward"]
            self._patches.append((Tape, "backward", original))
            Tape.backward = self._wrap_backward(original)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, value in reversed(self._patches):
                setattr(owner, attr, value)
            self._patches.clear()

    # -- results ----------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON line per span: name, start and end in seconds from the
        first span, and the index of the parent span (-1 for none)."""
        t0 = self._start[0] if self._start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self._start)):
                fh.write(
                    json.dumps(
                        {
                            "name": self._names[self._name[i]],
                            "start": self._start[i] - t0,
                            "end": self._end[i] - t0,
                            "parent": self._parent[i],
                        }
                    )
                    + "\n"
                )

    @property
    def span_count(self) -> int:
        return len(self._start)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``.  A layer that did
        not run reads 0.  ``us``/``ms``/``s`` metrics without ``per_step``
        are the mean inclusive time per call over the whole traced run."""
        names = np.frombuffer(self._name, dtype=np.intc)
        parent = np.frombuffer(self._parent, dtype=np.intc)
        in_step = np.frombuffer(self._in_step, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        linked = parent >= 0
        self_t = dur - np.bincount(parent[linked], weights=dur[linked], minlength=dur.size)
        steps = max(self.steps, 1)

        def mask(*span_names, step_only=False):
            ids = [self._ids[n] for n in span_names if n in self._ids]
            m = np.isin(names, ids)
            return m & in_step if step_only else m

        def mean(name, scale, values=dur):
            m = mask(name)
            return float(values[m].mean() * scale) if m.any() else 0.0

        def per_step(*span_names, values=None, scale=1.0):
            m = mask(*span_names, step_only=True)
            total = m.sum() if values is None else values[m].sum() * scale
            return float(total / steps)

        out: dict[str, tuple[float, str]] = {}
        out["tensor.backward.calls_per_step"] = (
            per_step("tensor.backward", "tensor.backward_graph"), "calls/step")
        out["tensor.backward.self_ms_per_step"] = (
            per_step("tensor.backward", values=self_t, scale=1e3), "ms/step")
        out["tensor.backward_graph.self_ms_per_step"] = (
            per_step("tensor.backward_graph", values=self_t, scale=1e3), "ms/step")
        out["tensor.nodes_per_step"] = (sum(self.nodes.values()) / steps, "nodes/step")
        for op in NODE_OPS:
            out[f"tensor.nodes.{op}"] = (self.nodes.get(op, 0) / steps, "nodes/step")
        out["tensor.conv2d.us"] = (mean("tensor.conv2d", 1e6), "us")
        out["tensor.conv2d.calls_per_step"] = (per_step("tensor.conv2d"), "calls/step")
        out["tensor.maxpool2d.us"] = (mean("tensor.maxpool2d", 1e6), "us")
        out["bounds.propagate_prefix.ms_per_step"] = (
            per_step("bounds.propagate_prefix", values=dur, scale=1e3), "ms/step")
        for kind in LAYER_KINDS:
            out[f"bounds.propagate_layer.{kind}.us"] = (
                mean(f"bounds.propagate_layer.{kind}", 1e6), "us")
        for i in range(MAX_PREFIX_LAYERS):
            n = self.box_width_n[i]
            out[f"bounds.box_width.layer{i}"] = (
                self.box_width_sum[i] / n if n else 0.0, "width")
        for kind in LAYER_KINDS:
            out[f"layers.apply_layer.{kind}.us"] = (
                mean(f"layers.apply_layer.{kind}", 1e6), "us")
        out["layers.forward.calls_per_step"] = (per_step("layers.forward"), "calls/step")
        out["layers.build_network.ms"] = (mean("layers.build_network", 1e3), "ms")
        out["config.resolve_data.ms"] = (mean("config.resolve_data", 1e3), "ms")
        out["episodes.load_dataset.ms"] = (mean("episodes.load_dataset", 1e3), "ms")
        out["episodes.sample_task.us"] = (mean("episodes.sample_task", 1e6), "us")
        out["episodes.sample_task.calls_per_step"] = (
            per_step("episodes.sample_task"), "calls/step")
        out["optim.optimizer_step.us"] = (mean("optim.optimizer_step", 1e6), "us")
        out["objective.bound_losses.us"] = (mean("objective.bound_losses", 1e6), "us")
        out["objective.dynamic_weights.us"] = (mean("objective.dynamic_weights", 1e6), "us")
        out["learners.cross_entropy.us"] = (mean("learners.cross_entropy", 1e6), "us")
        out["learners.protonet_logits.us"] = (mean("learners.protonet_logits", 1e6), "us")
        out["interpolation.interpolate_batch.us"] = (
            mean("interpolation.interpolate_batch", 1e6), "us")
        out["interpolation.fired_frac"] = (
            self.fired / self.trained_tasks if self.trained_tasks else 0.0, "fraction")
        out["learners.maml_adapt.calls_per_step"] = (
            per_step("learners.maml_adapt"), "calls/step")
        out["learners.maml_adapt.ms"] = (mean("learners.maml_adapt", 1e3), "ms")
        out["learners.maml_outer_step.ms"] = (mean("learners.maml_outer_step", 1e3), "ms")
        out["learners.predict_accuracy.us"] = (mean("learners.predict_accuracy", 1e6), "us")
        out["harness.evaluate.s"] = (float(dur[mask("harness.evaluate")].sum()), "s")
        out["harness.mean_box_width.s"] = (
            float(dur[mask("harness.mean_box_width")].sum()), "s")
        out["harness.step.self_ms"] = (mean("harness.step", 1e3, values=self_t), "ms")
        out["gc.gen2_collections"] = (float(self.gc_gen2), "count")
        out["gc.pause_ms_per_step"] = (self.gc_pause_in_step * 1e3 / steps, "ms/step")
        return out
