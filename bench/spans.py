"""Per-layer tracing of ``serpentseg`` from outside the package.

``Tracer.install`` patches, for the length of a traced run:

* ``Module.__call__`` at class level: one span per module call, named after
  the module class, with its dotted path in the model tree;
* the public op functions in every ``serpentseg`` namespace that imported
  them, plus a few methods (``Tensor.backward``, ``Adam.step``,
  ``SnakeConv2d.compute_pyramid_offsets``): one span per call;
* the backward closure each wrapped op leaves on its output: its time is a
  ``<op>.bwd`` span inside the ``backward`` span, and is also charged to
  every module class that was active when the op ran forward.

Spans stay in memory; ``uninstall`` puts every original object back.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

ELEMENTWISE = ("add", "sub", "mul", "div", "neg", "relu", "sigmoid", "tanh", "gelu",
               "exp", "log")
# (namespace, function, span stem, wrap the backward closure)
FUNCTIONS = [
    ("serpentseg.tensor", "conv2d", "conv2d", True),
    ("serpentseg.tensor", "matmul", "matmul", True),
    ("serpentseg.tensor", "linear", "linear", True),
    ("serpentseg.tensor", "depthwise_conv3x3", "depthwise_conv3x3", True),
    ("serpentseg.tensor", "upsample_bilinear", "upsample_bilinear", True),
    ("serpentseg.tensor", "max_pool2", "max_pool2", True),
    ("serpentseg.tensor", "layer_norm", "layer_norm", True),
    *[("serpentseg.tensor", f, "elementwise", True) for f in ELEMENTWISE],
    ("serpentseg.dsconv", "chain_coordinates", "chain_coordinates", False),
    ("serpentseg.dsconv", "grid_sample_points", "grid_sample_points", True),
    ("serpentseg.dsconv", "chain_contract", "chain_contract", True),
    ("serpentseg.model", "combined_loss", "combined_loss", False),
    ("serpentseg.metrics", "confusion_counts", "confusion_counts", False),
    ("serpentseg.metrics", "hausdorff", "hausdorff", False),
]
# (namespace, class, method, span name)
METHODS = [
    ("serpentseg.dsconv", "SnakeConv2d", "compute_pyramid_offsets",
     "compute_pyramid_offsets.fwd"),
    ("serpentseg.tensor", "Tensor", "backward", "backward"),
    ("serpentseg.model", "Adam", "step", "Adam.step"),
]


def _fwd_bwd(prefix: str, stem: str) -> dict:
    return {f"{prefix}.{stem}.fwd_s": ("s", ("span", f"{stem}.fwd")),
            f"{prefix}.{stem}.bwd_s": ("s", ("span", f"{stem}.bwd"))}


def _module(prefix: str, cls: str) -> dict:
    """Forward: the module's own spans; backward: closures charged to it."""
    return {f"{prefix}.{cls}.fwd_s": ("s", ("span", f"{cls}.fwd")),
            f"{prefix}.{cls}.bwd_s": ("s", ("module_bwd", cls))}


# per-layer metric name -> (unit, (kind, key)); every time is per op
LAYER_METRICS: dict[str, tuple[str, tuple[str, str]]] = {
    **_module("dsconv", "SnakeConv2d"),
    "dsconv.compute_pyramid_offsets.fwd_s": ("s", ("span", "compute_pyramid_offsets.fwd")),
    "dsconv.chain_coordinates.fwd_s": ("s", ("span", "chain_coordinates.fwd")),
    **_fwd_bwd("dsconv", "grid_sample_points"),
    **_fwd_bwd("dsconv", "chain_contract"),
    **_fwd_bwd("tensor", "conv2d"),
    "tensor.conv2d.calls": ("count", ("count", "conv2d.calls")),
    "tensor.conv2d.gflop": ("GFLOP", ("count", "conv2d.gflop")),
    "tensor.conv2d.im2col_mib": ("MiB", ("count", "conv2d.im2col_mib")),
    **_fwd_bwd("tensor", "matmul"),
    **_fwd_bwd("tensor", "linear"),
    **_fwd_bwd("tensor", "depthwise_conv3x3"),
    **_fwd_bwd("tensor", "upsample_bilinear"),
    **_fwd_bwd("tensor", "max_pool2"),
    **_fwd_bwd("tensor", "layer_norm"),
    **_fwd_bwd("tensor", "elementwise"),
    "tensor.backward.s": ("s", ("span", "backward")),
    "tensor.backward.nodes": ("count", ("count", "backward.nodes")),
    "tensor.backward.other_s": ("s", ("self", "backward")),
    "tensor.mem.fwd_peak_mib": ("MiB", ("mem", "fwd_peak_mib")),
    "tensor.mem.after_fwd_mib": ("MiB", ("mem", "after_fwd_mib")),
    "tensor.mem.bwd_peak_mib": ("MiB", ("mem", "bwd_peak_mib")),
    **_module("encoders", "SnakeEncoder"),
    **_module("encoders", "SnakeBlock"),
    **_module("encoders", "MixTransformerEncoder"),
    **_module("encoders", "EfficientSelfAttention"),
    **_module("encoders", "MixFFN"),
    **_module("attention", "WeightedChannelAttention"),
    **_module("attention", "SpatialAttention"),
    **_module("model", "FusionStage"),
    "model.combined_loss.fwd_s": ("s", ("span", "combined_loss.fwd")),
    "model.Adam.step_s": ("s", ("span", "Adam.step")),
    "metrics.confusion_counts.s": ("s", ("span", "confusion_counts.fwd")),
    "metrics.hausdorff.s": ("s", ("span", "hausdorff.fwd")),
    "trace.op_s": ("s", ("run", "op_s")),
    "trace.overhead_frac": ("ratio", ("run", "overhead_frac")),
    "trace.reconcile_frac": ("ratio", ("run", "reconcile_frac")),
}


def _named_modules(root, prefix="model"):
    yield prefix, root
    for name, child in root._modules.items():
        yield from _named_modules(child, f"{prefix}.{name}")


def _count_nodes(root) -> int:
    """Tape nodes with a backward closure reachable from ``root``."""
    seen, stack, n = {id(root)}, [root], 0
    while stack:
        t = stack.pop()
        n += t._backward is not None
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return n


class Tracer:
    """Span recorder; one per traced run, single-threaded."""

    def __init__(self, model=None):
        # span: [name, module path, start, end, parent index, nested in same name]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._active: Counter = Counter()
        self._modules: list[str] = []
        self.module_bwd: Counter = Counter()
        self.counts: Counter = Counter()
        self._paths = {id(m): p for p, m in _named_modules(model)} if model is not None else {}
        self._undo: list[tuple[object, str, object]] = []

    # -- span plumbing --------------------------------------------------------

    def _enter(self, name: str, path: str = "") -> int:
        idx = len(self.spans)
        self.spans.append([name, path, perf_counter(), 0.0,
                           self._open[-1] if self._open else -1, self._active[name] > 0])
        self._open.append(idx)
        self._active[name] += 1
        return idx

    def _exit(self, idx: int) -> float:
        span = self.spans[idx]
        span[3] = perf_counter()
        self._open.pop()
        self._active[span[0]] -= 1
        return span[3] - span[2]

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                           else getattr(owner, name)))
        setattr(owner, name, value)

    def _timed_closure(self, closure, stem: str):
        modules = set(self._modules)

        def run(g):
            idx = self._enter(f"{stem}.bwd")
            try:
                closure(g)
            finally:
                dur = self._exit(idx)
                for m in modules:
                    self.module_bwd[m] += dur
        return run

    def _wrap_function(self, fn, stem: str, closure: bool):
        tensor_cls = sys.modules["serpentseg.tensor"].Tensor
        conv_sig = inspect.signature(fn) if stem == "conv2d" else None

        def wrapped(*args, **kwargs):
            if conv_sig is not None:
                self._count_conv(conv_sig.bind(*args, **kwargs).arguments)
            idx = self._enter(f"{stem}.fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if closure and isinstance(out, tensor_cls) and out._backward is not None:
                out._backward = self._timed_closure(out._backward, stem)
            return out
        return wrapped

    def _count_conv(self, a) -> None:
        n, cin, h, w = a["x"].data.shape
        cout, _, k, _ = a["weight"].data.shape
        stride, pad = a.get("stride", 1), a.get("padding", 0)
        rows = n * ((h + 2 * pad - k) // stride + 1) * ((w + 2 * pad - k) // stride + 1)
        self.counts["conv2d.calls"] += 1
        self.counts["conv2d.gflop"] += 2.0 * rows * cin * k * k * cout / 1e9
        self.counts["conv2d.im2col_mib"] += \
            rows * cin * k * k * a["x"].data.itemsize / 2.0 ** 20

    def install(self) -> None:
        from serpentseg.module import Module
        self._set(Module, "__call__", self._module_call(Module.__call__))
        for ns, cls, meth, span in METHODS:
            owner = getattr(importlib.import_module(ns), cls)
            self._set(owner, meth, self._method(owner.__dict__[meth], span))
        targets = {}
        for ns, fname, stem, closure in FUNCTIONS:
            fn = getattr(importlib.import_module(ns), fname)
            targets[id(fn)] = self._wrap_function(fn, stem, closure)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "serpentseg":
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets and callable(obj):
                    self._set(mod, name, targets[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _module_call(self, original):
        def call(mod, *args, **kwargs):
            cls = type(mod).__name__
            idx = self._enter(f"{cls}.fwd", self._paths.get(id(mod), cls))
            self._modules.append(cls)
            try:
                return original(mod, *args, **kwargs)
            finally:
                self._modules.pop()
                self._exit(idx)
        return call

    def _method(self, original, span: str):
        def method(obj, *args, **kwargs):
            idx = self._enter(span)
            try:
                return original(obj, *args, **kwargs)
            finally:
                self._exit(idx)
                if span == "backward":
                    self.counts["backward.nodes"] += _count_nodes(obj)
        return method

    # -- results ------------------------------------------------------------------

    def covered(self) -> float:
        """Sum of all self times, which is the time the top-level spans cover."""
        return sum(s[3] - s[2] for s in self.spans if s[4] < 0)

    def totals(self) -> tuple[dict, dict]:
        """(inclusive time, self time) per span name over the whole run."""
        incl, child = defaultdict(float), defaultdict(float)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        own = defaultdict(float)
        for i, s in enumerate(self.spans):
            dur = s[3] - s[2]
            own[s[0]] += dur - child[i]
            if not s[5]:
                incl[s[0]] += dur
        return dict(incl), dict(own)

    def layer_metrics(self, n_ops: int, mem: dict, run: dict) -> dict[str, float]:
        """Every LAYER_METRICS value: traced times and counts per op, ``mem``
        and ``run`` as given."""
        incl, own = self.totals()
        per_op = {"span": incl, "self": own, "module_bwd": self.module_bwd,
                  "count": self.counts}
        out = {}
        for name, (_, (kind, key)) in LAYER_METRICS.items():
            if kind in per_op:
                out[name] = float(per_op[kind].get(key, 0.0)) / n_ops
            else:
                out[name] = float({"mem": mem, "run": run}[kind].get(key, 0.0))
        return out

    def write(self, path) -> None:
        """Dump every span as JSON lines: name, module path, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:5]) + "\n")
