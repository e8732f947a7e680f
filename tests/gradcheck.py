"""Finite-difference verification of the package's analytic gradients: a
test harness that imports ``serpentseg`` (``oracles`` imports nothing of it).

Checks run in float64 with central differences (h = 1e-4) so truncation noise
stays far below the 1e-3 gate; float32 production dtype is restored afterward.
The scalar loss is a fixed-seed random weighting of the output, which keeps
cancellation from hiding sign or transpose bugs (a plain sum has zero gradient
through softmax rows, for instance).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from serpentseg.module import Module
from serpentseg.tensor import Tensor, no_grad


def set_dtype(module: Module, dtype) -> Module:
    """Switch ``module``'s parameter precision in place (float64 for checks)."""
    for p in module.parameters():
        p.data = p.data.astype(dtype)
    return module


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst: str
    passed: bool
    failures: list[str] = field(default_factory=list)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"{status}: max relative error {self.max_rel_error:.3e} at {self.worst}"


def _rel_err(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-2)


def grad_check(module: Module, inputs, tolerance: float = 1e-3, h: float = 1e-4,
               loss_seed: int = 0, max_coords_per_tensor: int | None = None) -> GradCheckReport:
    """Compare tape gradients against central differences.

    ``inputs`` is one array or a sequence of arrays fed to ``module.forward``.
    All parameters and all input elements are checked unless
    ``max_coords_per_tensor`` caps the per-tensor coordinate count (used for
    whole-model sweeps where exhaustive probing would be too slow).
    """
    if isinstance(inputs, np.ndarray):
        inputs = [inputs]
    set_dtype(module, np.float64)
    try:
        # C-ordered copies: each input is perturbed in place through a flat view
        in_tensors = [Tensor(np.array(a, dtype=np.float64, order="C"), requires_grad=True)
                      for a in inputs]
        probe_rng = np.random.default_rng(loss_seed)
        weights_cache: dict[tuple, np.ndarray] = {}

        def loss_value(record: bool):
            out = module(*in_tensors)
            key = out.data.shape
            if key not in weights_cache:
                weights_cache[key] = probe_rng.standard_normal(key)
            w = Tensor(weights_cache[key])
            return (out * w).sum() if record else float((out.data * w.data).sum())

        loss = loss_value(record=True)
        loss.backward()

        targets = [(name, p) for name, p in module.named_parameters()]
        targets += [(f"input[{i}]", t) for i, t in enumerate(in_tensors)]

        failures: list[str] = []
        worst_err, worst_name = 0.0, "(none)"
        sample_rng = np.random.default_rng(loss_seed + 1)
        for name, t in targets:
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            if not np.all(np.isfinite(analytic)):
                failures.append(f"non-finite analytic gradient in {name}")
                continue
            flat = t.data.reshape(-1)
            coords = np.arange(flat.size)
            if max_coords_per_tensor is not None and flat.size > max_coords_per_tensor:
                coords = np.sort(sample_rng.choice(flat.size, max_coords_per_tensor,
                                                   replace=False))
            aflat = analytic.reshape(-1)
            for idx in coords:
                orig = flat[idx]
                flat[idx] = orig + h
                with no_grad():
                    up = loss_value(record=False)
                flat[idx] = orig - h
                with no_grad():
                    down = loss_value(record=False)
                flat[idx] = orig
                numeric = (up - down) / (2.0 * h)
                err = float(_rel_err(np.float64(aflat[idx]), np.float64(numeric)))
                if err > worst_err:
                    worst_err, worst_name = err, f"{name}[{idx}]"
        passed = worst_err <= tolerance and not failures
        return GradCheckReport(worst_err, worst_name, passed, failures)
    finally:
        set_dtype(module, np.float32)


class FunctionModule(Module):
    """Wrap a plain tensor function so grad_check can drive it."""

    def __init__(self, fn):
        self.fn = fn

    def forward(self, *xs):
        return self.fn(*xs)
