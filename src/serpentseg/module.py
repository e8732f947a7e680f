"""Parameter containers, standard layers, and checkpoint I/O.

A module's parameters and submodules are its public attributes; there is no
other registration. Parameter names are the attribute paths through the
module tree ("enc.dsc.0.fuse.weight"), listed in the order the attributes
were first assigned, depth first. They must be unique and are the keys of
the checkpoint file. Iterating a module yields its child modules in that
same order; a sequence of modules is numbered attributes ``"0"``, ``"1"``,
... set with ``setattr``.
"""
from __future__ import annotations

import math
import os
import struct
import threading
from collections.abc import Mapping

import numpy as np

from .tensor import ContractViolation, Tensor, check_int, conv2d, layer_norm, linear


class Parameter(Tensor):
    """Trainable tensor; always participates in the gradient tape."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)


class Module:
    """Base class: public ``Parameter`` and ``Module`` attributes form the tree."""

    @property
    def _modules(self) -> dict[str, "Module"]:
        """The child modules, in assignment order."""
        return {name: v for name, v in vars(self).items()
                if not name.startswith("_") and isinstance(v, Module)}

    def __iter__(self):
        return iter(self._modules.values())

    def named_parameters(self, prefix: str = ""):
        for name, v in vars(self).items():
            if name.startswith("_"):
                continue
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(v, Parameter):
                yield path, v
            elif isinstance(v, Module):
                yield from v.named_parameters(path)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {}
        for name, p in self.named_parameters():
            if name in state:
                raise ContractViolation(f"duplicate parameter name {name!r}")
            state[name] = p.data.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Load values: finite array-likes of the parameters' shapes, bool, int or float.

        Every value is converted and checked before any is assigned, so a
        failed load leaves the model unchanged.
        """
        if not isinstance(state, Mapping):
            raise ContractViolation(f"state must be a mapping of names to arrays, "
                                    f"got {type(state).__name__}")
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise ContractViolation(
                f"state mismatch: missing={missing[:3]} extra={extra[:3]}"
            )
        loaded = {}
        for name in sorted(own):
            try:
                src = np.asarray(state[name])
            except (TypeError, ValueError) as e:
                raise ContractViolation(f"{name!r} is not a numeric array: {e}") from None
            if src.dtype.kind not in "biuf":
                raise ContractViolation(f"{name!r} is not a numeric array: dtype {src.dtype}")
            if src.shape != own[name].data.shape:
                raise ContractViolation(
                    f"shape mismatch for {name!r}: checkpoint {src.shape} vs model "
                    f"{own[name].data.shape}"
                )
            with np.errstate(over="ignore"):  # a value out of the dtype's range is refused below
                loaded[name] = src.astype(own[name].data.dtype)
            if not np.isfinite(loaded[name]).all():
                raise ContractViolation(f"{name!r} has NaN or Inf values as {loaded[name].dtype}")
        for name, value in loaded.items():
            own[name].data = value

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _uniform(rng: np.random.Generator, shape, bound: float) -> np.ndarray:
    if not isinstance(rng, np.random.Generator):
        raise ContractViolation(f"rng must be a np.random.Generator, got {type(rng).__name__}")
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Conv2d(Module):
    """Square-kernel 'same' convolution layer (``conv2d``: padding k // 2,
    output side ceil(side / stride)); fan-in uniform init."""

    def __init__(self, cin: int, cout: int, k: int, stride: int = 1, *,
                 rng: np.random.Generator):
        for name, value in (("cin", cin), ("cout", cout), ("k", k)):
            check_int(f"Conv2d: {name}", value, 1)
        self.stride = stride
        bound = 1.0 / np.sqrt(cin * k * k)
        self.weight = Parameter(_uniform(rng, (cout, cin, k, k), bound))
        self.bias = Parameter(_uniform(rng, (cout,), bound))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride)


class Linear(Module):
    def __init__(self, cin: int, cout: int, *, rng: np.random.Generator):
        check_int("Linear: cin", cin, 1)
        check_int("Linear: cout", cout, 1)
        bound = 1.0 / np.sqrt(cin)
        self.weight = Parameter(_uniform(rng, (cout, cin), bound))
        self.bias = Parameter(_uniform(rng, (cout,), bound))

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, c: int):
        check_int("LayerNorm: c", c, 1)
        self.gain = Parameter(np.ones(c, dtype=np.float32))
        self.shift = Parameter(np.zeros(c, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift)


# -- checkpoint file format ----------------------------------------------------
#
# magic "SPT1" | u32 entry count | per entry (sorted by name):
#   u32 name length | name UTF-8 | u32 rank | rank*u32 dims | f32-LE values

MAGIC = b"SPT1"


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    """Write ``state``, str names to numeric arrays, to ``path``; a name or
    value it cannot write raises ``CheckpointError`` before anything is written."""
    if not isinstance(state, Mapping):
        raise CheckpointError(f"state must be a mapping of names to arrays, got "
                              f"{type(state).__name__}; nothing written")
    for name in state:
        if not isinstance(name, str):
            raise CheckpointError(f"name {name!r} is not a str; nothing written")
    chunks = [MAGIC, struct.pack("<I", len(state))]
    for name in sorted(state):
        try:
            arr = np.asarray(state[name])
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{name!r} is not a numeric array ({e}); nothing written") \
                from None
        # as ``load_state_dict`` reads values: a complex one would lose its imaginary part
        if arr.dtype.kind not in "biuf":
            raise CheckpointError(f"{name!r} is not a numeric array: dtype {arr.dtype}; "
                                  f"nothing written")
        arr = np.ascontiguousarray(arr, dtype="<f4")
        # ``load_checkpoint`` refuses non-finite values, so never write one
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite value in {name!r}; nothing written")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    # write a sibling temp file and rename it over ``path``, so a crash or a
    # concurrent reader never sees a half-written checkpoint; the name is
    # unique per writing thread, and ``open`` keeps the umask's permissions
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"truncated checkpoint at byte {pos} (need {n} more)")
        out = blob[pos:pos + n]
        pos += n
        return out

    if take(4) != MAGIC:
        raise CheckpointError("bad magic at byte 0")
    (count,) = struct.unpack("<I", take(4))
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        at = pos
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"name is not UTF-8 at byte {at + e.start}") from None
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        size = math.prod(dims)
        at = pos
        vals = np.frombuffer(take(4 * size), dtype="<f4").reshape(dims)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise CheckpointError(
                f"non-finite value in {name!r} at byte {at + 4 * int(bad[0])}")
        state[name] = vals.astype(np.float32)
    if pos != len(blob):
        raise CheckpointError(f"trailing bytes at byte {pos}")
    return state
