"""Parameter containers, standard layers, and checkpoint I/O.

Parameter names are path-like ("enc.dsc.0.fuse.weight") and come from the
attribute path through the module tree; they must be unique and are the keys
of the checkpoint file.
"""
from __future__ import annotations

import struct

import numpy as np

from .tensor import ContractViolation, Tensor, conv2d, layer_norm, linear


class Parameter(Tensor):
    """Trainable tensor; always participates in the gradient tape."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)


class Module:
    """Base class tracking parameters and submodules by attribute name."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if not name.startswith("_"):
            if isinstance(value, Parameter):
                self._params[name] = value
            elif isinstance(value, Module):
                self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, p: Parameter) -> Parameter:
        """Register under an explicit (possibly dotted) name."""
        self._params[name] = p
        return p

    def register_module(self, name: str, m: "Module") -> "Module":
        self._modules[name] = m
        return m

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (f"{prefix}.{name}" if prefix else name), p
        for name, m in self._modules.items():
            sub = f"{prefix}.{name}" if prefix else name
            yield from m.named_parameters(sub)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {}
        for name, p in self.named_parameters():
            if name in state:
                raise ContractViolation(f"duplicate parameter name {name!r}")
            state[name] = p.data.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]):
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise ContractViolation(
                f"state mismatch: missing={missing[:3]} extra={extra[:3]}"
            )
        for name in sorted(own):
            src = state[name]
            if tuple(src.shape) != tuple(own[name].data.shape):
                raise ContractViolation(
                    f"shape mismatch for {name!r}: checkpoint {src.shape} vs model "
                    f"{own[name].data.shape}"
                )
            own[name].data = src.astype(own[name].data.dtype).copy()

    def set_dtype(self, dtype):
        """Switch parameter precision in place (float64 for gradient checks)."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self._items = []
        for m in mods:
            self.append(m)

    def append(self, m: Module):
        self.register_module(str(len(self._items)), m)
        self._items.append(m)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def __len__(self):
        return len(self._items)


def _uniform(rng: np.random.Generator, shape, bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Conv2d(Module):
    """Square-kernel convolution layer; fan-in uniform init."""

    def __init__(self, cin: int, cout: int, k: int, stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.stride = stride
        self.padding = padding
        bound = 1.0 / np.sqrt(cin * k * k)
        self.weight = Parameter(_uniform(rng, (cout, cin, k, k), bound))
        self.bias = Parameter(_uniform(rng, (cout,), bound))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Linear(Module):
    def __init__(self, cin: int, cout: int, rng: np.random.Generator | None = None,
                 bias: bool = True):
        super().__init__()
        bound = 1.0 / np.sqrt(cin)
        self.weight = Parameter(_uniform(rng, (cout, cin), bound))
        if bias:
            self.bias = Parameter(_uniform(rng, (cout,), bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, c: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gain = Parameter(np.ones(c, dtype=np.float32))
        self.shift = Parameter(np.zeros(c, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift, eps=self.eps)


# -- checkpoint file format ----------------------------------------------------
#
# magic "SPT1" | u32 entry count | per entry (sorted by name):
#   u32 name length | name UTF-8 | u32 rank | rank*u32 dims | f32-LE values

MAGIC = b"SPT1"


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<I", len(state))]
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name], dtype="<f4")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


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
        name = take(nlen).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        size = int(np.prod(dims)) if dims else 1
        vals = np.frombuffer(take(4 * size), dtype="<f4").reshape(dims)
        state[name] = vals.astype(np.float32).copy()
    if pos != len(blob):
        raise CheckpointError(f"trailing bytes at byte {pos}")
    return state
