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

import io
import os
import threading
import zipfile
import zlib
from collections.abc import Mapping

import numpy as np

from .tensor import ContractViolation, Tensor, check_float, check_int, conv2d, layer_norm, linear


class Parameter(Tensor):
    """Trainable tensor of finite float32 data (``check_float``); always
    participates in the gradient tape."""

    def __init__(self, data):
        super().__init__(check_float("Parameter: data", data, np.float32), requires_grad=True)


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
        """Load values: array-likes of the parameters' shapes, bool, int or
        float, finite in the parameters' dtypes (``check_float``).

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
            value = check_float(repr(name), state[name], own[name].data.dtype)
            if value.shape != own[name].data.shape:
                raise ContractViolation(
                    f"shape mismatch for {name!r}: checkpoint {value.shape} vs model "
                    f"{own[name].data.shape}"
                )
            loaded[name] = value.copy()  # the model never shares the caller's array
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


# -- checkpoint files ----------------------------------------------------------


class CheckpointError(ValueError):
    """A state that cannot be written, or a file that is not a checkpoint."""


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    """Write ``state``, str names to numeric arrays, to ``path`` as an
    uncompressed npz: a float32 ``<name>.npy`` entry per name, in name order,
    as ``np.load(path, allow_pickle=False)`` reads it. A name or value it
    cannot write raises ``CheckpointError`` before anything is written."""
    if not isinstance(state, Mapping):
        raise CheckpointError(f"state must be a mapping of names to arrays, got "
                              f"{type(state).__name__}; nothing written")
    for name in state:
        if not isinstance(name, str):
            raise CheckpointError(f"name {name!r} is not a str; nothing written")
        if not name.isprintable():  # zipfile cuts an entry name at a NUL
            raise CheckpointError(f"name {name!r} is not printable; nothing written")
    try:  # ``load_checkpoint`` refuses non-finite values, so never write one
        arrays = {name: check_float(repr(name), state[name], np.float32) for name in sorted(state)}
    except ContractViolation as e:
        raise CheckpointError(f"{e}; nothing written") from None
    # write a sibling temp file and rename it over ``path``, so a crash or a
    # concurrent reader never sees a half-written checkpoint; the name is
    # unique per writing thread, and ``open`` keeps the umask's permissions
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            # not np.savez(fh, **arrays): it takes a name "file" as its own argument
            with zipfile.ZipFile(fh, "w") as zf:
                for name, arr in arrays.items():
                    with zf.open(f"{name}.npy", "w", force_zip64=True) as entry:
                        np.lib.format.write_array(entry, arr, allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a ``save_checkpoint`` file back: names to finite float32 arrays
    (``check_float``). A file that opens but is not one raises
    ``CheckpointError`` naming ``path`` and, where known, the entry; no entry
    is unpickled."""
    state: dict[str, np.ndarray] = {}
    where = str(path)
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                # a damaged comment length in a central-directory record makes
                # zipfile read the records after it as that comment, so count
                # the entries against the end record's total, as zipfile reads
                # it (from the zip64 end record where the count is 0xFFFF)
                total = zipfile._EndRecData(fh)[zipfile._ECD_ENTRIES_TOTAL]
                if len(zf.infolist()) != total:
                    raise zipfile.BadZipFile(f"{len(zf.infolist())} of {total} entries listed")
                for info in zf.infolist():
                    where = f"{path}: entry {info.filename!r}"
                    name = info.filename.removesuffix(".npy")
                    if name == info.filename or name in state:
                        raise CheckpointError(f"{where} is not named *.npy or repeats a name")
                    # read whole, so the CRC-32 is checked before the header is parsed
                    arr = np.lib.format.read_array(io.BytesIO(zf.read(info)), allow_pickle=False)
                    if arr.dtype != np.float32:
                        raise CheckpointError(f"{where} holds {arr.dtype}, not float32")
                    state[name] = check_float(where, arr, np.float32)
        except CheckpointError:
            raise
        except ContractViolation as e:  # ``check_float``'s, a ValueError the clause below takes
            raise CheckpointError(str(e)) from None
        # MemoryError or ValueError: a header whose shape exceeds the data
        except (zipfile.BadZipFile, EOFError, NotImplementedError, OSError, RuntimeError,
                zlib.error, ValueError, MemoryError) as e:
            raise CheckpointError(f"{where} is damaged, or not an npz of .npy arrays "
                                  f"({type(e).__name__})") from None
    return state
