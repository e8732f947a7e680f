"""The map rule: every public entry point that takes a feature map rejects a
3-d map, and a map whose channel count it knows to be wrong, with a
``ContractViolation`` naming itself and the shape. The entry points are the
rows of ``ops.OPS`` with a ``map``."""

import numpy as np
import pytest

from ops import OPS
from serpentseg.tensor import ContractViolation, Tensor


def _bad_maps():
    for op_id, row in OPS.items():
        if row.map is None:
            continue
        axis, rank_name, count_name = row.map
        shape = next(iter(row.shapes.values()))
        yield pytest.param(op_id, shape[1:], rank_name, id=f"{op_id}-3d")
        if axis is not None:
            wide = tuple(s + (i == axis) for i, s in enumerate(shape))
            yield pytest.param(op_id, wide, count_name, id=f"{op_id}-channels")


@pytest.mark.parametrize("op_id,shape,named", list(_bad_maps()))
def test_bad_map_raises_naming_callee_and_shape(op_id, shape, named):
    # unpacking a 3-d shape into four names raises a plain ValueError, which
    # is not a ContractViolation
    row = OPS[op_id]
    args = [Tensor(a) for a in row.operands(np.random.default_rng(0), np.float32)]
    args[0] = Tensor(np.zeros(shape, dtype=np.float32))
    with pytest.raises(ContractViolation) as err:
        row.call(*args)
    msg = str(err.value)
    assert msg.startswith(f"{named}: ") and str(shape) in msg, msg
