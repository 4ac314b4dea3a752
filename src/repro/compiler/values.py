"""Runtime tile values for the backend interpreter.

A :class:`TileVal` carries shape/dtype always and data only in numeric
mode, so the same instruction stream runs in both modes.  Elementwise
helpers implement the numpy semantics of each ``tl`` op once, shared by the
interpreter and (indirectly, through tests) by the reference kernels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


class TileVal:
    """A register tile: shape + dtype (+ data in numeric mode)."""

    __slots__ = ("shape", "dtype", "data")

    def __init__(self, shape: tuple[int, ...], dtype: np.dtype,
                 data: np.ndarray | None):
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        if data is not None and tuple(data.shape) != self.shape:
            raise ShapeError(f"TileVal data shape {data.shape} != {self.shape}")
        self.data = data

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "numeric" if self.data is not None else "stub"
        return f"<TileVal {self.shape} {self.dtype} {mode}>"

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "TileVal":
        return cls(tuple(arr.shape), arr.dtype, arr)

    @classmethod
    def stub(cls, shape: tuple[int, ...], dtype) -> "TileVal":
        return cls(shape, np.dtype(dtype), None)


def padded_to(arr: np.ndarray | None, shape: tuple[int, ...],
              dtype: np.dtype) -> np.ndarray | None:
    """Zero-pad a (possibly clamped) region up to the full tile shape.

    Mirrors Triton's masked loads: edge tiles read as zero outside bounds.
    """
    if arr is None:
        return None
    arr = np.asarray(arr, dtype=dtype)
    if tuple(arr.shape) == tuple(shape):
        return arr
    if len(arr.shape) != len(shape):
        raise ShapeError(f"cannot pad {arr.shape} to {shape}")
    out = np.zeros(shape, dtype=dtype)
    region = tuple(slice(0, min(a, b)) for a, b in zip(arr.shape, shape))
    out[region] = arr[region]
    return out


def broadcast_shapes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Numpy-style broadcast of two shapes (raises ShapeError on mismatch)."""
    try:
        return tuple(np.broadcast_shapes(a, b))
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {a} with {b}") from exc


_UNARY = {
    "exp": lambda x: np.exp(x, dtype=np.float32),
    "log": lambda x: np.log(x, dtype=np.float32),
    "relu": lambda x: np.maximum(x, 0),
    "neg": lambda x: -x,
    "silu": lambda x: (x.astype(np.float32)
                       / (1.0 + np.exp(-x.astype(np.float32)))),
    "gelu": lambda x: 0.5 * x.astype(np.float32) * (1.0 + np.tanh(
        0.7978845608028654 * (x.astype(np.float32)
                              + 0.044715 * x.astype(np.float32) ** 3))),
}

_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "maximum_tile": np.maximum,
    "minimum_tile": np.minimum,
}

#: approximate per-element FLOP cost of the vector ops (for the cost model)
ELEMENTWISE_FLOPS = {
    "exp": 8.0, "log": 8.0, "relu": 1.0, "neg": 1.0, "silu": 12.0,
    "gelu": 16.0, "add": 1.0, "sub": 1.0, "mul": 1.0, "div": 4.0,
    "maximum_tile": 1.0, "minimum_tile": 1.0, "cast": 1.0, "copy": 0.5,
    "expand_dims": 0.0, "row_max": 2.0, "row_sum": 2.0,
}


def apply_unary(op: str, x: TileVal, dtype: np.dtype | None = None
                ) -> TileVal:
    """One-operand tile op ``op`` on ``x`` (``dtype``: a cast's target)."""
    data, shape = x.data, x.shape
    if op in _UNARY:
        dtype = np.float32 if op in ("exp", "log", "silu", "gelu") \
            else x.dtype
        if data is not None:
            data = _UNARY[op](data).astype(dtype, copy=False)
    elif op in ("row_max", "row_sum"):
        if len(shape) != 2:
            raise ShapeError(f"{op} expects a 2-d tile, got {shape}")
        shape, dtype = (shape[0],), np.float32
        if data is not None:
            data = (np.max if op == "row_max" else np.sum)(
                data.astype(np.float32), axis=1)
    elif op == "expand_dims":
        shape, dtype = (*shape, 1), x.dtype
        data = None if data is None else data.reshape(shape)
    else:  # cast, copy
        dtype = dtype or x.dtype
        if data is not None:
            data = data.astype(dtype) if op == "cast" else data.copy()
    return TileVal(shape, dtype, data)


def apply_binary(op: str, a: TileVal | float, b: TileVal | float) -> TileVal:
    fn = _BINARY[op]
    av = a if isinstance(a, TileVal) else None
    bv = b if isinstance(b, TileVal) else None
    if av is None and bv is None:
        raise ShapeError("elementwise op needs at least one tile operand")
    shape = broadcast_shapes(
        av.shape if av else (), bv.shape if bv else ())
    dtype = np.result_type(
        av.dtype if av else np.float32, bv.dtype if bv else np.float32)
    numeric = all(v is None or v.data is not None for v in (av, bv))
    if numeric:
        lhs = av.data if av else a
        rhs = bv.data if bv else b
        data = fn(lhs, rhs).astype(dtype, copy=False)
        return TileVal(shape, dtype, data)
    return TileVal.stub(shape, dtype)
