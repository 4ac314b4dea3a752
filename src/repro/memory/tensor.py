"""Device-resident tensors for the simulated node.

:class:`SimTensor` pairs a shape/dtype with an owning rank and — in numeric
mode — a backing numpy array.  In timing mode (benchmarks at paper scale)
no array is materialized: shape arithmetic and byte counts still work, but
reads/writes are no-ops.  All kernels run the same instruction stream in
both modes, so tests exercise exactly the code benchmarks time.

Tile accessors use half-open element ranges per dimension and clamp to the
tensor bounds (ragged edge tiles), mirroring Triton's masked loads/stores.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

#: Accepted dtype aliases -> numpy dtype.
_DTYPES = {
    "float16": np.float16,
    "float32": np.float32,
    "int32": np.int32,
    "int64": np.int64,
}


def resolve_dtype(dtype: str | np.dtype | type) -> np.dtype:
    if isinstance(dtype, str):
        if dtype not in _DTYPES:
            raise ShapeError(f"unsupported dtype {dtype!r}")
        return np.dtype(_DTYPES[dtype])
    return np.dtype(dtype)


class SimTensor:
    """An n-d tensor living on one simulated rank."""

    __slots__ = ("name", "shape", "dtype", "rank", "data")

    def __init__(self, name: str, shape: tuple[int, ...], dtype: str | np.dtype,
                 rank: int, data: np.ndarray | None = None):
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in self.shape):
            raise ShapeError(f"negative dimension in shape {shape}")
        self.dtype = resolve_dtype(dtype)
        self.rank = rank
        if data is not None:
            if tuple(data.shape) != self.shape:
                raise ShapeError(
                    f"backing array shape {data.shape} != tensor shape {self.shape}"
                )
            data = np.ascontiguousarray(data, dtype=self.dtype)
        self.data = data

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zeros(cls, name: str, shape: tuple[int, ...], dtype: str | np.dtype,
              rank: int, materialize: bool = True) -> "SimTensor":
        data = np.zeros(shape, dtype=resolve_dtype(dtype)) if materialize else None
        return cls(name, shape, dtype, rank, data)

    @classmethod
    def from_array(cls, name: str, array: np.ndarray, rank: int) -> "SimTensor":
        return cls(name, tuple(array.shape), array.dtype, rank, array)

    # -- metadata ----------------------------------------------------------------

    @property
    def materialized(self) -> bool:
        return self.data is not None

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        return self.size * self.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mat = "" if self.materialized else " (timing-only)"
        return f"<SimTensor {self.name} {self.shape} {self.dtype} rank={self.rank}{mat}>"

    # -- tile access -----------------------------------------------------------

    def _slices(self, ranges: tuple[tuple[int, int], ...]) -> tuple[slice, ...]:
        if len(ranges) != len(self.shape):
            raise ShapeError(
                f"{self.name}: got {len(ranges)} ranges for {len(self.shape)}-d tensor"
            )
        out = []
        for (lo, hi), dim in zip(ranges, self.shape):
            if lo < 0 or hi < lo:
                raise ShapeError(f"{self.name}: bad range [{lo}, {hi})")
            out.append(slice(min(lo, dim), min(hi, dim)))
        return tuple(out)

    def tile_bytes(self, ranges: tuple[tuple[int, int], ...]) -> int:
        """Bytes actually covered by a (clamped) tile."""
        slices = self._slices(ranges)
        n = 1
        for sl in slices:
            n *= max(0, sl.stop - sl.start)
        return n * self.itemsize

    def read_tile(self, ranges: tuple[tuple[int, int], ...]) -> np.ndarray | None:
        """Copy out a tile (None in timing mode)."""
        if self.data is None:
            return None
        return self.data[self._slices(ranges)].copy()

    def write_tile(self, ranges: tuple[tuple[int, int], ...],
                   value: np.ndarray | None) -> None:
        """Write a tile; silently no-ops in timing mode."""
        if self.data is None:
            return
        if value is None:
            raise ShapeError(f"{self.name}: writing None tile in numeric mode")
        slices = self._slices(ranges)
        region = self.data[slices]
        self.data[slices] = np.asarray(value, dtype=self.dtype)[
            tuple(slice(0, s.stop - s.start) for s in slices)
        ] if value.shape != region.shape else value.astype(self.dtype, copy=False)

    def accumulate_tile(self, ranges: tuple[tuple[int, int], ...],
                        value: np.ndarray | None) -> None:
        """Add into a tile (reduction epilogues); no-op in timing mode."""
        if self.data is None:
            return
        if value is None:
            raise ShapeError(f"{self.name}: accumulating None tile in numeric mode")
        slices = self._slices(ranges)
        region = self.data[slices]
        add = np.asarray(value)
        if add.shape != region.shape:
            add = add[tuple(slice(0, s.stop - s.start) for s in slices)]
        self.data[slices] = (region.astype(np.float32) + add.astype(np.float32)
                             ).astype(self.dtype)

    def gather_rows(self, ids: np.ndarray, cols: tuple[int, int]
                    ) -> np.ndarray:
        """Rows ``ids`` (clamped into range) of the columns ``cols``."""
        ids = np.clip(ids.astype(np.int64), 0, self.shape[0] - 1)
        return self.data[ids, cols[0]:cols[1]].astype(self.dtype)

    def scatter_add_rows(self, ids: np.ndarray, cols: tuple[int, int],
                         value: np.ndarray) -> None:
        """Add the rows of ``value`` into rows ``ids`` of the columns
        ``cols`` (repeated ids accumulate)."""
        if ids.max(initial=-1) >= self.shape[0] or ids.min(initial=0) < 0:
            raise ShapeError(f"scatter_add_rows index out of range on "
                             f"{self.name}")
        np.add.at(self.data[:, cols[0]:cols[1]], ids[:value.shape[0]],
                  value[:len(ids)].astype(self.dtype))

    def read_scalar(self, index: int) -> int:
        """One element of the flattened tensor, as a Python int."""
        flat = self.data.reshape(-1)
        if not 0 <= index < flat.shape[0]:
            raise ShapeError(f"load_scalar index {index} out of range "
                             f"({self.name}, {self.size} elements)")
        return int(flat[index])

    def numpy(self) -> np.ndarray:
        """The full backing array (raises in timing mode)."""
        if self.data is None:
            raise ShapeError(f"{self.name} is timing-only; no data to return")
        return self.data
