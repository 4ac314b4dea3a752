"""NVSHMEM-like symmetric heap across the simulated ranks.

The paper's runtime allocates tensors and barriers in NVSHMEM symmetric
memory so any rank can address a peer's buffer by (symbol, rank) — Figure 7
("NVSHMEM init / Alloc SHMEM / ... / Free SHMEM").  :class:`SymmetricHeap`
reproduces that contract: :meth:`alloc` creates one identically-shaped
tensor per rank under a shared name.  The kernel backend
(``tl.tile_push_data``/``tl.tile_pull_data``) and the host's
``rank_copy_data`` move tiles between these tensors: a write lands at
link arrival and a pull reads its source at issue, so an unguarded read
of a peer buffer observes stale data exactly like real hardware would.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import RuntimeLaunchError, ShapeError
from repro.memory.signals import SignalArray
from repro.memory.tensor import SimTensor, resolve_dtype
from repro.sim.machine import Machine


class SymmetricHeap:
    """Per-name, per-rank tensor and signal allocations."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._tensors: dict[str, list[SimTensor]] = {}
        self._signals: dict[str, list[SignalArray]] = {}

    # -- allocation ---------------------------------------------------------------

    def alloc(self, name: str, shape: tuple[int, ...], dtype: str | np.dtype,
              fill: float | None = 0.0) -> list[SimTensor]:
        """Allocate a symmetric tensor: one instance per rank.

        ``fill=None`` leaves numeric-mode data uninitialised garbage
        (Gaussian noise seeded by the config seed and the name, the same
        in every process) to make missing-synchronization bugs observable.
        """
        if name in self._tensors:
            raise RuntimeLaunchError(f"symmetric tensor {name!r} already allocated")
        materialize = self.machine.config.execute_numerics
        if materialize and fill is None:
            # crc32, not hash(): Python salts str hashes per process
            rng = np.random.default_rng(
                self.machine.config.seed ^ zlib.crc32(name.encode()))
        tensors = []
        for rank in range(self.machine.world_size):
            if not materialize:
                data = None
            elif fill is None:
                data = rng.standard_normal(shape).astype(resolve_dtype(dtype))
            else:
                data = np.full(shape, fill, dtype=resolve_dtype(dtype))
            tensors.append(SimTensor(name, shape, dtype, rank, data=data))
        self._tensors[name] = tensors
        return tensors

    def bind(self, name: str, per_rank_arrays: list[np.ndarray]) -> list[SimTensor]:
        """Allocate a symmetric tensor initialised from per-rank arrays."""
        if name in self._tensors:
            raise RuntimeLaunchError(f"symmetric tensor {name!r} already allocated")
        if len(per_rank_arrays) != self.machine.world_size:
            raise RuntimeLaunchError(
                f"bind({name!r}) needs {self.machine.world_size} arrays, "
                f"got {len(per_rank_arrays)}"
            )
        shape = tuple(per_rank_arrays[0].shape)
        for a in per_rank_arrays:
            if tuple(a.shape) != shape:
                raise ShapeError(f"bind({name!r}): ragged per-rank shapes")
        materialize = self.machine.config.execute_numerics
        tensors = [
            SimTensor(name, shape, per_rank_arrays[r].dtype, r,
                      data=per_rank_arrays[r].copy() if materialize else None)
            for r in range(self.machine.world_size)
        ]
        self._tensors[name] = tensors
        return tensors

    def alloc_signals(self, name: str, n: int) -> list[SignalArray]:
        """Allocate a symmetric bank of ``n`` signal cells per rank."""
        if name in self._signals:
            raise RuntimeLaunchError(f"signal bank {name!r} already allocated")
        banks = [
            SignalArray(self.machine.sim, self.machine.cost, rank, n,
                        name=f"{name}[{rank}]")
            for rank in range(self.machine.world_size)
        ]
        self._signals[name] = banks
        return banks

    def free(self, name: str) -> None:
        self._tensors.pop(name, None)
        self._signals.pop(name, None)

    # -- lookup -------------------------------------------------------------------

    def tensor(self, name: str, rank: int) -> SimTensor:
        try:
            return self._tensors[name][rank]
        except KeyError:
            raise RuntimeLaunchError(f"no symmetric tensor named {name!r}") from None

    def tensors(self, name: str) -> list[SimTensor]:
        try:
            return self._tensors[name]
        except KeyError:
            raise RuntimeLaunchError(f"no symmetric tensor named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._tensors)
