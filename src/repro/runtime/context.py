"""Distributed execution context: the NVSHMEM-style runtime of Figure 7.

:class:`DistContext` owns the symmetric heap and the per-rank hosts/streams,
builds :class:`BlockChannel` argument sets, and implements the *host-side*
primitives of Table 3:

* :meth:`DistContext.rank_copy_data` — peer-to-peer copy on the DMA copy
  engine (``cudaMemcpyPeerAsync``-style); direction is given by the order
  of source and destination, covering both pull and push.
* :meth:`DistContext.rank_notify` — post a signal visible to device kernels
  once prior work on the stream completed (``cuStreamWriteValue``-style).
* :meth:`DistContext.rank_wait` — block the host until a signal arrives.

These are what map communication onto the copy engine while compute kernels
run on SMs (the paper's Figure 6 pattern and the DMA-mapped AllGather used
by the MLP/MoE kernels).

Launchers reach the machine only through the context — ``alloc``/``bind``,
``make_block_channels``, :meth:`DistContext.launch_spmd`, ``stream`` and
the host primitives — which is what lets the static analyzer's
:class:`~repro.analyze.model.RecordingContext` record a launch plan from
the same launcher code that simulates.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compiler.program import CompileOptions
from repro.config import SimConfig
from repro.lang.block_channel import BlockChannel
from repro.lang.dsl import KernelDef
from repro.mapping.dynamic import TableTileMapping
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.memory.signals import SignalArray
from repro.memory.symmetric import SymmetricHeap
from repro.memory.tensor import SimTensor
from repro.runtime import launcher
from repro.sim.engine import Process, ProcessGen, Timeout
from repro.sim.machine import Machine
from repro.sim.stream import Stream

Ranges = tuple[tuple[int, int], ...]


class DistContext:
    """One distributed job on a freshly-booted simulated node."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.heap = SymmetricHeap(machine)
        self._channel_count = 0

    @classmethod
    def create(cls, config: SimConfig | None = None) -> "DistContext":
        return cls(Machine(config or SimConfig()))

    @property
    def world_size(self) -> int:
        return self.machine.world_size

    # -- allocation passthroughs ----------------------------------------------

    def alloc(self, name: str, shape: tuple[int, ...], dtype: str,
              fill: float | None = 0.0) -> list[SimTensor]:
        return self.heap.alloc(name, shape, dtype, fill)

    def bind(self, name: str, per_rank: list[np.ndarray]) -> list[SimTensor]:
        return self.heap.bind(name, per_rank)

    def stream(self, rank: int, name: str = "default") -> Stream:
        return self.machine.stream(rank, name)

    def launch_spmd(self, kdef: KernelDef, grid: int, args: dict[str, Any],
                    options: CompileOptions | None = None,
                    stream_name: str = "default",
                    label: str | None = None) -> list[Process]:
        """Launch ``kdef`` on every rank (see
        :func:`repro.runtime.launcher.launch_spmd`)."""
        return launcher.launch_spmd(self.machine, kdef, grid, args,
                                    options=options, stream_name=stream_name,
                                    label=label)

    # -- BlockChannel construction ------------------------------------------------

    def make_block_channels(
        self,
        name: str,
        mapping: AffineTileMapping | TableTileMapping | None = None,
        comm_grid: TileGrid | None = None,
        consumer_grid: TileGrid | None = None,
        peer_cells: int = 0,
        notify_target: str = "local",
        consumer_mapping: TableTileMapping | None = None,
        threshold_scale: int = 1,
        comm_blocks: int = 0,
    ) -> list[BlockChannel]:
        """Allocate barrier banks and build one BlockChannel per rank."""
        self._channel_count += 1
        uname = f"{name}.{self._channel_count}"
        n_channels = 1
        if mapping is not None:
            n_channels = mapping.n_channels
        barriers = self.heap.alloc_signals(f"{uname}.bar", max(1, n_channels))
        peers: list[SignalArray] = []
        if peer_cells > 0:
            peers = self.heap.alloc_signals(f"{uname}.peer", peer_cells)
        channels = []
        for rank in range(self.world_size):
            ch = BlockChannel(
                rank=rank,
                num_ranks=self.world_size,
                comm_blocks=comm_blocks,
                comm_grid=comm_grid,
                consumer_grid=consumer_grid,
                producer_mapping=mapping,
                barriers=barriers[rank],
                all_barriers=barriers,
                all_peer_barriers=peers,
            )
            ch.notify_target = notify_target
            ch.consumer_mapping = consumer_mapping
            ch.threshold_scale = threshold_scale
            channels.append(ch)
        return channels

    # -- host-side primitives (Table 3) ----------------------------------------------

    def rank_copy_data(self, name: str, src_rank: int, dst_rank: int,
                       src_ranges: Ranges, dst_ranges: Ranges,
                       src_name: str | None = None) -> ProcessGen:
        """Copy a region between ranks using the source's DMA copy engine.

        Meant to be enqueued on a (comm) stream::

            stream.enqueue(ctx.rank_copy_data(...), name="ag_kv")
        """
        machine = self.machine
        src = self.heap.tensor(src_name or name, src_rank)
        dst = self.heap.tensor(name, dst_rank)
        nbytes = src.tile_bytes(src_ranges)
        engine = machine.device(src_rank).copy_engines
        yield engine.acquire()
        try:
            yield Timeout(machine.cost.spec.copy_engine_latency)
            t0 = machine.now
            payload = src.read_tile(src_ranges)
            if src_rank == dst_rank:
                # local DMA: charge both HBM read and write
                arrival = machine.device(src_rank).reserve_hbm(2 * nbytes)
                delay = max(0.0, arrival - machine.now)
            else:
                _st, arrival = machine.interconnect.reserve(
                    src_rank, dst_rank, nbytes, "p2p")
                delay = max(0.0, arrival - machine.now)
            if machine.config.execute_numerics:
                def apply(t=dst, r=dst_ranges, d=payload):
                    t.write_tile(r, d)
                machine.sim.call_later(delay, apply)
            if delay > 0:
                yield Timeout(delay)
            machine.record(dst_rank, "comm", f"dma:{name}", t0, machine.now) \
                if machine.config.trace else None
        finally:
            engine.release()
        return None

    def rank_notify(self, banks: list[SignalArray], dst_rank: int,
                    index: int, from_rank: int, amount: int = 1) -> ProcessGen:
        """Host-side notify: post a signal after prior stream work.

        Enqueue on the same stream as the copy it publishes.
        """
        banks[dst_rank].post_add(index, amount, from_rank=from_rank)
        return
        yield  # pragma: no cover - generator marker

    def rank_wait(self, bank: SignalArray, index: int, threshold: int,
                  host_synced: bool = False) -> ProcessGen:
        """Host-side wait: block until a signal reaches a threshold.

        By default this models a ``cuStreamWaitValue``-style wait enqueued
        on the stream (no CPU involvement once armed); ``host_synced=True``
        adds the full host round trip (a blocking CPU wait).
        """
        t0 = self.machine.now
        yield bank.wait_geq(index, threshold)
        if host_synced:
            yield Timeout(self.machine.cost.host_sync_overhead())
        if self.machine.config.trace:
            self.machine.record(bank.rank, "host", "rank_wait", t0,
                                self.machine.now)
        return None

    # -- whole-job execution -----------------------------------------------------

    def run(self, until: float | None = None) -> float:
        return self.machine.run(until)
