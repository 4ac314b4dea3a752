"""NCCL-style collectives on the simulated node.

Ring algorithms with the classic cost shape: ``(R-1)/R`` of the data
crosses each link, steps serialize on neighbour arrivals, protocol
efficiency caps achievable bandwidth, and each collective is a kernel
launch on the rank's default stream that holds ``COMM_SMS`` SM channels
from its start until its exit barrier passes (its trace interval spans
exactly that hold).  These are the ``cuBLAS+NCCL`` baselines'
communication ops and the paper's operator-centric primitives (§2.1):
system-wide synchronization before/after, no overlap with compute.

All collectives are SPMD: one process per rank enqueued on that rank's
stream; numerics land in the destination symmetric tensors at arrival.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable

import numpy as np

from repro.errors import ShapeError
from repro.runtime.context import DistContext
from repro.runtime.launcher import launch_native
from repro.sim.engine import Process, ProcessGen, Timeout

#: SM channels an NCCL kernel holds while driving the protocol.
COMM_SMS = 20

#: process-wide uid so several NcclCollectives instances on one context
#: never collide on signal-bank names
_UID = itertools.count(1)


class NcclCollectives:
    """Collective operations bound to a :class:`DistContext`."""

    def __init__(self, ctx: DistContext):
        self.ctx = ctx
        self.machine = ctx.machine

    # -- helpers -----------------------------------------------------------------

    def _bank(self, tag: str, cells: int):
        return self.ctx.heap.alloc_signals(f"nccl.{tag}.{next(_UID)}", cells)

    def _launch(self, rank_proc: Callable[[int, int], ProcessGen],
                label: str) -> list[Process]:
        return [
            launch_native(self.machine, rank, label, partial(rank_proc, rank),
                          sms=COMM_SMS, category="comm")
            for rank in range(self.machine.world_size)
        ]

    @staticmethod
    def _row_segments(rows: int, world: int) -> list[tuple[int, int]]:
        if rows % world != 0:
            raise ShapeError(
                f"collective extent {rows} not divisible by world {world}")
        seg = rows // world
        return [(r * seg, (r + 1) * seg) for r in range(world)]

    # -- AllGather -----------------------------------------------------------------

    def all_gather(self, src_name: str, dst_name: str) -> list[Process]:
        """Ring AllGather: per-rank shards (m, n) -> full (m*R, n) everywhere."""
        ctx, machine = self.ctx, self.machine
        world = machine.world_size
        shards = ctx.heap.tensors(src_name)
        dsts = ctx.heap.tensors(dst_name)
        m, = {t.shape[0] for t in shards}
        if dsts[0].shape[0] != m * world:
            raise ShapeError(
                f"all_gather: dst rows {dsts[0].shape[0]} != shard rows "
                f"{m} * world {world}")
        arrived = self._bank("ag", world)
        seg_bytes = shards[0].nbytes

        def rank_proc(rank: int, _held: int) -> ProcessGen:
            # local shard into the gathered view (HBM copy)
            arrival = machine.device(rank).reserve_hbm(2 * seg_bytes)
            yield Timeout(max(0.0, arrival - machine.now))
            if machine.config.execute_numerics:
                dsts[rank].write_tile(
                    ((rank * m, (rank + 1) * m), (0, dsts[rank].shape[1])),
                    shards[rank].numpy())
            arrived[rank].post_add(rank, 1, from_rank=rank)
            nxt = (rank + 1) % world
            for step in range(world - 1):
                seg = (rank - step) % world
                if step > 0:
                    yield arrived[rank].wait_geq(seg, 1)
                payload = dsts[rank].read_tile(
                    ((seg * m, (seg + 1) * m), (0, dsts[rank].shape[1])))
                yield machine.interconnect.transfer(
                    rank, nxt, seg_bytes, "nccl")
                if machine.config.execute_numerics:
                    dsts[nxt].write_tile(
                        ((seg * m, (seg + 1) * m),
                         (0, dsts[nxt].shape[1])), payload)
                arrived[nxt].post_add(seg, 1, from_rank=rank)
            # SPMD exit barrier: every segment present locally
            for seg in range(world):
                yield arrived[rank].wait_geq(seg, 1)
            return None

        return self._launch(rank_proc, f"nccl.ag:{src_name}")

    # -- ReduceScatter ---------------------------------------------------------------

    def reduce_scatter(self, src_name: str, dst_name: str) -> list[Process]:
        """Ring ReduceScatter over rows: (M, n) per rank -> (M/R, n) sums.

        Rank r ends with ``sum_q src[q][seg_r]`` where seg_r is the r-th row
        segment.
        """
        ctx, machine = self.ctx, self.machine
        world = machine.world_size
        srcs = ctx.heap.tensors(src_name)
        dsts = ctx.heap.tensors(dst_name)
        rows, cols = srcs[0].shape
        segments = self._row_segments(rows, world)
        seg_rows = rows // world
        if dsts[0].shape[0] != seg_rows:
            raise ShapeError(
                f"reduce_scatter: dst rows {dsts[0].shape[0]} != {seg_rows}")
        seg_bytes = seg_rows * cols * srcs[0].itemsize
        arrived = self._bank("rs", world)
        # numeric working buffers: partial sums as they travel the ring
        partials: list[dict[int, np.ndarray]] = [dict() for _ in range(world)]

        def rank_proc(rank: int, _held: int) -> ProcessGen:
            device = machine.device(rank)
            nxt = (rank + 1) % world
            for step in range(world - 1):
                seg = (rank - step - 1) % world
                lo, hi = segments[seg]
                if step > 0:
                    # the partial for this segment landed here last step
                    yield arrived[rank].wait_geq(seg, 1)
                if machine.config.execute_numerics:
                    local = srcs[rank].read_tile(((lo, hi), (0, cols)))
                    acc = partials[rank].pop(seg, None)
                    payload = local.astype(np.float32) if acc is None \
                        else local.astype(np.float32) + acc
                else:
                    payload = None
                # reduction math on SMs, then the ring hop
                arrival = device.reserve_hbm(2 * seg_bytes)
                yield Timeout(max(0.0, arrival - machine.now))
                yield machine.interconnect.transfer(
                    rank, nxt, seg_bytes, "nccl_rs")
                if machine.config.execute_numerics:
                    partials[nxt][seg] = payload
                arrived[nxt].post_add(seg, 1, from_rank=rank)
            # final: own segment arrives carrying world-1 partials
            lo, hi = segments[rank]
            yield arrived[rank].wait_geq(rank, 1)
            arrival = device.reserve_hbm(2 * seg_bytes)
            yield Timeout(max(0.0, arrival - machine.now))
            if machine.config.execute_numerics:
                local = srcs[rank].read_tile(((lo, hi), (0, cols)))
                acc = partials[rank].pop(rank)
                total = local.astype(np.float32) + acc
                dsts[rank].write_tile(((0, seg_rows), (0, cols)), total)
            return None

        return self._launch(rank_proc, f"nccl.rs:{src_name}")
