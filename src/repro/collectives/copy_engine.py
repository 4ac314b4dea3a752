"""Copy-engine (DMA) data movement with signal publication.

This is the communication substrate of TileLink's DMA-mapped kernels: the
host enqueues ``rank_copy_data`` transfers on a communication stream and
publishes per-segment signals (``rank_notify``) that device-side consumer
kernels wait on with ``consumer_tile_wait`` — the resource-mapping choice
of Figure 2c (communication on the copy engine, zero SM cost) and the
pattern of Figure 6.
"""

from __future__ import annotations

from repro.errors import ShapeError
from repro.memory.signals import SignalArray
from repro.runtime.context import DistContext
from repro.sim.engine import Process, ProcessGen


def dma_all_gather(
    ctx: DistContext,
    src_name: str,
    dst_name: str,
    banks: list[SignalArray] | None,
    segment_notifies: int = 1,
) -> list[Process]:
    """Pull-mode AllGather on copy engines, driven from each rank's
    ``comm`` stream, signalling per landed shard.

    Rank ``r`` copies its own shard locally, then pulls every peer shard
    ``q`` into rows ``[q*m, (q+1)*m)`` of its gathered buffer.  Each bank
    holds ``C = len(banks[r]) // world`` cells per shard (the consumer
    mapping's channels per rank); as shard ``q`` lands, every one of its
    cells ``q*C ... q*C + C - 1`` gets ``+= segment_notifies``.  Consumers
    (e.g. a GEMM kernel whose BlockChannel points at the same banks) start
    on a shard's tiles as soon as its signals arrive — communication and
    computation overlap with no SM cost for the copies.

    ``segment_notifies`` lets the publisher match whatever per-channel
    threshold the consumer's mapping expects.
    """
    world = ctx.world_size
    shards = ctx.heap.tensors(src_name)
    dsts = ctx.heap.tensors(dst_name)
    m, cols = shards[0].shape
    if dsts[0].shape[0] != m * world:
        raise ShapeError(
            f"dma_all_gather: dst rows {dsts[0].shape[0]} != {m * world}")

    def rank_proc(rank: int) -> ProcessGen:
        # own shard first (cheap local DMA), then peers nearest-first
        order = [rank] + [(rank + off) % world for off in range(1, world)]
        for q in order:
            yield from ctx.rank_copy_data(
                dst_name, src_rank=q, dst_rank=rank,
                src_ranges=((0, m), (0, cols)),
                dst_ranges=((q * m, (q + 1) * m), (0, cols)),
                src_name=src_name)
            if banks is not None:
                per_shard = len(banks[rank]) // world
                for cell in range(q * per_shard, (q + 1) * per_shard):
                    banks[rank].post_add(cell, segment_notifies,
                                         from_rank=rank)
        return None

    return [
        ctx.stream(rank, "comm").enqueue(
            rank_proc(rank), name=f"dma.ag.{src_name}[{rank}]")
        for rank in range(world)
    ]
