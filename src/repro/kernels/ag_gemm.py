"""Overlapped AllGather + GEMM (tensor-parallel MLP part 1).

Three resource mappings from the paper's decoupled design space (§3.1,
Figure 2c):

* ``"dma"`` — AllGather on the copy engine (host-driven ``rank_copy_data``
  publishing per-segment signals), GEMM on all SMs with
  ``consumer_tile_wait`` gating each tile.  This is the mapping the paper's
  generated kernel uses for AG+GEMM on H800.
* ``"pull"`` — one fused kernel: ``COMM_BLOCKS`` SM blocks pull peer shards
  tile-by-tile (``tile_pull_data``) and notify; the remaining blocks run
  the consumer GEMM (Figure 5's AllGather structure, static mapping).
* ``"push"`` — producer blocks push the *local* shard to every peer and
  notify remotely (push mode of Figure 3b).

The consumer GEMM traverses row tiles starting at its own rank's segment
(tile-order subspace): locally-resident data is consumed while remote
segments are still in flight.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.copy_engine import dma_all_gather
from repro.compiler.program import CompileOptions
from repro.errors import RuntimeLaunchError, ShapeError
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.config import H800, HardwareSpec
from repro.registry import register_family, slot_builder
from repro.runtime.context import DistContext
from repro.sim.engine import Process
from repro.tuner.costprune import ag_gemm_lower_bound
from repro.tuner.search import TuneTask
from repro.tuner.space import Axis, SearchSpace, divisors_of


@kernel
def _ag_consumer_gemm(gathered, w, out, channel: tl.BlockChannel,
                      M: tl.constexpr, N: tl.constexpr, K: tl.constexpr,
                      BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr,
                      COMM_BLOCKS: tl.constexpr):
    """Consumer GEMM: waits per row-tile on the AllGather's channels."""
    bid = tl.block_id()
    nb = tl.num_blocks()
    cid = bid - COMM_BLOCKS
    nconsumers = nb - COMM_BLOCKS
    if cid >= 0:
        tiles_m = tl.cdiv(M, BM)
        tiles_n = tl.cdiv(N, BN)
        total = tiles_m * tiles_n
        # start at the tile containing our own segment's first row (the
        # tile-order subspace).  Derive the row tile from the segment's
        # first *row*, not from tiles_m // num_ranks: when tiles_m is not
        # divisible by num_ranks the latter skews every rank off its own
        # segment, defeating the locally-resident-first traversal.
        m_per_rank = M // channel.num_ranks
        start = (channel.rank * m_per_rank // BM) * tiles_n
        for i in range(cid, total, nconsumers):
            t = (start + i) % total
            tid_m = t // tiles_n
            tid_n = t % tiles_n
            tl.consumer_tile_wait(tid_m)
            acc = tl.zeros((BM, BN), "float32")
            for k in range(0, K, BK):
                a = tl.load(gathered, (tid_m * BM, tid_m * BM + BM),
                            (k, k + BK))
                b = tl.load(w, (k, k + BK), (tid_n * BN, tid_n * BN + BN))
                acc += tl.dot(a, b)
            c = tl.cast(acc, "float16")
            tl.store(out, (tid_m * BM, tid_m * BM + BM),
                     (tid_n * BN, tid_n * BN + BN), c)


@kernel
def _ag_pull_producer(shards, gathered, channel: tl.BlockChannel,
                      M: tl.constexpr, K: tl.constexpr,
                      BMP: tl.constexpr, COMM_BLOCKS: tl.constexpr):
    """SM-mapped AllGather producer: pull peer tiles, store, notify (p2p)."""
    bid = tl.block_id()
    if bid < COMM_BLOCKS:
        n_tiles = tl.cdiv(M, BMP)
        world = channel.num_ranks
        tiles_per_rank = n_tiles // world
        for i in range(bid, n_tiles, COMM_BLOCKS):
            # interleave source ranks (own shard first): consecutive pulls
            # hit different peers so no egress link becomes a hotspot —
            # the tile-order subspace of Figure 2b
            src = (channel.rank + i % world) % world
            t = src * tiles_per_rank + i // world
            data = tl.tile_pull_data(shards, t, 0)
            tl.store(gathered, (t * BMP, t * BMP + BMP), (0, K), data)
            tl.producer_tile_notify(t, "p2p")


@kernel
def _ag_push_producer(shards, gathered, channel: tl.BlockChannel,
                      M: tl.constexpr, K: tl.constexpr,
                      BMP: tl.constexpr, COMM_BLOCKS: tl.constexpr,
                      WORLD: tl.constexpr):
    """Push-mode AllGather: send local shard tiles to every peer + notify."""
    bid = tl.block_id()
    if bid < COMM_BLOCKS:
        n_tiles = tl.cdiv(M, BMP)
        tiles_per_rank = n_tiles // WORLD
        m_per_rank = M // WORLD
        for i in range(bid, tiles_per_rank, COMM_BLOCKS):
            t = channel.rank * tiles_per_rank + i
            lo = channel.rank * m_per_rank + i * BMP
            data = tl.load(shards, (i * BMP, i * BMP + BMP), (0, K))
            tl.store(gathered, (lo, lo + BMP), (0, K), data)
            tl.producer_tile_notify(t, "p2p")
            for off in range(1, WORLD):
                peer = (channel.rank + off) % WORLD
                tl.tile_push_data(gathered[peer], t, 0, data)
                tl.producer_tile_notify(t, "p2p", to=peer)


# analyzer annotations (repro.analyze): role in the producer/consumer
# chain, the communicated axis, and which params must be fully covered —
# the outputs, plus the inputs a consumer reads whole (the gathered
# buffer, whether the copy engine or a producer kernel fills it)
_ag_consumer_gemm.meta.update(role="consumer", comm_axis="m",
                              outputs=("out",), inputs=("gathered",))
_ag_pull_producer.meta.update(role="producer", comm_axis="m",
                              outputs=("gathered",))
_ag_push_producer.meta.update(role="producer", comm_axis="m",
                              outputs=("gathered",))


@dataclass(frozen=True)
class AgGemmConfig:
    """Shapes and tiling for an AG+GEMM launch.

    ``m`` is the *global* (gathered) token count; ``n`` the per-rank weight
    shard width; ``k`` the hidden size.  The communication tile (``block_mp``
    rows of the gathered tensor) and compute tile (``block_m x block_n``)
    are independent — the decoupled tile-size subspace.
    """

    m: int
    n: int
    k: int
    block_m: int = 128
    block_n: int = 128
    block_k: int = 64
    block_mp: int = 128
    comm_blocks: int = 20
    channels_per_rank: int = 1
    mode: str = "dma"  # dma | pull | push

    def validate(self, world: int) -> None:
        if self.m % world != 0:
            raise ShapeError(f"M={self.m} not divisible by world={world}")
        if (self.m // world) % self.block_mp != 0:
            raise ShapeError("per-rank rows must align to the comm tile")
        if self.mode not in ("dma", "pull", "push"):
            raise RuntimeLaunchError(f"unknown AG+GEMM mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Tuner integration: the AG+GEMM slice of the decoupled design space
# ---------------------------------------------------------------------------

#: ``comm_blocks`` value dma candidates are canonicalised to (the copy
#: engine ignores the axis; keeping one value avoids duplicate simulations).
_DMA_CANONICAL_COMM_BLOCKS = 20


def ag_gemm_search_space(m: int, n: int, k: int, world: int) -> SearchSpace:
    """The §3.1 design space of AG+GEMM for one shape.

    Axes: compute tile (``block_m/n/k``), communication tile (``block_mp``),
    communication SM count (``comm_blocks``) and resource mapping ``mode``
    (``dma`` = copy-engine transport; ``pull``/``push`` = SM transport in
    either dataflow direction).
    """
    per_rank = m // world
    axes = (
        Axis("block_m", divisors_of(m, (128, 256))),
        Axis("block_n", (128,)),
        Axis("block_k", (64,)),
        Axis("block_mp", divisors_of(per_rank, (128, 256))),
        Axis("comm_blocks", (2, 4, 8, 20, 40)),
        Axis("mode", ("dma", "pull", "push")),
    )

    def valid(cand: dict) -> bool:
        if cand["mode"] == "dma":
            return cand["comm_blocks"] == _DMA_CANONICAL_COMM_BLOCKS
        return True

    return SearchSpace(axes=axes, constraint=valid)


def ag_gemm_tune_task(m: int, n: int, k: int, *, world: int = 8,
                      spec: HardwareSpec = H800) -> TuneTask:
    """Build the :class:`~repro.tuner.TuneTask` tuning AG+GEMM on a shape."""
    space = ag_gemm_search_space(m, n, k, world)

    def finalize(cand: dict) -> AgGemmConfig:
        return AgGemmConfig(m=m, n=n, k=k, **cand)

    return TuneTask(
        kernel="ag_gemm",
        shape_key=f"m{m}n{n}k{k}",
        space=space,
        default=space.project(finalize({})),
        make_builder=lambda c: slot_builder("ag_gemm", ag_gemm_overlapped,
                                            finalize(c)),
        bound=lambda c: ag_gemm_lower_bound(c, m=m, n=n, k=k, world=world,
                                            spec=spec),
        finalize=finalize,
    )


def ag_gemm_overlapped(
    ctx: DistContext,
    cfg: AgGemmConfig,
    shards_name: str,
    weight_name: str,
    out_name: str,
    grid: int | None = None,
    options: CompileOptions | None = None,
    tag: str = "ag_gemm",
) -> list[Process]:
    """Launch the overlapped AG+GEMM on every rank; returns GEMM processes.

    Allocates the gathered buffer and barrier channels internally; the
    caller provides the input shards (m/world x k), the weight shard
    (k x n) and the output (m x n).
    """
    machine = ctx.machine
    world = machine.world_size
    spec = machine.config.spec
    cfg.validate(world)
    grid = grid or spec.n_sms

    gathered_name = f"{tag}.gathered"
    ctx.alloc(gathered_name, (cfg.m, cfg.k), "float16", fill=None)

    mapping = AffineTileMapping(cfg.m, cfg.block_mp, world,
                                cfg.channels_per_rank)
    comm_grid = TileGrid(cfg.m, cfg.k, cfg.block_mp, cfg.k)
    consumer_grid = TileGrid(cfg.m, cfg.n, cfg.block_m, cfg.block_n)
    channels = ctx.make_block_channels(
        tag, mapping=mapping, comm_grid=comm_grid,
        consumer_grid=consumer_grid,
        notify_target="mapped" if cfg.mode == "push" else "local",
        comm_blocks=0 if cfg.mode == "dma" else cfg.comm_blocks,
    )

    comm_blocks = 0 if cfg.mode == "dma" else cfg.comm_blocks
    args_common = dict(
        M=cfg.m, N=cfg.n, K=cfg.k, BM=cfg.block_m, BN=cfg.block_n,
        BK=cfg.block_k, COMM_BLOCKS=comm_blocks,
        gathered=ctx.heap.tensors(gathered_name),
        w=ctx.heap.tensors(weight_name),
        out=ctx.heap.tensors(out_name),
        channel=channels,
    )

    if cfg.mode == "dma":
        banks = [ch.barriers for ch in channels]
        dma_all_gather(ctx, shards_name, gathered_name, banks,
                       segment_notifies=mapping.tiles_per_channel)
    elif cfg.mode == "pull":
        ctx.launch_spmd(_ag_pull_producer, grid, dict(
            shards=ctx.heap.tensors(shards_name),
            gathered=ctx.heap.tensors(gathered_name),
            channel=channels, M=cfg.m, K=cfg.k, BMP=cfg.block_mp,
            COMM_BLOCKS=cfg.comm_blocks,
        ), options=options, stream_name="comm", label=f"{tag}.pull")
    else:  # push
        ctx.launch_spmd(_ag_push_producer, grid, dict(
            shards=ctx.heap.tensors(shards_name),
            gathered=ctx.heap.tensors(gathered_name),
            channel=channels, M=cfg.m, K=cfg.k, BMP=cfg.block_mp,
            COMM_BLOCKS=cfg.comm_blocks, WORLD=world,
        ), options=options, stream_name="comm", label=f"{tag}.push")

    return ctx.launch_spmd(_ag_consumer_gemm, grid, args_common,
                           options=options, label=f"{tag}.gemm")


# ---------------------------------------------------------------------------
# Registry: the declarative family record (repro.registry)
# ---------------------------------------------------------------------------

def _analyze_plans():
    def plan(world: int, mode: str, block_m: int = 16, suffix: str = ""):
        cfg = AgGemmConfig(m=world * 32, n=32, k=32, block_m=block_m,
                           block_n=16, block_k=16, block_mp=16,
                           comm_blocks=2, mode=mode)
        return (f"ag_gemm/{mode}/w{world}{suffix}", world,
                slot_builder("ag_gemm", ag_gemm_overlapped, cfg, grid=4))

    return [
        plan(2, "dma"), plan(4, "dma"), plan(8, "dma"),
        # decoupled tile sizes: compute tile 2x the communication tile
        plan(4, "dma", block_m=32, suffix="/bm32"),
        plan(2, "pull"), plan(4, "pull"),
        plan(2, "push"), plan(8, "push"),
    ]


register_family(
    name="ag_gemm",
    doc="AllGather + GEMM (tensor-parallel MLP part 1)",
    kernels=(_ag_consumer_gemm, _ag_pull_producer, _ag_push_producer),
    analyze_plans=_analyze_plans,
    slot="ag_gemm",
    launch=ag_gemm_overlapped,
    retune=lambda cfg, **kw: ag_gemm_tune_task(cfg.m, cfg.n, cfg.k, **kw),
)
