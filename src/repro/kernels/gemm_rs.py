"""Overlapped GEMM + ReduceScatter (tensor-parallel MLP part 2).

Two variants from the decoupled design space:

* ``"ring"`` — the paper's Figure 4 kernel, ported near-verbatim: one fused
  launch where most blocks run the producer GEMM (notifying per output
  tile) and ``COMM_BLOCKS`` blocks run a ring reduce — waiting on producer
  tiles (``consumer_tile_wait``), accumulating the peer partial
  (``peer_tile_wait`` + local load), and pushing downstream
  (``tile_push_data`` + ``peer_tile_notify``).  Communication and
  computation tile sizes are independent.

* ``"hybrid"`` — the mapping the paper reports as fastest on H800: scatter
  on the **DMA engine** (host waits per segment signal, then pushes the
  partial segment to its owner), reduction on **SMs** (a consumer kernel
  sums the world partials once they land).  Figure 2c's hybrid mapping.

The producer GEMM emits row segments in ring order starting at
``rank + 1`` so downstream consumers unblock earliest (tile-order
subspace).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeLaunchError, ShapeError
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.config import H800, HardwareSpec
from repro.registry import register_family, slot_builder
from repro.runtime.context import DistContext
from repro.sim.engine import Process, ProcessGen
from repro.tuner.costprune import gemm_rs_lower_bound
from repro.tuner.search import TuneTask
from repro.tuner.space import Axis, SearchSpace, divisors_of


@kernel
def _gemm_rs_ring(tokens, weights, gemm_out, buffers, out,
                  channel: tl.BlockChannel,
                  M: tl.constexpr, N: tl.constexpr, K: tl.constexpr,
                  BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr,
                  BMR: tl.constexpr, BNR: tl.constexpr,
                  COMM_BLOCKS: tl.constexpr):
    """Figure 4: fused producer GEMM + ring-reduce ReduceScatter."""
    bid = tl.block_id()
    nb = tl.num_blocks()
    world = channel.num_ranks
    if bid < nb - COMM_BLOCKS:
        # ---- producer GEMM over the full (M x N) output, ring-ordered ----
        tiles_m = tl.cdiv(M, BM)
        tiles_n = tl.cdiv(N, BN)
        total = tiles_m * tiles_n
        seg_tiles = (tiles_m // world) * tiles_n
        start = ((channel.rank + 1) % world) * seg_tiles
        nproducers = nb - COMM_BLOCKS
        for i in range(bid, total, nproducers):
            t = (start + i) % total
            tid_m = t // tiles_n
            tid_n = t % tiles_n
            acc = tl.zeros((BM, BN), "float32")
            for k in range(0, K, BK):
                a = tl.load(tokens, (tid_m * BM, tid_m * BM + BM), (k, k + BK))
                b = tl.load(weights, (k, k + BK), (tid_n * BN, tid_n * BN + BN))
                acc += tl.dot(a, b)
            c = tl.cast(acc, "float16")
            tl.store(gemm_out, (tid_m * BM, tid_m * BM + BM),
                     (tid_n * BN, tid_n * BN + BN), c)
            tl.producer_tile_notify(tid_m, "p2p")
    else:
        # ---- ring reduce on COMM_BLOCKS blocks (comm tile BMR x BNR) ----
        cid = bid - (nb - COMM_BLOCKS)
        to_rank = (channel.rank - 1 + world) % world
        m_per_rank = M // world
        rtiles_m = tl.cdiv(m_per_rank, BMR)
        rtiles_n = tl.cdiv(N, BNR)
        rtotal = rtiles_m * rtiles_n
        for t in range(cid, rtotal, COMM_BLOCKS):
            tid_m = t // rtiles_n
            tid_n = t % rtiles_n
            for stage in range(world):
                seg = (channel.rank + stage + 1) % world
                tid_m_global = tid_m + seg * rtiles_m
                tl.consumer_tile_wait(tid_m_global)
                data = tl.load(gemm_out,
                               (tid_m_global * BMR, tid_m_global * BMR + BMR),
                               (tid_n * BNR, tid_n * BNR + BNR))
                if stage != 0:
                    tl.peer_tile_wait(tid_m_global * rtiles_n + tid_n,
                                      channel.rank)
                    prev = tl.load(buffers,
                                   (tid_m_global * BMR, tid_m_global * BMR + BMR),
                                   (tid_n * BNR, tid_n * BNR + BNR))
                    data += prev
                if stage == world - 1:
                    tl.store(out, (tid_m * BMR, tid_m * BMR + BMR),
                             (tid_n * BNR, tid_n * BNR + BNR), data)
                else:
                    tl.tile_push_data(buffers[to_rank], tid_m_global, tid_n,
                                      data)
                    tl.peer_tile_notify(tid_m_global * rtiles_n + tid_n,
                                        to_rank)


@kernel
def _gemm_producer(tokens, weights, gemm_out, channel: tl.BlockChannel,
                   M: tl.constexpr, N: tl.constexpr, K: tl.constexpr,
                   BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr):
    """Standalone producer GEMM, ring-ordered, notifying per output tile.

    The hybrid variant launches it, and so does the chunk-centric family,
    whose channel mapping routes each notify to a (segment, chunk)
    channel.
    """
    bid = tl.block_id()
    nb = tl.num_blocks()
    world = channel.num_ranks
    tiles_m = tl.cdiv(M, BM)
    tiles_n = tl.cdiv(N, BN)
    total = tiles_m * tiles_n
    seg_tiles = (tiles_m // world) * tiles_n
    start = ((channel.rank + 1) % world) * seg_tiles
    for i in range(bid, total, nb):
        t = (start + i) % total
        tid_m = t // tiles_n
        tid_n = t % tiles_n
        acc = tl.zeros((BM, BN), "float32")
        for k in range(0, K, BK):
            a = tl.load(tokens, (tid_m * BM, tid_m * BM + BM), (k, k + BK))
            b = tl.load(weights, (k, k + BK), (tid_n * BN, tid_n * BN + BN))
            acc += tl.dot(a, b)
        c = tl.cast(acc, "float16")
        tl.store(gemm_out, (tid_m * BM, tid_m * BM + BM),
                 (tid_n * BN, tid_n * BN + BN), c)
        tl.producer_tile_notify(tid_m, "p2p")


@kernel
def _rs_reduce(landing, gemm_out, out, channel: tl.BlockChannel,
               M: tl.constexpr, N: tl.constexpr, BMR: tl.constexpr,
               BNR: tl.constexpr, WORLD: tl.constexpr):
    """Hybrid variant's SM reduction: sum world partials of own segment.

    ``landing`` holds one (M/world x N) partial slab per source rank
    (stacked rows); slot ``rank`` is unused (the local partial is read
    straight from gemm_out).  Arrival signals are peer barriers: cell q
    posted when rank q's DMA push landed.
    """
    bid = tl.block_id()
    nb = tl.num_blocks()
    m_per_rank = M // WORLD
    rtiles_m = tl.cdiv(m_per_rank, BMR)
    rtiles_n = tl.cdiv(N, BNR)
    rtotal = rtiles_m * rtiles_n
    for t in range(bid, rtotal, nb):
        tid_m = t // rtiles_n
        tid_n = t % rtiles_n
        tid_m_global = tid_m + channel.rank * rtiles_m
        # local partial for our own segment must be produced
        tl.consumer_tile_wait(tid_m_global)
        acc = tl.load(gemm_out, (tid_m_global * BMR, tid_m_global * BMR + BMR),
                      (tid_n * BNR, tid_n * BNR + BNR))
        for q in range(1, WORLD):
            src = (channel.rank + q) % WORLD
            tl.peer_tile_wait(src, channel.rank)
            part = tl.load(landing,
                           (src * m_per_rank + tid_m * BMR,
                            src * m_per_rank + tid_m * BMR + BMR),
                           (tid_n * BNR, tid_n * BNR + BNR))
            acc += part
        tl.store(out, (tid_m * BMR, tid_m * BMR + BMR),
                 (tid_n * BNR, tid_n * BNR + BNR), acc)


# analyzer annotations (repro.analyze)
_gemm_rs_ring.meta.update(role="fused", comm_axis="m",
                          outputs=("gemm_out", "out"))
_gemm_producer.meta.update(role="producer", comm_axis="m",
                           outputs=("gemm_out",))
_rs_reduce.meta.update(role="consumer", comm_axis="m", outputs=("out",))


@dataclass(frozen=True)
class GemmRsConfig:
    """Shapes/tiling for GEMM+RS.  ``m`` global rows, ``n`` full output
    width, ``k`` the per-rank shard depth."""

    m: int
    n: int
    k: int
    block_m: int = 128
    block_n: int = 128
    block_k: int = 64
    block_mr: int = 128   # comm tile rows (decoupled from block_m)
    block_nr: int = 256   # comm tile cols
    comm_blocks: int = 20
    mode: str = "hybrid"  # ring | hybrid

    def validate(self, world: int) -> None:
        if self.m % world != 0:
            raise ShapeError(f"M={self.m} not divisible by world={world}")
        m_per = self.m // world
        if m_per % self.block_m != 0 or m_per % self.block_mr != 0:
            raise ShapeError("per-rank rows must align to both tile sizes")
        if self.mode not in ("ring", "hybrid"):
            raise RuntimeLaunchError(f"unknown GEMM+RS mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Tuner integration: the GEMM+RS slice of the decoupled design space
# ---------------------------------------------------------------------------

#: hybrid (copy-engine scatter) ignores ``comm_blocks``; canonicalise it.
_HYBRID_CANONICAL_COMM_BLOCKS = 20


def gemm_rs_search_space(m: int, n: int, k: int, world: int) -> SearchSpace:
    """The §3.1 design space of GEMM+RS for one shape.

    Decoupled compute tile (``block_m/n/k``) and reduction/communication
    tile (``block_mr/nr``); ``mode`` picks the resource mapping — ``ring``
    reduces on ``comm_blocks`` SMs, ``hybrid`` scatters on the copy
    engine and reduces on all SMs.
    """
    per_rank = m // world
    axes = (
        Axis("block_m", divisors_of(per_rank, (128, 256))),
        Axis("block_n", (128,)),
        Axis("block_k", (64,)),
        Axis("block_mr", divisors_of(per_rank, (128, 256))),
        Axis("block_nr", (256,)),
        Axis("comm_blocks", (4, 20, 40)),
        Axis("mode", ("hybrid", "ring")),
    )

    def valid(cand: dict) -> bool:
        if cand["mode"] == "hybrid":
            return cand["comm_blocks"] == _HYBRID_CANONICAL_COMM_BLOCKS
        return True

    return SearchSpace(axes=axes, constraint=valid)


def gemm_rs_tune_task(m: int, n: int, k: int, *, world: int = 8,
                      spec: HardwareSpec = H800) -> TuneTask:
    """Build the :class:`~repro.tuner.TuneTask` tuning GEMM+RS on a shape."""
    space = gemm_rs_search_space(m, n, k, world)

    def finalize(cand: dict) -> GemmRsConfig:
        return GemmRsConfig(m=m, n=n, k=k, **cand)

    return TuneTask(
        kernel="gemm_rs",
        shape_key=f"m{m}n{n}k{k}",
        space=space,
        default=space.project(finalize({})),
        make_builder=lambda c: slot_builder("gemm_rs", gemm_rs_overlapped,
                                            finalize(c)),
        bound=lambda c: gemm_rs_lower_bound(c, m=m, n=n, k=k, world=world,
                                            spec=spec),
        finalize=finalize,
    )


def gemm_rs_overlapped(
    ctx: DistContext,
    cfg: GemmRsConfig,
    tokens_name: str,
    weight_name: str,
    out_name: str,
    grid: int | None = None,
    tag: str = "gemm_rs",
) -> list[Process]:
    """Launch overlapped GEMM+RS; ``out`` receives (m/world x n) sums."""
    machine = ctx.machine
    world = machine.world_size
    spec = machine.config.spec
    cfg.validate(world)
    grid = grid or spec.n_sms
    m_per = cfg.m // world

    gemm_out = ctx.alloc(f"{tag}.gemm_out", (cfg.m, cfg.n), "float16",
                         fill=None)
    mapping = AffineTileMapping(cfg.m, cfg.block_m, world)
    gemm_grid = TileGrid(cfg.m, cfg.n, cfg.block_m, cfg.block_n)
    reduce_grid = TileGrid(cfg.m, cfg.n, cfg.block_mr, cfg.block_nr)

    if cfg.mode == "ring":
        ctx.alloc(f"{tag}.buffers", (cfg.m, cfg.n), "float16", fill=None)
        channels = ctx.make_block_channels(
            tag, mapping=mapping, comm_grid=reduce_grid,
            consumer_grid=reduce_grid, peer_cells=reduce_grid.n_tiles,
            threshold_scale=gemm_grid.tiles_n, comm_blocks=cfg.comm_blocks)
        return ctx.launch_spmd(_gemm_rs_ring, grid, dict(
            tokens=ctx.heap.tensors(tokens_name),
            weights=ctx.heap.tensors(weight_name),
            gemm_out=ctx.heap.tensors(f"{tag}.gemm_out"),
            buffers=ctx.heap.tensors(f"{tag}.buffers"),
            out=ctx.heap.tensors(out_name), channel=channels,
            M=cfg.m, N=cfg.n, K=cfg.k, BM=cfg.block_m, BN=cfg.block_n,
            BK=cfg.block_k, BMR=cfg.block_mr, BNR=cfg.block_nr,
            COMM_BLOCKS=cfg.comm_blocks,
        ), label=f"{tag}.ring")

    # ---- hybrid: DMA scatter + SM reduce -------------------------------------
    ctx.alloc(f"{tag}.landing", (cfg.m, cfg.n), "float16", fill=None)
    channels = ctx.make_block_channels(
        tag, mapping=mapping, comm_grid=reduce_grid,
        consumer_grid=reduce_grid, peer_cells=world,
        threshold_scale=gemm_grid.tiles_n)

    ctx.launch_spmd(_gemm_producer, grid, dict(
        tokens=ctx.heap.tensors(tokens_name),
        weights=ctx.heap.tensors(weight_name),
        gemm_out=ctx.heap.tensors(f"{tag}.gemm_out"), channel=channels,
        M=cfg.m, N=cfg.n, K=cfg.k, BM=cfg.block_m, BN=cfg.block_n,
        BK=cfg.block_k,
    ), label=f"{tag}.gemm")

    # host comm orchestrator per rank: wait for a remote segment's tiles,
    # DMA-push the partial to its owner, publish an arrival signal
    def comm_proc(rank: int) -> ProcessGen:
        ch = channels[rank]
        for off in range(1, world):
            q = (rank + off) % world
            # all producer tiles of segment q are done locally
            yield from ctx.rank_wait(
                ch.barriers, q, mapping.tiles_in_channel(q) * gemm_grid.tiles_n)
            yield from ctx.rank_copy_data(
                f"{tag}.landing", src_rank=rank, dst_rank=q,
                src_ranges=((q * m_per, (q + 1) * m_per), (0, cfg.n)),
                dst_ranges=((rank * m_per, (rank + 1) * m_per), (0, cfg.n)),
                src_name=f"{tag}.gemm_out")
            ch.all_peer_barriers[q].post_add(rank, 1, from_rank=rank)
        return None

    for rank in range(world):
        ctx.stream(rank, "comm").enqueue(
            comm_proc(rank), name=f"{tag}.scatter[{rank}]")

    return ctx.launch_spmd(_rs_reduce, grid, dict(
        landing=ctx.heap.tensors(f"{tag}.landing"),
        gemm_out=ctx.heap.tensors(f"{tag}.gemm_out"),
        out=ctx.heap.tensors(out_name), channel=channels,
        M=cfg.m, N=cfg.n, BMR=cfg.block_mr, BNR=cfg.block_nr, WORLD=world,
    ), label=f"{tag}.reduce")


# ---------------------------------------------------------------------------
# Registry: the declarative family record (repro.registry)
# ---------------------------------------------------------------------------

def _analyze_plans():
    def plan(world: int, mode: str):
        cfg = GemmRsConfig(m=world * 32, n=32, k=32, block_m=16, block_n=16,
                           block_k=16, block_mr=16, block_nr=32,
                           comm_blocks=2, mode=mode)
        return (f"gemm_rs/{mode}/w{world}", world,
                slot_builder("gemm_rs", gemm_rs_overlapped, cfg, grid=4))

    return [plan(2, "ring"), plan(4, "ring"),
            plan(2, "hybrid"), plan(4, "hybrid")]


register_family(
    name="gemm_rs",
    doc="GEMM + ReduceScatter (tensor-parallel MLP part 2)",
    kernels=(_gemm_rs_ring, _gemm_producer, _rs_reduce),
    analyze_plans=_analyze_plans,
    slot="gemm_rs",
    launch=gemm_rs_overlapped,
    retune=lambda cfg, **kw: gemm_rs_tune_task(cfg.m, cfg.n, cfg.k, **kw),
)
