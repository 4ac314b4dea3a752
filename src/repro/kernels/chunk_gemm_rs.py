"""Chunk-centric GEMM + ReduceScatter (Syncopate-style variable chunks).

A third resource mapping for the GEMM+RS pattern, alongside the ring and
hybrid variants of :mod:`repro.kernels.gemm_rs`: the producer GEMM emits
its per-segment rows as **variable-size chunks** and the consumer reduces
each chunk as soon as it lands, instead of waiting for whole segments.

The chunk schedule is front-loaded ("half then even"): the first chunk
covers ~half of a segment's row tiles, the remainder is split evenly
across the other chunks.  A big head chunk amortizes per-chunk DMA and
signal overhead while it is the *only* thing the consumer can start on;
the smaller tail chunks keep the reduce busy at a finer grain exactly
when partials from several peers race to arrive.  Chunk geometry is a
tuned axis (``n_chunks``) of the search space.

Synchronization is fully tile-centric and statically analyzable:

* the producer is the hybrid variant's ring-ordered GEMM
  (``gemm_rs._gemm_producer``), which notifies per output tile
  (``producer_tile_notify``); here a
  :class:`~repro.mapping.dynamic.TableTileMapping` routes each row tile to
  its ``(segment, chunk)`` channel with the chunk's full tile count baked
  into ``channel_threshold`` — so ``consumer_tile_wait`` gates a reduce
  tile on exactly its own chunk;
* the host DMA proc scatters chunk-by-chunk (smallest visible transfer =
  one chunk) and posts one peer-barrier cell per ``(source rank, chunk)``,
  which the consumer awaits with ``peer_tile_wait``;
* the in-kernel chunk id is pure constexpr arithmetic over ``HALF`` and
  ``PER`` — no lookup-table loads, so the static analyzer sees concrete
  wait arguments under ``--strict``.

This family is also the registry's proof artifact: it is registered *only*
from this module via :func:`repro.registry.register_family`, yet shows up
in ``repro.analyze --all``, the tuner sweeps, the Figure-8 GEMM+RS table
("TileLink-chunk") and the layer and serving ``method`` axis
("tilelink-chunk") with zero edits elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeLaunchError, ShapeError
from repro.kernels.gemm_rs import _gemm_producer
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.mapping.dynamic import TableTileMapping
from repro.mapping.layout import TileGrid, ceil_div
from repro.config import H800, HardwareSpec
from repro.registry import register_family, slot_builder
from repro.runtime.context import DistContext
from repro.sim.engine import Process, ProcessGen
from repro.tuner.costprune import gemm_rs_lower_bound
from repro.tuner.search import TuneTask
from repro.tuner.space import Axis, SearchSpace, divisors_of


# ---------------------------------------------------------------------------
# Chunk geometry: the "half then even" schedule
# ---------------------------------------------------------------------------

def chunk_layout(seg_tiles: int, n_chunks: int) -> tuple[int, int, int]:
    """Resolve the chunk schedule of one segment: ``(nc, half, per)``.

    Chunk 0 holds the first ``half`` row tiles; every later chunk holds
    ``per`` tiles (the last may be short).  ``nc`` is the number of
    chunks actually realized — it can be below the requested ``n_chunks``
    when the segment is too small to split further.
    """
    if n_chunks <= 1 or seg_tiles < 2:
        return 1, seg_tiles, 1
    half = max(1, seg_tiles // 2)
    rest = seg_tiles - half
    per = max(1, ceil_div(rest, n_chunks - 1))
    return 1 + ceil_div(rest, per), half, per


def chunk_spans(seg_tiles: int, n_chunks: int) -> list[tuple[int, int]]:
    """Half-open local row-tile ranges of each chunk of one segment."""
    _, half, per = chunk_layout(seg_tiles, n_chunks)
    spans = [(0, half)]
    lo = half
    while lo < seg_tiles:
        hi = min(lo + per, seg_tiles)
        spans.append((lo, hi))
        lo = hi
    return spans


def build_chunk_mapping(m: int, block_m: int, world: int, n_chunks: int,
                        tiles_n: int) -> tuple[TableTileMapping,
                                               list[tuple[int, int]]]:
    """Tile-centric mapping routing row tiles to (segment, chunk) channels.

    Channel ``seg * nc + ci`` covers chunk ``ci`` of segment ``seg``; its
    threshold is the chunk's full producer-notify count (tiles in the
    chunk times the producer's column tiles), so both the consumer kernel
    and the host DMA proc wake exactly when a chunk is complete.
    """
    m_per = m // world
    seg_tiles = m_per // block_m
    spans = chunk_spans(seg_tiles, n_chunks)
    nc = len(spans)
    mapping = TableTileMapping(world * seg_tiles, world * nc, world)
    for seg in range(world):
        for ci, (lo, hi) in enumerate(spans):
            channel = seg * nc + ci
            mapping.channel_threshold[channel] = (hi - lo) * tiles_n
            for t in range(lo, hi):
                tile = seg * seg_tiles + t
                mapping.fill(tile, tile * block_m, (tile + 1) * block_m,
                             seg, channel)
    return mapping, spans


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@kernel
def _chunk_rs_reduce(landing, gemm_out, out, channel: tl.BlockChannel,
                     M: tl.constexpr, N: tl.constexpr, BM: tl.constexpr,
                     BNR: tl.constexpr, NC: tl.constexpr,
                     HALF: tl.constexpr, PER: tl.constexpr,
                     WORLD: tl.constexpr):
    """Chunk-grain reduce: sum world partials of own segment, per chunk.

    A reduce tile derives its chunk id arithmetically from the schedule
    constants (chunk 0 = first ``HALF`` row tiles, then ``PER``-tile
    chunks) and waits per-(source, chunk): the first arrived chunk can be
    reduced while later chunks are still in flight or still being
    produced.
    """
    bid = tl.block_id()
    nb = tl.num_blocks()
    m_per_rank = M // WORLD
    rtiles_m = tl.cdiv(m_per_rank, BM)
    rtiles_n = tl.cdiv(N, BNR)
    rtotal = rtiles_m * rtiles_n
    for t in range(bid, rtotal, nb):
        tid_m = t // rtiles_n
        tid_n = t % rtiles_n
        tid_m_global = tid_m + channel.rank * rtiles_m
        if tid_m < HALF:
            c = 0
        else:
            c = 1 + (tid_m - HALF) // PER
        # local partial: our own segment's chunk must be fully produced
        tl.consumer_tile_wait(tid_m_global)
        acc = tl.load(gemm_out, (tid_m_global * BM, tid_m_global * BM + BM),
                      (tid_n * BNR, tid_n * BNR + BNR))
        for q in range(1, WORLD):
            src = (channel.rank + q) % WORLD
            tl.peer_tile_wait(src * NC + c, channel.rank)
            part = tl.load(landing,
                           (src * m_per_rank + tid_m * BM,
                            src * m_per_rank + tid_m * BM + BM),
                           (tid_n * BNR, tid_n * BNR + BNR))
            acc += part
        tl.store(out, (tid_m * BM, tid_m * BM + BM),
                 (tid_n * BNR, tid_n * BNR + BNR), acc)


# analyzer annotations (repro.analyze)
_chunk_rs_reduce.meta.update(role="consumer", comm_axis="m",
                             outputs=("out",))


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkGemmRsConfig:
    """Shapes/tiling for chunked GEMM+RS.

    The reduce row tile equals ``block_m`` by construction: chunk
    boundaries are expressed in producer row tiles, and keeping the
    reduce rows on the same grid makes ``consumer_tile_wait`` line up
    with the producer's notify ids.
    """

    m: int
    n: int
    k: int
    block_m: int = 128
    block_n: int = 128
    block_k: int = 64
    block_nr: int = 256   # reduce column tile (decoupled from block_n)
    n_chunks: int = 2

    def validate(self, world: int) -> None:
        if self.m % world != 0:
            raise ShapeError(f"M={self.m} not divisible by world={world}")
        if (self.m // world) % self.block_m != 0:
            raise ShapeError(
                f"per-rank rows {self.m // world} must be a multiple of "
                f"block_m={self.block_m} (chunks are whole row tiles)")
        if self.n_chunks < 1:
            raise RuntimeLaunchError(
                f"n_chunks must be >= 1, got {self.n_chunks}")


def _default_chunk_config(m: int, n: int, k: int,
                          world: int) -> ChunkGemmRsConfig:
    """Untuned default with ``block_m`` aligned to the per-rank rows."""
    per = max(1, m // world)
    block_m = 1
    for cand in (256, 128, 64, 32, 16, 8, 4, 2, 1):
        if cand <= per and per % cand == 0:
            block_m = cand
            break
    return ChunkGemmRsConfig(m=m, n=n, k=k, block_m=block_m)


# ---------------------------------------------------------------------------
# Tuner integration
# ---------------------------------------------------------------------------

def chunk_gemm_rs_search_space(m: int, n: int, k: int,
                               world: int) -> SearchSpace:
    """Design space of chunked GEMM+RS: tiles plus the chunk schedule."""
    return SearchSpace(axes=(
        Axis("block_m", divisors_of(m // world, (128, 256))),
        Axis("block_n", (128,)),
        Axis("block_k", (64,)),
        Axis("block_nr", (256,)),
        Axis("n_chunks", (1, 2, 4)),
    ))


def chunk_gemm_rs_tune_task(m: int, n: int, k: int, *, world: int = 8,
                            spec: HardwareSpec = H800) -> TuneTask:
    """Build the :class:`~repro.tuner.TuneTask` tuning chunked GEMM+RS."""
    space = chunk_gemm_rs_search_space(m, n, k, world)

    def finalize(cand: dict) -> ChunkGemmRsConfig:
        return ChunkGemmRsConfig(m=m, n=n, k=k, **cand)

    # the GEMM+RS floor is chunk-agnostic: same producer flops, same
    # scattered bytes — chunking only reshapes *when* they move
    return TuneTask(
        kernel="chunk_gemm_rs",
        shape_key=f"m{m}n{n}k{k}",
        space=space,
        default=space.project(_default_chunk_config(m, n, k, world)),
        make_builder=lambda c: slot_builder(
            "gemm_rs", chunk_gemm_rs_overlapped, finalize(c)),
        bound=lambda c: gemm_rs_lower_bound(c, m=m, n=n, k=k, world=world,
                                            spec=spec),
        finalize=finalize,
    )


# ---------------------------------------------------------------------------
# Launcher
# ---------------------------------------------------------------------------

def chunk_gemm_rs_overlapped(
    ctx: DistContext,
    cfg: ChunkGemmRsConfig,
    tokens_name: str,
    weight_name: str,
    out_name: str,
    grid: int | None = None,
    tag: str = "chunk_rs",
) -> list[Process]:
    """Launch chunked GEMM+RS; ``out`` receives (m/world x n) sums."""
    machine = ctx.machine
    world = machine.world_size
    cfg.validate(world)
    grid = grid or machine.config.spec.n_sms
    m_per = cfg.m // world

    ctx.alloc(f"{tag}.gemm_out", (cfg.m, cfg.n), "float16", fill=None)
    ctx.alloc(f"{tag}.landing", (cfg.m, cfg.n), "float16", fill=None)

    gemm_grid = TileGrid(cfg.m, cfg.n, cfg.block_m, cfg.block_n)
    reduce_grid = TileGrid(cfg.m, cfg.n, cfg.block_m, cfg.block_nr)
    mapping, spans = build_chunk_mapping(cfg.m, cfg.block_m, world,
                                         cfg.n_chunks, gemm_grid.tiles_n)
    nc = len(spans)
    half = spans[0][1]
    per = (spans[1][1] - spans[1][0]) if nc > 1 else 1

    channels = ctx.make_block_channels(
        tag, mapping=mapping, comm_grid=reduce_grid,
        consumer_grid=reduce_grid, peer_cells=world * nc)

    ctx.launch_spmd(_gemm_producer, grid, dict(
        tokens=ctx.heap.tensors(tokens_name),
        weights=ctx.heap.tensors(weight_name),
        gemm_out=ctx.heap.tensors(f"{tag}.gemm_out"), channel=channels,
        M=cfg.m, N=cfg.n, K=cfg.k, BM=cfg.block_m, BN=cfg.block_n,
        BK=cfg.block_k,
    ), label=f"{tag}.gemm")

    # host DMA orchestrator per rank: as each chunk of a remote segment
    # completes locally, push that chunk alone to its owner and post the
    # (source, chunk) arrival cell
    def comm_proc(rank: int) -> ProcessGen:
        ch = channels[rank]
        for off in range(1, world):
            q = (rank + off) % world
            for ci, (lo, hi) in enumerate(spans):
                yield from ctx.rank_wait(ch.barriers, q * nc + ci,
                                         (hi - lo) * gemm_grid.tiles_n)
                yield from ctx.rank_copy_data(
                    f"{tag}.landing", src_rank=rank, dst_rank=q,
                    src_ranges=((q * m_per + lo * cfg.block_m,
                                 q * m_per + hi * cfg.block_m), (0, cfg.n)),
                    dst_ranges=((rank * m_per + lo * cfg.block_m,
                                 rank * m_per + hi * cfg.block_m),
                                (0, cfg.n)),
                    src_name=f"{tag}.gemm_out")
                ch.all_peer_barriers[q].post_add(rank * nc + ci, 1,
                                                 from_rank=rank)
        return None

    for rank in range(world):
        ctx.stream(rank, "comm").enqueue(
            comm_proc(rank), name=f"{tag}.scatter[{rank}]")

    return ctx.launch_spmd(_chunk_rs_reduce, grid, dict(
        landing=ctx.heap.tensors(f"{tag}.landing"),
        gemm_out=ctx.heap.tensors(f"{tag}.gemm_out"),
        out=ctx.heap.tensors(out_name), channel=channels,
        M=cfg.m, N=cfg.n, BM=cfg.block_m, BNR=cfg.block_nr,
        NC=nc, HALF=half, PER=per, WORLD=world,
    ), label=f"{tag}.reduce")


# ---------------------------------------------------------------------------
# The "TileLink-chunk" method: this kernel in the GEMM+RS slot
# ---------------------------------------------------------------------------

def _launch(ctx: DistContext, cfg, x_name: str, w_name: str, out_name: str,
            *, tag: str = "chunk_rs") -> list[Process]:
    """The ``gemm_rs`` table entry: ``cfg``'s shape (a ``GemmRsConfig``)
    at the untuned chunk config, whatever tiles the caller chose."""
    chunk = _default_chunk_config(cfg.m, cfg.n, cfg.k, ctx.world_size)
    return chunk_gemm_rs_overlapped(ctx, chunk, x_name, w_name, out_name,
                                    tag=tag)


# ---------------------------------------------------------------------------
# Registry: the declarative family record (repro.registry)
# ---------------------------------------------------------------------------

def _analyze_plans():
    def plan(world: int, n_chunks: int, block_m: int = 16, suffix: str = ""):
        cfg = ChunkGemmRsConfig(m=world * 32, n=32, k=32, block_m=block_m,
                                block_n=16, block_k=16, block_nr=32,
                                n_chunks=n_chunks)
        return (f"chunk_gemm_rs/w{world}{suffix}", world,
                slot_builder("gemm_rs", chunk_gemm_rs_overlapped, cfg,
                             grid=4))

    return [
        plan(2, 2), plan(4, 2),
        # variable-size chunks: a 2-tile head then two 1-tile tails
        plan(2, 3, block_m=8, suffix="/nc3"),
    ]


register_family(
    name="chunk_gemm_rs",
    doc="chunk-centric GEMM + ReduceScatter (variable-size chunk overlap)",
    kernels=(_gemm_producer, _chunk_rs_reduce),
    analyze_plans=_analyze_plans,
    slot="gemm_rs",
    launch=_launch,
    retune=lambda cfg, **kw: chunk_gemm_rs_tune_task(cfg.m, cfg.n, cfg.k,
                                                     **kw),
    method="TileLink-chunk",
    serve="tilelink-chunk",
)
