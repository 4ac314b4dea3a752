"""Overlapped GroupGEMM + Scatter + TopkReduce + ReduceScatter (MoE part 2).

The paper overlaps *three* stages with an extended producer-consumer chain
(§7.2): the second grouped GEMM produces expert outputs in the grouped row
layout; the Topk-Reduce scatters them (weighted) back to token rows; the
ReduceScatter ships each token segment to its owner rank and sums the
world partials.

Chain realized here:

1. **producer kernel** (SMs): per grouped tile — GEMM, multiply by the
   per-row router weight, ``tl.scatter_add_rows`` into the local token
   partial buffer, then a dynamic *broadcast* ``producer_tile_notify``
   whose per-channel amounts are the tile's row contributions to each
   token segment (``MoeRouting.segment_counts``).  A segment's channel
   reaches its threshold (``tokens_per_rank * topk``) exactly when every
   contribution to it has been scattered.
2. **host comm** (copy engine): ``rank_wait`` per segment, then DMA-push
   the partial segment to its owner's landing slab; arrival posts a peer
   signal.  TileLink's hybrid resource mapping — scatter on DMA, math on
   SMs.
3. **reduce kernel** (SMs): per own-segment tile, wait all world arrival
   signals and sum the partials.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import H800, HardwareSpec
from repro.errors import ShapeError
from repro.kernels.moe_common import MoeRouting, routing_memo
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.mapping.dynamic import TableTileMapping
from repro.mapping.layout import TileGrid
from repro.registry import register_family, slot_builder
from repro.runtime.context import DistContext
from repro.sim.engine import Process, ProcessGen
from repro.tuner.costprune import moe_rs_lower_bound
from repro.tuner.search import TuneTask
from repro.tuner.space import Axis, SearchSpace, divisors_of


@kernel
def _moe_rs_producer(grouped_in, weights2d, ids, expert_of_tile, row_weights,
                     partial, channel: tl.BlockChannel,
                     NT: tl.constexpr, D: tl.constexpr, H: tl.constexpr,
                     BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr):
    """Grouped GEMM + weighted scatter-add (Topk Reduce) + dynamic notify."""
    bid = tl.block_id()
    nb = tl.num_blocks()
    tiles_n = tl.cdiv(H, BN)
    for t in range(bid, NT, nb):
        e = tl.load_scalar(expert_of_tile, t)
        idx = tl.load_vec(ids, (t * BM, t * BM + BM))
        wv = tl.load_vec(row_weights, (t * BM, t * BM + BM))
        wcol = tl.expand_dims(wv)
        for tid_n in range(0, tiles_n):
            acc = tl.zeros((BM, BN), "float32")
            for k in range(0, D, BK):
                a = tl.load(grouped_in, (t * BM, t * BM + BM), (k, k + BK))
                b = tl.load(weights2d, (e * D + k, e * D + k + BK),
                            (tid_n * BN, tid_n * BN + BN))
                acc += tl.dot(a, b)
            weighted = acc * wcol
            tl.scatter_add_rows(partial, idx, (tid_n * BN, tid_n * BN + BN),
                                weighted)
        tl.producer_tile_notify(t, "broadcast")


@kernel
def _moe_rs_reduce(landing, out, channel: tl.BlockChannel,
                   MP: tl.constexpr, H: tl.constexpr,
                   BMR: tl.constexpr, BNR: tl.constexpr,
                   WORLD: tl.constexpr):
    """Sum the world partial slabs of this rank's token segment."""
    bid = tl.block_id()
    nb = tl.num_blocks()
    rtiles_m = tl.cdiv(MP, BMR)
    rtiles_n = tl.cdiv(H, BNR)
    rtotal = rtiles_m * rtiles_n
    for t in range(bid, rtotal, nb):
        tid_m = t // rtiles_n
        tid_n = t % rtiles_n
        acc = tl.zeros((BMR, BNR), "float32")
        for q in range(0, WORLD):
            tl.peer_tile_wait(q, channel.rank)
            part = tl.load(landing, (q * MP + tid_m * BMR,
                                     q * MP + tid_m * BMR + BMR),
                           (tid_n * BNR, tid_n * BNR + BNR))
            acc += part
        tl.store(out, (tid_m * BMR, tid_m * BMR + BMR),
                 (tid_n * BNR, tid_n * BNR + BNR), acc)


# analyzer annotations (repro.analyze); the producer's scatter-add target
# is data-dependent (routing tables), so it declares no coverable output
_moe_rs_producer.meta.update(role="producer", comm_axis="m", outputs=())
_moe_rs_reduce.meta.update(role="consumer", comm_axis="m", outputs=("out",))


@dataclass(frozen=True)
class MoeRsConfig:
    """Shapes for MoE part 2: grouped rows (padded) x d_shard -> h, then
    token-segment ReduceScatter."""

    m: int             # gathered tokens
    h: int             # hidden size (output width)
    d: int             # per-rank expert intermediate shard width
    block_m: int = 128
    block_n: int = 128
    block_k: int = 64
    block_mr: int = 128
    block_nr: int = 256

    def validate(self, world: int) -> None:
        if self.m % world != 0:
            raise ShapeError(f"M={self.m} not divisible by world={world}")


# ---------------------------------------------------------------------------
# Tuner integration: the MoE+RS slice of the decoupled design space
# ---------------------------------------------------------------------------

def moe_rs_search_space(m: int, h: int, d: int, world: int) -> SearchSpace:
    """The routing-aware design space of MoE part 2 for one shape.

    Decoupled compute tile (``block_m/n/k`` — ``block_m`` doubles as the
    routing granularity) and reduction/communication tile
    (``block_mr/nr``); the segment scatter is pinned to the copy engine
    (hybrid mapping), so no ``comm_blocks``/mode axis.
    """
    per_rank = m // world
    return SearchSpace(axes=(
        Axis("block_m", divisors_of(per_rank, (128, 256))),
        Axis("block_n", (128,)),
        Axis("block_k", (64,)),
        Axis("block_mr", divisors_of(per_rank, (128, 256))),
        Axis("block_nr", (256,)),
    ))


def moe_rs_tune_task(m: int, h: int, d: int, n_experts: int, topk: int, *,
                     world: int = 8, spec: HardwareSpec = H800,
                     router_seed: int = 17) -> TuneTask:
    """Build the :class:`~repro.tuner.TuneTask` tuning MoE+RS on a shape.

    Like :func:`repro.kernels.ag_moe.ag_moe_tune_task`, routing is
    rebuilt (and memoised) per ``block_m``; the router seed joins the
    shape key, and a candidate runs through the ``moe_rs`` table entry on
    the layer config whose part 2 it is.
    """
    from repro.kernels.moe_layer import MoeConfig  # it imports this module

    space = moe_rs_search_space(m, h, d, world)
    routing = routing_memo(m, n_experts, topk, world, router_seed)

    def layer(cand: dict) -> MoeConfig:
        return MoeConfig(m=m, h=h, i=d * world, n_experts=n_experts,
                         topk=topk, **cand)

    def bound(cand: dict) -> float:
        rows = routing(int(cand["block_m"])).padded_rows
        return moe_rs_lower_bound(cand, m=m, h=h, d=d, world=world,
                                  spec=spec, topk=topk, grouped_rows=rows)

    return TuneTask(
        kernel="moe_rs",
        shape_key=f"m{m}h{h}d{d}e{n_experts}t{topk}r{router_seed}",
        space=space,
        default=space.project(layer({})),
        make_builder=lambda c: slot_builder("moe_rs", _launch, layer(c),
                                            routing),
        bound=bound,
        finalize=lambda c: layer(c).part2(world),
    )


def moe_rs_overlapped(
    ctx: DistContext,
    cfg: MoeRsConfig,
    routing: MoeRouting,
    grouped_in_name: str,
    weights_name: str,
    out_name: str,
    grid: int | None = None,
    tag: str = "moe_rs",
) -> list[Process]:
    """Launch the overlapped GroupGEMM+Scatter+TopkReduce+RS chain.

    ``weights_name`` binds the flattened (E*D x H) second-layer experts;
    ``out_name`` receives this rank's (m/world x h) reduced token rows.
    """
    machine = ctx.machine
    world = machine.world_size
    cfg.validate(world)
    grid = grid or machine.config.spec.n_sms
    m_per = cfg.m // world

    # +1 dump row swallows scatter contributions of padded rows
    partial = ctx.alloc(f"{tag}.partial", (cfg.m + 1, cfg.h), "float32")
    ctx.alloc(f"{tag}.landing", (cfg.m, cfg.h), "float32", fill=None)
    ids_name = f"{tag}.ids"
    ctx.bind(ids_name, [routing.padded_token_ids.copy() for _ in range(world)])
    etile_name = f"{tag}.etile"
    ctx.bind(etile_name, [routing.expert_of_tile.copy() for _ in range(world)])
    rw_name = f"{tag}.row_weights"
    ctx.bind(rw_name, [routing.padded_weights.copy() for _ in range(world)])

    # segment-level dynamic consumer mapping: channel s == token segment s
    seg_mapping = TableTileMapping(world, world, world)
    for s in range(world):
        seg_mapping.fill(s, s * m_per, (s + 1) * m_per, s, s)
    seg_mapping.channel_threshold[:] = routing.segment_thresholds

    reduce_grid = TileGrid(m_per, cfg.h, cfg.block_mr, cfg.block_nr)
    channels = ctx.make_block_channels(
        tag, mapping=seg_mapping, comm_grid=TileGrid(cfg.m, cfg.h, m_per, cfg.h),
        consumer_grid=reduce_grid, consumer_mapping=seg_mapping,
        peer_cells=world)
    for ch in channels:
        ch.notify_counts = routing.segment_counts

    ctx.launch_spmd(_moe_rs_producer, grid, dict(
        grouped_in=ctx.heap.tensors(grouped_in_name),
        weights2d=ctx.heap.tensors(weights_name),
        ids=ctx.heap.tensors(ids_name),
        expert_of_tile=ctx.heap.tensors(etile_name),
        row_weights=ctx.heap.tensors(rw_name),
        partial=ctx.heap.tensors(f"{tag}.partial"),
        channel=channels,
        NT=routing.n_tiles, D=cfg.d, H=cfg.h,
        BM=cfg.block_m, BN=cfg.block_n, BK=cfg.block_k,
    ), label=f"{tag}.producer")

    def comm_proc(rank: int) -> ProcessGen:
        ch = channels[rank]
        for off in range(world):
            q = (rank + off) % world
            yield from ctx.rank_wait(
                ch.barriers, q, int(routing.segment_thresholds[q]))
            yield from ctx.rank_copy_data(
                f"{tag}.landing", src_rank=rank, dst_rank=q,
                src_ranges=((q * m_per, (q + 1) * m_per), (0, cfg.h)),
                dst_ranges=((rank * m_per, (rank + 1) * m_per), (0, cfg.h)),
                src_name=f"{tag}.partial")
            ch.all_peer_barriers[q].post_add(rank, 1, from_rank=rank)
        return None

    for rank in range(world):
        ctx.stream(rank, "comm").enqueue(
            comm_proc(rank), name=f"{tag}.scatter[{rank}]")

    return ctx.launch_spmd(_moe_rs_reduce, grid, dict(
        landing=ctx.heap.tensors(f"{tag}.landing"),
        out=ctx.heap.tensors(out_name), channel=channels,
        MP=m_per, H=cfg.h, BMR=cfg.block_mr, BNR=cfg.block_nr, WORLD=world,
    ), label=f"{tag}.reduce")


# ---------------------------------------------------------------------------
# Registry: the declarative family record (repro.registry)
# ---------------------------------------------------------------------------

def _analyze_plans():
    from repro.kernels.moe_layer import MoeConfig  # it imports this module

    def plan(world: int):
        cfg = MoeConfig(m=world * 32, h=32, i=world * 32, n_experts=4,
                        topk=2, block_m=16, block_n=16, block_k=16,
                        block_mr=16, block_nr=32)
        return f"moe_rs/w{world}", world, slot_builder(
            "moe_rs", _launch, cfg, routing_memo(cfg.m, 4, 2, world), grid=4)

    return [plan(2), plan(4)]


def _launch(ctx: DistContext, cfg, routing, g_name: str, w_name: str,
            out_name: str, *, grid: int | None = None,
            tag: str = "moe_rs") -> list[Process]:
    """The ``moe_rs`` table entry on the layer's ``MoeConfig``:
    ``padded_rows`` grouped rows and flattened (E*(i/world) x h) experts."""
    d, routed = cfg.i_shard(ctx.world_size), routing(cfg.block_m)
    ctx.alloc(g_name, (routed.padded_rows, d), "float16", fill=None)
    ctx.alloc(w_name, (cfg.n_experts * d, cfg.h), "float16", fill=None)
    return moe_rs_overlapped(ctx, cfg.part2(ctx.world_size), routed, g_name,
                             w_name, out_name, grid=grid, tag=tag)


register_family(
    name="moe_rs",
    doc="GroupGEMM + Scatter + TopkReduce + ReduceScatter (MoE part 2)",
    kernels=(_moe_rs_producer, _moe_rs_reduce),
    analyze_plans=_analyze_plans,
    slot="moe_rs",
    launch=_launch,
    retune=lambda cfg, *, world, spec: moe_rs_tune_task(
        cfg.m, cfg.h, cfg.i // world, cfg.n_experts, cfg.topk, world=world,
        spec=spec),
)
