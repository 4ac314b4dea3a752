"""Overlapped AllGather + MoE GroupGEMM (Figure 5, dynamic mapping).

The token AllGather runs on the copy engine (DMA), publishing per-shard
arrival signals.  The consumer is a fused grouped GEMM over the
expert-grouped padded row layout: each grouped tile

1. waits on the dynamic mapping's wait set — the channels of every source
   rank whose tokens appear in the tile (``consumer_tile_wait`` with
   ``table`` semantics);
2. gathers its token rows from the gathered buffer with the fused index
   load (``tl.gather_rows`` — vLLM-style gather-in-GEMM);
3. multiplies by its expert's weight shard (expert id from the lookup
   table via ``tl.load_scalar``).

This is the kernel the cuBLAS/CUTLASS/vLLM baselines of Figure 9 (left)
are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.copy_engine import dma_all_gather
from repro.config import H800, HardwareSpec
from repro.errors import ShapeError
from repro.kernels.moe_common import MoeRouting, routing_memo
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.registry import register_family, slot_builder
from repro.runtime.context import DistContext
from repro.sim.engine import Process
from repro.tuner.costprune import ag_moe_lower_bound
from repro.tuner.search import TuneTask
from repro.tuner.space import Axis, SearchSpace, divisors_of


@kernel
def _ag_moe_group_gemm(gathered, weights2d, ids, expert_of_tile, grouped_out,
                       channel: tl.BlockChannel,
                       NT: tl.constexpr, H: tl.constexpr, D: tl.constexpr,
                       BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr):
    """Fused grouped GEMM consumer over NT expert-aligned tiles."""
    bid = tl.block_id()
    nb = tl.num_blocks()
    tiles_n = tl.cdiv(D, BN)
    total = NT * tiles_n
    for i in range(bid, total, nb):
        t = i // tiles_n
        tid_n = i % tiles_n
        tl.consumer_tile_wait(t)
        e = tl.load_scalar(expert_of_tile, t)
        idx = tl.load_vec(ids, (t * BM, t * BM + BM))
        acc = tl.zeros((BM, BN), "float32")
        for k in range(0, H, BK):
            a = tl.gather_rows(gathered, idx, (k, k + BK))
            b = tl.load(weights2d, (e * H + k, e * H + k + BK),
                        (tid_n * BN, tid_n * BN + BN))
            acc += tl.dot(a, b)
        c = tl.cast(acc, "float16")
        tl.store(grouped_out, (t * BM, t * BM + BM),
                 (tid_n * BN, tid_n * BN + BN), c)


# analyzer annotations (repro.analyze); grouped_out rows are the padded
# expert-grouped layout, fully covered by the NT consumer tiles, and the
# gathered tokens are read whole, so the AllGather must cover them
_ag_moe_group_gemm.meta.update(role="consumer", comm_axis="m",
                               outputs=("grouped_out",),
                               inputs=("gathered",))


@dataclass(frozen=True)
class AgMoeConfig:
    """Shapes for AG + MoE part 1: gathered tokens (m x h) through expert
    shards (e x h x d_shard)."""

    m: int             # gathered tokens
    h: int             # hidden size (GEMM depth)
    d: int             # per-rank expert intermediate shard width
    n_experts: int
    topk: int
    block_m: int = 128
    block_n: int = 128
    block_k: int = 64

    def validate(self, world: int) -> None:
        if self.m % world != 0:
            raise ShapeError(f"M={self.m} not divisible by world={world}")
        if (self.m // world) % self.block_m != 0:
            raise ShapeError("per-rank tokens must align to block_m")


# ---------------------------------------------------------------------------
# Tuner integration: the AG+MoE slice of the decoupled design space
# ---------------------------------------------------------------------------

def ag_moe_search_space(m: int, h: int, d: int, world: int) -> SearchSpace:
    """The routing-aware design space of AG+MoE part 1 for one shape.

    ``block_m`` is both the grouped-GEMM row tile and the routing/AG
    granularity (the dynamic mapping pads every expert group to it), so it
    must divide the per-rank token count; ``block_n``/``block_k`` tile the
    expert shard width and the GEMM depth.  The AllGather itself rides the
    copy engine, so there is no mode or ``comm_blocks`` axis here.
    """
    return SearchSpace(axes=(
        Axis("block_m", divisors_of(m // world, (128, 256))),
        Axis("block_n", (128,)),
        Axis("block_k", (64,)),
    ))


def ag_moe_tune_task(m: int, h: int, d: int, n_experts: int, topk: int, *,
                     world: int = 8, spec: HardwareSpec = H800,
                     router_seed: int = 17) -> TuneTask:
    """Build the :class:`~repro.tuner.TuneTask` tuning AG+MoE on a shape.

    Routing is block_m-dependent (the grouped layout pads per expert to
    the row tile), so the task rebuilds — and memoises — one
    :class:`MoeRouting` per ``block_m`` from seeded router logits; the
    seed is part of the shape key so differently-routed problems never
    alias in the cache.  A candidate runs through the ``ag_moe`` table
    entry on the layer config whose part 1 it is.
    """
    from repro.kernels.moe_layer import MoeConfig  # it imports this module

    space = ag_moe_search_space(m, h, d, world)
    routing = routing_memo(m, n_experts, topk, world, router_seed)

    def layer(cand: dict) -> MoeConfig:
        return MoeConfig(m=m, h=h, i=d * world, n_experts=n_experts,
                         topk=topk, **cand)

    def bound(cand: dict) -> float:
        rows = routing(int(cand["block_m"])).padded_rows
        return ag_moe_lower_bound(cand, m=m, h=h, d=d, world=world,
                                  spec=spec, topk=topk, grouped_rows=rows)

    return TuneTask(
        kernel="ag_moe",
        shape_key=f"m{m}h{h}d{d}e{n_experts}t{topk}r{router_seed}",
        space=space,
        default=space.project(layer({})),
        make_builder=lambda c: slot_builder("ag_moe", _launch, layer(c),
                                            routing),
        bound=bound,
        finalize=lambda c: layer(c).part1(world),
    )


def ag_moe_overlapped(
    ctx: DistContext,
    cfg: AgMoeConfig,
    routing: MoeRouting,
    shards_name: str,
    weights_name: str,
    grouped_out_name: str,
    grid: int | None = None,
    tag: str = "ag_moe",
) -> list[Process]:
    """Launch the overlapped AG + MoE GroupGEMM on every rank.

    ``weights_name`` must be bound as a 2-d (E*H x D) symmetric tensor (the
    flattened (E, H, D) expert stack).  ``grouped_out_name`` receives the
    padded grouped rows (routing.padded_rows x D).
    """
    machine = ctx.machine
    world = machine.world_size
    cfg.validate(world)
    if routing.block_m != cfg.block_m:
        raise ShapeError("routing block_m must match kernel block_m")
    grid = grid or machine.config.spec.n_sms

    gathered_name = f"{tag}.gathered"
    ctx.alloc(gathered_name, (cfg.m, cfg.h), "float16", fill=None)
    ids_name = f"{tag}.ids"
    ctx.bind(ids_name, [routing.padded_token_ids.copy()
                        for _ in range(world)])
    etile_name = f"{tag}.etile"
    ctx.bind(etile_name, [routing.expert_of_tile.copy()
                          for _ in range(world)])

    # producer side: static AG mapping over the gathered token rows
    ag_mapping = AffineTileMapping(cfg.m, cfg.block_m, world)
    comm_grid = TileGrid(cfg.m, cfg.h, cfg.block_m, cfg.h)
    consumer_grid = TileGrid(routing.padded_rows, cfg.d,
                             cfg.block_m, cfg.block_n)
    channels = ctx.make_block_channels(
        tag, mapping=ag_mapping, comm_grid=comm_grid,
        consumer_grid=consumer_grid, consumer_mapping=routing.mapping)

    banks = [ch.barriers for ch in channels]
    dma_all_gather(ctx, shards_name, gathered_name, banks,
                   segment_notifies=ag_mapping.tiles_per_channel)

    return ctx.launch_spmd(_ag_moe_group_gemm, grid, dict(
        gathered=ctx.heap.tensors(gathered_name),
        weights2d=ctx.heap.tensors(weights_name),
        ids=ctx.heap.tensors(ids_name),
        expert_of_tile=ctx.heap.tensors(etile_name),
        grouped_out=ctx.heap.tensors(grouped_out_name),
        channel=channels,
        NT=routing.n_tiles, H=cfg.h, D=cfg.d,
        BM=cfg.block_m, BN=cfg.block_n, BK=cfg.block_k,
    ), label=f"{tag}.group_gemm")


# ---------------------------------------------------------------------------
# Registry: the declarative family record (repro.registry)
# ---------------------------------------------------------------------------

def _analyze_plans():
    from repro.kernels.moe_layer import MoeConfig  # it imports this module

    def plan(world: int):
        cfg = MoeConfig(m=world * 32, h=32, i=world * 32, n_experts=4,
                        topk=2, block_m=16, block_n=16, block_k=16)
        return f"ag_moe/w{world}", world, slot_builder(
            "ag_moe", _launch, cfg, routing_memo(cfg.m, 4, 2, world), grid=4)

    return [plan(2), plan(4)]


def _launch(ctx: DistContext, cfg, routing, x_name: str, w_name: str,
            out_name: str, *, grid: int | None = None,
            tag: str = "ag_moe") -> list[Process]:
    """The ``ag_moe`` table entry on the layer's ``MoeConfig``: flattened
    (E*h x i/world) experts and ``padded_rows`` grouped rows."""
    d, routed = cfg.i_shard(ctx.world_size), routing(cfg.block_m)
    ctx.alloc(w_name, (cfg.n_experts * cfg.h, d), "float16", fill=None)
    ctx.alloc(out_name, (routed.padded_rows, d), "float16", fill=None)
    return ag_moe_overlapped(ctx, cfg.part1(ctx.world_size), routed, x_name,
                             w_name, out_name, grid=grid, tag=tag)


register_family(
    name="ag_moe",
    doc="AllGather + MoE GroupGEMM (expert-parallel MoE part 1)",
    kernels=(_ag_moe_group_gemm,),
    analyze_plans=_analyze_plans,
    slot="ag_moe",
    launch=_launch,
    retune=lambda cfg, *, world, spec: ag_moe_tune_task(
        cfg.m, cfg.h, cfg.i // world, cfg.n_experts, cfg.topk, world=world,
        spec=spec),
)
