"""Full tensor-parallel MoE layer with TileLink overlap (Figure 9 right).

AG + Gather + GroupGEMM  ->  SiLU  ->  GroupGEMM + Scatter + TopkReduce +
RS, sharing one :class:`repro.kernels.moe_common.MoeRouting` bundle so the
dynamic mapping is computed once per layer invocation (as the paper's
runtime does).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShapeError
from repro.kernels.ag_moe import AgMoeConfig, ag_moe_overlapped
from repro.kernels.moe_common import MoeRouting
from repro.kernels.moe_rs import MoeRsConfig, moe_rs_overlapped
from repro.ops.activation import silu_op
from repro.runtime.context import DistContext
from repro.sim.engine import Process


@dataclass(frozen=True)
class MoeConfig:
    """Paper Table 4 MoE shapes: S tokens, hidden H, intermediate I,
    E experts, top-k routing."""

    m: int
    h: int
    i: int
    n_experts: int
    topk: int
    block_m: int = 128
    block_n: int = 128
    block_k: int = 64
    block_mr: int = 128
    block_nr: int = 256

    def validate(self, world: int) -> None:
        if self.i % world != 0:
            raise ShapeError(f"I={self.i} not divisible by world={world}")

    def i_shard(self, world: int) -> int:
        return self.i // world


def moe_layer_tilelink(
    ctx: DistContext,
    cfg: MoeConfig,
    routing: MoeRouting,
    x_shards_name: str,
    w1_name: str,
    w2_name: str,
    out_name: str,
    tag: str = "moe",
) -> list[Process]:
    """Launch the full overlapped MoE layer on every rank.

    ``w1`` binds the flattened (E*h x i/world) stack; ``w2`` the flattened
    (E*(i/world) x h) stack; ``out`` receives (m/world x h).
    """
    world = ctx.world_size
    cfg.validate(world)
    ishard = cfg.i_shard(world)

    grouped = ctx.alloc(f"{tag}.grouped", (routing.padded_rows, ishard),
                        "float16", fill=None)
    act = ctx.alloc(f"{tag}.act", (routing.padded_rows, ishard), "float16",
                    fill=None)

    p1 = AgMoeConfig(m=cfg.m, h=cfg.h, d=ishard, n_experts=cfg.n_experts,
                     topk=cfg.topk, block_m=cfg.block_m, block_n=cfg.block_n,
                     block_k=cfg.block_k)
    ag_moe_overlapped(ctx, p1, routing, x_shards_name, w1_name,
                      f"{tag}.grouped", tag=f"{tag}.p1")

    for rank in range(world):
        silu_op(ctx, rank, grouped[rank], act[rank])

    p2 = MoeRsConfig(m=cfg.m, h=cfg.h, d=ishard, block_m=cfg.block_m,
                     block_n=cfg.block_n, block_k=cfg.block_k,
                     block_mr=cfg.block_mr, block_nr=cfg.block_nr)
    return moe_rs_overlapped(ctx, p2, routing, f"{tag}.act", w2_name,
                             out_name, tag=f"{tag}.p2")
