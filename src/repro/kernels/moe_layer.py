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
from repro.registry import register_impl
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

    def part1(self, world: int) -> AgMoeConfig:
        """The AG + GroupGEMM config at this layer's shape and tiles."""
        return AgMoeConfig(
            m=self.m, h=self.h, d=self.i_shard(world),
            n_experts=self.n_experts, topk=self.topk, block_m=self.block_m,
            block_n=self.block_n, block_k=self.block_k)

    def part2(self, world: int) -> MoeRsConfig:
        """The GroupGEMM + RS config at this layer's shape and tiles."""
        return MoeRsConfig(
            m=self.m, h=self.h, d=self.i_shard(world), block_m=self.block_m,
            block_n=self.block_n, block_k=self.block_k,
            block_mr=self.block_mr, block_nr=self.block_nr)


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

    ag_moe_overlapped(ctx, cfg.part1(world), routing, x_shards_name,
                      w1_name, f"{tag}.grouped", tag=f"{tag}.p1")

    for rank in range(world):
        silu_op(ctx, rank, grouped[rank], act[rank])

    return moe_rs_overlapped(ctx, cfg.part2(world), routing, f"{tag}.act",
                             w2_name, out_name, tag=f"{tag}.p2")


def _launch(ctx: DistContext, cfg: MoeConfig, routing, x_name: str,
            w1_name: str, w2_name: str, out_name: str, *, tag: str = "moe"):
    """The ``moe_layer`` table entry: flattened expert stacks."""
    d = cfg.i_shard(ctx.world_size)
    ctx.alloc(w1_name, (cfg.n_experts * cfg.h, d), "float16", fill=None)
    ctx.alloc(w2_name, (cfg.n_experts * d, cfg.h), "float16", fill=None)
    return moe_layer_tilelink(ctx, cfg, routing(cfg.block_m), x_name,
                              w1_name, w2_name, out_name, tag=tag)


register_impl("moe_layer", "TileLink", _launch)
