"""Full tensor-parallel MLP layer with TileLink overlap (Figure 8 right).

Chains the two overlapped parts with the intermediate activation:
AG+GEMM  ->  SiLU  ->  GEMM+RS.  Per-rank stream ordering sequences the
stages; each stage's internal overlap comes from its own kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShapeError
from repro.kernels.ag_gemm import AgGemmConfig, ag_gemm_overlapped
from repro.kernels.gemm_rs import GemmRsConfig, gemm_rs_overlapped
from repro.ops.activation import silu_op
from repro.runtime.context import DistContext
from repro.sim.engine import Process


@dataclass(frozen=True)
class MlpConfig:
    """Paper Table 4 MLP shapes: S tokens, hidden H, intermediate I.

    ``m`` is the global token count (batch x sequence), sharded by rank;
    the first GEMM's weight shard is (h x i/world), the second's is
    (i/world x h).
    """

    m: int
    h: int
    i: int
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


def mlp_layer_tilelink(
    ctx: DistContext,
    cfg: MlpConfig,
    x_shards_name: str,
    w1_name: str,
    w2_name: str,
    out_name: str,
    tag: str = "mlp",
) -> list[Process]:
    """Launch the full overlapped MLP layer on every rank.

    ``x_shards`` are (m/world x h) per rank; ``w1`` (h x i/world); ``w2``
    (i/world x h); ``out`` receives (m/world x h).  AG+GEMM runs on the
    copy engine (``"dma"``) and GEMM+RS as ``"hybrid"``.
    """
    world = ctx.world_size
    cfg.validate(world)
    ishard = cfg.i_shard(world)

    inter = ctx.alloc(f"{tag}.inter", (cfg.m, ishard), "float16", fill=None)
    act = ctx.alloc(f"{tag}.act", (cfg.m, ishard), "float16", fill=None)

    ag_cfg = AgGemmConfig(
        m=cfg.m, n=ishard, k=cfg.h, block_m=cfg.block_m,
        block_n=cfg.block_n, block_k=cfg.block_k, mode="dma",
        block_mp=cfg.block_m)
    ag_gemm_overlapped(ctx, ag_cfg, x_shards_name, w1_name,
                       f"{tag}.inter", tag=f"{tag}.p1")

    for rank in range(world):
        silu_op(ctx, rank, inter[rank], act[rank])

    rs_cfg = GemmRsConfig(
        m=cfg.m, n=cfg.h, k=ishard, block_m=cfg.block_m,
        block_n=cfg.block_n, block_k=cfg.block_k, block_mr=cfg.block_mr,
        block_nr=cfg.block_nr, mode="hybrid")
    return gemm_rs_overlapped(ctx, rs_cfg, f"{tag}.act", w2_name, out_name,
                              tag=f"{tag}.p2")
