"""The tensor-parallel MLP layer: one composition for every method.

AG+GEMM  ->  SiLU  ->  GEMM+RS over a method's ``ag_gemm`` and ``gemm_rs``
table entries (:mod:`repro.registry`): TileLink's overlapped kernels
(Figure 8 right), the cuBLAS+NCCL and FLUX baselines, and the end-to-end
layer of every method.  Per-rank stream ordering sequences the stages;
each stage's internal overlap comes from its own kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.errors import ShapeError
from repro.kernels.ag_gemm import AgGemmConfig, ag_gemm_overlapped
from repro.kernels.gemm_rs import GemmRsConfig, gemm_rs_overlapped
from repro.ops.activation import silu_op
from repro.registry import register_impl
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


def mlp_layer(
    ctx: DistContext,
    cfg: MlpConfig,
    x_shards_name: str,
    w1_name: str,
    w2_name: str,
    out_name: str,
    *,
    ag_gemm,
    gemm_rs,
    tag: str = "mlp",
) -> list[Process]:
    """Launch the MLP on every rank through one method's two halves.

    ``x_shards`` are (m/world x h) per rank; ``w1`` (h x i/world); ``w2``
    (i/world x h); ``out`` receives (m/world x h).  Both halves get
    ``cfg``'s tiles: AG+GEMM (on the copy engine, ``block_mp`` =
    ``block_m``) its three, GEMM+RS (``"hybrid"``) all five.
    """
    world = ctx.world_size
    cfg.validate(world)
    ishard = cfg.i_shard(world)

    inter = ctx.alloc(f"{tag}.inter", (cfg.m, ishard), "float16", fill=None)
    act = ctx.alloc(f"{tag}.act", (cfg.m, ishard), "float16", fill=None)

    ag_gemm(ctx, AgGemmConfig(
        m=cfg.m, n=ishard, k=cfg.h, block_m=cfg.block_m, block_n=cfg.block_n,
        block_k=cfg.block_k, mode="dma", block_mp=cfg.block_m),
        x_shards_name, w1_name, f"{tag}.inter", tag=f"{tag}.p1")

    for rank in range(world):
        silu_op(ctx, rank, inter[rank], act[rank])

    return gemm_rs(ctx, GemmRsConfig(
        m=cfg.m, n=cfg.h, k=ishard, block_m=cfg.block_m, block_n=cfg.block_n,
        block_k=cfg.block_k, block_mr=cfg.block_mr, block_nr=cfg.block_nr,
        mode="hybrid"), f"{tag}.act", w2_name, out_name, tag=f"{tag}.p2")


register_impl("mlp", "TileLink", partial(
    mlp_layer, ag_gemm=ag_gemm_overlapped, gemm_rs=gemm_rs_overlapped))
