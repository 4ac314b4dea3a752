"""cuBLAS + NCCL non-overlap baselines (and the Torch attention baseline).

Communication and computation run sequentially on each rank's default
stream — the operator-centric pattern of §2.1: system-wide sync around
every collective, idle SMs during communication.  These are the
"cuBLAS+NCCL" (serving as ``"torch"``) and "Torch" attention table
entries (:mod:`repro.registry`).
"""

from __future__ import annotations

from functools import partial

from repro.collectives.nccl import NcclCollectives
from repro.kernels.attention import AgAttentionConfig
from repro.kernels.mlp import mlp_layer
from repro.ops.attention import naive_attention_op
from repro.ops.gemm import gemm_op
from repro.registry import gemm_entry, register_impl
from repro.runtime.context import DistContext
from repro.sim.engine import Process


def ag_gemm_nonoverlap(ctx: DistContext, m: int, n: int, k: int,
                       x_name: str, w_name: str, out_name: str,
                       tag: str = "base.ag") -> list[Process]:
    """NCCL AllGather, then one cuBLAS GEMM per rank."""
    gathered = f"{tag}.gathered"
    ctx.alloc(gathered, (m, k), "float16", fill=None)
    nccl = NcclCollectives(ctx)
    nccl.all_gather(x_name, gathered)
    return [
        gemm_op(ctx, rank, ctx.heap.tensor(gathered, rank),
                ctx.heap.tensor(w_name, rank),
                ctx.heap.tensor(out_name, rank))
        for rank in range(ctx.world_size)
    ]


def gemm_rs_nonoverlap(ctx: DistContext, m: int, n: int, k: int,
                       x_name: str, w_name: str, out_name: str,
                       tag: str = "base.rs") -> list[Process]:
    """cuBLAS GEMM, then NCCL ReduceScatter."""
    partial = f"{tag}.partial"
    ctx.alloc(partial, (m, n), "float16", fill=None)
    for rank in range(ctx.world_size):
        gemm_op(ctx, rank, ctx.heap.tensor(x_name, rank),
                ctx.heap.tensor(w_name, rank),
                ctx.heap.tensor(partial, rank))
    nccl = NcclCollectives(ctx)
    return nccl.reduce_scatter(partial, out_name)


def attention_nonoverlap(ctx: DistContext, cfg: AgAttentionConfig,
                         q_name: str, k_shards_name: str, v_shards_name: str,
                         out_name: str,
                         tag: str = "base.attn") -> list[Process]:
    """The paper's Torch baseline: NCCL AG of K and V, then unfused
    (score-materializing) attention."""
    world = ctx.world_size
    width = cfg.width
    gk, gv = f"{tag}.K", f"{tag}.V"
    ctx.alloc(gk, (cfg.seq_len, width), "float16", fill=None)
    ctx.alloc(gv, (cfg.seq_len, width), "float16", fill=None)
    nccl = NcclCollectives(ctx)
    nccl.all_gather(k_shards_name, gk)
    nccl.all_gather(v_shards_name, gv)
    s_per = cfg.seq_len // world
    return [
        naive_attention_op(
            ctx, rank, ctx.heap.tensor(q_name, rank),
            ctx.heap.tensor(gk, rank), ctx.heap.tensor(gv, rank),
            ctx.heap.tensor(out_name, rank), cfg.heads, cfg.head_dim,
            causal=cfg.causal, q_offset=rank * s_per)
        for rank in range(world)
    ]


_ag_gemm = gemm_entry(ag_gemm_nonoverlap)
_gemm_rs = gemm_entry(gemm_rs_nonoverlap)
register_impl("ag_gemm", "cuBLAS+NCCL", _ag_gemm)
register_impl("gemm_rs", "cuBLAS+NCCL", _gemm_rs)
register_impl("mlp", "cuBLAS+NCCL", partial(
    mlp_layer, ag_gemm=_ag_gemm, gemm_rs=_gemm_rs, tag="base.mlp"))
register_impl("attention", "Torch", attention_nonoverlap)
