"""Transformer-layer builders for the end-to-end evaluation (Figure 11).

One layer = attention block + FFN block under Megatron-style tensor
parallelism with sequence-sharded activations:

* QKV projection   — AllGather + GEMM        (overlappable)
* core attention   — flash attention, local heads (identical in both
  systems; TileLink does not change the core in the e2e setting)
* output projection — GEMM + ReduceScatter   (overlappable)
* MLP / MoE        — AG+GEMM, activation, GEMM+RS (overlappable)

``method`` is a serving name of the implementation table
(:mod:`repro.registry`) and the layer runs its row (:func:`layer_row`):
``"torch"`` is the cuBLAS+NCCL row (eager-PyTorch MoE), ``"tilelink"``
the overlapped kernels, ``"tilelink-tuned"`` TileLink's row with each
op's config looked up in the shipped warm tuner cache
(:func:`repro.tuner.warm.tuned_config`; a miss keeps the paper config),
and a kernel family may add a row (``"tilelink-chunk"``).  The MoE
expert layer keeps the paper config under ``tilelink-tuned``: its tuned
``block_m`` doubles as the routing granularity, and the shipped sweep
does not cover the e2e routing seeds.

The layer's configs carry the e2e tiles below: coarser 256-tiles keep
the event count tractable at batch 4 x seq 8192, and row tiles shrink
with the token count so short-sequence variants (the serving
simulator's step-latency buckets) stay tile-aligned.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.errors import RegistryError
from repro.kernels.ag_gemm import AgGemmConfig
from repro.kernels.gemm_rs import GemmRsConfig
from repro.kernels.mlp import MlpConfig, mlp_layer
from repro.kernels.moe_common import routing_memo
from repro.kernels.moe_layer import MoeConfig
from repro.models.configs import ModelConfig
from repro.ops.attention import flash_attention_op
from repro.registry import (
    alloc_operands,
    launches,
    serve_method,
    serve_method_names,
)
from repro.runtime.context import DistContext
from repro.tuner.warm import resolve_warm_cache, tuned_config

#: e2e tile sizes (coarser than the single-layer benches, for speed)
BM, BN, BK, BMR, BNR = 256, 256, 64, 256, 512
MOE_BLOCK_M = 256


def _row_tile(base: int, tokens: int, world: int) -> int:
    """Row-tile size fitting ``tokens`` — the kernels require per-rank
    rows to be a multiple of every row tile, so token counts below
    ``world * base`` (short serving steps) clamp the tile to the
    per-rank row count.  Power-of-two buckets keep the result exact."""
    return max(1, min(base, tokens // world))


def layer_row(method: str) -> dict[str, Callable]:
    """``method``'s launch for each slot of the layer: its own entry, else
    TileLink's, and for ``mlp`` else the composition over its row's
    ``ag_gemm`` and ``gemm_rs``."""
    try:
        name = serve_method(method)
    except RegistryError:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{serve_method_names()}") from None
    # one warm cache per layer; only the tuned row reads it
    resolve = partial(tuned_config, cache=resolve_warm_cache())
    row = {}
    for slot in ("ag_gemm", "gemm_rs", "moe_layer"):
        column = launches(slot, resolve)
        row[slot] = column.get(name, column["TileLink"])
    row["mlp"] = launches("mlp").get(name) or partial(
        mlp_layer, ag_gemm=row["ag_gemm"], gemm_rs=row["gemm_rs"])
    return row


def _op(ctx: DistContext, row: dict[str, Callable], slot: str, cfg,
        tag: str, *routing) -> None:
    """Run ``row``'s ``slot`` launch as op ``tag`` on its own operands,
    named ``<tag>.<operand>``."""
    row[slot](ctx, cfg, *routing, *alloc_operands(ctx, slot, cfg, f"{tag}."),
              tag=tag)


def build_attention_block(ctx: DistContext, model: ModelConfig,
                          row: dict[str, Callable],
                          tag: str = "attn") -> None:
    """QKV projection + core flash attention + output projection."""
    world = ctx.world_size
    tokens = model.tokens
    h = model.hidden
    qkv_width = 3 * model.heads * model.head_dim // world
    heads_local = max(1, model.heads // world)
    bm = _row_tile(BM, tokens, world)

    _op(ctx, row, "ag_gemm", AgGemmConfig(
        m=tokens, n=qkv_width, k=h, block_m=bm, block_n=BN, block_k=BK,
        block_mp=bm, mode="dma"), f"{tag}.qkv_proj")

    # core attention: per (batch x local head).  kv_len == 0 is the
    # prefill form (queries attend causally over themselves); kv_len > 0
    # is the decode form — the step's tokens are queries reading a
    # kv_len-token resident cache (non-causal: the cache is all past
    # context), which is what makes long-context decode steps pay for
    # their KV in both flash inner steps and HBM traffic.
    attn_w = model.heads * model.head_dim // world
    q = ctx.alloc(f"{tag}.q", (model.seq_len, model.batch * attn_w),
                  "float16", fill=None)
    o = ctx.alloc(f"{tag}.o", (model.seq_len, model.batch * attn_w),
                  "float16", fill=None)
    if model.kv_len > 0:
        kv = ctx.alloc(f"{tag}.kv", (model.kv_len, model.batch * attn_w),
                       "float16", fill=None)
        for rank in range(world):
            flash_attention_op(
                ctx, rank, q[rank], kv[rank], kv[rank], o[rank],
                heads=model.batch * heads_local, dim=model.head_dim,
                causal=False)
    else:
        for rank in range(world):
            flash_attention_op(
                ctx, rank, q[rank], q[rank], q[rank], o[rank],
                heads=model.batch * heads_local, dim=model.head_dim,
                causal=True)

    _op(ctx, row, "gemm_rs", GemmRsConfig(
        m=tokens, n=h, k=attn_w, block_m=bm, block_n=BN, block_k=BK,
        block_mr=_row_tile(BMR, tokens, world), block_nr=BNR,
        mode="hybrid"), f"{tag}.o_proj")


def build_ffn_block(ctx: DistContext, model: ModelConfig,
                    row: dict[str, Callable], tag: str = "ffn") -> None:
    """Dense MLP, MoE layer, or (Qwen) shared-expert MLP + MoE."""
    world = ctx.world_size
    tokens = model.tokens
    h = model.hidden
    bm = _row_tile(BM, tokens, world)
    bmr = _row_tile(BMR, tokens, world)

    def dense(i: int, sub: str) -> None:
        _op(ctx, row, "mlp", MlpConfig(
            m=tokens, h=h, i=i, block_m=bm, block_n=BN, block_k=BK,
            block_mr=bmr, block_nr=BNR), sub)

    if not model.moe:
        dense(model.intermediate, f"{tag}.mlp")
        return

    if model.shared_intermediate > 0:
        dense(model.shared_intermediate, f"{tag}.shared")

    _op(ctx, row, "moe_layer", MoeConfig(
        m=tokens, h=h, i=model.intermediate, n_experts=model.n_experts,
        topk=model.topk, block_m=_row_tile(MOE_BLOCK_M, tokens, world),
        block_n=BN, block_k=BK, block_mr=bmr, block_nr=BNR), f"{tag}.moe",
        routing_memo(tokens, model.n_experts, model.topk, world,
                     router_seed=ctx.machine.config.seed))


def build_layer(ctx: DistContext, model: ModelConfig, method: str) -> None:
    """One full transformer layer (attention block + FFN block)."""
    row = layer_row(method)
    build_attention_block(ctx, model, row)
    build_ffn_block(ctx, model, row)
