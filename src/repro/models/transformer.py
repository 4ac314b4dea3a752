"""Transformer-layer builders for the end-to-end evaluation (Figure 11).

One layer = attention block + FFN block under Megatron-style tensor
parallelism with sequence-sharded activations:

* QKV projection   — AllGather + GEMM        (overlappable)
* core attention   — flash attention, local heads (identical in both
  systems; TileLink does not change the core in the e2e setting)
* output projection — GEMM + ReduceScatter   (overlappable)
* MLP / MoE        — AG+GEMM, activation, GEMM+RS (overlappable)

``method`` selects how the overlappable ops run: ``"torch"`` uses the
cuBLAS+NCCL non-overlap baselines, ``"tilelink"`` the overlapped kernels
with the paper's e2e configs, and ``"tilelink-tuned"`` additionally
resolves each overlappable op through the shipped warm tuner cache
(:mod:`repro.tuner.warm`) — a key hit swaps in the exhaustive-search
winner for that op's exact shape, a miss falls back to the paper config,
and no path ever simulates a tuning search inside a timed build.  The
MoE expert layer keeps the paper config under ``tilelink-tuned``: its
tuned ``block_m`` doubles as the routing granularity, and the shipped
sweep does not cover the e2e routing seeds.

Beyond the three base methods, kernel families registered with a
``serve_method`` (:mod:`repro.registry`) extend the axis: such a method
reuses a base method's layer construction but swaps individual op slots
(``"ag_gemm"``/``"gemm_rs"``) for the family's own launcher —
:func:`build_layer` resolves the name and threads the overrides through
both blocks.

Coarser 256-tiles keep the event count tractable at batch 4 x seq 8192;
row tiles shrink with the token count so short-sequence variants (the
serving simulator's step-latency buckets) stay tile-aligned.
"""

from __future__ import annotations

from repro.baselines import nonoverlap, vllm_moe
from repro.config import HardwareSpec
from repro.errors import RegistryError
from repro.kernels.ag_gemm import AgGemmConfig, ag_gemm_overlapped, \
    ag_gemm_tune_task
from repro.kernels.gemm_rs import GemmRsConfig, gemm_rs_overlapped, \
    gemm_rs_tune_task
from repro.kernels.moe_common import MoeRouting, build_moe_routing, \
    random_router_logits
from repro.kernels.moe_layer import MoeConfig, moe_layer_tilelink
from repro.kernels.mlp import MlpConfig
from repro.models.configs import ModelConfig
from repro.ops.activation import silu_op
from repro.ops.attention import flash_attention_op
from repro.registry import BASE_SERVE_METHODS, resolve_serve_method, \
    serve_method_names
from repro.runtime.context import DistContext
from repro.tuner.cache import TuneCache
from repro.tuner.space import TunerError
from repro.tuner.warm import resolve_warm_cache, warm_tuned_config

#: the base methods every layer builder accepts; registered families can
#: extend the axis (see :func:`repro.registry.serve_method_names`)
METHODS = BASE_SERVE_METHODS

#: e2e tile sizes (coarser than the single-layer benches, for speed)
BM, BN, BK, BMR, BNR = 256, 256, 64, 256, 512
MOE_BLOCK_M = 256


def _row_tile(base: int, tokens: int, world: int) -> int:
    """Row-tile size fitting ``tokens`` — the kernels require per-rank
    rows to be a multiple of every row tile, so token counts below
    ``world * base`` (short serving steps) clamp the tile to the
    per-rank row count.  Power-of-two buckets keep the result exact."""
    return max(1, min(base, tokens // world))


def _spec(ctx: DistContext) -> HardwareSpec:
    return ctx.machine.config.spec


def _warm_cfg(warm: TuneCache | None, make_task, ctx: DistContext):
    """Tuned config for ``make_task()``'s shape from the warm cache.

    ``None`` on a key miss — or when the shape falls outside the
    tuner's design space entirely (short serving steps whose per-rank
    rows fit no searchable tile): such a shape can never have a cache
    entry, so it is a miss by construction, not an error.
    """
    if warm is None:
        return None
    try:
        task = make_task()
    except TunerError:
        return None
    return warm_tuned_config(warm, task, world=ctx.world_size,
                             spec=_spec(ctx))


def _ag_gemm(ctx: DistContext, method: str, m: int, n: int, k: int,
             x: str, w: str, out: str, tag: str,
             warm: TuneCache | None = None,
             override=None) -> None:
    if override is not None:
        override(ctx, m, n, k, x, w, out, tag=tag, warm=warm)
        return
    if method == "torch":
        nonoverlap.ag_gemm_nonoverlap(ctx, m, n, k, x, w, out, tag=tag)
        return
    cfg = _warm_cfg(
        warm, lambda: ag_gemm_tune_task(m, n, k, world=ctx.world_size,
                                        spec=_spec(ctx)), ctx)
    if cfg is None:
        bm = _row_tile(BM, m, ctx.world_size)
        cfg = AgGemmConfig(m=m, n=n, k=k, block_m=bm, block_n=BN, block_k=BK,
                           block_mp=bm, mode="dma")
    ag_gemm_overlapped(ctx, cfg, x, w, out, tag=tag)


def _gemm_rs(ctx: DistContext, method: str, m: int, n: int, k: int,
             x: str, w: str, out: str, tag: str,
             warm: TuneCache | None = None,
             override=None) -> None:
    if override is not None:
        override(ctx, m, n, k, x, w, out, tag=tag, warm=warm)
        return
    if method == "torch":
        nonoverlap.gemm_rs_nonoverlap(ctx, m, n, k, x, w, out, tag=tag)
        return
    cfg = _warm_cfg(
        warm, lambda: gemm_rs_tune_task(m, n, k, world=ctx.world_size,
                                        spec=_spec(ctx)), ctx)
    if cfg is None:
        bm = _row_tile(BM, m, ctx.world_size)
        bmr = _row_tile(BMR, m, ctx.world_size)
        cfg = GemmRsConfig(m=m, n=n, k=k, block_m=bm, block_n=BN, block_k=BK,
                           block_mr=bmr, block_nr=BNR, mode="hybrid")
    gemm_rs_overlapped(ctx, cfg, x, w, out, tag=tag)


def build_attention_block(ctx: DistContext, model: ModelConfig, method: str,
                          tag: str = "attn",
                          warm: TuneCache | None = None,
                          overrides: dict | None = None) -> None:
    """QKV projection + core flash attention + output projection."""
    ov = overrides or {}
    world = ctx.world_size
    tokens = model.tokens
    h = model.hidden
    qkv_width = 3 * model.heads * model.head_dim // world
    heads_local = max(1, model.heads // world)

    ctx.alloc(f"{tag}.x", (tokens // world, h), "float16", fill=None)
    ctx.alloc(f"{tag}.w_qkv", (h, qkv_width), "float16", fill=None)
    ctx.alloc(f"{tag}.qkv", (tokens, qkv_width), "float16", fill=None)
    _ag_gemm(ctx, method, tokens, qkv_width, h,
             f"{tag}.x", f"{tag}.w_qkv", f"{tag}.qkv", tag=f"{tag}.qkv_proj",
             warm=warm, override=ov.get("ag_gemm"))

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

    ctx.alloc(f"{tag}.ctx", (tokens, attn_w), "float16", fill=None)
    ctx.alloc(f"{tag}.w_o", (attn_w, h), "float16", fill=None)
    ctx.alloc(f"{tag}.out", (tokens // world, h), "float32", fill=None)
    _gemm_rs(ctx, method, tokens, h, attn_w,
             f"{tag}.ctx", f"{tag}.w_o", f"{tag}.out", tag=f"{tag}.o_proj",
             warm=warm, override=ov.get("gemm_rs"))


def build_ffn_block(ctx: DistContext, model: ModelConfig, method: str,
                    routing: MoeRouting | None = None,
                    tag: str = "ffn",
                    warm: TuneCache | None = None,
                    overrides: dict | None = None) -> None:
    """Dense MLP, MoE layer, or (Qwen) shared-expert MLP + MoE."""
    ov = overrides or {}
    world = ctx.world_size
    tokens = model.tokens
    h = model.hidden

    def dense(i: int, sub: str) -> None:
        ctx.alloc(f"{sub}.x", (tokens // world, h), "float16", fill=None)
        ctx.alloc(f"{sub}.w1", (h, i // world), "float16", fill=None)
        ctx.alloc(f"{sub}.w2", (i // world, h), "float16", fill=None)
        ctx.alloc(f"{sub}.out", (tokens // world, h), "float32", fill=None)
        if method == "torch":
            cfg = MlpConfig(m=tokens, h=h, i=i)
            nonoverlap.mlp_nonoverlap(ctx, cfg, f"{sub}.x", f"{sub}.w1",
                                      f"{sub}.w2", f"{sub}.out", tag=sub)
            return
        # AG+GEMM -> SiLU -> GEMM+RS through the op dispatchers: an
        # overridden slot takes the family's launcher, and each half
        # resolves its own warm-cache winner (the halves tune
        # independently)
        ishard = i // world
        inter = ctx.alloc(f"{sub}.inter", (tokens, ishard), "float16",
                          fill=None)
        act = ctx.alloc(f"{sub}.act", (tokens, ishard), "float16",
                        fill=None)
        _ag_gemm(ctx, method, tokens, ishard, h,
                 f"{sub}.x", f"{sub}.w1", f"{sub}.inter",
                 tag=f"{sub}.p1", warm=warm, override=ov.get("ag_gemm"))
        for rank in range(world):
            silu_op(ctx, rank, inter[rank], act[rank])
        _gemm_rs(ctx, method, tokens, h, ishard,
                 f"{sub}.act", f"{sub}.w2", f"{sub}.out",
                 tag=f"{sub}.p2", warm=warm, override=ov.get("gemm_rs"))

    if not model.moe:
        dense(model.intermediate, f"{tag}.mlp")
        return

    if model.shared_intermediate > 0:
        dense(model.shared_intermediate, f"{tag}.shared")

    moe_block_m = _row_tile(MOE_BLOCK_M, tokens, world)
    if routing is None:
        logits = random_router_logits(tokens, model.n_experts,
                                      seed=ctx.machine.config.seed)
        routing = build_moe_routing(logits, tokens // world, world,
                                    model.topk, block_m=moe_block_m)
    cfg = MoeConfig(m=tokens, h=h, i=model.intermediate,
                    n_experts=model.n_experts, topk=model.topk,
                    block_m=moe_block_m, block_n=BN, block_k=BK,
                    block_mr=_row_tile(BMR, tokens, world), block_nr=BNR)
    ishard = cfg.i_shard(world)
    ctx.alloc(f"{tag}.x", (tokens // world, h), "float16", fill=None)
    ctx.alloc(f"{tag}.out", (tokens // world, h), "float32", fill=None)
    if method in ("tilelink", "tilelink-tuned"):
        # tilelink-tuned: the expert layer keeps the paper config (tuned
        # block_m would change the routing granularity, and the shipped
        # sweep's router seeds do not cover the e2e layers)
        ctx.alloc(f"{tag}.w1", (model.n_experts * h, ishard), "float16",
                  fill=None)
        ctx.alloc(f"{tag}.w2", (model.n_experts * ishard, h), "float16",
                  fill=None)
        moe_layer_tilelink(ctx, cfg, routing, f"{tag}.x", f"{tag}.w1",
                           f"{tag}.w2", f"{tag}.out", tag=f"{tag}.moe")
    else:
        ctx.alloc(f"{tag}.w1", (model.n_experts, h, ishard), "float16",
                  fill=None)
        ctx.alloc(f"{tag}.w2", (model.n_experts, ishard, h), "float16",
                  fill=None)
        # eager-PyTorch MoE: per-expert index_select / GEMM / index_add
        # loops with host coordination (the "cublas" tier) — the paper's
        # Torch baseline runs eager MoE, not vLLM's fused op
        vllm_moe.moe_layer_baseline(ctx, cfg, routing, "cublas", f"{tag}.x",
                                    f"{tag}.w1", f"{tag}.w2", f"{tag}.out",
                                    tag=f"{tag}.moe")


def build_layer(ctx: DistContext, model: ModelConfig, method: str) -> None:
    """One full transformer layer (attention block + FFN block).

    ``method`` may be a base method or any registry-contributed serving
    method; the latter reuses its base method's construction with the
    family's op overrides swapped into the matching slots.
    """
    try:
        base, overrides = resolve_serve_method(method)
    except RegistryError:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{serve_method_names()}") from None
    # resolve the warm cache once per layer; every op below shares it
    warm = resolve_warm_cache() if base == "tilelink-tuned" else None
    build_attention_block(ctx, model, base, warm=warm, overrides=overrides)
    build_ffn_block(ctx, model, base, warm=warm, overrides=overrides)
