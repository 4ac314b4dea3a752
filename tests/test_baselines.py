"""Tests for the baseline implementations (numerics + expected orderings)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.decompose import ag_gemm_decomposed, gemm_rs_decomposed
from repro.baselines.flux import ag_gemm_flux, gemm_rs_flux
from repro.baselines.nonoverlap import ag_gemm_nonoverlap, gemm_rs_nonoverlap
from repro.baselines.vllm_moe import IMPLS, moe_part1_baseline
from repro.kernels.mlp import MlpConfig
from repro.kernels.moe_common import build_moe_routing, random_router_logits
from repro.kernels.moe_layer import MoeConfig
from repro.ops.activation import silu_ref
from repro.registry import get_impl
from tests.conftest import make_ctx

WORLD, M, N, K = 4, 128, 48, 32


def _ag_reference(shards, weights, r):
    full = np.concatenate(shards).astype(np.float32)
    return full @ weights[r].astype(np.float32)


@pytest.mark.parametrize("impl", [ag_gemm_nonoverlap, ag_gemm_decomposed,
                                  ag_gemm_flux])
def test_ag_gemm_baselines_numerics(rng, impl):
    ctx = make_ctx(WORLD)
    shards = [rng.standard_normal((M // WORLD, K)).astype(np.float16)
              for _ in range(WORLD)]
    weights = [rng.standard_normal((K, N)).astype(np.float16)
               for _ in range(WORLD)]
    ctx.bind("x", shards)
    ctx.bind("w", weights)
    ctx.alloc("y", (M, N), "float16")
    impl(ctx, M, N, K, "x", "w", "y")
    ctx.run()
    for r in range(WORLD):
        got = ctx.heap.tensor("y", r).numpy().astype(np.float32)
        assert np.max(np.abs(got - _ag_reference(shards, weights, r))) < 0.5


@pytest.mark.parametrize("impl", [gemm_rs_nonoverlap, gemm_rs_decomposed,
                                  gemm_rs_flux])
def test_gemm_rs_baselines_numerics(rng, impl):
    ctx = make_ctx(WORLD)
    xs = [rng.standard_normal((M, K)).astype(np.float16)
          for _ in range(WORLD)]
    ws = [rng.standard_normal((K, N)).astype(np.float16)
          for _ in range(WORLD)]
    ctx.bind("x", xs)
    ctx.bind("w", ws)
    ctx.alloc("y", (M // WORLD, N), "float32")
    if impl is gemm_rs_flux:
        impl(ctx, M, N, K, "x", "w", "y", block_m=32, block_n=24)
    else:
        impl(ctx, M, N, K, "x", "w", "y")
    ctx.run()
    total = sum(x.astype(np.float32) @ w.astype(np.float32)
                for x, w in zip(xs, ws))
    for r in range(WORLD):
        ref = total[r * (M // WORLD):(r + 1) * (M // WORLD)]
        got = ctx.heap.tensor("y", r).numpy()
        assert np.max(np.abs(got - ref)) < 0.6, r


@pytest.mark.parametrize("method", ["cuBLAS+NCCL", "Async-TP", "FLUX"])
def test_full_mlp_baselines_numerics(rng, method):
    world, m, h, i = 4, 64, 32, 64
    ctx = make_ctx(world)
    xs = [rng.standard_normal((m // world, h)).astype(np.float16) * 0.5
          for _ in range(world)]
    w1 = [rng.standard_normal((h, i // world)).astype(np.float16) * 0.2
          for _ in range(world)]
    w2 = [rng.standard_normal((i // world, h)).astype(np.float16) * 0.2
          for _ in range(world)]
    ctx.bind("x", xs)
    ctx.bind("w1", w1)
    ctx.bind("w2", w2)
    ctx.alloc("y", (m // world, h), "float32")
    cfg = MlpConfig(m=m, h=h, i=i, block_m=16, block_n=16, block_k=16,
                    block_mr=16, block_nr=16)
    get_impl("mlp", method).launch(ctx, cfg, "x", "w1", "w2", "y")
    ctx.run()
    full = np.concatenate(xs).astype(np.float32)
    total = np.zeros((m, h), np.float32)
    for r in range(world):
        inter = (full @ w1[r].astype(np.float32)).astype(np.float16)
        act = silu_ref(inter).astype(np.float16)
        total += act.astype(np.float32) @ w2[r].astype(np.float32)
    for r in range(world):
        ref = total[r * (m // world):(r + 1) * (m // world)]
        got = ctx.heap.tensor("y", r).numpy()
        assert np.max(np.abs(got - ref)) < 0.8, r


def test_decomposition_pays_host_overhead():
    """At paper scale, Async-TP loses to plain non-overlap (Table 2)."""
    m, n, k = 8192, 1376, 4096
    times = {}
    for name, impl in (("non", ag_gemm_nonoverlap),
                       ("dec", ag_gemm_decomposed)):
        ctx = make_ctx(8, numerics=False)
        ctx.alloc("x", (m // 8, k), "float16")
        ctx.alloc("w", (k, n), "float16")
        ctx.alloc("y", (m, n), "float16")
        impl(ctx, m, n, k, "x", "w", "y")
        times[name] = ctx.run()
    assert times["dec"] > times["non"]


def test_moe_baseline_tier_ordering(rng):
    """cuBLAS slower than CUTLASS slower than vLLM (Figure 9)."""
    world, mper, h, d, e, topk, bm = 8, 512, 1024, 192, 16, 2, 128
    m = mper * world
    logits = random_router_logits(m, e, seed=11)
    routing = build_moe_routing(logits, mper, world, topk, block_m=bm)
    cfg = MoeConfig(m=m, h=h, i=d * world, n_experts=e, topk=topk, block_m=bm)
    times = {}
    for impl in IMPLS:
        ctx = make_ctx(world, numerics=False)
        ctx.alloc("x", (mper, h), "float16")
        ctx.alloc("w1", (e, h, d), "float16")
        ctx.alloc("g", (len(routing.sorted_token_ids), d), "float16")
        moe_part1_baseline(ctx, cfg, routing, impl, "x", "w1", "g")
        times[impl] = ctx.run()
    assert times["cublas"] > times["cutlass"] > times["vllm"]


def test_moe_baseline_rejects_unknown_impl(rng):
    ctx = make_ctx(2)
    logits = random_router_logits(32, 4, seed=0)
    routing = build_moe_routing(logits, 16, 2, 2, block_m=8)
    cfg = MoeConfig(m=32, h=8, i=16, n_experts=4, topk=2, block_m=8)
    with pytest.raises(Exception, match="unknown MoE baseline"):
        moe_part1_baseline(ctx, cfg, routing, "triton", "x", "w", "g")
