"""Tests for the library ops: GEMM, grouped GEMM, attention, activations,
routing — numerics against the gold-standard references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.ops.activation import silu_op, silu_ref
from repro.ops.attention import (
    attention_ref,
    flash_attention_op,
    heads_to_seq,
    naive_attention_op,
    seq_to_heads,
)
from repro.ops.gemm import gemm_op, gemm_ref
from repro.ops.group_gemm import (
    fused_group_gemm_op,
    group_gemm_ref,
    per_expert_gemm_op,
)
from repro.ops.topk import topk_reduce_op, topk_reduce_ref, topk_route
from tests.conftest import make_ctx


def test_gemm_op_matches_numpy(rng):
    ctx = make_ctx(1)
    a = rng.standard_normal((16, 12)).astype(np.float16)
    b = rng.standard_normal((12, 8)).astype(np.float16)
    ctx.bind("a", [a])
    ctx.bind("b", [b])
    ctx.alloc("c", (16, 8), "float32")
    gemm_op(ctx, 0, ctx.heap.tensor("a", 0), ctx.heap.tensor("b", 0),
            ctx.heap.tensor("c", 0))
    ctx.run()
    assert np.allclose(ctx.heap.tensor("c", 0).numpy(), gemm_ref(a, b),
                       atol=1e-2)


def test_gemm_op_shape_check(rng):
    ctx = make_ctx(1)
    ctx.alloc("a", (4, 4), "float16")
    ctx.alloc("b", (5, 4), "float16")
    ctx.alloc("c", (4, 4), "float32")
    with pytest.raises(ShapeError):
        gemm_op(ctx, 0, ctx.heap.tensor("a", 0), ctx.heap.tensor("b", 0),
                ctx.heap.tensor("c", 0))
        ctx.run()


def _routing_fixture(rng, tokens=32, experts=4, topk=2):
    logits = rng.standard_normal((tokens, experts)).astype(np.float32)
    ids, weights = topk_route(logits, topk)
    flat = ids.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_ids = np.arange(tokens).repeat(topk)[order]
    experts_of_row = flat[order]
    return sorted_ids, experts_of_row, weights.reshape(-1)[order]


@pytest.mark.parametrize("impl", ["per_expert", "fused"])
def test_group_gemm_ops_match_reference(rng, impl):
    tokens, experts, topk, H, D = 32, 4, 2, 8, 6
    sorted_ids, experts_of_row, _ = _routing_fixture(rng, tokens, experts, topk)
    tok = rng.standard_normal((tokens, H)).astype(np.float16)
    w = rng.standard_normal((experts, H, D)).astype(np.float16)
    ctx = make_ctx(1)
    ctx.bind("t", [tok])
    ctx.bind("w", [w])
    ctx.alloc("o", (len(sorted_ids), D), "float32")
    op = per_expert_gemm_op if impl == "per_expert" else fused_group_gemm_op
    kwargs = {} if impl == "per_expert" else {"block_m": 8}
    op(ctx, 0, ctx.heap.tensor("t", 0), ctx.heap.tensor("w", 0),
       ctx.heap.tensor("o", 0), sorted_ids, experts_of_row, **kwargs)
    ctx.run()
    ref = group_gemm_ref(tok, w, sorted_ids, experts_of_row)
    assert np.allclose(ctx.heap.tensor("o", 0).numpy(), ref, atol=1e-2)


def test_per_expert_slower_than_fused(rng):
    """The resource-quantization claim: E launches lose to one."""
    tokens, experts = 4096, 16
    sorted_ids = np.arange(tokens, dtype=np.int64)
    experts_of_row = np.repeat(np.arange(experts), tokens // experts)
    times = {}
    for impl, op in (("per_expert", per_expert_gemm_op),
                     ("fused", fused_group_gemm_op)):
        ctx = make_ctx(1, numerics=False)
        ctx.alloc("t", (tokens, 512), "float16")
        ctx.alloc("w", (experts, 512, 256), "float16")
        ctx.alloc("o", (tokens, 256), "float32")
        op(ctx, 0, ctx.heap.tensor("t", 0), ctx.heap.tensor("w", 0),
           ctx.heap.tensor("o", 0), sorted_ids, experts_of_row)
        times[impl] = ctx.run()
    assert times["per_expert"] > 2 * times["fused"]


def test_attention_ref_is_softmax_attention(rng):
    q = rng.standard_normal((2, 5, 4)).astype(np.float32)
    k = rng.standard_normal((2, 7, 4)).astype(np.float32)
    v = rng.standard_normal((2, 7, 4)).astype(np.float32)
    out = attention_ref(q, k, v)
    # direct computation
    s = np.einsum("hqd,hkd->hqk", q, k) / np.sqrt(4)
    p = np.exp(s - s.max(-1, keepdims=True))
    p /= p.sum(-1, keepdims=True)
    assert np.allclose(out, np.einsum("hqk,hkd->hqd", p, v), atol=1e-5)


def test_attention_ref_causal_offset(rng):
    q = rng.standard_normal((1, 4, 4)).astype(np.float32)
    k = rng.standard_normal((1, 8, 4)).astype(np.float32)
    v = rng.standard_normal((1, 8, 4)).astype(np.float32)
    # q_offset=4: row i attends keys [0, 4+i]
    out = attention_ref(q, k, v, causal=True, q_offset=4)
    full = attention_ref(q, k[:, :5], v[:, :5])
    assert np.allclose(out[0, 0], full[0, 0], atol=1e-5)


def test_seq_heads_roundtrip(rng):
    x = rng.standard_normal((10, 12)).astype(np.float16)
    assert np.array_equal(heads_to_seq(seq_to_heads(x, 3, 4)), x)
    with pytest.raises(ShapeError):
        seq_to_heads(x, 5, 4)


@pytest.mark.parametrize("op", [flash_attention_op, naive_attention_op])
def test_attention_ops_numerics(rng, op):
    heads, dim, sq, skv = 2, 4, 6, 8
    ctx = make_ctx(1)
    q = rng.standard_normal((sq, heads * dim)).astype(np.float16)
    k = rng.standard_normal((skv, heads * dim)).astype(np.float16)
    v = rng.standard_normal((skv, heads * dim)).astype(np.float16)
    ctx.bind("q", [q]); ctx.bind("k", [k]); ctx.bind("v", [v])
    ctx.alloc("o", (sq, heads * dim), "float32")
    op(ctx, 0, ctx.heap.tensor("q", 0), ctx.heap.tensor("k", 0),
       ctx.heap.tensor("v", 0), ctx.heap.tensor("o", 0), heads, dim,
       causal=True, q_offset=2)
    ctx.run()
    ref = attention_ref(seq_to_heads(q, heads, dim),
                        seq_to_heads(k, heads, dim),
                        seq_to_heads(v, heads, dim), causal=True, q_offset=2)
    assert np.allclose(ctx.heap.tensor("o", 0).numpy(), heads_to_seq(ref),
                       atol=1e-2)


def test_naive_attention_slower_than_flash():
    times = {}
    for name, op in (("flash", flash_attention_op),
                     ("naive", naive_attention_op)):
        ctx = make_ctx(1, numerics=False)
        ctx.alloc("q", (2048, 2048), "float16")
        ctx.alloc("k", (2048, 2048), "float16")
        ctx.alloc("o", (2048, 2048), "float32")
        op(ctx, 0, ctx.heap.tensor("q", 0), ctx.heap.tensor("k", 0),
           ctx.heap.tensor("k", 0), ctx.heap.tensor("o", 0), 16, 128)
        times[name] = ctx.run()
    assert times["naive"] > times["flash"]


def test_silu_ops(rng):
    ctx = make_ctx(1)
    g = rng.standard_normal((6, 6)).astype(np.float16)
    ctx.bind("g", [g])
    ctx.alloc("o2", (6, 6), "float32")
    silu_op(ctx, 0, ctx.heap.tensor("g", 0), ctx.heap.tensor("o2", 0))
    ctx.run()
    assert np.allclose(ctx.heap.tensor("o2", 0).numpy(), silu_ref(g),
                       atol=1e-2)


@given(st.integers(2, 16), st.integers(1, 4), st.integers(0, 99))
@settings(max_examples=30, deadline=None)
def test_topk_route_properties(n_experts, topk, seed):
    if topk > n_experts:
        topk = n_experts
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((20, n_experts)).astype(np.float32)
    ids, weights = topk_route(logits, topk)
    assert ids.shape == (20, topk)
    assert (ids >= 0).all() and (ids < n_experts).all()
    # distinct experts per token
    for row in ids:
        assert len(set(row.tolist())) == topk
    # normalized weights
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-5)
    # selected logits are >= any unselected logit
    for i in range(20):
        chosen = set(ids[i].tolist())
        mn = min(logits[i, j] for j in chosen)
        mx = max((logits[i, j] for j in range(n_experts)
                  if j not in chosen), default=-np.inf)
        assert mn >= mx


def test_topk_reduce_op_matches_reference(rng):
    tokens, topk, width = 16, 2, 6
    sorted_ids, _experts, slot_weights = _routing_fixture(
        rng, tokens, 4, topk)
    grouped = rng.standard_normal((len(sorted_ids), width)).astype(np.float32)
    ctx = make_ctx(1)
    ctx.bind("g", [grouped])
    ctx.alloc("o", (tokens, width), "float32")
    topk_reduce_op(ctx, 0, ctx.heap.tensor("g", 0), ctx.heap.tensor("o", 0),
                   sorted_ids, slot_weights)
    ctx.run()
    ref = topk_reduce_ref(grouped, sorted_ids, slot_weights, tokens)
    assert np.allclose(ctx.heap.tensor("o", 0).numpy(), ref, atol=1e-4)
