"""Tests for the backend interpreter: numerics of every tile op + launch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.program import CompileOptions, compile_kernel
from repro.errors import LoweringError, RuntimeLaunchError
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.lang.ir import For
from repro.runtime.launcher import launch_kernel, launch_spmd
from tests.conftest import make_ctx


def run1(kdef, grid, args, numerics=True, world=1, options=None):
    ctx = make_ctx(world=world, numerics=numerics)
    for name, arr in args.items():
        if isinstance(arr, np.ndarray):
            ctx.bind(name, [arr.copy() for _ in range(world)])
    bound = {k: (ctx.heap.tensors(k) if isinstance(v, np.ndarray) else v)
             for k, v in args.items()}
    launch_spmd(ctx.machine, kdef, grid, bound, options=options)
    t = ctx.run()
    return ctx, t


@kernel
def _elementwise(a, out, N: tl.constexpr):
    x = tl.load(a, (0, N), (0, N))
    y = tl.exp(x) + tl.silu(x) * 0.5 - tl.relu(x) / 2.0
    z = tl.cast(y, "float32")
    tl.store(out, (0, N), (0, N), z)


def test_elementwise_ops_match_numpy(rng):
    N = 8
    a = rng.standard_normal((N, N)).astype(np.float32)
    ctx, _ = run1(_elementwise, 1,
                  {"a": a, "out": np.zeros((N, N), np.float32), "N": N})
    got = ctx.heap.tensor("out", 0).numpy()
    x = a.astype(np.float32)
    ref = np.exp(x) + (x / (1 + np.exp(-x))) * 0.5 - np.maximum(x, 0) / 2
    assert np.allclose(got, ref, rtol=1e-3, atol=1e-3)


@kernel
def _rowops(a, mx, sm, N: tl.constexpr):
    x = tl.load(a, (0, N), (0, N))
    m = tl.row_max(x)
    s = tl.row_sum(x)
    tl.store_vec(mx, (0, N), m)
    tl.store_vec(sm, (0, N), s)


def test_row_reductions(rng):
    N = 6
    a = rng.standard_normal((N, N)).astype(np.float32)
    ctx, _ = run1(_rowops, 1, {"a": a, "mx": np.zeros(N, np.float32),
                               "sm": np.zeros(N, np.float32), "N": N})
    assert np.allclose(ctx.heap.tensor("mx", 0).numpy(), a.max(axis=1),
                       atol=1e-5)
    assert np.allclose(ctx.heap.tensor("sm", 0).numpy(), a.sum(axis=1),
                       atol=1e-4)


@kernel
def _broadcasting(a, v, out, N: tl.constexpr):
    x = tl.load(a, (0, N), (0, N))
    w = tl.load_vec(v, (0, N))
    col = tl.expand_dims(w)
    y = x * col
    tl.store(out, (0, N), (0, N), y)


def test_rowvector_broadcast(rng):
    N = 5
    a = rng.standard_normal((N, N)).astype(np.float32)
    v = rng.standard_normal(N).astype(np.float32)
    ctx, _ = run1(_broadcasting, 1, {"a": a, "v": v,
                                     "out": np.zeros((N, N), np.float32),
                                     "N": N})
    assert np.allclose(ctx.heap.tensor("out", 0).numpy(), a * v[:, None],
                       rtol=1e-4, atol=1e-5)


@kernel
def _edge_tiles(a, out, M: tl.constexpr, BM: tl.constexpr):
    nb = tl.num_blocks()
    bid = tl.block_id()
    tiles = tl.cdiv(M, BM)
    for t in range(bid, tiles, nb):
        x = tl.load(a, (t * BM, t * BM + BM), (0, BM))
        y = x + 1.0
        tl.store(out, (t * BM, t * BM + BM), (0, BM), y)


def test_ragged_edge_tiles(rng):
    M, BM = 10, 4   # last tile is ragged (2 rows)
    a = rng.standard_normal((M, BM)).astype(np.float32)
    ctx, _ = run1(_edge_tiles, 2, {"a": a, "out": np.zeros((M, BM), np.float32),
                                   "M": M, "BM": BM})
    assert np.allclose(ctx.heap.tensor("out", 0).numpy(), a + 1, atol=1e-5)


@kernel
def _atomics(out, N: tl.constexpr, REPS: tl.constexpr):
    ones = tl.full((N, N), 1.0, "float32")
    for _ in range(REPS):
        tl.atomic_add(out, (0, N), (0, N), ones)


def test_atomic_add_accumulates():
    ctx, _ = run1(_atomics, 3, {"out": np.zeros((4, 4), np.float32),
                                "N": 4, "REPS": 5})
    # 3 blocks x 5 reps each
    assert (ctx.heap.tensor("out", 0).numpy() == 15.0).all()


@kernel
def _gather_scatter(src, ids, out, N: tl.constexpr, W: tl.constexpr):
    idx = tl.load_vec(ids, (0, N))
    rows = tl.gather_rows(src, idx, (0, W))
    doubled = rows * 2.0
    tl.scatter_add_rows(out, idx, (0, W), doubled)


def test_gather_and_scatter_rows(rng):
    N, W = 6, 4
    src = rng.standard_normal((10, W)).astype(np.float32)
    ids = np.array([1, 3, 3, 0, 9, 1], dtype=np.int64)
    ctx, _ = run1(_gather_scatter, 1,
                  {"src": src, "ids": ids,
                   "out": np.zeros((10, W), np.float32), "N": N, "W": W})
    ref = np.zeros((10, W), np.float32)
    np.add.at(ref, ids, src[ids] * 2.0)
    assert np.allclose(ctx.heap.tensor("out", 0).numpy(), ref, atol=1e-4)


@kernel
def _scalar_table(table, out, IDX: tl.constexpr, N: tl.constexpr):
    e = tl.load_scalar(table, IDX)
    v = tl.full((N,), 1.0, "float32")
    w = v * (e + 1)
    tl.store_vec(out, (0, N), w)


def test_load_scalar_from_table():
    table = np.array([10, 20, 30], dtype=np.int64)
    ctx, _ = run1(_scalar_table, 1, {"table": table,
                                     "out": np.zeros(4, np.float32),
                                     "IDX": 2, "N": 4})
    assert (ctx.heap.tensor("out", 0).numpy() == 31.0).all()


def test_timing_mode_runs_same_program():
    """The identical kernel runs with data never materialized."""
    ctx, t = run1(_edge_tiles, 2,
                  {"a": np.zeros((64, 16), np.float32),
                   "out": np.zeros((64, 16), np.float32),
                   "M": 64, "BM": 16}, numerics=False)
    assert t > 0
    assert not ctx.heap.tensor("out", 0).materialized


def test_pipelined_loop_faster_than_unpipelined():
    @kernel
    def gemm(a, b, c, M: tl.constexpr, K: tl.constexpr, BK: tl.constexpr):
        acc = tl.zeros((M, M), "float32")
        for k in range(0, K, BK):
            x = tl.load(a, (0, M), (k, k + BK))
            y = tl.load(b, (k, k + BK), (0, M))
            acc += tl.dot(x, y)
        co = tl.cast(acc, "float16")
        tl.store(c, (0, M), (0, M), co)

    args = {"a": np.zeros((128, 2048), np.float16),
            "b": np.zeros((2048, 128), np.float16),
            "c": np.zeros((128, 128), np.float16),
            "M": 128, "K": 2048, "BK": 64}
    _, fast = run1(gemm, 1, dict(args), numerics=False)
    _, slow = run1(gemm, 1, dict(args), numerics=False,
                   options=CompileOptions(num_stages=1))
    assert fast < slow


@kernel
def _k_forward(a, b, c, M: tl.constexpr, N: tl.constexpr,
               BM: tl.constexpr, BK: tl.constexpr):
    for m in range(0, M, BM):
        acc = tl.zeros((BM, BM), "float32")
        for k in range(0, N, BK):
            x = tl.load(a, (m, m + BM), (k, k + BK))
            y = tl.load(b, (k, k + BK), (0, BM))
            acc += tl.dot(x, y)
        tl.store(c, (m, m + BM), (0, BM), acc)


@kernel
def _k_backward(a, b, c, M: tl.constexpr, N: tl.constexpr,
                BM: tl.constexpr, BK: tl.constexpr):
    for m in range(0, M, BM):
        acc = tl.zeros((BM, BM), "float32")
        for k in range(N - BK, -1, -BK):
            x = tl.load(a, (m, m + BM), (k, k + BK))
            y = tl.load(b, (k, k + BK), (0, BM))
            acc += tl.dot(x, y)
        tl.store(c, (m, m + BM), (0, BM), acc)


@pytest.mark.parametrize("numerics", [False, True])
def test_reversed_inner_loop_prices_like_forward(rng, numerics):
    # the outer loop is aggregable, so its cost comes from probing one
    # iteration; the probe must count the backward K loop's trips too
    M, N, BM, BK = 64, 256, 32, 32
    a = rng.standard_normal((M, N)).astype(np.float32)
    b = rng.standard_normal((N, BM)).astype(np.float32)
    args = {"a": a, "b": b, "c": np.zeros((M, BM), np.float32),
            "M": M, "N": N, "BM": BM, "BK": BK}
    fwd_ctx, fwd = run1(_k_forward, 1, dict(args), numerics=numerics)
    bwd_ctx, bwd = run1(_k_backward, 1, dict(args), numerics=numerics)
    assert bwd == fwd
    if numerics:
        ref = a @ b
        for ctx in (fwd_ctx, bwd_ctx):
            assert np.allclose(ctx.heap.tensor("c", 0).numpy(), ref,
                               rtol=1e-4, atol=1e-3)


def test_missing_tensor_binding_raises():
    ctx = make_ctx(world=1)
    with pytest.raises(RuntimeLaunchError, match="missing argument"):
        launch_kernel(ctx.machine, _elementwise, 1, 0, {"N": 4})


def test_undefined_scalar_raises():
    @kernel
    def bad(out, N: tl.constexpr):
        v = tl.full((N,), 1.0, "float32")
        tl.store_vec(out, (0, undefined_name), v)  # noqa: F821

    ctx = make_ctx(world=1)
    ctx.alloc("out", (4,), "float32")
    launch_kernel(ctx.machine, bad, 1, 0,
                  {"out": ctx.heap.tensors("out"), "N": 4})
    with pytest.raises(LoweringError, match="undefined scalar"):
        ctx.run()


def test_grid_must_be_positive():
    ctx = make_ctx(world=1)
    ctx.alloc("out", (4, 4), "float32")
    with pytest.raises(RuntimeLaunchError):
        launch_kernel(ctx.machine, _elementwise, 0, 0,
                      {"a": ctx.heap.tensors("out"),
                       "out": ctx.heap.tensors("out"), "N": 4})


# -- aggregable loops: the cost probe must not leak into numeric results --


@kernel
def _bias_gemm(x, w, bias, out, M: tl.constexpr, K: tl.constexpr,
               BK: tl.constexpr):
    acc = tl.load(bias, (0, M), (0, M))
    for k in range(0, K, BK):
        a = tl.load(x, (0, M), (k, k + BK))
        b = tl.load(w, (k, k + BK), (0, M))
        acc += tl.dot(a, b)
    tl.store(out, (0, M), (0, M), acc)


def test_aggregable_loop_keeps_tile_carried_in(rng):
    # the accumulator enters the loop loaded, not zeroed: numeric replay
    # must start from it, not from the probe's shape-only stub
    M, K, BK = 4, 16, 4
    x = rng.standard_normal((M, K)).astype(np.float32)
    w = rng.standard_normal((K, M)).astype(np.float32)
    bias = np.full((M, M), 100.0, np.float32)
    ctx, _ = run1(_bias_gemm, 1, {"x": x, "w": w, "bias": bias,
                                  "out": np.zeros((M, M), np.float32),
                                  "M": M, "K": K, "BK": BK})
    assert np.allclose(ctx.heap.tensor("out", 0).numpy(), bias + x @ w,
                       atol=1e-3)


@kernel
def _running_sum(x, out, M: tl.constexpr, K: tl.constexpr, BK: tl.constexpr):
    acc = tl.zeros((M, BK), "float32")
    for k in range(0, K, BK):
        t = tl.load(x, (0, M), (k, k + BK))
        acc = acc + t
    tl.store(out, (0, M), (0, BK), acc)


def test_aggregable_loop_elementwise_accumulator(rng):
    M, K, BK = 4, 12, 4
    x = rng.standard_normal((M, K)).astype(np.float32)
    ctx, _ = run1(_running_sum, 1, {"x": x,
                                    "out": np.zeros((M, BK), np.float32),
                                    "M": M, "K": K, "BK": BK})
    ref = x.reshape(M, K // BK, BK).sum(axis=1)
    assert np.allclose(ctx.heap.tensor("out", 0).numpy(), ref, atol=1e-5)


@kernel
def _count_then_store(out, N: tl.constexpr):
    n = 0
    for _ in range(N):
        n = n + 1
    v = tl.full((n,), 1.0, "float32")
    tl.store_vec(out, (0, n), v)


@kernel
def _store_n(out, N: tl.constexpr):
    v = tl.full((N,), 1.0, "float32")
    tl.store_vec(out, (0, N), v)


def test_loop_carrying_a_scalar_is_stepped():
    N = 4
    prog = compile_kernel(_count_then_store, {"N": N})
    assert not [s for s in prog.ir.walk_stmts()
                if isinstance(s, For) and s.aggregable]
    ctx, _ = run1(_count_then_store, 1,
                  {"out": np.zeros(8, np.float32), "N": N})
    assert ctx.heap.tensor("out", 0).numpy().tolist() == [1.0] * N + [0.0] * 4
    # timing mode counts to N as well: the store costs what N elements do
    args = {"out": np.zeros(8, np.float32), "N": N}
    _, counted = run1(_count_then_store, 1, dict(args), numerics=False)
    _, direct = run1(_store_n, 1, dict(args), numerics=False)
    assert counted == direct
