"""Cross-cutting property tests over the whole stack.

These exercise randomized shapes/world sizes through the full pipeline
(routing, mapping, DSL compile, simulated execution) and assert the
invariants that must hold regardless of configuration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.ag_gemm import AgGemmConfig, ag_gemm_overlapped
from repro.kernels.gemm_rs import GemmRsConfig, gemm_rs_overlapped
from tests.conftest import make_ctx


@st.composite
def ag_cases(draw):
    world = draw(st.sampled_from([2, 4]))
    tiles_per_rank = draw(st.integers(1, 3))
    bm = draw(st.sampled_from([8, 16]))
    m = world * tiles_per_rank * bm
    n = draw(st.sampled_from([8, 24]))
    k = draw(st.sampled_from([16, 32]))
    mode = draw(st.sampled_from(["dma", "pull", "push"]))
    seed = draw(st.integers(0, 100))
    return world, m, n, k, bm, mode, seed


@given(ag_cases())
@settings(max_examples=15, deadline=None)
def test_ag_gemm_correct_for_random_configs(case):
    world, m, n, k, bm, mode, seed = case
    rng = np.random.default_rng(seed)
    ctx = make_ctx(world)
    shards = [rng.standard_normal((m // world, k)).astype(np.float16)
              for _ in range(world)]
    weights = [rng.standard_normal((k, n)).astype(np.float16)
               for _ in range(world)]
    ctx.bind("x", shards)
    ctx.bind("w", weights)
    ctx.alloc("y", (m, n), "float16")
    cfg = AgGemmConfig(m=m, n=n, k=k, block_m=bm, block_n=8, block_k=16,
                       block_mp=bm, comm_blocks=2, mode=mode)
    ag_gemm_overlapped(ctx, cfg, "x", "w", "y", grid=8)
    ctx.run()
    full = np.concatenate(shards).astype(np.float32)
    for r in range(world):
        got = ctx.heap.tensor("y", r).numpy().astype(np.float32)
        ref = full @ weights[r].astype(np.float32)
        assert np.max(np.abs(got - ref)) < 0.5


@st.composite
def rs_cases(draw):
    world = draw(st.sampled_from([2, 4]))
    bm = draw(st.sampled_from([8, 16]))
    m = world * bm * draw(st.integers(1, 2))
    n = draw(st.sampled_from([16, 32]))
    k = draw(st.sampled_from([16, 32]))
    mode = draw(st.sampled_from(["ring", "hybrid"]))
    seed = draw(st.integers(0, 100))
    return world, m, n, k, bm, mode, seed


@given(rs_cases())
@settings(max_examples=15, deadline=None)
def test_gemm_rs_correct_for_random_configs(case):
    world, m, n, k, bm, mode, seed = case
    rng = np.random.default_rng(seed)
    ctx = make_ctx(world)
    xs = [rng.standard_normal((m, k)).astype(np.float16)
          for _ in range(world)]
    ws = [rng.standard_normal((k, n)).astype(np.float16)
          for _ in range(world)]
    ctx.bind("x", xs)
    ctx.bind("w", ws)
    ctx.alloc("out", (m // world, n), "float32")
    cfg = GemmRsConfig(m=m, n=n, k=k, block_m=bm, block_n=16, block_k=16,
                       block_mr=bm, block_nr=16, comm_blocks=2, mode=mode)
    gemm_rs_overlapped(ctx, cfg, "x", "w", "out", grid=8)
    ctx.run()
    total = sum(x.astype(np.float32) @ w.astype(np.float32)
                for x, w in zip(xs, ws))
    for r in range(world):
        ref = total[r * (m // world):(r + 1) * (m // world)]
        got = ctx.heap.tensor("out", r).numpy()
        assert np.max(np.abs(got - ref)) < 0.6


def test_overlapped_time_bounded_by_parts():
    """max(comm, comp) <= overlapped <= comm + comp + eps (sanity of the
    simulator's concurrency accounting)."""
    from repro.collectives.copy_engine import dma_all_gather
    from repro.ops.gemm import gemm_op

    m, n, k, world = 4096, 512, 1024, 8

    def comm_only(ctx):
        ctx.alloc("x", (m // world, k), "float16")
        ctx.alloc("g", (m, k), "float16")
        dma_all_gather(ctx, "x", "g", None)

    def comp_only(ctx):
        ctx.alloc("g", (m, k), "float16")
        ctx.alloc("w", (k, n), "float16")
        ctx.alloc("y", (m, n), "float16")
        for r in range(world):
            gemm_op(ctx, r, ctx.heap.tensor("g", r), ctx.heap.tensor("w", r),
                    ctx.heap.tensor("y", r))

    def overlapped(ctx):
        ctx.alloc("x", (m // world, k), "float16")
        ctx.alloc("w", (k, n), "float16")
        ctx.alloc("y", (m, n), "float16")
        cfg = AgGemmConfig(m=m, n=n, k=k, mode="dma")
        ag_gemm_overlapped(ctx, cfg, "x", "w", "y")

    def run(builder):
        ctx = make_ctx(world, numerics=False)
        builder(ctx)
        return ctx.run()

    t_comm, t_comp, t_over = run(comm_only), run(comp_only), run(overlapped)
    assert t_over >= max(t_comm, t_comp) * 0.95
    assert t_over <= (t_comm + t_comp) * 1.10


def test_determinism_across_runs():
    """Identical configs simulate to identical times (seeded, FIFO)."""
    def build(ctx):
        ctx.alloc("x", (512, 256), "float16")
        ctx.alloc("w", (256, 128), "float16")
        ctx.alloc("y", (2048, 128), "float16")
        cfg = AgGemmConfig(m=2048, n=128, k=256, mode="pull")
        ag_gemm_overlapped(ctx, cfg, "x", "w", "y")

    times = set()
    for _ in range(3):
        ctx = make_ctx(4, numerics=False)
        build(ctx)
        times.add(round(ctx.run(), 15))
    assert len(times) == 1


def test_failure_injection_missing_notify_deadlocks():
    """Dropping the producer's notify surfaces as DeadlockError, not a
    silent hang or wrong result — the substrate's lost-signal story."""
    from repro.errors import DeadlockError
    from repro.mapping.layout import TileGrid
    from repro.mapping.static import AffineTileMapping
    from repro.lang import tl
    from repro.lang.dsl import kernel
    from repro.runtime.launcher import launch_kernel

    @kernel
    def consumer_only(data, out, channel: tl.BlockChannel,
                      N: tl.constexpr):
        tl.consumer_tile_wait(0)
        x = tl.load(data, (0, N), (0, N))
        tl.store(out, (0, N), (0, N), x)

    ctx = make_ctx(1)
    ctx.alloc("data", (8, 8), "float32")
    ctx.alloc("out", (8, 8), "float32")
    mapping = AffineTileMapping(8, 8, 1)
    grid = TileGrid(8, 8, 8, 8)
    channels = ctx.make_block_channels("x", mapping=mapping, comm_grid=grid,
                                       consumer_grid=grid)
    launch_kernel(ctx.machine, consumer_only, 1, 0, {
        "data": ctx.heap.tensors("data"), "out": ctx.heap.tensors("out"),
        "channel": channels, "N": 8})
    with pytest.raises(DeadlockError):
        ctx.run()
