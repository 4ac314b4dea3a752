"""Integration tests: the AG+GEMM and GEMM+RS overlapped kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RuntimeLaunchError, ShapeError
from repro.kernels.ag_gemm import AgGemmConfig, ag_gemm_overlapped
from repro.kernels.gemm_rs import GemmRsConfig, gemm_rs_overlapped
from repro.kernels.mlp import MlpConfig
from repro.ops.activation import silu_ref
from repro.registry import get_impl
from tests.conftest import make_ctx

WORLD, M, N, K = 4, 256, 96, 64


def _setup_ag(rng, mode):
    ctx = make_ctx(WORLD)
    shards = [rng.standard_normal((M // WORLD, K)).astype(np.float16)
              for _ in range(WORLD)]
    weights = [rng.standard_normal((K, N)).astype(np.float16)
               for _ in range(WORLD)]
    ctx.bind("x", shards)
    ctx.bind("w", weights)
    ctx.alloc("y", (M, N), "float16")
    cfg = AgGemmConfig(m=M, n=N, k=K, block_m=32, block_n=32, block_k=32,
                       block_mp=32, comm_blocks=4, mode=mode)
    ag_gemm_overlapped(ctx, cfg, "x", "w", "y", grid=16)
    return ctx, shards, weights


@pytest.mark.parametrize("mode", ["dma", "pull", "push"])
def test_ag_gemm_all_modes_numerics(rng, mode):
    ctx, shards, weights = _setup_ag(rng, mode)
    ctx.run()
    full = np.concatenate(shards).astype(np.float32)
    for r in range(WORLD):
        ref = full @ weights[r].astype(np.float32)
        got = ctx.heap.tensor("y", r).numpy().astype(np.float32)
        assert np.max(np.abs(got - ref)) < 0.5, (mode, r)


@pytest.mark.parametrize("mode", ["dma", "pull", "push"])
def test_ag_gemm_channels_per_rank(rng, mode):
    # two channels per rank: in dma mode the copy engine must post every
    # channel of a landed shard, or the consumer waits forever
    ctx = make_ctx(WORLD)
    shards = [rng.standard_normal((M // WORLD, K)).astype(np.float16)
              for _ in range(WORLD)]
    weights = [rng.standard_normal((K, N)).astype(np.float16)
               for _ in range(WORLD)]
    ctx.bind("x", shards)
    ctx.bind("w", weights)
    ctx.alloc("y", (M, N), "float16")
    cfg = AgGemmConfig(m=M, n=N, k=K, block_m=32, block_n=32, block_k=32,
                       block_mp=32, comm_blocks=4, mode=mode,
                       channels_per_rank=2)
    ag_gemm_overlapped(ctx, cfg, "x", "w", "y", grid=16)
    ctx.run()
    full = np.concatenate(shards).astype(np.float32)
    got = ctx.heap.tensor("y", 0).numpy().astype(np.float32)
    assert np.max(np.abs(got - full @ weights[0].astype(np.float32))) < 0.5


@pytest.mark.parametrize("mode", ["dma", "pull", "push"])
def test_ag_gemm_non_divisible_tiles_numerics(rng, mode):
    """tiles_m % world != 0 (row tiles straddle segment boundaries): the
    consumer's start tile rounds to the tile containing its own segment
    and the output stays correct on every rank."""
    m, n, k = 320, 32, 32          # per-rank rows 80, block_m 32 -> 10 tiles
    assert (m // 32) % WORLD != 0
    ctx = make_ctx(WORLD)
    shards = [rng.standard_normal((m // WORLD, k)).astype(np.float16)
              for _ in range(WORLD)]
    weights = [rng.standard_normal((k, n)).astype(np.float16)
               for _ in range(WORLD)]
    ctx.bind("x", shards)
    ctx.bind("w", weights)
    ctx.alloc("y", (m, n), "float16")
    cfg = AgGemmConfig(m=m, n=n, k=k, block_m=32, block_n=32, block_k=32,
                       block_mp=16, comm_blocks=4, mode=mode)
    ag_gemm_overlapped(ctx, cfg, "x", "w", "y", grid=16)
    ctx.run()
    full = np.concatenate(shards).astype(np.float32)
    for r in range(WORLD):
        ref = full @ weights[r].astype(np.float32)
        got = ctx.heap.tensor("y", r).numpy().astype(np.float32)
        assert np.max(np.abs(got - ref)) < 0.5, (mode, r)


def test_ag_gemm_config_validation():
    with pytest.raises(ShapeError):
        AgGemmConfig(m=100, n=4, k=4).validate(8)     # M % world
    with pytest.raises(ShapeError):
        AgGemmConfig(m=256, n=4, k=4, block_mp=48).validate(4)
    with pytest.raises(RuntimeLaunchError):
        AgGemmConfig(m=1024, n=4, k=4, mode="warp").validate(4)


@pytest.mark.parametrize("mode", ["ring", "hybrid"])
def test_gemm_rs_modes_numerics(rng, mode):
    ctx = make_ctx(WORLD)
    xs = [rng.standard_normal((M, K)).astype(np.float16)
          for _ in range(WORLD)]
    ws = [rng.standard_normal((K, N)).astype(np.float16)
          for _ in range(WORLD)]
    ctx.bind("x", xs)
    ctx.bind("w", ws)
    ctx.alloc("out", (M // WORLD, N), "float32")
    cfg = GemmRsConfig(m=M, n=N, k=K, block_m=32, block_n=32, block_k=32,
                       block_mr=32, block_nr=48, comm_blocks=4, mode=mode)
    gemm_rs_overlapped(ctx, cfg, "x", "w", "out", grid=16)
    ctx.run()
    total = sum(x.astype(np.float32) @ w.astype(np.float32)
                for x, w in zip(xs, ws))
    for r in range(WORLD):
        ref = total[r * (M // WORLD):(r + 1) * (M // WORLD)]
        got = ctx.heap.tensor("out", r).numpy()
        assert np.max(np.abs(got - ref)) < 0.6, (mode, r)


def test_gemm_rs_decoupled_tiles(rng):
    """Comm tile != compute tile (the decoupled subspace) stays correct."""
    ctx = make_ctx(2)
    xs = [rng.standard_normal((64, 32)).astype(np.float16) for _ in range(2)]
    ws = [rng.standard_normal((32, 48)).astype(np.float16) for _ in range(2)]
    ctx.bind("x", xs)
    ctx.bind("w", ws)
    ctx.alloc("out", (32, 48), "float32")
    cfg = GemmRsConfig(m=64, n=48, k=32, block_m=16, block_n=16, block_k=16,
                       block_mr=32, block_nr=24, comm_blocks=2, mode="ring")
    gemm_rs_overlapped(ctx, cfg, "x", "w", "out", grid=8)
    ctx.run()
    total = sum(x.astype(np.float32) @ w.astype(np.float32)
                for x, w in zip(xs, ws))
    assert np.max(np.abs(ctx.heap.tensor("out", 0).numpy() - total[:32])) < 0.6


def test_gemm_rs_config_validation():
    with pytest.raises(ShapeError):
        GemmRsConfig(m=100, n=4, k=4).validate(8)
    with pytest.raises(ShapeError):
        GemmRsConfig(m=256, n=4, k=4, block_m=48).validate(4)
    with pytest.raises(RuntimeLaunchError):
        GemmRsConfig(m=1024, n=4, k=4, mode="smoke").validate(4)


def test_full_mlp_layer_numerics(rng):
    world, m, h, i = 4, 128, 32, 64
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
    get_impl("mlp", "TileLink").launch(ctx, cfg, "x", "w1", "w2", "y")
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


def test_overlap_beats_sum_of_parts():
    """Overlapped AG+GEMM finishes before comm-then-compute would."""
    from repro.baselines.nonoverlap import ag_gemm_nonoverlap

    m, n, k = 2048, 512, 1024
    times = {}
    for name in ("tilelink", "baseline"):
        ctx = make_ctx(8, numerics=False)
        ctx.alloc("x", (m // 8, k), "float16")
        ctx.alloc("w", (k, n), "float16")
        ctx.alloc("y", (m, n), "float16")
        if name == "tilelink":
            cfg = AgGemmConfig(m=m, n=n, k=k, mode="dma")
            ag_gemm_overlapped(ctx, cfg, "x", "w", "y")
        else:
            ag_gemm_nonoverlap(ctx, m, n, k, "x", "w", "y")
        times[name] = ctx.run()
    assert times["tilelink"] < times["baseline"]
