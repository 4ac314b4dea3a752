"""Tests for NCCL-style collectives and DMA copy-engine data movement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.copy_engine import dma_all_gather
from repro.collectives.nccl import NcclCollectives
from repro.errors import ShapeError
from tests.conftest import make_ctx


def _per_rank(rng, world, shape, dtype=np.float32):
    return [rng.standard_normal(shape).astype(dtype) for _ in range(world)]


@pytest.mark.parametrize("world", [2, 4, 8])
def test_all_gather_numerics(world, rng):
    ctx = make_ctx(world)
    shards = _per_rank(rng, world, (4, 6))
    ctx.bind("x", shards)
    ctx.alloc("full", (4 * world, 6), "float32", fill=None)
    NcclCollectives(ctx).all_gather("x", "full")
    ctx.run()
    ref = np.concatenate(shards)
    for r in range(world):
        assert np.allclose(ctx.heap.tensor("full", r).numpy(), ref)


@pytest.mark.parametrize("world", [2, 4])
def test_reduce_scatter_numerics(world, rng):
    ctx = make_ctx(world)
    rows = 8 * world
    srcs = _per_rank(rng, world, (rows, 5))
    ctx.bind("x", srcs)
    ctx.alloc("y", (8, 5), "float32", fill=None)
    NcclCollectives(ctx).reduce_scatter("x", "y")
    ctx.run()
    total = sum(s.astype(np.float32) for s in srcs)
    for r in range(world):
        ref = total[r * 8:(r + 1) * 8]
        assert np.allclose(ctx.heap.tensor("y", r).numpy(), ref, atol=1e-4)


def test_all_gather_timing_scales_with_world():
    t = {}
    for world in (2, 8):
        ctx = make_ctx(world, numerics=False)
        ctx.alloc("x", (1024, 1024), "float16")
        ctx.alloc("full", (1024 * world, 1024), "float16")
        NcclCollectives(ctx).all_gather("x", "full")
        t[world] = ctx.run()
    # ring AG moves (R-1) shards: 8 ranks move 7x of what 2 ranks move
    assert t[8] > t[2] * 3


def test_collective_shape_validation(rng):
    ctx = make_ctx(2)
    ctx.bind("x", _per_rank(rng, 2, (4, 4)))
    ctx.alloc("bad", (9, 4), "float32")
    with pytest.raises(ShapeError):
        NcclCollectives(ctx).all_gather("x", "bad")
    ctx.bind("odd", _per_rank(rng, 2, (5, 4)))
    ctx.alloc("y", (2, 4), "float32")
    with pytest.raises(ShapeError):
        NcclCollectives(ctx).reduce_scatter("odd", "y")


def test_dma_all_gather_posts_signals(rng):
    world = 4
    ctx = make_ctx(world)
    shards = _per_rank(rng, world, (4, 4), np.float16)
    ctx.bind("x", shards)
    ctx.alloc("full", (16, 4), "float16", fill=None)
    banks = ctx.heap.alloc_signals("seg", world)
    dma_all_gather(ctx, "x", "full", banks, segment_notifies=3)
    ctx.run()
    ref = np.concatenate(shards)
    for r in range(world):
        assert np.allclose(ctx.heap.tensor("full", r).numpy().astype(np.float32),
                           ref.astype(np.float32), atol=1e-2)
        for q in range(world):
            assert banks[r].read(q) == 3


def test_dma_uses_copy_engines_not_sms():
    ctx = make_ctx(2, numerics=False)
    ctx.alloc("x", (256, 256), "float16")
    ctx.alloc("full", (512, 256), "float16")
    sms_before = ctx.machine.device(0).sms.available
    dma_all_gather(ctx, "x", "full", None)
    ctx.run(until=1e-6)
    assert ctx.machine.device(0).sms.available == sms_before
    ctx.run()
