"""Tests for the host-side primitives of Table 3 (DistContext methods)."""

from __future__ import annotations

import numpy as np

from repro.sim.engine import Join, Timeout
from tests.conftest import make_ctx


def test_rank_copy_data_moves_bytes(ctx2, rng):
    src = rng.standard_normal((8, 4)).astype(np.float32)
    ctx2.bind("a", [src, np.zeros((8, 4), np.float32)])
    ctx2.alloc("b", (8, 4), "float32")

    def orchestrate():
        yield from ctx2.rank_copy_data(
            "b", src_rank=0, dst_rank=1,
            src_ranges=((0, 8), (0, 4)), dst_ranges=((0, 8), (0, 4)),
            src_name="a")
        return ctx2.machine.now

    p = ctx2.machine.spawn(orchestrate())
    ctx2.run()
    assert np.allclose(ctx2.heap.tensor("b", 1).numpy(), src)
    # DMA cost: engine latency + transfer over the link
    assert p.result > ctx2.machine.config.spec.copy_engine_latency


def test_rank_copy_data_local_charges_hbm(ctx2, rng):
    src = rng.standard_normal((64, 64)).astype(np.float32)
    ctx2.bind("a", [src, src])
    ctx2.alloc("b", (64, 64), "float32")

    def orchestrate():
        yield from ctx2.rank_copy_data(
            "b", 0, 0, ((0, 64), (0, 64)), ((0, 64), (0, 64)), src_name="a")

    ctx2.machine.spawn(orchestrate())
    ctx2.run()
    assert ctx2.machine.device(0).hbm.total_bytes > 0
    assert np.allclose(ctx2.heap.tensor("b", 0).numpy(), src)


def test_rank_copy_data_occupies_copy_engine(ctx2):
    """Concurrent DMAs beyond the engine count serialize."""
    ctx2.alloc("a", (1024, 1024), "float16")
    ctx2.alloc("b", (1024, 1024), "float16")
    n_engines = ctx2.machine.config.spec.n_copy_engines

    def one_copy():
        yield from ctx2.rank_copy_data(
            "b", 0, 1, ((0, 1024), (0, 1024)), ((0, 1024), (0, 1024)),
            src_name="a")

    for _ in range(n_engines + 2):
        ctx2.machine.spawn(one_copy())
    ctx2.run(until=1e-9)
    engines = ctx2.machine.device(0).copy_engines
    assert engines.in_use == n_engines
    assert engines.queued == 2
    ctx2.run()


def test_rank_notify_and_wait(ctx2):
    banks = ctx2.heap.alloc_signals("s", 2)
    order = []

    def waiter():
        yield from ctx2.rank_wait(banks[1], 0, threshold=2)
        order.append(("woke", ctx2.machine.now))

    def notifier():
        yield Timeout(1e-6)
        yield from ctx2.rank_notify(banks, 1, 0, from_rank=0)
        yield Timeout(1e-6)
        yield from ctx2.rank_notify(banks, 1, 0, from_rank=0)

    ctx2.machine.spawn(waiter())
    ctx2.machine.spawn(notifier())
    ctx2.run()
    assert order and order[0][1] >= 2e-6
    assert banks[1].read(0) == 2


def test_rank_wait_host_synced_costs_more(ctx2):
    times = {}
    for synced in (False, True):
        ctx = make_ctx(2)
        banks = ctx.heap.alloc_signals("s", 1)
        banks[0].values[0] = 1

        def waiter(ctx=ctx, banks=banks, synced=synced):
            yield from ctx.rank_wait(banks[0], 0, 1, host_synced=synced)
            return ctx.machine.now

        p = ctx.machine.spawn(waiter())
        ctx.run()
        times[synced] = p.result
    assert times[True] > times[False]


def test_make_block_channels_unique_names(ctx2):
    from repro.mapping.layout import TileGrid
    from repro.mapping.static import AffineTileMapping

    m = AffineTileMapping(32, 16, 2)
    g = TileGrid(32, 16, 16, 16)
    a = ctx2.make_block_channels("same", mapping=m, comm_grid=g,
                                 consumer_grid=g)
    b = ctx2.make_block_channels("same", mapping=m, comm_grid=g,
                                 consumer_grid=g)
    assert a[0].barriers is not b[0].barriers   # no bank collision
