"""Per-launch channel tables answer exactly what ``BlockChannel`` answers.

Generated wait, notify, push and pull code looks a tile up in tables the
launch fills on each rank, calling the ``BlockChannel`` method only on a
tile's first use (:func:`repro.compiler.interp.channel_tables`).  Every
filled entry must equal a direct call of the same method on the same
channel: for every registered (slot, method) build at world 2,
tune-cold's AG+GEMM and GEMM+RS launches at world 4, and the MoE kernels
at two routing seeds.  A channel whose ``notify_target`` or
``notify_counts`` changes between two launches resolves the second
launch with the new values, as the tree-walking oracle, which calls the
methods at every use, does.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.harness import make_ctx
from repro.compiler import interp
from repro.config import SimConfig
from repro.kernels import ag_gemm, gemm_rs
from repro.kernels.moe_common import routing_memo
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.registry import get_impl, slot_builder
from repro.runtime import launcher
from repro.runtime.context import DistContext
from tests import oracle_interp
from tests.test_registry import _ENTRIES, _TINY

METHODS = ("consumer_wait_list", "notify_posts", "comm_tile_ranges",
           "pull_source")

#: tune-cold's AG+GEMM and GEMM+RS launches, at world 4 and small shapes
TUNE_COLD = [
    *((f"ag_gemm/{mode}", slot_builder(
        "ag_gemm", ag_gemm.ag_gemm_overlapped, ag_gemm.AgGemmConfig(
            m=512, n=256, k=256, comm_blocks=8, mode=mode)))
      for mode in ("dma", "pull", "push")),
    *((f"gemm_rs/{mode}", slot_builder(
        "gemm_rs", gemm_rs.gemm_rs_overlapped, gemm_rs.GemmRsConfig(
            m=1024, n=256, k=256, comm_blocks=8, mode=mode)))
      for mode in ("ring", "hybrid")),
]


def _record(monkeypatch) -> dict[int, tuple]:
    """Patch the launcher's ``run_block`` to collect each launch's
    ``(program, bindings)``, once per launch and rank."""
    launches: dict[int, tuple] = {}
    real = launcher.run_block

    def run_block(program, machine, rank, bid, grid, bindings, label=""):
        launches.setdefault(id(bindings), (program, bindings))
        return real(program, machine, rank, bid, grid, bindings, label=label)

    monkeypatch.setattr(launcher, "run_block", run_block)
    return launches


def _check(launches: dict[int, tuple]) -> Counter:
    """Assert that every filled entry of every launch's tables is what its
    channel answers now; return the entries, counted by method."""
    filled: Counter = Counter()
    for program, bindings in launches.values():
        tables = interp.channel_tables(bindings)
        if program.ir.channel_param is None:
            assert not tables, program.name
            continue
        ch = bindings[program.ir.channel_param]
        assert set(tables) <= set(METHODS), program.name
        for method, table in tables.items():
            assert table.method.__self__ is ch
            assert table.method.__name__ == method
            for args, value in table.items():
                assert value == getattr(ch, method)(*args), \
                    (program.name, method, args)
            filled[method] += len(table)
    return filled


def _run(monkeypatch, world: int, build) -> Counter:
    ctx = make_ctx(world=world)
    launches = _record(monkeypatch)
    build(ctx)
    assert ctx.run() > 0
    return _check(launches)


@pytest.mark.parametrize("slot,method", _ENTRIES,
                         ids=[f"{slot}/{method}" for slot, method in _ENTRIES])
def test_registered_entries_fill_what_the_channel_answers(slot, method,
                                                          monkeypatch):
    cfg = _TINY[slot]
    routing = ((routing_memo(cfg.m, cfg.n_experts, cfg.topk, 2),)
               if slot in ("ag_moe", "moe_rs", "moe_layer") else ())
    filled = _run(monkeypatch, 2, slot_builder(
        slot, get_impl(slot, method).launch, cfg, *routing))
    if method.startswith("TileLink") and slot != "attention":
        assert filled, "no primitive resolved"


@pytest.mark.parametrize("name,build", TUNE_COLD,
                         ids=[name for name, _ in TUNE_COLD])
def test_tune_cold_launches_fill_what_the_channel_answers(name, build,
                                                          monkeypatch):
    filled = _run(monkeypatch, 4, build)
    assert filled["consumer_wait_list"]
    assert bool(filled["notify_posts"]) == (name != "ag_gemm/dma")
    assert bool(filled["pull_source"]) == (name == "ag_gemm/pull")
    assert bool(filled["comm_tile_ranges"]) == (
        name in ("ag_gemm/push", "gemm_rs/ring"))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("slot", ["ag_moe", "moe_rs", "moe_layer"])
def test_moe_routing_fills_what_the_channel_answers(slot, seed, monkeypatch):
    cfg = _TINY[slot]
    routing = routing_memo(cfg.m, cfg.n_experts, cfg.topk, 4,
                           router_seed=seed)
    filled = _run(monkeypatch, 4, slot_builder(
        slot, get_impl(slot, "TileLink").launch, cfg, routing))
    assert filled, "no primitive resolved"


# -- a channel changed between two launches -----------------------------------


@kernel
def _notify_every_tile(channel: tl.BlockChannel, T: tl.constexpr):
    for t in range(tl.block_id(), T, tl.num_blocks()):
        tl.producer_tile_notify(t, "p2p")
        tl.producer_tile_notify(t, "broadcast")


def _two_launches(monkeypatch) -> tuple:
    """Launch, run, change the channels' routing, launch again: the bank
    values after each run, and each launch's notify tables."""
    ctx = DistContext.create(SimConfig(world_size=2))
    launches = _record(monkeypatch)
    grid = TileGrid(64, 32, 16, 32)
    channels = ctx.make_block_channels(
        "t", mapping=AffineTileMapping(64, 16, 2), comm_grid=grid,
        consumer_grid=grid)
    banks = channels[0].all_barriers
    args = {"channel": channels, "T": 4}
    ctx.launch_spmd(_notify_every_tile, 2, args)
    ctx.run(until=1.0)
    first = [list(bank.values) for bank in banks]
    for ch in channels:
        ch.notify_target = "mapped"
        ch.notify_counts = [[0, 0], [3, 0], [0, 0], [1, 2]]
    ctx.launch_spmd(_notify_every_tile, 2, args)
    ctx.run()
    second = [list(bank.values) for bank in banks]
    return first, second, ctx.machine.sim._seq, launches


def test_a_changed_channel_resolves_the_next_launch_anew(monkeypatch):
    first, second, events, launches = _two_launches(monkeypatch)
    # run 1, local p2p and broadcast: each bank holds 2 + 4 per cell; run
    # 2 posts mapped p2p on the tiles' owners and fans broadcasts out
    assert first == [[6, 6], [6, 6]]
    assert second == [[14, 8], [10, 12]]
    tables = [interp.channel_tables(b)["notify_posts"]
              for _, b in launches.values()]
    assert len(tables) == 4  # two launches on two ranks
    for table in tables[2:]:  # the second launch answers the new routing
        for args, posts in table.items():
            assert posts == table.method(*args)
    with monkeypatch.context() as m:
        m.setattr(launcher, "run_block", oracle_interp.run_block)
        assert _two_launches(m)[:3] == (first, second, events)
