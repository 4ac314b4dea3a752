"""The launcher spawns only the blocks that have work.

A tile-IR launch spawns the block ids the program's activity function
(:func:`repro.compiler.interp.active_blocks`) names on each rank.  The
spawned blocks must be exactly the working ones: every spawned block
yields or posts, and every skipped block, run through ``run_block``,
finishes on its first resume having scheduled nothing.  The activity
function stays conservative where the IR cannot decide (a guard on
loaded data, a scalar that raises), and launches whose idle blocks
compete for SMs keep the simulated times and traces they had with every
block spawned (the pinned values below).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler import interp
from repro.compiler.program import compile_kernel
from repro.config import H800, SimConfig
from repro.errors import LoweringError, SimulationError
from repro.kernels import ag_gemm, gemm_rs
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.registry import families, slot_builder
from repro.runtime import launcher
from repro.runtime.context import DistContext

BUILDS = [(name, world, build)
          for fam in families().values() if fam.tile_ir
          for name, world, build in fam.analyze_plans()]

#: tune-cold's AG+GEMM (world 8) and GEMM+RS (world 4) launches on a full
#: grid, at smaller shapes
PROXIES = [
    *((f"ag_gemm/{mode}/tune-proxy", 8, slot_builder(
        "ag_gemm", ag_gemm.ag_gemm_overlapped, ag_gemm.AgGemmConfig(
            m=1024, n=256, k=512, comm_blocks=cb, mode=mode)))
      for mode, cb in (("pull", 20), ("push", 8))),
    *((f"gemm_rs/{mode}/tune-proxy", 4, slot_builder(
        "gemm_rs", gemm_rs.gemm_rs_overlapped, gemm_rs.GemmRsConfig(
            m=2048, n=512, k=256, comm_blocks=20, mode=mode)))
      for mode in ("ring", "hybrid")),
]
#: the blocks each proxy skips, of 132 per launch and rank
PROXY_SKIPS = {"ag_gemm/pull/tune-proxy": 1920,
               "ag_gemm/push/tune-proxy": 1976,
               "gemm_rs/ring/tune-proxy": 240,
               "gemm_rs/hybrid/tune-proxy": 768}


def _record(monkeypatch) -> dict:
    """Patch the launcher's ``run_block`` to map each launch's rank, by
    ``id(bindings)``, to ``(program, machine, rank, grid, bindings,
    spawned)``, where ``spawned[bid]`` says whether block ``bid``'s first
    resume yielded or scheduled an event."""
    launches = {}
    real = launcher.run_block

    def run_block(program, machine, rank, bid, grid, bindings, label=""):
        spawned = launches.setdefault(id(bindings), (
            program, machine, rank, grid, bindings, {}))[-1]
        gen = real(program, machine, rank, bid, grid, bindings, label=label)
        seq = machine.sim._seq
        try:
            awaited = next(gen)
        except StopIteration as stop:  # a post schedules its arrival
            spawned[bid] = machine.sim._seq != seq
            return stop.value
        spawned[bid] = True
        while True:
            value = yield awaited
            try:
                awaited = gen.send(value)
            except StopIteration as stop:
                return stop.value

    monkeypatch.setattr(launcher, "run_block", run_block)
    return launches


@pytest.mark.parametrize("name,world,build", BUILDS + PROXIES,
                         ids=[name for name, _, _ in BUILDS + PROXIES])
def test_spawned_blocks_are_the_working_blocks(name, world, build,
                                               monkeypatch):
    # numeric where it is cheap; which blocks work does not depend on it
    numeric = world < 8 and name not in PROXY_SKIPS
    ctx = DistContext.create(SimConfig(world_size=world,
                                       execute_numerics=numeric))
    launches = _record(monkeypatch)
    build(ctx)
    assert ctx.run() > 0
    skipped = 0
    for program, machine, rank, grid, bindings, spawned in launches.values():
        assert all(spawned.values()), program.name
        for bid in sorted(set(range(grid)) - set(spawned)):
            seq = machine.sim._seq
            gen = interp.run_block(program, machine, rank, bid, grid, bindings)
            with pytest.raises(StopIteration):
                next(gen)
            assert machine.sim._seq == seq, (program.name, rank, bid)
            skipped += 1
    if name in PROXY_SKIPS:
        assert skipped == PROXY_SKIPS[name]


# -- the conservative cases ---------------------------------------------------


@kernel
def _guarded_by_data(counts, out, N: tl.constexpr, LAST: tl.constexpr):
    bid = tl.block_id()
    if bid <= LAST:
        n = tl.load_scalar(counts, bid)
        if n > 0:
            v = tl.full((N,), 1.0, "float32")
            tl.store_vec(out, (bid * N, bid * N + N), v)


def test_a_guard_on_loaded_data_spawns_its_block():
    ctx = DistContext.create(SimConfig(world_size=1, execute_numerics=True))
    ctx.bind("counts", [np.array([0, 2, 0, 1, 3], np.int32)])
    ctx.alloc("out", (20,), "float32")
    ctx.launch_spmd(_guarded_by_data, 5, {
        "counts": ctx.heap.tensors("counts"), "out": ctx.heap.tensors("out"),
        "N": 4, "LAST": 3})
    assert ctx.run() > 0
    # blocks 0 and 2 load a zero and store nothing, but only the load says so
    assert [p.name for p in ctx.machine.sim._procs[1:]] == [
        f"_guarded_by_data[r0b{bid}]" for bid in range(4)]
    assert ctx.heap.tensor("out", 0).numpy().tolist() == \
        [0] * 4 + [1] * 4 + [0] * 4 + [1] * 4 + [0] * 4


@kernel
def _stepped_by_constexpr(out, N: tl.constexpr, S: tl.constexpr):
    bid = tl.block_id()
    if bid > 0:
        return
    for i in range(0, N, S):
        v = tl.full((N,), 1.0, "float32")
        tl.store_vec(out, (0, N), v)


@kernel
def _reads_comm_blocks(out, channel: tl.BlockChannel, N: tl.constexpr):
    bid = tl.block_id()
    if bid == 0 or bid >= channel.comm_blocks:
        return
    v = tl.full((N,), 1.0, "float32")
    tl.store_vec(out, (0, N), v)


def _raised(kdef, args: dict, numeric: bool,
            channel_field: str | None = None) -> tuple:
    """The error a 4-block launch raises, and the simulated time it did."""
    ctx = DistContext.create(SimConfig(world_size=1,
                                       execute_numerics=numeric))
    ctx.alloc("out", (4,), "float32")
    args = {"out": ctx.heap.tensors("out"), "N": 4, **args}
    if channel_field is not None:
        channels = ctx.make_block_channels("ch", comm_blocks=2)
        delattr(channels[0], channel_field)
        args["channel"] = channels
    ctx.launch_spmd(kdef, 4, args)
    with pytest.raises(Exception) as info:
        ctx.run()
    return info.type, str(info.value), ctx.machine.now


@pytest.mark.parametrize("numeric", [False, True], ids=["timing", "numeric"])
def test_a_raising_scalar_prefix_raises_as_before(numeric):
    # pinned with every block spawned
    assert _raised(_stepped_by_constexpr, {"S": 0}, numeric) == (
        SimulationError, "loop step of 0", 4e-06)
    assert _raised(_reads_comm_blocks, {}, numeric, "comm_blocks") == (
        LoweringError, "BlockChannel has no field 'comm_blocks'", 4e-06)
    program = compile_kernel(_stepped_by_constexpr, {"N": 4, "S": 0})
    assert list(interp.active_blocks(program, 4, {"out": None})) == [0]


@kernel
def _priced_loop(out, N: tl.constexpr, REPS: tl.constexpr):
    for i in range(REPS):
        if i > REPS:
            v = tl.full((N,), 1.0, "float32")
            tl.store_vec(out, (0, N), v)


@kernel
def _loads_ahead(x, out, channel: tl.BlockChannel, N: tl.constexpr):
    bid = tl.block_id()
    peer = (channel.rank + 1) % channel.num_ranks
    for i in range(2):
        if bid > 0:
            return
        v = tl.load(x[peer], (0, N), (0, N))
        tl.store(out, (0, N), (0, N), v)


def _loops(kdef, args: dict) -> tuple:
    """The simulated time, process count and interconnect reservations
    of a 4-block launch of ``kdef`` on 2 ranks."""
    ctx = DistContext.create(SimConfig(world_size=2))
    for name in ("x", "out"):
        ctx.alloc(name, (4, 4), "float32")
    pipes, reserves = ctx.machine.interconnect, []
    real = pipes.reserve
    pipes.reserve = lambda *a: reserves.append(a) or real(*a)
    ctx.launch_spmd(kdef, 4, {
        "x": ctx.heap.tensors("x"), "out": ctx.heap.tensors("out"), "N": 4,
        "channel": ctx.make_block_channels("ch"), **args})
    time = ctx.run()
    return time, len(ctx.machine.sim._procs), len(reserves)


# (simulated time, processes, reservations) with every block spawned
PINNED_PRICED = (5.7999999999999995e-06, 10, 0)
PINNED_LOADS_AHEAD = (4.001e-06, 10, 10)


def test_loops_that_work_before_their_body_spawn_their_blocks():
    # an aggregable loop is priced even when no trip reaches its op
    assert _loops(_priced_loop, {"REPS": 3}) == PINNED_PRICED
    # blocks 1-3 issue the prefetched remote load, then return
    assert _loops(_loads_ahead, {}) == PINNED_LOADS_AHEAD


# -- idle blocks that compete for SMs ----------------------------------------

#: a 4-SM device, so that two launches of one rank contend for SMs
SMALL = dataclasses.replace(H800, n_sms=4)


@kernel
def _striped(a, b, out, C: tl.constexpr, TOTAL: tl.constexpr,
             N: tl.constexpr):
    """Blocks ``C..`` stride over ``TOTAL`` tiles whose depth grows with
    the tile; the first ``C`` blocks and those past the last tile idle."""
    bid = tl.block_id()
    if bid >= C:
        for t in range(bid - C, TOTAL, tl.num_blocks() - C):
            x = tl.load(a, (0, N), (0, (t + 1) * 16))
            w = tl.load(b, (0, (t + 1) * 16), (0, N))
            tl.store(out, (t * N, t * N + N), (0, N), tl.dot(x, w))


@kernel
def _idle_on_rank0(out, channel: tl.BlockChannel, N: tl.constexpr):
    if channel.rank == 0:
        return
    v = tl.full((N, N), 1.0, "float16")
    tl.store(out, (0, N), (0, N), v)


def _contended(launches) -> dict:
    """Simulate ``launches(ctx, operands)`` on a traced 2-rank, 4-SM
    node."""
    ctx = DistContext.create(SimConfig(world_size=2, spec=SMALL, trace=True))
    for name, shape in (("a", (16, 64)), ("b", (64, 16)), ("out", (64, 16))):
        ctx.alloc(name, shape, "float16", fill=None)
    ops = {name: ctx.heap.tensors(name) for name in ("a", "b", "out")}
    launches(ctx, ops)
    time = ctx.run()
    return {"time": time, "procs": len(ctx.machine.sim._procs),
            "trace": [(iv.rank, iv.category, iv.label, iv.start, iv.end)
                      for iv in ctx.machine.trace.intervals]}


def _two_streams(ctx, ops):
    """Two striped launches at one instant on two streams of each rank,
    11 blocks on 4 SMs, with idle blocks at the head and at the tail."""
    ctx.launch_spmd(_striped, 5, {**ops, "C": 1, "TOTAL": 3, "N": 16},
                    label="A")
    ctx.launch_spmd(_striped, 6, {**ops, "C": 2, "TOTAL": 3, "N": 16},
                    stream_name="side", label="B")


def _idle_then_working(ctx, ops):
    """Rank 0's default stream runs a launch with no working block, then
    a working launch."""
    ctx.launch_spmd(_idle_on_rank0, 4, {
        "out": ops["out"], "N": 16,
        "channel": ctx.make_block_channels("idle")}, label="idle")
    ctx.launch_spmd(_striped, 2, {**ops, "C": 0, "TOTAL": 2, "N": 16},
                    label="after")


def _idle_behind_busy(ctx, ops):
    """The same while rank 0's side stream holds every SM."""
    ctx.launch_spmd(_striped, 4, {**ops, "C": 0, "TOTAL": 4, "N": 16},
                    stream_name="side", label="busy")
    _idle_then_working(ctx, ops)


# simulated time and trace of each case with every block spawned
PINNED_TWO_STREAMS = (4.017560039905756e-06, [
    (0, 'compute', 'A', 4e-06, 4.0004998012808826e-06),
    (1, 'compute', 'A', 4e-06, 4.0004998012808826e-06),
    (0, 'compute', 'B', 4e-06, 4.0004998012808826e-06),
    (1, 'compute', 'B', 4e-06, 4.0004998012808826e-06),
    (0, 'compute', 'A', 4e-06, 4.000706825749916e-06),
    (1, 'compute', 'A', 4e-06, 4.000706825749916e-06),
    (0, 'compute', 'A', 4e-06, 4.001060238624874e-06),
    (1, 'compute', 'A', 4e-06, 4.001060238624874e-06),
    (0, 'compute', 'A', 4.0004998012808826e-06, 4.008499801280882e-06),
    (1, 'compute', 'A', 4.0004998012808826e-06, 4.008499801280882e-06),
    (0, 'compute', 'B', 4.0004998012808826e-06, 4.008499801280882e-06),
    (1, 'compute', 'B', 4.0004998012808826e-06, 4.008499801280882e-06),
    (0, 'compute', 'A', 4.000706825749916e-06, 4.0087068257499155e-06),
    (1, 'compute', 'A', 4.000706825749916e-06, 4.0087068257499155e-06),
    (0, 'compute', 'A', 4.001060238624874e-06, 4.009060238624873e-06),
    (1, 'compute', 'A', 4.001060238624874e-06, 4.009060238624873e-06),
    (0, 'compute', 'B', 4.008499801280882e-06, 4.009206627030798e-06),
    (1, 'compute', 'B', 4.008499801280882e-06, 4.009206627030798e-06),
    (0, 'compute', 'B', 4.008499801280882e-06, 4.009560039905756e-06),
    (1, 'compute', 'B', 4.008499801280882e-06, 4.009560039905756e-06),
    (0, 'compute', 'B', 4.009206627030798e-06, 4.017206627030798e-06),
    (1, 'compute', 'B', 4.009206627030798e-06, 4.017206627030798e-06),
    (0, 'compute', 'B', 4.009560039905756e-06, 4.017560039905756e-06),
    (1, 'compute', 'B', 4.009560039905756e-06, 4.017560039905756e-06),
])
PINNED_IDLE = (8.022120477249749e-06, [
    (0, 'compute', 'busy', 4e-06, 4.0004998012808826e-06),
    (1, 'compute', 'busy', 4e-06, 4.0004998012808826e-06),
    (0, 'compute', 'busy', 4e-06, 4.000706825749916e-06),
    (1, 'compute', 'busy', 4e-06, 4.000706825749916e-06),
    (0, 'compute', 'busy', 4e-06, 4.001060238624874e-06),
    (1, 'compute', 'busy', 4e-06, 4.001060238624874e-06),
    (0, 'compute', 'busy', 4e-06, 4.001413651499832e-06),
    (1, 'compute', 'busy', 4e-06, 4.001413651499832e-06),
    (0, 'compute', 'busy', 4.0004998012808826e-06, 4.008499801280882e-06),
    (1, 'compute', 'busy', 4.0004998012808826e-06, 4.008499801280882e-06),
    (0, 'compute', 'busy', 4.000706825749916e-06, 4.0087068257499155e-06),
    (1, 'compute', 'busy', 4.000706825749916e-06, 4.0087068257499155e-06),
    (0, 'compute', 'busy', 4.001060238624874e-06, 4.009060238624873e-06),
    (1, 'compute', 'busy', 4.001060238624874e-06, 4.009060238624873e-06),
    (0, 'compute', 'busy', 4.001413651499832e-06, 4.009413651499831e-06),
    (1, 'compute', 'busy', 4.001413651499832e-06, 4.009413651499831e-06),
    (1, 'compute', 'idle', 4.008499801280882e-06, 4.012499801280883e-06),
    (1, 'compute', 'idle', 4.0087068257499155e-06, 4.012706825749916e-06),
    (1, 'compute', 'idle', 4.009060238624873e-06, 4.013060238624874e-06),
    (1, 'compute', 'idle', 4.009413651499831e-06, 4.013413651499832e-06),
    (0, 'compute', 'after', 8.008499801280883e-06, 8.008999602561766e-06),
    (0, 'compute', 'after', 8.008499801280883e-06, 8.009206627030799e-06),
    (1, 'compute', 'after', 8.013413651499832e-06, 8.013913452780715e-06),
    (1, 'compute', 'after', 8.013413651499832e-06, 8.014120477249748e-06),
    (0, 'compute', 'after', 8.008999602561766e-06, 8.016999602561766e-06),
    (0, 'compute', 'after', 8.009206627030799e-06, 8.0172066270308e-06),
    (1, 'compute', 'after', 8.013913452780715e-06, 8.021913452780716e-06),
    (1, 'compute', 'after', 8.014120477249748e-06, 8.022120477249749e-06),
])

PINNED_IDLE_ALONE = (8.012706825749916e-06, [
    (1, 'compute', 'idle', 4e-06, 4.004e-06),
    (1, 'compute', 'idle', 4e-06, 4.004e-06),
    (1, 'compute', 'idle', 4e-06, 4.004e-06),
    (1, 'compute', 'idle', 4e-06, 4.004e-06),
    (0, 'compute', 'after', 8e-06, 8.000499801280882e-06),
    (0, 'compute', 'after', 8e-06, 8.000706825749916e-06),
    (1, 'compute', 'after', 8.004e-06, 8.004499801280883e-06),
    (1, 'compute', 'after', 8.004e-06, 8.004706825749916e-06),
    (0, 'compute', 'after', 8.000499801280882e-06, 8.008499801280883e-06),
    (0, 'compute', 'after', 8.000706825749916e-06, 8.008706825749916e-06),
    (1, 'compute', 'after', 8.004499801280883e-06, 8.012499801280883e-06),
    (1, 'compute', 'after', 8.004706825749916e-06, 8.012706825749916e-06),
])


def test_contended_launches_keep_their_times_and_traces():
    got = _contended(_two_streams)
    assert (got["time"], got["trace"]) == PINNED_TWO_STREAMS
    assert got["procs"] == 16  # 26 with every block spawned


@pytest.mark.parametrize("launches,pinned,procs", [
    (_idle_then_working, PINNED_IDLE_ALONE, 13),  # 16 with every block
    (_idle_behind_busy, PINNED_IDLE, 23),  # 26 with every block
], ids=["alone", "behind-busy"])
def test_a_rank_with_no_working_block_finishes_as_before(launches, pinned,
                                                         procs):
    got = _contended(launches)
    assert (got["time"], got["trace"]) == pinned
    # rank 0's idle launch spawns its block 0 alone, which queues for an SM
    assert got["procs"] == procs
