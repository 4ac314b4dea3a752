"""Differential test: the generated backend against the tree-walking oracle.

``tests/oracle_interp.py`` keeps the interpreter that the compiled
backend replaced.  Every tile-IR build the registry lists for the analyzer
runs on a real :class:`DistContext` twice, once per backend (swapped in
through ``repro.runtime.launcher.run_block``), in timing and in numeric
mode, with tracing on and with tracing off.  Small kernels that use the
tile ops, scalar operators and statements the registry builds leave out
run the same way in all four numeric x trace modes.  Both backends must
produce the same simulation: simulated time, number of scheduled events,
trace intervals and every tensor's contents.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.config import SimConfig
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.registry import families
from repro.runtime import launcher
from repro.runtime.context import DistContext
from tests import oracle_interp
from tests.test_interp import _atomics, _elementwise, _k_backward, _rowops

BUILDS = [(name, world, build)
          for fam in families().values() if fam.tile_ir
          for name, world, build in fam.analyze_plans()]


def _simulate(world: int, build, numeric: bool, trace: bool = True) -> dict:
    ctx = DistContext.create(SimConfig(world_size=world,
                                       execute_numerics=numeric, trace=trace))
    build(ctx)
    t = ctx.run()
    machine = ctx.machine
    return {
        "time": t,
        "events": machine.sim._seq,
        "trace": [(iv.rank, iv.category, iv.label, iv.start, iv.end)
                  for iv in machine.trace.intervals],
        "tensors": {(name, tensor.rank): tensor.data
                    for name in ctx.heap.names()
                    for tensor in ctx.heap.tensors(name)},
    }


def _assert_same_simulation(world: int, build, numeric: bool, trace: bool,
                            monkeypatch) -> dict:
    generated = _simulate(world, build, numeric, trace)
    with monkeypatch.context() as m:
        m.setattr(launcher, "run_block", oracle_interp.run_block)
        oracle = _simulate(world, build, numeric, trace)
    assert generated["time"] == oracle["time"]
    assert generated["events"] == oracle["events"]
    assert generated["trace"] == oracle["trace"]
    assert bool(generated["trace"]) == trace
    assert generated["tensors"].keys() == oracle["tensors"].keys()
    for key, data in generated["tensors"].items():
        if numeric:
            assert np.array_equal(data, oracle["tensors"][key]), key
        else:
            assert data is None and oracle["tensors"][key] is None
    return generated


def test_builds_cover_every_tile_ir_family():
    assert len(BUILDS) == 19
    assert {name.split("/")[0] for name, _, _ in BUILDS} == {
        "ag_gemm", "gemm_rs", "ag_moe", "moe_rs", "chunk_gemm_rs"}
    assert {world for _, world, _ in BUILDS} == {2, 4, 8}


@pytest.mark.parametrize("numeric", [False, True], ids=["timing", "numeric"])
@pytest.mark.parametrize("name,world,build", BUILDS,
                         ids=[name for name, _, _ in BUILDS])
def test_lowered_backend_matches_oracle(name, world, build, numeric,
                                        monkeypatch):
    lowered = _simulate(world, build, numeric)
    monkeypatch.setattr(launcher, "run_block", oracle_interp.run_block)
    oracle = _simulate(world, build, numeric)
    assert lowered["time"] == oracle["time"]
    assert lowered["events"] == oracle["events"]
    assert lowered["trace"] == oracle["trace"]
    assert lowered["trace"], "tracing recorded nothing"
    assert lowered["tensors"].keys() == oracle["tensors"].keys()
    for key, data in lowered["tensors"].items():
        if numeric:
            assert np.array_equal(data, oracle["tensors"][key]), key
        else:
            assert data is None and oracle["tensors"][key] is None


@pytest.mark.parametrize("numeric", [False, True], ids=["timing", "numeric"])
@pytest.mark.parametrize("name,world,build", BUILDS,
                         ids=[name for name, _, _ in BUILDS])
def test_untraced_backend_matches_oracle(name, world, build, numeric,
                                         monkeypatch):
    # paper-sim, tune-cold and the latency table run untraced: the early
    # returns that skip trace records must not change the simulation
    _assert_same_simulation(world, build, numeric, False, monkeypatch)


# -- the ops, operators and statements the registry builds leave out ---------


@kernel
def _tile_zoo(a, out, N: tl.constexpr):
    x = tl.load(a, (0, N), (0, N))
    e = tl.exp(x)
    y = tl.log(e) - tl.gelu(x) / 2.0
    z = tl.maximum_tile(y, tl.relu(x)) + tl.minimum_tile(-x, tl.silu(x))
    w = z
    q = w / e
    tl.store(out, (0, N), (0, N), q)


@kernel
def _scalar_zoo(out, N: tl.constexpr, P: tl.constexpr):
    bid = tl.block_id()
    nb = tl.num_blocks()
    if bid > nb - 2 and not bid <= 0:
        return
    lo = tl.minimum(bid * N, (nb - 1) * N)
    hi = tl.maximum(lo + N, N)
    scale = (bid + 1) ** P / 4
    for i in range(N):
        if i > 2 or bid == 0 and i == 1:
            return
        v = tl.full((hi - lo,), -scale + i, "float32")
        tl.store_vec(out, (lo, hi), v)


def _zoo_build(kdef, grid: int, arrays: dict, consts: dict):
    def build(ctx):
        for name, arr in arrays.items():
            ctx.bind(name, [arr.copy() for _ in range(ctx.world_size)])
        args = {name: ctx.heap.tensors(name) for name in arrays}
        ctx.launch_spmd(kdef, grid, {**args, **consts})
    return build


_ZOO_RNG = np.random.default_rng(7)
_Z8 = _ZOO_RNG.standard_normal((8, 8)).astype(np.float32)
ZOO = {
    "tile_zoo": _zoo_build(_tile_zoo, 2, {"a": _Z8, "out": np.zeros_like(_Z8)},
                           {"N": 8}),
    "scalar_zoo": _zoo_build(_scalar_zoo, 3, {"out": np.zeros(12, np.float32)},
                             {"N": 4, "P": 2}),
    "elementwise": _zoo_build(_elementwise, 1,
                              {"a": _Z8, "out": np.zeros_like(_Z8)}, {"N": 8}),
    "rowops": _zoo_build(_rowops, 1, {"a": _Z8, "mx": np.zeros(8, np.float32),
                                      "sm": np.zeros(8, np.float32)},
                         {"N": 8}),
    "atomics": _zoo_build(_atomics, 3, {"out": np.zeros((4, 4), np.float32)},
                          {"N": 4, "REPS": 5}),
    "k_backward": _zoo_build(
        _k_backward, 2,
        {"a": _ZOO_RNG.standard_normal((64, 256)).astype(np.float32),
         "b": _ZOO_RNG.standard_normal((256, 32)).astype(np.float32),
         "c": np.zeros((64, 32), np.float32)},
        {"M": 64, "N": 256, "BM": 32, "BK": 32}),
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("numeric", [False, True], ids=["timing", "numeric"])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_op_coverage_kernels_match_oracle(name, numeric, trace, monkeypatch):
    sim = _assert_same_simulation(2, ZOO[name], numeric, trace, monkeypatch)
    assert sim["time"] > 0
    if numeric:
        assert any(np.any(data) for (tensor, _), data in sim["tensors"].items()
                   if tensor in ("out", "mx", "c"))


# -- run-time errors: raised by the same statement, at the same time ---------


@kernel
def _undefined_tile(out, N: tl.constexpr):
    v = tl.full((N,), 1.0, "float32")
    if N > 100:
        w = v
    tl.store_vec(out, (0, N), w)


@kernel
def _zero_step(out, N: tl.constexpr):
    s = N * 0
    for _ in range(0, N, s):
        v = tl.full((N,), 1.0, "float32")
        tl.store_vec(out, (0, N), v)


@kernel
def _negative_extent(out, N: tl.constexpr):
    x = tl.load(out, (N, 0), (0, N))
    tl.store(out, (0, N), (0, N), x)


@kernel
def _fails_when_run(out, N: tl.constexpr):
    v = tl.full((N,), 1.0, "float32")
    tl.store_vec(out, (0, N), v)
    if N > 100:
        bad = 1 // 0  # never runs: must not raise
    tl.store_vec(out, (0, N), v)
    worse = N // 0


@kernel
def _undefined_in_replay(out, N: tl.constexpr):
    for i in range(N):
        v = tl.full((N,), 1.0, "float32")
        tl.store_vec(out, (0, N), v)
        if i > 1:
            q = missing + 1  # noqa: F821, F841


ERRORS = [
    (_undefined_tile, "undefined tile 'w'"),
    (_zero_step, "loop step of 0"),
    (_negative_extent, r"negative load extent \(-4, 4\)"),
    (_fails_when_run, "integer division or modulo by zero"),
    (_undefined_in_replay, "undefined scalar 'missing'"),
]


@pytest.mark.parametrize("numeric", [False, True], ids=["timing", "numeric"])
@pytest.mark.parametrize("kdef,error", ERRORS,
                         ids=[kdef.name for kdef, _ in ERRORS])
def test_errors_match_oracle(kdef, error, numeric, monkeypatch):
    def run():
        ctx = DistContext.create(SimConfig(world_size=1,
                                           execute_numerics=numeric))
        ctx.alloc("out", (4, 4) if kdef is _negative_extent else (4,),
                  "float32")
        ctx.launch_spmd(kdef, 1, {"out": ctx.heap.tensors("out"), "N": 4})
        try:
            ctx.run()
        except Exception as exc:  # the error, and when the block raised it
            return type(exc), str(exc), ctx.machine.sim._seq, ctx.machine.now
        return None, None, ctx.machine.sim._seq, ctx.machine.now

    generated = run()
    monkeypatch.setattr(launcher, "run_block", oracle_interp.run_block)
    assert generated == run()
    if kdef is _undefined_in_replay and not numeric:
        assert generated[0] is None  # only numeric mode replays the loop
    else:
        assert re.search(error, generated[1])
