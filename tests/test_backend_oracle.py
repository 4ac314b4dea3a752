"""Differential test: the lowered backend against the tree-walking oracle.

``tests/oracle_interp.py`` keeps the interpreter that
``repro.compiler.interp`` replaced.  Every tile-IR build the registry
lists for the analyzer runs on a real :class:`DistContext` twice, once per
backend (swapped in through ``repro.runtime.launcher.run_block``), in
timing and in numeric mode with tracing on.  Both backends must produce
the same simulation: simulated time, number of scheduled events, trace
intervals and every tensor's contents.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimConfig
from repro.registry import families
from repro.runtime import launcher
from repro.runtime.context import DistContext
from tests import oracle_interp

BUILDS = [(name, world, build)
          for fam in families().values() if fam.tile_ir
          for name, world, build in fam.analyze_plans()]


def _simulate(world: int, build, numeric: bool) -> dict:
    ctx = DistContext.create(SimConfig(world_size=world,
                                       execute_numerics=numeric, trace=True))
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
