"""Autotuning sweep: tune whole paper shape tables through one cache.

``repro.tuner.sweep`` drives the Table-4 MoE shapes and the Figure-8 MLP
shapes through a single shared :class:`~repro.tuner.TuneCache`: candidate
simulations are deduplicated across shapes that alias in key space, and a
warm rerun of the sweep performs **zero** simulations — every shape
resolves ``from_cache=True``.  The tuned configs are then surfaced as the
``TileLink-tuned`` column of the Figure-8/9 tables
(``*_builders(..., tuned=True)``).

``REPRO_FAST=1`` (the CI path) swaps the paper shapes for a tiny shape
table so the ``--json`` emitter contract can be validated in seconds.
``REPRO_SWEEP_WORKERS=N`` fans the sweep's cold tasks out over N forked
workers (``sweep(..., workers=N)``); ``REPRO_SWEEP_ROWS=PATH``
additionally dumps the cold sweep's ``SweepReport.rows()`` as strict
JSON for ``validate_bench_json.py --schema sweep``;
``REPRO_SWEEP_STRATEGY=model`` swaps the search strategy driving the
sweep (``exhaustive``, the default, is the only other one) — CI runs the
tiny table under both and validates both JSON contracts.
"""

from __future__ import annotations

import json
import os

from benchmarks.common import FAST, emit_json, run_once
from repro.bench.experiments import (
    ag_gemm_builders,
    mlp_sweep_tasks,
    moe_part2_builders,
    moe_sweep_tasks,
    run_method_times,
)
from repro.models.configs import MLP_BENCHES, MOE_BENCHES, MlpShape, MoeShape
from repro.tuner import TuneCache, sweep

WORLD = 8
#: REPRO_SWEEP_WORKERS=N fans the sweep out over a process pool.
WORKERS = int(os.environ.get("REPRO_SWEEP_WORKERS", "0") or 0) or None
#: REPRO_SWEEP_STRATEGY picks the search strategy for the table sweeps.
STRATEGY = os.environ.get("REPRO_SWEEP_STRATEGY", "exhaustive")

#: tiny shape table (FAST/CI): same structure as Table 4, minutes -> seconds
TINY_MOE = [
    MoeShape("MoE-tiny-1", 2048, 256, 512, 4, 2),
    MoeShape("MoE-tiny-2", 2048, 256, 1024, 4, 2),
    MoeShape("MoE-tiny-3", 4096, 256, 512, 4, 2),
]
MOE_SHAPES = TINY_MOE if FAST else MOE_BENCHES[:3]

TINY_MLP = MlpShape("MLP-tiny", 2048, 512, 2048, "tiny")
MLP_SHAPE = TINY_MLP if FAST else MLP_BENCHES[0]
MOE_SHAPE = TINY_MOE[0] if FAST else MOE_BENCHES[0]


def test_autotune_sweep_table4(benchmark, tmp_path) -> None:
    """Cold sweep over >= 3 Table-4 shapes, then a zero-simulation rerun."""
    cache = TuneCache(tmp_path / "sweep.json")
    tasks = moe_sweep_tasks(MOE_SHAPES, world=WORLD)

    report = run_once(benchmark,
                      lambda: sweep(tasks, world=WORLD, cache=cache,
                                    strategy=STRATEGY, workers=WORKERS))
    print()
    print(report.format("Autotune sweep — Table-4 MoE shapes"))
    for row in report.rows():
        if row["default_ms"] is not None:
            emit_json("Autotune sweep — Table 4", f"{row['name']}/default",
                      row["default_ms"] * 1e-3)
        emit_json("Autotune sweep — Table 4", f"{row['name']}/tuned",
                  row["tuned_ms"] * 1e-3)
    rows_path = os.environ.get("REPRO_SWEEP_ROWS")
    if rows_path:
        with open(rows_path, "w") as fh:
            # strict JSON: a NaN/Infinity leaking into the rows is a bug
            # (validate_bench_json.py rejects the bare-constant form)
            json.dump(report.rows(), fh, indent=1, sort_keys=True,
                      allow_nan=False)

    assert len(report.entries) >= 3
    # tuning can only match or improve on the hand-picked point
    assert all(e.result.best_time <= e.result.default_time
               for e in report.entries)

    # warm rerun: the shared cache answers every shape without simulating
    warm = sweep(tasks, world=WORLD, cache=cache, strategy=STRATEGY,
                 workers=WORKERS)
    assert warm.n_simulated == 0
    assert all(e.from_cache for e in warm.entries)
    assert [e.result.best for e in warm.entries] == \
        [e.result.best for e in report.entries]


def test_model_strategy_spends_fewer_simulations(benchmark, tmp_path) -> None:
    """The model-guided strategy's whole point: strictly fewer
    full-fidelity simulations than exhaustive over the same (tiny MLP)
    shape table, while every shape keeps ``best_time <= default_time``."""
    tasks = mlp_sweep_tasks([TINY_MLP], world=WORLD)

    def both():
        ex = sweep(tasks, world=WORLD, cache=TuneCache(tmp_path / "ex.json"),
                   workers=WORKERS)
        mo = sweep(tasks, world=WORLD, cache=TuneCache(tmp_path / "mo.json"),
                   strategy="model", workers=WORKERS)
        return ex, mo

    ex, mo = run_once(benchmark, both)
    print(f"\nexhaustive: {ex.n_simulated} simulations, "
          f"model: {mo.n_simulated} simulations "
          f"({sum(e.result.n_model_skipped for e in mo.entries)} skipped "
          f"by the early stop)")
    for name, t in (("exhaustive", ex), ("model", mo)):
        for row in t.rows():
            emit_json("Autotune strategy budget — tiny MLP",
                      f"{row['name']}/{name}", row["tuned_ms"] * 1e-3)
    assert mo.n_simulated < ex.n_simulated
    assert all(e.result.best_time <= e.result.default_time
               for e in mo.entries)


def test_fig8_tuned_column(benchmark, tmp_path) -> None:
    """The tuned=True flag adds a TileLink-tuned column that is never
    slower than the paper-config TileLink column."""
    cache = TuneCache(tmp_path / "tune.json")
    builders = ag_gemm_builders(MLP_SHAPE, WORLD, tuned=True,
                                tune_cache=cache, tune_max_trials=4)
    times = run_once(benchmark, lambda: run_method_times(builders))
    for name, t in times.items():
        emit_json("Figure 8 tuned column — AG+GEMM", f"{MLP_SHAPE.name}/{name}", t)
    assert "TileLink-tuned" in times
    assert times["TileLink-tuned"] <= times["TileLink"] * 1.001


def test_fig9_tuned_column(benchmark, tmp_path) -> None:
    """Same contract for the MoE part-2 table (Figure 9, middle)."""
    cache = TuneCache(tmp_path / "tune.json")
    builders = moe_part2_builders(MOE_SHAPE, WORLD, tuned=True,
                                  tune_cache=cache)
    times = run_once(benchmark, lambda: run_method_times(builders))
    for name, t in times.items():
        emit_json("Figure 9 tuned column — MoE part 2",
                  f"{MOE_SHAPE.name}/{name}", t)
    assert "TileLink-tuned" in times
    assert times["TileLink-tuned"] <= times["TileLink"] * 1.001
