"""Tune a whole paper shape table in one sweep through one shared cache.

``repro.tuner.sweep`` is the multi-shape companion of
``examples/autotune_kernel.py``: instead of tuning one kernel on one
shape, it drives a list of :class:`~repro.tuner.TuneTask` — here the
first three Table-4 MoE shapes, both MoE kernels each — through a single
persistent :class:`~repro.tuner.TuneCache`.  Candidate simulation is
deduplicated across tasks that alias in key space, and a warm rerun of
the whole sweep performs zero simulations: cache warm-up is paid once per
table, after which the Figure-9 ``TileLink-tuned`` columns
(``moe_part1_builders(..., tuned=True)``) resolve instantly.

``workers=N`` fans the cold, non-aliasing tasks out over forked
processes: each worker tunes against its own cache file and the parent
merges the results through the flock-protected flush, so the report —
entry order, dedup labels, simulation counts — is identical to the
serial run's.

``strategy="model"`` swaps the exhaustive survivor scan for
*model-guided* search (``repro.tuner.model``): a ridge-regularized
per-axis residual model is trained online on the trials already paid
for, re-ranks the remaining candidates by predicted time, and the
search stops the moment no remaining candidate's optimistic prediction
beats the incumbent.  The fallback is provable — the hand-picked
default is always simulated, so ``best_time <= default_time`` holds no
matter how wrong the model is — and the early-stop budget is folded
into the cache-key search signature, so a model entry never aliases an
exhaustive one.  The third act below tunes the Figure-8 MLP-1 AG+GEMM
shape — whose space is large enough for the probe set to matter —
under both strategies and prints the simulation budget saved (the tiny
MoE spaces above fit inside the probe budget, where model-guided search
simply degrades to exhaustive).

The repo also *ships* a warm cache: ``benchmarks/warm_cache.json`` holds
the exhaustive winners for the full Figure-8 MLP, Table-4 MoE and
Figure-10 attention tables, which is why the Figure-8/9/10 benches grow
a TileLink-tuned column by default with zero simulation at bench time.
After changing a kernel's search space, regenerate it (and satisfy the
CI staleness check) with::

    python benchmarks/refresh_warm_cache.py            # regenerate
    python benchmarks/refresh_warm_cache.py --check    # CI tripwire

Run:  python examples/autotune_sweep.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.bench.experiments import mlp_sweep_tasks, moe_sweep_tasks
from repro.models.configs import MLP_BENCHES, MOE_BENCHES
from repro.tuner import TuneCache, sweep

WORLD = 8
WORKERS = 2
SHAPES = MOE_BENCHES[:3]                 # MoE-1..3 (Table 4)


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-sweep-"))
    cache = TuneCache(tmp / "cache.json")
    tasks = moe_sweep_tasks(SHAPES, world=WORLD)

    print(f"Sweeping {len(tasks)} tuning tasks over "
          f"{', '.join(s.name for s in SHAPES)} "
          f"(world={WORLD}, workers={WORKERS}) ...\n")
    t0 = time.time()
    report = sweep(tasks, world=WORLD, cache=cache, workers=WORKERS,
                   progress=print)
    cold_wall = time.time() - t0

    print()
    print(report.format("Autotune sweep — Table-4 MoE shapes"))
    print(f"\ncold sweep: {report.n_simulated} simulations across "
          f"{WORKERS} workers, {cold_wall:.1f}s wall (cache: {cache.path})")

    t0 = time.time()
    warm = sweep(tasks, world=WORLD, cache=cache, workers=WORKERS)
    print(f"warm rerun: {warm.n_simulated} simulations, "
          f"{warm.n_from_cache}/{len(warm.entries)} shapes from cache, "
          f"{time.time() - t0:.2f}s wall")
    assert warm.n_simulated == 0
    assert all(e.from_cache for e in warm.entries)

    # -- model-guided search: a big space, a fraction of the simulations --
    mlp_tasks = mlp_sweep_tasks(MLP_BENCHES[:1], kernels=("ag_gemm",),
                                world=WORLD)
    print(f"\nTuning {mlp_tasks[0][0]} (Figure 8) under both strategies ...")
    t0 = time.time()
    ex = sweep(mlp_tasks, world=WORLD, cache=TuneCache(tmp / "ex.json"))
    model = sweep(mlp_tasks, world=WORLD,
                  cache=TuneCache(tmp / "model.json"), strategy="model")
    print()
    print(model.format("Autotune sweep — model-guided search"))
    skipped = sum(e.result.n_model_skipped for e in model.entries)
    print(f"\nmodel-guided: {model.n_simulated} simulations where "
          f"exhaustive paid {ex.n_simulated} (the early stop skipped "
          f"{skipped} candidates), {time.time() - t0:.1f}s wall")
    assert model.n_simulated < ex.n_simulated
    assert all(e.result.best_time <= e.result.default_time
               for e in model.entries)


if __name__ == "__main__":
    main()
