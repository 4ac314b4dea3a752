"""Autotune an overlapped kernel instead of hand-picking its config.

Every kernel in this repo ships with the paper's hand-picked constants
(``AgGemmConfig(comm_blocks=20, block_mp=128)`` and friends).  The
``repro.tuner`` subsystem searches the §3.1 decoupled design space
instead: declare the axes, let the cost model prune dominated points, and
simulate only the survivors.  On the Figure-8 MLP-1 shape the tuned
GEMM+RS config strictly beats the paper's default (a larger compute tile
wins); the winner is memoised in a JSON cache so the second call returns
instantly without touching the simulator.

Run:  python examples/autotune_kernel.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.kernels.gemm_rs import gemm_rs_tune_task
from repro.models.configs import MLP_BENCHES
from repro.tuner import TuneCache, tune
from repro.util.tables import format_table

WORLD = 8
SHAPE = MLP_BENCHES[0]                   # MLP-1: LLaMA-7B, s=8192 h=4096


def main() -> None:
    m, n = SHAPE.s, SHAPE.h
    k = SHAPE.i // WORLD
    cache_path = Path(tempfile.mkdtemp(prefix="repro-tune-")) / "cache.json"
    cache = TuneCache(cache_path)
    # the task states GEMM+RS's search space, its paper default and the
    # cost-model bound the pruner uses
    task = gemm_rs_tune_task(m, n, k, world=WORLD)

    print(f"Tuning GEMM+RS on {SHAPE.name} ({SHAPE.source}), "
          f"m={m} n={n} k={k}, world={WORLD} ...")
    t0 = time.time()
    res = tune(task, world=WORLD, cache=cache)
    wall = time.time() - t0

    rows = [
        ["paper config (ms)", res.default_time * 1e3],
        ["tuned config (ms)", res.best_time * 1e3],
        ["speedup", res.default_time / res.best_time],
        ["candidates", res.n_candidates],
        ["pruned by cost model", res.n_pruned],
        ["simulated", res.n_simulated],
        ["tuner wall time (s)", wall],
    ]
    print()
    print(format_table(["column", "value"], rows,
                       title=f"Autotune — GEMM+RS on {SHAPE.name}"))
    print()
    print("winning config:", res.best_config)
    assert res.best_time <= res.default_time

    t0 = time.time()
    res2 = tune(task, world=WORLD, cache=cache)
    print(f"\nsecond call: from_cache={res2.from_cache}, "
          f"simulations={res2.n_simulated}, "
          f"wall={time.time() - t0:.3f}s (cache: {cache_path})")
    assert res2.from_cache and res2.n_simulated == 0


if __name__ == "__main__":
    main()
