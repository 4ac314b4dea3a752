"""``repro.tuner`` — autotuning over the decoupled tile-centric design space.

The paper picks one point per kernel out of its §3.1 design space by hand;
this subsystem searches the space automatically.  Four stages, one module
each:

* :mod:`repro.tuner.space` — declarative :class:`SearchSpace` of named
  axes (tile m/n/k, comm tile, ``comm_blocks``, push/pull/hybrid mode,
  SM vs. copy-engine transport);
* :mod:`repro.tuner.costprune` — analytic lower bounds from
  :class:`repro.sim.costmodel.CostModel` + wave-quantization arithmetic
  that discard dominated candidates before any simulation runs;
* :mod:`repro.tuner.search` — :func:`tune`, the one tuning entry point:
  exhaustive or model-guided search executing survivors through
  :func:`repro.bench.harness.run_builder`;
* :mod:`repro.tuner.model` — :class:`ResidualModel`, the ridge-regularized
  per-axis residual predictor behind ``strategy="model"`` (rank before
  you pay: refit online, simulate only while the optimistic prediction
  beats the incumbent);
* :mod:`repro.tuner.cache` — persistent JSON memo keyed on
  (kernel, shape, world size, spec fingerprint, space fingerprint);
* :mod:`repro.tuner.sweep` — multi-shape driver tuning a whole shape
  table (Table 4, Figure 8) through one shared cache, deduplicating
  candidate simulation across shapes that alias in key space;
  ``workers=N`` fans the cold tasks out over forked processes and merges
  their per-worker cache files through the flock-protected flush;
* :mod:`repro.tuner.warm` — the shipped warm cache and
  ``tuned_config``, the one tuned-config resolution behind the
  TileLink-tuned bench columns and ``method="tilelink-tuned"``.

One-call API — each kernel family's ``*_tune_task(...)`` states its
search space, default and bound; :func:`tune` searches it::

    from repro.kernels.ag_gemm import ag_gemm_tune_task
    from repro.tuner import TuneCache, tune
    task = ag_gemm_tune_task(m, n, k, world=8, spec=H800)
    result = tune(task, world=8, spec=H800, cache=TuneCache(path))
    cfg = result.best_config          # an AgGemmConfig

The bench builders' ``tuned=True`` columns make the same call, on the
task a family's table entry ``retune`` hook builds at a figure config.
"""

from repro.tuner.cache import TuneCache, default_cache_path, make_key
from repro.tuner.costprune import (
    PruneResult,
    ag_attention_lower_bound,
    ag_gemm_lower_bound,
    ag_moe_lower_bound,
    gemm_rs_lower_bound,
    gemm_wave_time,
    link_transfer_time,
    moe_rs_lower_bound,
    prune,
    ring_attention_lower_bound,
)
from repro.tuner.model import (
    ResidualModel,
    model_guided_search,
    stratified_probe_indices,
)
from repro.tuner.search import (
    TuneResult,
    TuneTask,
    search_signature,
    task_cache_key,
    tune,
)
from repro.tuner.space import (
    Axis,
    SearchSpace,
    TunerError,
    divisors_of,
)
from repro.tuner.sweep import SweepEntry, SweepReport, sweep
from repro.tuner.warm import (
    resolve_warm_cache,
    warm_cache_path,
    warm_tuned_config,
)

__all__ = [
    "Axis", "PruneResult", "ResidualModel", "SearchSpace", "SweepEntry",
    "SweepReport", "TuneCache", "TuneResult", "TuneTask", "TunerError",
    "ag_attention_lower_bound", "ag_gemm_lower_bound", "ag_moe_lower_bound",
    "default_cache_path", "divisors_of", "gemm_rs_lower_bound",
    "gemm_wave_time", "link_transfer_time", "make_key",
    "model_guided_search", "moe_rs_lower_bound", "prune",
    "ring_attention_lower_bound", "resolve_warm_cache", "search_signature",
    "stratified_probe_indices", "sweep", "task_cache_key", "tune",
    "warm_cache_path", "warm_tuned_config",
]
