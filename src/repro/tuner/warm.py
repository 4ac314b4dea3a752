"""Shipped warm-cache plumbing (tuned-by-default resolution).

``benchmarks/warm_cache.json`` is a checked-in read-only
:class:`~repro.tuner.cache.TuneCache` holding the exhaustive-search
winners for the paper's shape tables.  Consumers — the bench builders'
``tuned=None`` auto mode and the end-to-end runner's
``method="tilelink-tuned"`` — resolve configs through it with **zero**
simulation: a key hit yields the finalized tuned config, a miss falls
back to the paper default.  This module owns the file location and the
hit-or-None resolution step so :mod:`repro.bench.experiments` and
:mod:`repro.models.transformer` share one implementation.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from repro.config import HardwareSpec
from repro.tuner.cache import TuneCache

#: Environment override for the shipped warm-cache location (point it at a
#: nonexistent path to disable the tuned-by-default columns).
ENV_WARM_CACHE = "REPRO_WARM_CACHE"


def warm_cache_path() -> Path:
    env = os.environ.get(ENV_WARM_CACHE)
    if env:
        return Path(env)
    return (Path(__file__).resolve().parents[3] / "benchmarks"
            / "warm_cache.json")


def resolve_warm_cache(path: str | os.PathLike | None = None
                       ) -> TuneCache | None:
    """The shipped warm cache as a read-only :class:`TuneCache`, or
    ``None`` when the file does not exist (source checkouts only ship
    it; installed packages fall back to untuned columns)."""
    p = Path(path) if path is not None else warm_cache_path()
    if not p.is_file():
        return None
    return TuneCache(p, readonly=True)


def warm_tuned_config(cache: TuneCache | None, task: Any, *, world: int,
                      spec: HardwareSpec,
                      max_trials: int | None = None) -> Any | None:
    """Finalized tuned config for ``task`` from ``cache``, or ``None``.

    Purely a cache lookup — never simulates.  ``task`` is a
    :class:`~repro.tuner.search.TuneTask`; the key is computed for the
    given runtime ``world``/``spec`` so a deployment that diverged from
    the shipped sweep's testbed misses cleanly instead of being served a
    config tuned for different hardware.  A malformed entry, or one
    whose ``best`` is not a candidate of ``task.space``, raises
    :class:`~repro.tuner.space.TunerError` naming the key and the file.
    """
    if cache is None:
        return None
    from repro.tuner.search import task_cache_key

    hit = cache.get(task_cache_key(task, world=world, spec=spec,
                                   max_trials=max_trials), task.space)
    return None if hit is None else task.finalize(hit["best"])
