"""Tuned-config resolution and the shipped warm cache.

``benchmarks/warm_cache.json`` is a checked-in read-only
:class:`~repro.tuner.cache.TuneCache` holding the exhaustive-search
winners for the paper's shape tables, and this module owns its
location.  :func:`tuned_config` is the one resolution of the
"TileLink-tuned" method, in the figure tables and the end-to-end layers
(``method="tilelink-tuned"``): a key hit turns a launch config into the
winner, a miss leaves the caller's config, and only an explicit search
simulates.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from repro.config import HardwareSpec
from repro.tuner.cache import TuneCache
from repro.tuner.space import TunerError

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


def tuned_config(retune: Callable[..., Any], cfg: Any, cache: TuneCache | None,
                 *, world: int, spec: HardwareSpec, search: bool = False,
                 max_trials: int | None = None) -> Any | None:
    """``cfg`` with the tuner's winning axis values, or ``None`` on a miss.

    ``retune(cfg, *, world, spec)`` is the family's tune task for
    ``cfg``'s shape; a shape outside the tuner's space misses.  A lookup
    (the default) reads ``cache`` at ``world``/``spec`` and never
    simulates; ``search=True`` tunes through ``cache`` (the default
    persistent cache when ``None``).
    """
    if cache is None and not search:
        return None
    try:
        task = retune(cfg, world=world, spec=spec)
    except TunerError:
        return None
    # the winner in the caller's config type (an MoE slot's is MoeConfig)
    task = replace(task, finalize=lambda cand: replace(cfg, **cand))
    if not search:
        return warm_tuned_config(cache, task, world=world, spec=spec,
                                 max_trials=max_trials)
    from repro.tuner.search import tune

    return tune(task, world=world, spec=spec,
                cache=cache if cache is not None else TuneCache(),
                max_trials=max_trials).best_config
