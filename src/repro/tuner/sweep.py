"""Multi-shape tuning sweeps (the *sweep* driver).

The paper's tables are whole shape *tables* — Table 4's six MoE shapes,
Figure 8's six MLP shapes — not single points, and tuning them one
:func:`repro.tuner.search.tune` call at a time repays none of the work
across shapes.  :func:`sweep` drives a list of
:class:`~repro.tuner.search.TuneTask` through **one shared**
:class:`~repro.tuner.cache.TuneCache`:

* every task's full cache key (kernel | shape | world | spec fingerprint |
  space fingerprint | search signature) is computed up front via
  :func:`repro.tuner.search.task_cache_key`;
* tasks that resolve to the *same* key — shapes sharing a space
  fingerprint and problem signature, or one shape listed under two names —
  are deduplicated: the candidate simulations run once and every aliasing
  entry shares the result (``deduped_from`` names the first task);
* everything else flows through :func:`tune` with the shared cache, so a
  warm rerun of the whole sweep does **zero** simulations
  (``from_cache=True`` on every shape) — cache warm-up is paid once per
  table, not once per bench invocation;
* ``workers=N`` first fans the cold first-occurrence keys (those the
  shared cache does not hold yet) out over forked processes through
  :func:`repro.util.forkpool.fork_run`, with identical report semantics.

The fan-out: :class:`~repro.tuner.search.TuneTask` carries closures
(builder factories, analytic bounds) that cannot cross a pickle boundary,
so workers inherit the task list over ``fork()`` and receive only an
index.  Each worker tunes against its own cache file (written atomically
when its tune finishes), and the parent folds the finished files into the
shared cache through :meth:`~repro.tuner.cache.TuneCache.merge_from` —
the same flock-protected read-merge-rename path every other cache write
takes.  A worker that crashes therefore cannot corrupt the shared file or
drop other keys' results: its file never exists, while finished files
are merged before the failure propagates.  The report is then assembled
by the same loop a serial sweep runs, so entry order, dedup labels,
progress lines and ``n_simulated`` accounting are identical (the
simulator is deterministic, and a cold key tunes against an empty
private cache exactly like it would against a shared cache that does not
hold it).  Without ``fork``, or with fewer than two cold keys, the loop
simply tunes every key itself against the shared cache.

The returned :class:`SweepReport` carries one :class:`SweepEntry` per
task, formats as a paper-style per-shape table, and exports plain dict
rows for the machine-readable bench path
(``benchmarks/bench_autotune_sweep.py --json``).
"""

from __future__ import annotations

import math
import shutil
import tempfile
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Sequence, Union

from repro.config import H800, HardwareSpec
from repro.tuner import cache as cache_mod
from repro.tuner.search import TuneResult, TuneTask, task_cache_key, tune
from repro.tuner.space import TunerError
from repro.util.forkpool import fork_available, fork_run

#: A sweep input: a bare task (named after its kernel/shape) or a
#: (display name, task) pair.
SweepInput = Union[TuneTask, tuple[str, TuneTask]]


@dataclass(frozen=True)
class SweepEntry:
    """Outcome of one task of a :func:`sweep` call."""

    name: str
    kernel: str
    shape_key: str
    cache_key: str
    result: TuneResult
    #: name of the earlier sweep task whose tuning this entry reused
    #: (same full cache key); ``None`` when this entry ran its own search.
    deduped_from: str | None = None

    @property
    def speedup(self) -> float:
        if not self.result.default_time:
            return float("nan")
        return self.result.default_time / self.result.best_time

    @property
    def n_simulated(self) -> int:
        """Simulations this entry actually paid for (0 when deduplicated)."""
        return 0 if self.deduped_from is not None else self.result.n_simulated

    @property
    def from_cache(self) -> bool:
        """True when no new simulation ran for this shape (persistent-cache
        hit or intra-sweep dedup)."""
        return self.result.from_cache or self.deduped_from is not None


@dataclass
class SweepReport:
    """Per-shape outcomes of one :func:`sweep` call."""

    entries: list[SweepEntry]

    @property
    def n_simulated(self) -> int:
        return sum(e.n_simulated for e in self.entries)

    @property
    def n_from_cache(self) -> int:
        return sum(1 for e in self.entries if e.from_cache)

    @property
    def n_deduped(self) -> int:
        return sum(1 for e in self.entries if e.deduped_from is not None)

    def entry(self, name: str) -> SweepEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise TunerError(f"no sweep entry named {name!r}; "
                         f"known: {[e.name for e in self.entries]}")

    def rows(self) -> list[dict]:
        """Plain dict rows (one per shape) for JSON emission.

        A cache hit without a recorded ``default_time`` has no baseline:
        ``default_ms`` and ``speedup`` are ``None`` (JSON ``null``), never
        ``0.0``/``NaN`` — ``json.dump`` would serialise the latter as a
        bare ``NaN`` token, which is not valid JSON and breaks strict
        parsers of the ``--json`` bench output.
        """
        return [{
            "name": e.name,
            "kernel": e.kernel,
            "shape": e.shape_key,
            "default_ms": (e.result.default_time * 1e3
                           if e.result.default_time else None),
            "tuned_ms": e.result.best_time * 1e3,
            "speedup": e.speedup if math.isfinite(e.speedup) else None,
            "n_simulated": e.n_simulated,
            "from_cache": e.from_cache,
            "deduped_from": e.deduped_from,
            "best": dict(e.result.best),
        } for e in self.entries]

    def format(self, title: str = "Tuning sweep") -> str:
        """Paper-style per-shape table of the sweep outcome."""
        from repro.util.tables import format_table

        rows = []
        for e in self.entries:
            # dedup wins over cache: a deduplicated entry shares the first
            # task's result object, so result.from_cache alone would
            # mislabel it and disagree with n_deduped in the TOTAL row
            provenance = (f"dedup<-{e.deduped_from}" if e.deduped_from
                          else "cache" if e.result.from_cache else "searched")
            has_default = bool(e.result.default_time)
            rows.append([
                e.name, e.kernel,
                e.result.default_time * 1e3 if has_default else "-",
                e.result.best_time * 1e3,
                e.speedup if has_default else "-",
                e.n_simulated, provenance,
            ])
        rows.append(["TOTAL", "-", "-", "-", "-", self.n_simulated,
                     f"{self.n_from_cache}/{len(self.entries)} warm"])
        return format_table(
            ["shape", "kernel", "default (ms)", "tuned (ms)", "speedup",
             "simulated", "provenance"],
            rows, title=title)


def _normalize(tasks: Iterable[SweepInput]) -> list[tuple[str, TuneTask]]:
    named: list[tuple[str, TuneTask]] = []
    seen: dict[str, int] = {}
    for item in tasks:
        if isinstance(item, TuneTask):
            name, task = f"{item.kernel}:{item.shape_key}", item
        else:
            name, task = item
        # keep display names unique so reports and entry() stay unambiguous
        if name in seen:
            seen[name] += 1
            name = f"{name}#{seen[name]}"
        else:
            seen[name] = 0
        named.append((name, task))
    return named


def _fan_out(cold: list[tuple[str, str, TuneTask]],
             cache: cache_mod.TuneCache | None, workers: int,
             tune_one: Callable[[TuneTask, cache_mod.TuneCache | None],
                                TuneResult]) -> dict[str, TuneResult]:
    """Tune the ``(key, name, task)`` list ``cold`` over forked workers,
    each against a private cache file; returns results by key.

    Finished private files are merged into ``cache`` even when a worker
    fails.  A readonly (or absent) shared cache gets no private files:
    nothing would be merged into it, as a serial ``put`` never persists.
    """
    cache_dir = (tempfile.mkdtemp(prefix="repro-sweep-workers-")
                 if cache is not None and not cache.readonly else None)

    def private(index: int) -> Path:
        return Path(cache_dir) / f"task{index}.json"

    def run(index: int) -> TuneResult:
        """Tune one cold key (inherited over ``fork()``; only ``index``
        crosses the process boundary)."""
        own = cache_mod.TuneCache(private(index)) if cache_dir else None
        return tune_one(cold[index][2], own)

    try:
        results, failures = fork_run(run, len(cold), workers)
    finally:
        if cache_dir is not None:
            try:
                # in task order, so the shared file lists keys as a
                # serial sweep would write them
                cache.merge_from(*(private(i) for i in range(len(cold))))
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
    if failures:
        # a dead worker fails *every* unfinished job with
        # BrokenProcessPool, so prefer a real exception (the root cause)
        # for the re-raise; name no specific task otherwise
        for _, exc in failures:
            if not isinstance(exc, BrokenProcessPool):
                raise exc
        names = sorted(cold[i][1] for i, _ in failures)
        raise TunerError(
            f"a sweep worker died while tuning one of {names}; "
            f"completed tasks were merged into the shared cache"
        ) from failures[0][1]
    return {cold[i][0]: result for i, result in results.items()}


def sweep(tasks: Sequence[SweepInput], *, world: int = 8,
          spec: HardwareSpec = H800, strategy: str = "exhaustive",
          cache: cache_mod.TuneCache | None = None,
          max_trials: int | None = None,
          workers: int | None = None,
          progress: Callable[[str], None] | None = None,
          recorder=None) -> SweepReport:
    """Tune a whole shape table through one shared cache.

    ``tasks`` is a sequence of :class:`TuneTask` (or ``(name, task)``
    pairs for nicer report labels); every search parameter is shared by
    the whole sweep so the per-task cache keys stay comparable.
    ``workers=N`` (N > 1) first tunes the cold first-occurrence keys over
    N forked processes (see the module docstring) with identical report
    semantics; the default tunes serially.  ``progress`` (e.g. ``print``)
    receives one line per shape as it resolves.  ``recorder`` (a
    :class:`repro.obs.Recorder`, duck-typed) collects wall-clock spans —
    one ``tune`` span per shape tuned in this process plus the
    per-stage spans :func:`tune` records inside it, and one ``fanout``
    span around the forked workers, whose own spans die with them.
    """
    named = _normalize(tasks)
    if not named:
        raise TunerError("sweep() needs at least one task")

    if recorder is not None:
        recorder.meta.setdefault("kind", "spans")

    def tune_one(task: TuneTask, against: cache_mod.TuneCache | None,
                 recorder=None) -> TuneResult:
        return tune(task, world=world, spec=spec, strategy=strategy,
                    cache=against, max_trials=max_trials, recorder=recorder)

    keyed = [(name, task, task_cache_key(task, world=world, spec=spec,
                                         strategy=strategy,
                                         max_trials=max_trials))
             for name, task in named]

    results: dict[str, TuneResult] = {}
    if workers is not None and workers > 1 and fork_available():
        cold: dict[str, tuple[str, str, TuneTask]] = {}
        for name, task, key in keyed:
            if key not in cold and (cache is None or key not in cache):
                cold[key] = (key, name, task)
        if len(cold) > 1:
            t_fan = perf_counter() if recorder is not None else 0.0
            results = _fan_out(list(cold.values()), cache, workers, tune_one)
            if recorder is not None:
                recorder.span(t_fan, perf_counter(), "fanout",
                              f"{len(cold)} tasks x {workers} workers")

    first_name: dict[str, str] = {}
    entries: list[SweepEntry] = []
    for name, task, key in keyed:
        if key in first_name:
            entries.append(SweepEntry(
                name=name, kernel=task.kernel, shape_key=task.shape_key,
                cache_key=key, result=results[key],
                deduped_from=first_name[key]))
            if recorder is not None:
                t_now = perf_counter()
                recorder.span(t_now, t_now, "cache",
                              f"dedup:{name}<-{first_name[key]}")
            if progress is not None:
                # dedup keys on the FULL cache key (shape, world, spec and
                # search signature included), not just the space
                # fingerprint — say so, and name the shared key
                progress(f"[sweep] {name}: deduplicated (same cache key "
                         f"as {first_name[key]}: {key})")
            continue
        first_name[key] = name
        if key not in results:
            t_tune = perf_counter() if recorder is not None else 0.0
            results[key] = tune_one(task, cache, recorder)
            if recorder is not None:
                recorder.span(t_tune, perf_counter(), "tune", name)
        result = results[key]
        entries.append(SweepEntry(
            name=name, kernel=task.kernel, shape_key=task.shape_key,
            cache_key=key, result=result))
        if progress is not None:
            provenance = ("cache" if result.from_cache
                          else f"{result.n_simulated} simulations")
            progress(f"[sweep] {name}: best {result.best_time * 1e3:.3f} ms "
                     f"({provenance})")
    return SweepReport(entries=entries)
