"""Step-latency table: the bridge between requests and the simulator.

The 1-CPU discrete-event simulator prices one transformer layer in
hundreds of milliseconds of wall time — far too slow to call once per
serving step when a traffic sweep runs millions of steps.  This module
memoises a small ladder of :func:`repro.models.runner.layer_time`
simulations per (model, method) into a JSON file and answers every
serving-step query by interpolating on it:

* each entry holds **per-layer** simulated seconds at a handful of
  token-count *buckets* (powers of two, 64..8192 by default — at most a
  few dozen ``build_layer`` simulations per entry);
* :meth:`StepLatencyTable.step_time` maps an arbitrary step size to
  seconds — flat below the smallest bucket (fixed launch/collective
  overheads dominate there), piecewise-linear between buckets, and
  linearly extrapolated above the largest — then scales by the model's
  layer count.

A *step* is one engine iteration of the continuous-batching scheduler: a
prefill step processes the admitted prompts' tokens, a decode step one
token per running request.  Both phases are priced as a tensor-parallel
layer at the step's total token count — the causal-attention term makes
long-prompt prefill superlinear (as it should be), while short decode
steps sit on the fixed-overhead floor.

Since the KV-aware serving layer landed, each entry also carries a
**context-bucket axis**: the grid ``layer_s[ctx][tok]`` prices a step of
``tok`` tokens attending over ``ctx`` resident KV-cache tokens
(simulated through ``ModelConfig.with_context`` — non-causal decode
attention reading the cache), and the interpolator is bilinear over
(tokens, context).  Context 0 is the prefill form and reproduces the
old one-axis table exactly; decode steps pass the running batch's total
resident KV so long-context decode pays for its cache in both flash
steps and HBM traffic.  The model is shared by every ``method``, so the
TileLink-vs-baseline comparisons the table exists for stay apples to
apples.

The checked-in table (``benchmarks/latency_table.json``, beside
``warm_cache.json``) covers the serving bench's models; regenerate or
staleness-check it with ``benchmarks/refresh_latency_table.py``.  Keys
fold in everything that changes the answer — the architecture fields of
the model, the method, the world size, the seed and
``HardwareSpec.fingerprint()`` — so a table built for different hardware
misses cleanly instead of serving stale numbers.  A stored entry is read
against :data:`ENTRIES` by the shared walker (:mod:`repro.util.schema`):
a malformed one raises :class:`~repro.errors.ServeError` naming the key
and the file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Iterable

from repro.config import H800, HardwareSpec
from repro.errors import ServeError
from repro.models.configs import ModelConfig
from repro.util.jsonstore import VersionedJsonStore
from repro.util.schema import Rule, Schema, Table

_VERSION = 2        # v2: entries grew the context-bucket axis

#: Environment override for the shipped latency-table location.
ENV_LATENCY_TABLE = "REPRO_LATENCY_TABLE"

#: Default token-count ladder: power-of-two buckets keep every variant
#: tile-aligned (see ``transformer._row_tile``); 64 covers decode steps,
#: 8192 the largest admissible prefill chunk.
DEFAULT_BUCKETS = (64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Default resident-KV ladder.  0 is the prefill form (and the exact
#: old one-axis behaviour); the non-zero rungs cover a long-context
#: decode batch up to ~128k total resident tokens, beyond which the
#: interpolator extrapolates on the last segment.
DEFAULT_CTX_BUCKETS = (0, 8192, 32768, 131072)


def latency_table_path() -> Path:
    env = os.environ.get(ENV_LATENCY_TABLE)
    if env:
        return Path(env)
    return (Path(__file__).resolve().parents[3] / "benchmarks"
            / "latency_table.json")


def model_key(model: ModelConfig) -> str:
    """Architecture fingerprint: every field that changes one layer's
    simulated time (``n_layers`` scales outside the table; batch/seq are
    replaced per bucket)."""
    key = (f"h{model.hidden}-a{model.heads}x{model.head_dim}"
           f"-i{model.intermediate}")
    if model.moe:
        key += f"-moe{model.n_experts}k{model.topk}"
        if model.shared_intermediate:
            key += f"-si{model.shared_intermediate}"
    return key


def _warm_cache_fingerprint() -> str:
    """Content digest of the shipped warm tuner cache (or ``none``).

    ``tilelink-tuned`` step latencies depend on which winners the warm
    cache resolves — retuning ``warm_cache.json`` changes the simulated
    layer without touching this module, so tuned entry keys fold the
    cache *content* in and ``refresh_latency_table.py --check`` goes
    stale exactly when it should."""
    from repro.tuner.warm import resolve_warm_cache

    cache = resolve_warm_cache()
    if cache is None:
        return "none"
    payload = json.dumps({k: cache.get(k) for k in sorted(cache.keys())},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def entry_key(model: ModelConfig, method: str, world: int,
              spec: HardwareSpec, seed: int = 0) -> str:
    key = "|".join([model_key(model), method, f"w{world}", f"s{seed}",
                    spec.fingerprint()])
    if method == "tilelink-tuned":
        key += f"|wc{_warm_cache_fingerprint()}"
    return key


def _ladder_rule(first: str, first_ok: Callable[[int], bool]) -> Rule:
    """At least two strictly increasing ints, the first ``first``: the
    interpolator needs a segment to extrapolate from above the last
    rung."""
    return Rule(f">= 2 strictly increasing ints {first}",
                lambda rungs: len(rungs) >= 2
                and all(type(r) is int for r in rungs)
                and all(a < b for a, b in zip(rungs, rungs[1:]))
                and first_ok(rungs[0]))


TOKEN_LADDER = _ladder_rule("from 8", lambda r: r >= 8)
#: the 0 rung is the prefill form
CTX_LADDER = _ladder_rule("from 0", lambda r: r == 0)

#: stored entries; ``ensure`` checks its arguments with the two ladders
ENTRIES = Schema("entry", "entries", {None: Table({
    "buckets": ((list,), TOKEN_LADDER),
    "ctx_buckets": ((list,), CTX_LADDER),
    "layer_s": ((list,), None),
}, rules=(Rule("layer_s needs one row of finite numbers per token bucket "
               "for each context bucket",
               lambda e: len(e["layer_s"]) == len(e["ctx_buckets"]) and all(
                   isinstance(row, list) and len(row) == len(e["buckets"])
                   and all(type(t) in (int, float) and math.isfinite(t)
                           for t in row)
                   for row in e["layer_s"])),))}, closed=False)


def resolve_latency_table(path: str | os.PathLike | None = None
                          ) -> "StepLatencyTable | None":
    """The shipped latency table, read-only, or ``None`` when missing."""
    p = Path(path) if path is not None else latency_table_path()
    if not p.is_file():
        return None
    return StepLatencyTable(p, readonly=True)


class StepPricer:
    """Pre-flattened bilinear ``(tokens, ctx) -> step seconds`` pricer
    for one table entry.

    Calling it reproduces the original interpolation arithmetic
    operation-for-operation (bit-identical floats), with an O(1) memo on
    every (row, tokens) lookup.  On top of the per-call form it exposes
    the cell structure: :meth:`decode_coeffs` resolves the affine context
    segment a ``(tokens, ctx)`` query falls in *once*, so the
    event-driven engine (:mod:`repro.serve.engine`) prices a whole
    macro-step of decode iterations through one cached cell instead of
    re-bisecting both axes every step.
    """

    __slots__ = ("buckets", "ctx_buckets", "grid", "n_layers",
                 "_rows", "_coeffs")

    def __init__(self, buckets: list[int], ctx_buckets: list[int],
                 grid: list[list[float]], n_layers: int):
        self.buckets = buckets
        self.ctx_buckets = ctx_buckets
        self.grid = grid
        self.n_layers = n_layers
        self._rows: dict = {}       # (ctx-row index, tokens) -> per-layer s
        self._coeffs: dict = {}     # (tokens, segment index) -> coeff tuple

    def _row_at(self, row: int, tokens: int) -> float:
        """Per-layer seconds on one context row, memoised per tokens."""
        key = (row, tokens)
        cached = self._rows.get(key)
        if cached is not None:
            return cached
        buckets = self.buckets
        layer_s = self.grid[row]
        if tokens <= buckets[0]:
            # fixed launch/collective overheads dominate below the
            # smallest bucket — charge its floor
            value = layer_s[0]
        elif tokens >= buckets[-1]:
            # extrapolate on the last segment's per-token slope
            slope = ((layer_s[-1] - layer_s[-2])
                     / (buckets[-1] - buckets[-2]))
            value = layer_s[-1] + slope * (tokens - buckets[-1])
        else:
            i = bisect_left(buckets, tokens)
            lo_b, hi_b = buckets[i - 1], buckets[i]
            lo_t, hi_t = layer_s[i - 1], layer_s[i]
            frac = (tokens - lo_b) / (hi_b - lo_b)
            value = lo_t + frac * (hi_t - lo_t)
        self._rows[key] = value
        return value

    def __call__(self, tokens: int, ctx: int = 0) -> float:
        cb = self.ctx_buckets
        if ctx <= cb[0]:
            per_layer = self._row_at(0, tokens)
        elif ctx >= cb[-1]:
            hi = self._row_at(len(cb) - 1, tokens)
            lo = self._row_at(len(cb) - 2, tokens)
            slope = (hi - lo) / (cb[-1] - cb[-2])
            per_layer = hi + slope * (ctx - cb[-1])
        else:
            i = bisect_left(cb, ctx)
            lo_c, hi_c = cb[i - 1], cb[i]
            lo_t = self._row_at(i - 1, tokens)
            hi_t = self._row_at(i, tokens)
            frac = (ctx - lo_c) / (hi_c - lo_c)
            per_layer = lo_t + frac * (hi_t - lo_t)
        return per_layer * self.n_layers

    def decode_coeffs(self, tokens: int, ctx: int) -> tuple:
        """The context cell containing ``ctx`` at this step size, as raw
        coefficients the engine's tight loop inlines instead of paying a
        call per decode step.  Returns one of

        * ``(0, total, end)`` — flat cell: the price is ``total``;
        * ``(1, lo_t, lo_c, den, diff, nl, end)`` — interior cell:
          the price at context ``c`` is
          ``(lo_t + ((c - lo_c) / den) * diff) * nl``;
        * ``(2, hi, slope, top_c, nl, inf)`` — extrapolation cell:
          ``(hi + slope * (c - top_c)) * nl``.

        ``end`` is the largest context the cell covers; past it the
        caller re-resolves.  Each expression equals ``self(tokens, c)``
        bit-for-bit for every ``c`` in the cell.  Cell ends are
        conservative about the branch boundaries of ``__call__``: the
        last interior cell stops one token short of the top context
        bucket (where the extrapolation branch takes over), and the
        extrapolation cell keeps its own ``hi + slope * (c - top)`` form
        — the interior affine rearrangement would match only to
        rounding.  Cells are cached per ``(tokens, segment)``.
        """
        cb = self.ctx_buckets
        if ctx <= cb[0]:
            seg = 0
        elif ctx >= cb[-1]:
            seg = len(cb)
        else:
            seg = bisect_left(cb, ctx)
        key = (tokens, seg)
        cached = self._coeffs.get(key)
        if cached is not None:
            return cached
        nl = self.n_layers
        if seg == 0:
            cached = (0, self._row_at(0, tokens) * nl, float(cb[0]))
        elif seg == len(cb):
            hi = self._row_at(len(cb) - 1, tokens)
            lo = self._row_at(len(cb) - 2, tokens)
            slope = (hi - lo) / (cb[-1] - cb[-2])
            cached = (2, hi, slope, cb[-1], nl, float("inf"))
        else:
            lo_c, hi_c = cb[seg - 1], cb[seg]
            lo_t = self._row_at(seg - 1, tokens)
            hi_t = self._row_at(seg, tokens)
            end = float(hi_c if hi_c < cb[-1] else hi_c - 1)
            cached = (1, lo_t, lo_c, hi_c - lo_c, hi_t - lo_t, nl, end)
        self._coeffs[key] = cached
        return cached


class StepLatencyTable(VersionedJsonStore):
    """Persistent (model, method) -> bucketed per-layer-seconds store.

    The storage discipline (lazy first read, atomic
    write-temp-then-rename flush, corrupt-as-empty, ``readonly`` handles
    that update the in-memory view but never touch disk) is shared with
    :class:`repro.tuner.cache.TuneCache` via
    :class:`~repro.util.jsonstore.VersionedJsonStore`.
    """

    _version = _VERSION

    def __init__(self, path: str | os.PathLike | None = None, *,
                 readonly: bool = False):
        super().__init__(path if path is not None else latency_table_path(),
                         readonly=readonly)

    # -- building -----------------------------------------------------------

    def _stored(self, key: str) -> dict | None:
        """The entry under ``key`` as ``ensure`` and ``interpolator`` read
        it, or ``None``; raises :class:`ServeError` naming the key and
        the file when it breaks :data:`ENTRIES`."""
        entry = self._load().get(key)
        problems = [] if entry is None else ENTRIES.check(entry)
        if problems:
            raise ServeError(f"malformed latency-table entry {key!r} in "
                             f"{self.path}: {problems[0]}")
        return entry

    def ensure(self, model: ModelConfig, method: str, world: int = 8,
               spec: HardwareSpec = H800,
               buckets: Iterable[int] = DEFAULT_BUCKETS, seed: int = 0,
               ctx_buckets: Iterable[int] = DEFAULT_CTX_BUCKETS,
               progress: Callable[[str], None] | None = None,
               simulate: Callable[..., float] | None = None) -> dict:
        """Simulate (or reuse) this entry's bucket grid; returns it.

        An existing entry with the same token *and* context ladders is
        returned as-is (zero simulation); a differing ladder on either
        axis is resimulated whole so an entry is always internally
        consistent.  On a ``readonly`` table the fresh entry lives only
        in memory.

        ``simulate`` substitutes for :func:`repro.models.runner.layer_time`
        (same call shape) — ``refresh_latency_table.py --workers N`` feeds
        cell values precomputed by forked workers through it, so the
        parent still builds the entry (and the JSON file) in exactly the
        serial insertion order.
        """
        from repro.models.runner import layer_time

        if simulate is None:
            simulate = layer_time

        buckets = sorted(set(int(b) for b in buckets))
        if not TOKEN_LADDER.test(buckets):
            raise ServeError(f"invalid bucket ladder {buckets}")
        ctx_buckets = sorted(set(int(c) for c in ctx_buckets))
        if not CTX_LADDER.test(ctx_buckets):
            raise ServeError(f"invalid context-bucket ladder {ctx_buckets}")
        key = entry_key(model, method, world, spec, seed)
        entry = self._stored(key)
        if entry is not None and entry["buckets"] == buckets and \
                entry["ctx_buckets"] == ctx_buckets:
            return entry
        grid = []
        for c in ctx_buckets:
            row = []
            for b in buckets:
                if progress is not None:
                    progress(f"  simulate {model.name}/{method} @ {b} "
                             f"tokens, {c} resident KV")
                variant = model.with_tokens(b)
                if c > 0:
                    variant = variant.with_context(c)
                row.append(simulate(variant, method, world=world,
                                    seed=seed, spec=spec))
            grid.append(row)
        entry = {"buckets": buckets, "ctx_buckets": ctx_buckets,
                 "layer_s": grid,
                 "meta": {"model": model.name, "method": method,
                          "world": world, "seed": seed}}
        self._load()[key] = entry
        self._flush()
        return entry

    # -- querying -----------------------------------------------------------

    def interpolator(self, model: ModelConfig, method: str, world: int = 8,
                     spec: HardwareSpec = H800,
                     seed: int = 0) -> StepPricer:
        """A fast ``(tokens, ctx) -> step seconds`` pricer for one entry.

        ``ctx`` is the batch's total resident KV tokens and defaults to
        0 (the prefill form).  The serving loop calls this millions of
        times; resolving the entry once into a :class:`StepPricer` over
        plain lists keeps the per-step cost to two memoised bisects and
        a handful of multiplies — and gives the event-driven engine the
        per-cell :meth:`StepPricer.decode_coeffs` it macro-steps
        through.
        """
        key = entry_key(model, method, world, spec, seed)
        entry = self._stored(key)
        if entry is None:
            raise ServeError(
                f"no latency-table entry for {model.name}/{method} "
                f"(world={world}, seed={seed}) in {self.path}; build one "
                f"with StepLatencyTable.ensure() or refresh the shipped "
                f"table via benchmarks/refresh_latency_table.py")
        return StepPricer(
            buckets=[int(b) for b in entry["buckets"]],
            ctx_buckets=[int(c) for c in entry["ctx_buckets"]],
            grid=[[float(t) for t in row] for row in entry["layer_s"]],
            n_layers=model.n_layers)

    def step_time(self, model: ModelConfig, method: str, tokens: int,
                  world: int = 8, spec: HardwareSpec = H800,
                  seed: int = 0, ctx: int = 0) -> float:
        """Seconds for one serving step of ``tokens`` total tokens
        attending over ``ctx`` resident KV tokens."""
        return self.interpolator(model, method, world, spec, seed)(tokens,
                                                                   ctx)
