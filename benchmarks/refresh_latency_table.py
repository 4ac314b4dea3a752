"""Regenerate or staleness-check the shipped serving latency table.

``benchmarks/latency_table.json`` is a checked-in
:class:`repro.serve.latency.StepLatencyTable` holding the per-layer
step-latency ladders the serving benchmark interpolates: one entry per
(model, method) over the serving roster — the Figure-11 FAST pair
(LLaMA2-7B dense, Mixtral-8x7B MoE) x (torch, tilelink, tilelink-tuned)
at world=8 on H800.  With the table shipped, ``bench_serving.py`` prices
millions of requests without a single ``build_layer`` simulation.

Entry keys embed the architecture fields, the method, the world size,
the seed and ``HardwareSpec.fingerprint()`` — so a change to the
hardware model (or the roster) silently orphans the shipped entries.
``--check`` recomputes every expected key from the *current* code, reads
each entry as serving does, and fails when the file drifted or an entry
is malformed; CI runs it so such a change cannot land without a refresh:

    python benchmarks/refresh_latency_table.py --check      # CI tripwire
    python benchmarks/refresh_latency_table.py              # regenerate

A cold refresh simulates ``len(DEFAULT_BUCKETS) x
len(DEFAULT_CTX_BUCKETS)`` (= 8 x 4) ``build_layer`` points per
(model, method) — the context-bucket axis prices decode as a function
of resident KV — which takes a few minutes of wall time; ``--workers N``
shards the independent cell simulations over forked processes and feeds
the values back through ``ensure(simulate=...)`` in serial order, so the
written file is byte-identical to a serial refresh.  ``--check`` also
fails when either bucket ladder drifted from the defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.config import H800
from repro.errors import ServeError
from repro.models.configs import E2E_MODELS, ModelConfig
from repro.registry import BASE_SERVE_METHODS
from repro.serve.latency import (
    DEFAULT_BUCKETS,
    DEFAULT_CTX_BUCKETS,
    StepLatencyTable,
    entry_key,
)

WORLD = 8
SEED = 0
#: the shipped method axis — the base methods only (registered serving
#: methods such as ``tilelink-chunk`` stay out of the checked-in table)
METHODS = BASE_SERVE_METHODS
#: the serving roster: one dense + one MoE model (the Figure-11 FAST pair)
MODEL_NAMES = ("LLaMA2-7B", "Mixtral-8x7B")
DEFAULT_PATH = Path(__file__).resolve().parent / "latency_table.json"


def serving_models() -> list[ModelConfig]:
    by_name = {m.name: m for m in E2E_MODELS}
    return [by_name[n] for n in MODEL_NAMES]


def expected_entries() -> list[tuple[str, ModelConfig, str]]:
    """(label, model, method) triples the table must cover, exactly."""
    return [(f"{model.name}/{method}", model, method)
            for model in serving_models() for method in METHODS]


def check(path: Path) -> int:
    if not path.is_file():
        print(f"STALE: {path} does not exist — run "
              f"`python benchmarks/refresh_latency_table.py`",
              file=sys.stderr)
        return 1
    table = StepLatencyTable(path, readonly=True)
    keys, problems = set(), []
    for label, model, method in expected_entries():
        key = entry_key(model, method, WORLD, H800, SEED)
        keys.add(key)
        if key not in table:
            problems.append(f"STALE: no entry for {label} (spec "
                            f"fingerprint or roster changed?)")
            continue
        try:                        # the reader serve() prices through
            pricer = table.interpolator(model, method, WORLD, H800, SEED)
        except ServeError as exc:
            problems.append(f"MALFORMED: {label}: {exc}")
            continue
        if [pricer.buckets, pricer.ctx_buckets] != [list(DEFAULT_BUCKETS),
                                                    list(DEFAULT_CTX_BUCKETS)]:
            problems.append(f"STALE: {label} bucket axis is stale — built "
                            f"on a different ladder than "
                            f"{list(DEFAULT_BUCKETS)} x "
                            f"{list(DEFAULT_CTX_BUCKETS)}")
    problems += [f"STALE: orphaned entry {key}"
                 for key in sorted(set(table.keys()) - keys)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"STALE: refresh with "
              f"`python benchmarks/refresh_latency_table.py`",
              file=sys.stderr)
        return 1
    print(f"OK: {path} — {len(keys)} entries match the current "
          f"roster/spec fingerprints")
    return 0


def _simulate_cells(entries, workers: int):
    """Simulate every (entry, ctx, bucket) cell across ``workers``
    forked processes; returns the values in exactly the order a serial
    :meth:`StepLatencyTable.ensure` sweep would compute them (entry
    order, context rows outer, token buckets inner).

    Each cell is one independent ``layer_time`` simulation, so the grid
    fans out at cell grain; the parent then replays the values into
    ``ensure(simulate=...)`` in serial insertion order, which makes the
    written JSON byte-identical to a ``--workers 1`` run.
    """
    from repro.models.runner import layer_time
    from repro.util.forkpool import fork_map

    # mirror ensure()'s ladder normalization so job order matches its
    # grid loops exactly
    buckets = sorted(set(int(b) for b in DEFAULT_BUCKETS))
    ctx_buckets = sorted(set(int(c) for c in DEFAULT_CTX_BUCKETS))
    jobs = []
    for _label, model, method in entries:
        for c in ctx_buckets:
            for b in buckets:
                variant = model.with_tokens(b)
                if c > 0:
                    variant = variant.with_context(c)
                jobs.append((variant, method))

    def cell(index: int) -> float:
        variant, method = jobs[index]
        return layer_time(variant, method, world=WORLD, seed=SEED, spec=H800)

    return fork_map(cell, len(jobs), workers)


def refresh(path: Path, workers: int = 1) -> int:
    entries = expected_entries()
    print(f"Refreshing {path}: {len(entries)} entries x "
          f"{len(DEFAULT_BUCKETS)} token buckets x "
          f"{len(DEFAULT_CTX_BUCKETS)} context buckets (world={WORLD}) ...")
    t0 = time.time()
    simulate = None
    if workers > 1:
        n_cells = (len(entries) * len(DEFAULT_BUCKETS)
                   * len(DEFAULT_CTX_BUCKETS))
        print(f"  simulating {n_cells} cells over {workers} workers ...")
        values = iter(_simulate_cells(entries, workers))

        def simulate(*_args, **_kwargs):
            return next(values)

    # build into a fresh sibling file, then atomically replace the
    # target: a refreshed table contains exactly the expected entries.
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name,
                               suffix=".tmp")
    os.close(fd)
    os.unlink(tmp)          # the table wants to create the file itself
    try:
        table = StepLatencyTable(tmp)
        for label, model, method in entries:
            print(f"  {label} ...")
            table.ensure(model, method, world=WORLD, seed=SEED,
                         buckets=DEFAULT_BUCKETS,
                         ctx_buckets=DEFAULT_CTX_BUCKETS,
                         simulate=simulate)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    print(f"{len(entries) * len(DEFAULT_BUCKETS) * len(DEFAULT_CTX_BUCKETS)}"
          f" simulations, {time.time() - t0:.1f}s wall -> {path}")
    return check(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify the shipped table against the current "
                             "roster/spec instead of regenerating")
    parser.add_argument("--out", type=Path, default=DEFAULT_PATH,
                        help=f"table file to write/check "
                             f"(default: {DEFAULT_PATH})")
    parser.add_argument("--workers", type=int, default=1,
                        help="fan the per-cell simulations out over N "
                             "forked processes (the written table is "
                             "byte-identical to a serial refresh)")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.out)
    return refresh(args.out, workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
