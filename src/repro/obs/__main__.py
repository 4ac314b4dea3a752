"""Observability CLI: record, summarize, and export runs.

::

    python -m repro.obs record    --out run.json [--kind serve|sim] ...
    python -m repro.obs summarize run.json [--metrics-out metrics.json]
    python -m repro.obs slowest   run.json [-k 10]
    python -m repro.obs export    run.json --out trace.json [--requests N]

``record`` produces a self-contained seeded run — a serving simulation
against the shipped latency table (``--kind serve``, the default) or a
traced AG+GEMM kernel simulation (``--kind sim``) — so CI can exercise
the whole pipeline without any prior artifact.  ``summarize`` prints
the per-phase time attribution (and fails loudly if less than 99% of
the simulated wall-clock is attributed — the format-rot tripwire);
``slowest`` prints the K worst requests with their event timelines;
``export`` writes Chrome trace-event JSON for ui.perfetto.dev (open
the site, drag the file in).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ObsError, TileLinkError
from repro.obs.events import Recorder, load
from repro.obs.export import save_sim_recording, write_trace
from repro.obs.summary import (
    build_metrics,
    phase_attribution,
    slowest_requests,
    span_attribution,
)

#: (scenario -> model) pairing mirrored from ``benchmarks/bench_serving``.
_SCENARIO_MODELS = {
    "chat": "Mixtral-8x7B",
    "rag": "LLaMA2-7B",
    "batch-summarize": "Mixtral-8x7B",
    "long-context": "LLaMA2-7B",
}


def _cmd_record(args) -> int:
    if args.kind == "sim":
        return _record_sim(args)
    return _record_serve(args)


def _record_serve(args) -> int:
    from repro.models.configs import E2E_MODELS
    from repro.serve import (
        KVCacheConfig,
        ServerConfig,
        StepLatencyTable,
        generate_requests,
        resolve_latency_table,
        serve,
    )

    model_name = args.model or _SCENARIO_MODELS.get(args.scenario,
                                                    "Mixtral-8x7B")
    models = {m.name: m for m in E2E_MODELS}
    if model_name not in models:
        raise ObsError(f"unknown model {model_name!r}; "
                       f"known: {sorted(models)}")
    model = models[model_name]
    table = resolve_latency_table() or StepLatencyTable(readonly=True)
    table.ensure(model, args.method, world=args.world, seed=args.seed)
    reqs = generate_requests(args.scenario, args.requests, seed=args.seed)
    kv = KVCacheConfig(block_tokens=args.block_tokens,
                       pool_blocks=args.pool_blocks,
                       admission=args.admission)
    recorder = Recorder()
    res = serve(reqs, model, args.method, table, ServerConfig(),
                world=args.world, seed=args.seed, kv=kv, recorder=recorder)
    recorder.save(args.out)
    print(f"recorded {args.scenario}/{args.method}: {len(res.logs)} "
          f"requests, {len(recorder.events)} events, makespan "
          f"{res.makespan_s:.3f} s -> {args.out}")
    return 0


def _record_sim(args) -> int:
    from repro.bench.harness import run_builder_traced
    from repro.kernels.ag_gemm import AgGemmConfig, ag_gemm_overlapped
    from repro.registry import slot_builder

    m, n, k = 256, 96, 64
    world = 4
    cfg = AgGemmConfig(m=m, n=n, k=k, block_m=32, block_n=32, block_k=32,
                       block_mp=32, comm_blocks=4, mode="dma")
    total, ctx = run_builder_traced(
        slot_builder("ag_gemm", ag_gemm_overlapped, cfg, grid=16),
        world=world, seed=args.seed)
    trace = ctx.machine.trace
    save_sim_recording(args.out, trace, meta={
        "kernel": "ag_gemm", "shape": f"m{m}n{n}k{k}", "world": world,
        "total_s": total})
    print(f"recorded ag_gemm sim: {len(trace.intervals)} intervals over "
          f"{world} ranks, {total * 1e3:.3f} ms simulated -> {args.out}")
    return 0


def _print_serve_summary(rec) -> int:
    attr = phase_attribution(rec)
    makespan = attr["makespan_s"]
    counts = attr["counts"]
    print(f"serving run — {counts['requests']} requests, "
          f"makespan {makespan:.3f} s")
    print("  engine wall-clock by phase:")
    for phase in ("prefill", "decode", "idle"):
        s = attr["engine_s"][phase]
        pct = 100.0 * s / makespan if makespan > 0 else 0.0
        print(f"    {phase:<14}{s:>12.3f} s  {pct:6.2f}%")
    coverage = attr["coverage"]
    print(f"    {'attributed':<14}{100.0 * coverage:>11.2f}%")
    print("  request-seconds overlays (concurrent, so they can exceed "
          "wall time):")
    for phase in ("queue", "preempt-stall"):
        print(f"    {phase:<14}{attr['request_s'][phase]:>12.3f} req-s")
    print(f"  counts: {counts['prefill_steps']} prefill steps, "
          f"{counts['decode_steps']} decode steps, "
          f"{counts['preemptions']} preemptions, "
          f"{counts['finished']}/{counts['requests']} finished")
    if coverage < 0.99:
        print(f"FAIL: only {100.0 * coverage:.2f}% of the simulated "
              f"wall-clock is attributed to phases (floor: 99%)",
              file=sys.stderr)
        return 1
    return 0


def _print_span_summary(rec) -> int:
    by_cat = span_attribution(rec)
    total = sum(cat["total_s"] for cat in by_cat.values())
    print(f"spans run — {sum(c['count'] for c in by_cat.values())} spans, "
          f"{total:.3f} s recorded wall time")
    for category in sorted(by_cat, key=lambda c: -by_cat[c]["total_s"]):
        cat = by_cat[category]
        print(f"  {category:<12}{cat['total_s']:>10.3f} s  "
              f"({cat['count']} spans)")
        labels = cat["labels"]
        for label in sorted(labels, key=lambda l: -labels[l]["total_s"])[:8]:
            lab = labels[label]
            print(f"    {label:<40}{lab['total_s']:>10.3f} s  "
                  f"x{lab['count']}")
    return 0


def _print_sim_summary(rec) -> int:
    from repro.sim.trace import Trace

    trace = Trace()
    for rank, category, label, start, end in rec.intervals:
        trace.record(rank, category, label, start, end)
    print(f"kernel-sim run — {len(rec.intervals)} intervals, makespan "
          f"{trace.makespan() * 1e3:.3f} ms")
    categories = sorted({iv[1] for iv in rec.intervals})
    for category in categories:
        print(f"  {category:<10}{trace.busy_time(category) * 1e3:>10.3f} "
              f"ms busy (union over ranks)")
    if "compute" in categories and "comm" in categories:
        comm = trace.busy_time("comm")
        overlap = trace.overlap_time("compute", "comm")
        if comm > 0:
            print(f"  comm hidden under compute: "
                  f"{100.0 * overlap / comm:.1f}%")
    return 0


def _cmd_summarize(args) -> int:
    rec = load(args.path)
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(build_metrics(rec).snapshot(), fh, indent=1,
                      sort_keys=True, allow_nan=False)
        print(f"metrics snapshot -> {args.metrics_out}")
    if rec.kind == "serve":
        return _print_serve_summary(rec)
    if rec.kind == "spans":
        return _print_span_summary(rec)
    return _print_sim_summary(rec)


def _cmd_slowest(args) -> int:
    rec = load(args.path)
    rows = slowest_requests(rec, k=args.k)
    print(f"{len(rows)} slowest requests:")
    for r in rows:
        ttft = f"{r['ttft']:.3f}" if r["ttft"] is not None else "-"
        done = "" if r["finish"] is not None else "  [unfinished]"
        print(f"  req {r['rid']}: latency {r['latency']:.3f} s, "
              f"ttft {ttft} s, {r['prompt_tokens']} prompt + "
              f"{r['output_tokens']} output tokens, "
              f"{r['n_preemptions']} preemptions{done}")
        for phase, t0, t1 in r["segments"]:
            print(f"    {phase:<14}{t0:>12.3f} -> {t1:<12.3f} "
                  f"({t1 - t0:.3f} s)")
    return 0


def _cmd_export(args) -> int:
    rec = load(args.path)
    write_trace(args.out, rec, max_request_tracks=args.requests)
    print(f"perfetto trace -> {args.out} "
          f"(open https://ui.perfetto.dev and drag the file in)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run a seeded workload and save "
                                        "its recording")
    rec.add_argument("--out", required=True, help="recording output path")
    rec.add_argument("--kind", choices=("serve", "sim"), default="serve")
    rec.add_argument("-n", "--requests", type=int, default=200)
    rec.add_argument("--scenario", default="chat")
    rec.add_argument("--model", default=None,
                     help="served model (default: scenario pairing)")
    rec.add_argument("--method", default="tilelink")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--world", type=int, default=8)
    rec.add_argument("--block-tokens", type=int, default=64)
    rec.add_argument("--pool-blocks", type=int, default=4096)
    rec.add_argument("--admission", choices=("kv-aware", "naive"),
                     default="kv-aware")
    rec.set_defaults(func=_cmd_record)

    summ = sub.add_parser("summarize", help="per-phase time attribution")
    summ.add_argument("path")
    summ.add_argument("--metrics-out", default=None,
                      help="also write an obs-metrics JSON snapshot")
    summ.set_defaults(func=_cmd_summarize)

    slow = sub.add_parser("slowest", help="the K slowest requests with "
                                          "their timelines")
    slow.add_argument("path")
    slow.add_argument("-k", type=int, default=10)
    slow.set_defaults(func=_cmd_slowest)

    exp = sub.add_parser("export", help="write Chrome trace-event JSON")
    exp.add_argument("path")
    exp.add_argument("--out", required=True)
    exp.add_argument("--requests", type=int, default=200,
                     help="cap on per-request tracks (slowest kept)")
    exp.set_defaults(func=_cmd_export)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TileLinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
