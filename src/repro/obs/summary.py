"""Attribution views over a recording: where did the time go?

Three consumers share the reconstruction logic here: the CLI
(``python -m repro.obs summarize|slowest``), the Perfetto exporter's
per-request tracks, and the metrics builder.

For a serving recording the engine clock only ever advances inside a
prefill step, a decode (macro-)step, or an idle jump — and the recorder
captures exactly one event per advance — so the ``prefill``/``decode``/
``idle`` durations partition the makespan *by construction*:
:func:`phase_attribution` reports their coverage (~1.0 up to float
rounding) and the CLI asserts nothing less than 99%.  ``queue`` and
``preempt-stall`` are *request-seconds* overlays on that timeline: many
requests wait concurrently, so their sums exceed wall time by design
and are reported per-request, not as wall-clock slices.
"""

from __future__ import annotations

from repro.errors import ObsError
from repro.obs.events import Recording
from repro.obs.metrics import MetricsRegistry

__all__ = ["PHASES", "build_metrics", "phase_attribution",
           "request_timelines", "slowest_requests", "span_attribution"]

#: The named lifecycle phases a request moves through (and the track
#: names the Perfetto export uses for the per-request rows).
PHASES = ("queue", "prefill", "decode", "preempt-stall", "idle")


def _require(rec: Recording, kind: str, what: str) -> None:
    if rec.kind != kind:
        raise ObsError(f"{what} needs a {kind!r} recording, "
                       f"got kind {rec.kind!r}")


def clock_bounds(rec: Recording) -> tuple[float, float]:
    """The recording's clock origin and end: a sim recording's interval
    span, a serve recording's ``meta`` ``t0``/``t1``."""
    if rec.kind == "sim" and rec.intervals:
        return (min(iv[3] for iv in rec.intervals),
                max(iv[4] for iv in rec.intervals))
    meta = rec.meta
    if "t0" not in meta or "t1" not in meta:
        raise ObsError(f"{rec.kind} recording has no t0/t1 in its meta")
    return float(meta["t0"]), float(meta["t1"])


def request_timelines(rec: Recording) -> dict[int, dict]:
    """Per-request lifecycle view keyed by rid.

    Each entry carries the raw timestamps (``arrival``, ``first_token``,
    ``finish``), token counts, preemption count, and ``segments`` — a
    time-ordered list of ``(phase, t0, t1)`` covering the request's life
    with the :data:`PHASES` vocabulary (``idle`` never appears here; it
    is an engine-level phase).
    """
    _require(rec, "serve", "request_timelines()")
    reqs: dict[int, dict] = {}
    stalled: set[int] = set()           # preempted, not yet re-admitted
    for event in rec.events:
        kind = event[0]
        if kind == "arrival":
            _, ts, rid, prompt, output = event
            reqs[int(rid)] = {
                "rid": int(rid), "arrival": ts,
                "prompt_tokens": int(prompt),
                "output_tokens": int(output),
                "first_token": None, "finish": None, "n_preemptions": 0,
                "queue_wait": None, "preempt_stall": 0.0,
                "segments": [], "_open": None,
            }
            continue
        if kind not in ("admit", "preempt", "finish"):
            continue
        rid = int(event[3] if kind == "admit" else event[2])
        r = reqs.get(rid)
        if r is None:
            raise ObsError(f"{kind} event for rid {rid} without an "
                           f"arrival event")
        if kind == "admit":
            _, t0, t1, _, fresh, _ = event
            if fresh:
                r["segments"].append(("queue", r["arrival"], t0))
                r["queue_wait"] = t0 - r["arrival"]
                r["first_token"] = t1
            elif rid in stalled:
                stalled.remove(rid)
                # the stall the reference loop charges runs to the END
                # of the re-prefill step; the visual segment ends where
                # the prefill segment starts
                r["segments"].append(("preempt-stall", r["_open"], t0))
                r["preempt_stall"] += t1 - r["_open"]
            else:
                raise ObsError(f"re-admission of rid {rid} without an "
                               f"earlier preempt event")
            r["segments"].append(("prefill", t0, t1))
            r["_open"] = t1              # decoding (or finished) from t1
        elif kind == "preempt":
            ts = event[1]
            if r["_open"] is not None and ts > r["_open"]:
                r["segments"].append(("decode", r["_open"], ts))
            r["_open"] = ts              # stalled from ts
            r["n_preemptions"] += 1
            stalled.add(rid)
        else:                           # finish
            ts = event[1]
            if r["_open"] is not None and ts > r["_open"]:
                r["segments"].append(("decode", r["_open"], ts))
            r["finish"] = ts
            r["_open"] = None
            stalled.discard(rid)
    for r in reqs.values():
        del r["_open"]
    return reqs


def phase_attribution(rec: Recording) -> dict:
    """Wall-clock and request-seconds attribution of one serving run."""
    _require(rec, "serve", "phase_attribution()")
    t0, t1 = clock_bounds(rec)
    makespan = t1 - t0
    engine = {"prefill": 0.0, "decode": 0.0, "idle": 0.0}
    counts = {"requests": 0, "finished": 0, "prefill_steps": 0,
              "decode_steps": 0, "preemptions": 0}
    for event in rec.events:
        kind = event[0]
        if kind == "prefill":
            engine["prefill"] += event[2] - event[1]
            counts["prefill_steps"] += 1
        elif kind == "decode":
            engine["decode"] += event[2] - event[1]
            counts["decode_steps"] += int(event[3])
        elif kind == "idle":
            engine["idle"] += event[2] - event[1]
        elif kind == "arrival":
            counts["requests"] += 1
        elif kind == "finish":
            counts["finished"] += 1
        elif kind == "preempt":
            counts["preemptions"] += 1
    queue_s = 0.0
    stall_s = 0.0
    for r in request_timelines(rec).values():
        if r["queue_wait"] is not None:
            queue_s += r["queue_wait"]
        stall_s += r["preempt_stall"]
    attributed = sum(engine.values())
    return {
        "makespan_s": makespan,
        "engine_s": engine,
        "coverage": attributed / makespan if makespan > 0 else 1.0,
        "request_s": {"queue": queue_s, "preempt-stall": stall_s},
        "counts": counts,
    }


def slowest_requests(rec: Recording, k: int = 10) -> list[dict]:
    """The ``k`` highest-latency requests, slowest first, with their
    per-phase timelines (the "why was THIS request slow" view)."""
    if k < 1:
        raise ObsError(f"slowest_requests needs k >= 1, got {k}")
    reqs = list(request_timelines(rec).values())
    _, t1 = clock_bounds(rec)
    for r in reqs:
        end = r["finish"] if r["finish"] is not None else t1
        r["latency"] = end - r["arrival"]
        r["ttft"] = (r["first_token"] - r["arrival"]
                     if r["first_token"] is not None else None)
    reqs.sort(key=lambda r: (-r["latency"], r["rid"]))
    return reqs[:k]


def span_attribution(rec: Recording) -> dict:
    """Wall-time totals of a spans recording, by category and label."""
    _require(rec, "spans", "span_attribution()")
    by_cat: dict[str, dict] = {}
    for event in rec.events:
        if event[0] != "span":
            continue
        _, t0, t1, category, label = event
        cat = by_cat.setdefault(category, {"total_s": 0.0, "count": 0,
                                           "labels": {}})
        dur = t1 - t0
        cat["total_s"] += dur
        cat["count"] += 1
        lab = cat["labels"].setdefault(label, {"total_s": 0.0, "count": 0})
        lab["total_s"] += dur
        lab["count"] += 1
    return by_cat


def build_metrics(rec: Recording) -> MetricsRegistry:
    """Fold one recording into a fresh :class:`MetricsRegistry`."""
    reg = MetricsRegistry()
    if rec.kind == "serve":
        attr = phase_attribution(rec)
        reg.gauge("makespan_s").set(attr["makespan_s"])
        for phase, seconds in attr["engine_s"].items():
            reg.gauge("engine_phase_s", phase=phase).set(seconds)
        counts = attr["counts"]
        reg.counter("requests_total").inc(counts["requests"])
        reg.counter("requests_finished_total").inc(counts["finished"])
        reg.counter("prefill_steps_total").inc(counts["prefill_steps"])
        reg.counter("decode_steps_total").inc(counts["decode_steps"])
        reg.counter("preemptions_total").inc(counts["preemptions"])
        ttft = reg.histogram("ttft_s")
        latency = reg.histogram("request_latency_s")
        queue = reg.histogram("queue_wait_s")
        for r in request_timelines(rec).values():
            if r["first_token"] is not None:
                ttft.observe(r["first_token"] - r["arrival"])
            if r["finish"] is not None:
                latency.observe(r["finish"] - r["arrival"])
            if r["queue_wait"] is not None:
                queue.observe(r["queue_wait"])
        batch = reg.histogram("decode_batch")
        pool = reg.histogram("kv_pool_used_blocks")
        # the trailing used_blocks field is only meaningful on pool runs
        with_pool = bool(rec.meta.get("pool_blocks"))
        for event in rec.events:
            kind = event[0]
            if kind == "decode":
                batch.observe_repeat(int(event[4]), int(event[3]))
                if with_pool:
                    pool.observe(int(event[5]))
            elif kind == "prefill" and with_pool:
                pool.observe(int(event[6]))
    elif rec.kind == "spans":
        for category, cat in span_attribution(rec).items():
            reg.counter("spans_total", category=category).inc(cat["count"])
            reg.gauge("span_total_s", category=category).set(cat["total_s"])
        hist = {}
        for event in rec.events:
            if event[0] == "span":
                _, t0, t1, category, _label = event
                h = hist.get(category)
                if h is None:
                    h = hist[category] = reg.histogram("span_s",
                                                       category=category)
                h.observe(t1 - t0)
    elif rec.kind == "sim":
        for rank, category, _label, start, end in rec.intervals:
            reg.counter("intervals_total", category=category).inc()
            reg.histogram("interval_s", category=category).observe(
                end - start)
        if rec.intervals:
            t0, t1 = clock_bounds(rec)
            reg.gauge("makespan_s").set(t1 - t0)
    else:                               # pragma: no cover - load() gates
        raise ObsError(f"cannot build metrics for kind {rec.kind!r}")
    return reg
