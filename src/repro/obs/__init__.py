"""``repro.obs`` — unified observability: events, metrics, Perfetto.

The serving engine, the autotuner and the kernel simulator all answer
"how long" but not "where did the time go"; this package is the shared
window into all three:

* :mod:`repro.obs.events` — the structured event log.  A
  :class:`Recorder` passed as ``serve(..., recorder=...)`` captures the
  full request lifecycle (arrival → queue → admission → prefill →
  decode macro-steps → preemption/recompute → finish, plus KV-pool
  watermark crossings) in simulated-clock time; passed as
  ``tune(...)``/``sweep(..., recorder=...)`` it collects wall-time
  spans per candidate simulation, prune pass and cache probe.  The
  default ``recorder=None`` keeps every instrumented path at its
  zero-overhead baseline, and recording is read-only by construction:
  results are bit-identical with the recorder on or off.
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with
  labelled series.  Histograms ride the serving engine's
  :class:`~repro.serve.samples.StepStats` multisets (O(distinct-values)
  memory, percentiles bit-identical to ``repro.serve.metrics``), and
  ``snapshot()`` emits strict JSON for
  ``validate_bench_json.py --schema obs-metrics``.
* :mod:`repro.obs.summary` — attribution: per-phase wall-clock
  breakdown (prefill/decode/idle partition the makespan exactly; queue
  and preempt-stall overlay as request-seconds), the K slowest requests
  with their timelines, and span totals for tuner runs.
* :mod:`repro.obs.export` — Chrome trace-event JSON for
  ui.perfetto.dev: serving timelines (engine + per-request phase
  tracks + pool counter track), kernel-sim timelines (per-rank
  compute/comm/host tracks from :mod:`repro.sim.trace`), tuner spans.
* ``python -m repro.obs`` — ``record`` / ``summarize`` / ``slowest`` /
  ``export`` over ``repro-obs/1`` recording files.

Layering: ``repro.serve`` and ``repro.tuner`` never import this
package — their ``recorder`` hooks are duck-typed (``.events``,
``.meta``, ``.span``) — so the hot paths carry no observability
dependency and ``recorder=None`` costs one ``is None`` check per site.
"""

from repro.obs.events import (
    EVENT_FIELDS,
    FORMAT,
    KINDS,
    Recorder,
    Recording,
    load,
    save_recording,
)
from repro.obs.export import (
    save_sim_recording,
    sim_recording,
    to_perfetto,
    write_trace,
)
from repro.obs.metrics import (
    METRICS_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.summary import (
    PHASES,
    build_metrics,
    phase_attribution,
    request_timelines,
    slowest_requests,
    span_attribution,
)

__all__ = [
    "Counter", "EVENT_FIELDS", "FORMAT", "Gauge", "Histogram", "KINDS",
    "METRICS_FORMAT", "MetricsRegistry", "PHASES", "Recorder", "Recording",
    "build_metrics", "load", "phase_attribution", "request_timelines",
    "save_recording", "save_sim_recording", "sim_recording",
    "slowest_requests", "span_attribution", "to_perfetto", "write_trace",
]
