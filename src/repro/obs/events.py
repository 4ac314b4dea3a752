"""Structured event recording: the observability layer's data model.

One :class:`Recorder` collects the events of one run — a serving
simulation's request lifecycle (``kind="serve"``), a tuner invocation's
wall-time spans (``kind="spans"``), or a kernel simulation's busy
intervals adapted from :class:`repro.sim.trace.TraceInterval`
(``kind="sim"``).  Events are plain tuples with fixed per-kind layouts
(:data:`EVENT_FIELDS`); the hot paths append tuples and nothing else, so
a recorder never perturbs what it observes, and ``recorder=None`` (the
default everywhere) costs one ``is None`` check per instrumentation
site.

Serving events carry *simulated-clock* timestamps (the engine's
seconds); span events carry *wall-clock* ``time.perf_counter`` seconds —
the tuner's spans answer "where did the sweep spend its wall time",
which is real time, not simulated time.

Recordings persist as strict JSON (``{"format": "repro-obs/1", ...}``,
never a bare NaN/Infinity token) via :meth:`Recorder.save` /
:func:`save_recording` and come back as :class:`Recording` via
:func:`load`, which checks the file against :data:`RECORDING` with the
shared walker (:mod:`repro.util.schema`) and raises
:class:`repro.errors.ObsError` on its first violation — the CLI and the
exporters never operate on half-checked data.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from repro.errors import ObsError
from repro.util.schema import (
    NON_EMPTY,
    NON_NEGATIVE,
    Rule,
    Schema,
    Table,
    reject_constant,
)

__all__ = [
    "EVENT_FIELDS", "FORMAT", "KINDS", "Recorder", "Recording", "load",
    "save_recording",
]

#: On-disk format tag (bump on layout changes; :func:`load` rejects
#: anything else).
FORMAT = "repro-obs/1"

#: Recording kinds: serving lifecycle, kernel-sim intervals, wall spans.
KINDS = ("serve", "sim", "spans")

#: Event layouts: ``kind -> payload field names`` (the stored tuple is
#: ``(kind, *payload)``).  The first payload field is always the event's
#: primary timestamp.  ``fresh`` on ``admit`` is 1 for a first admission
#: and 0 for a re-admission after preemption; ``above`` on ``watermark``
#: is 1 crossing up over the headroom threshold, 0 crossing back down.
#: ``used_blocks`` on ``prefill``/``decode`` is the KV pool level at the
#: step's end — folded into the step events (instead of a separate
#: sample event) so a pool run costs no extra allocations per step; it
#: is 0 and meaningless when the run had no pool (``meta.pool_blocks``
#: of 0 tells consumers to ignore it).
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "arrival": ("ts", "rid", "prompt_tokens", "output_tokens"),
    "idle": ("t0", "t1"),
    "prefill": ("t0", "t1", "admitted", "tokens", "batch", "used_blocks"),
    "admit": ("t0", "t1", "rid", "fresh", "resident"),
    "decode": ("t0", "t1", "steps", "batch", "used_blocks"),
    "preempt": ("ts", "rid"),
    "finish": ("ts", "rid"),
    "watermark": ("ts", "above", "used_blocks"),
    "span": ("t0", "t1", "category", "label"),
}

_FINITE = ((int, float), Rule("a finite number", math.isfinite))
_TEXT = ((str,), NON_EMPTY)

#: events by kind: a ``span``'s category and label are strings, every
#: other payload field a finite number
EVENTS = Schema("event", "events", {
    kind: Table({"kind": ((str,), None), **{
        name: _TEXT if name in ("category", "label") else _FINITE
        for name in fields}})
    for kind, fields in EVENT_FIELDS.items()},
    tag="event kind", positional=True)

INTERVALS = Schema("interval", "intervals", {None: Table({
    "rank": ((int,), NON_NEGATIVE),
    "category": _TEXT,
    "label": _TEXT,
    "start": _FINITE,
    "end": _FINITE,
}, rules=(Rule("needs start <= end", lambda iv: iv[3] <= iv[4]),))},
    positional=True)

#: a serve recording's clock bounds, which every serve view reads
SERVE_META = Table({"t0": _FINITE, "t1": _FINITE}, rules=(
    Rule("needs t0 <= t1",
         lambda m: m.get("t0", -math.inf) <= m.get("t1", math.inf)),),
    optional=("t0", "t1"))

#: one recording by kind; an omitted ``meta``, ``events`` or
#: ``intervals`` reads as empty
RECORDING = Schema("recording", "recordings", {kind: Table({
    "format": ((str,), Rule(repr(FORMAT), lambda v: v == FORMAT)),
    "kind": ((str,), None),
    "meta": ((dict,), SERVE_META if kind == "serve" else None),
    "events": ((list,), EVENTS),
    "intervals": ((list,), INTERVALS),
}, optional=("meta", "events", "intervals")) for kind in KINDS},
    closed=False, tag="kind")


class Recorder:
    """Collects one run's events.

    The instrumented code paths (``serve_events``, the tuner) treat this
    purely as ``events``, ``meta`` and :meth:`span`, and pass ``None``
    to record nothing — they never import :mod:`repro.obs`, so the
    serving engine stays free of any observability dependency.  Use one
    fresh recorder per run: the engine refuses a recorder that already
    holds events (mixing two runs' simulated clocks would corrupt every
    downstream view).
    """

    __slots__ = ("events", "meta")

    def __init__(self, meta: dict | None = None):
        self.events: list[tuple] = []
        self.meta: dict = dict(meta or {})

    def span(self, t0: float, t1: float, category: str, label: str) -> None:
        """Record one labelled wall-time span (tuner instrumentation)."""
        self.events.append(("span", t0, t1, category, label))

    @contextmanager
    def timed(self, category: str, label: str):
        """Record the wall time of a ``with`` block as one span."""
        t0 = perf_counter()
        try:
            yield self
        finally:
            self.events.append(("span", t0, perf_counter(), category, label))

    def recording(self) -> "Recording":
        """Freeze the collected events into a :class:`Recording`."""
        kind = self.meta.get("kind", "spans")
        if kind not in KINDS:
            raise ObsError(f"recorder meta carries unknown kind {kind!r}; "
                           f"expected one of {KINDS}")
        meta = {k: v for k, v in self.meta.items() if k != "kind"}
        return Recording(kind=kind, meta=meta, events=list(self.events))

    def save(self, path) -> None:
        """Persist as strict ``repro-obs/1`` JSON."""
        rec = self.recording()
        save_recording(path, kind=rec.kind, meta=rec.meta, events=rec.events)


@dataclass
class Recording:
    """One validated recording: events and, for ``kind="sim"``, the
    kernel-simulation intervals ``(rank, category, label, start, end)``."""

    kind: str
    meta: dict = field(default_factory=dict)
    events: list[tuple] = field(default_factory=list)
    intervals: list[tuple] = field(default_factory=list)

    def by_kind(self, kind: str) -> list[tuple]:
        """All events of one kind, in recorded order."""
        return [e for e in self.events if e[0] == kind]


def save_recording(path, *, kind: str, meta: dict | None = None,
                   events=(), intervals=()) -> None:
    """Write one recording as strict ``repro-obs/1`` JSON."""
    if kind not in KINDS:
        raise ObsError(f"unknown recording kind {kind!r}; "
                       f"expected one of {KINDS}")
    payload = {
        "format": FORMAT,
        "kind": kind,
        "meta": dict(meta or {}),
        "events": [list(e) for e in events],
        "intervals": [list(iv) for iv in intervals],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)


def load(path) -> Recording:
    """Read a recording back, checked against :data:`RECORDING`.

    Raises :class:`ObsError` on a missing/unreadable file, non-UTF-8 or
    non-strict JSON, a foreign format tag, any malformed event/interval,
    or a serve recording's malformed ``meta.t0``/``t1``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=reject_constant)
    except OSError as exc:
        raise ObsError(f"cannot read recording {path}: {exc}") from exc
    except ValueError as exc:           # not UTF-8, not JSON, NaN
        raise ObsError(f"recording {path} is not valid JSON: {exc}") from exc
    problems = RECORDING.check(payload)
    if problems:
        raise ObsError(f"recording {path}: {problems[0]}")
    return Recording(kind=payload["kind"], meta=payload.get("meta", {}),
                     events=[tuple(e) for e in payload.get("events", ())],
                     intervals=[tuple(iv)
                                for iv in payload.get("intervals", ())])
