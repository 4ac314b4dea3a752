"""Structured event recording: the observability layer's data model.

One :class:`Recorder` collects the events of one run — a serving
simulation's request lifecycle (``kind="serve"``), a tuner invocation's
wall-time spans (``kind="spans"``), or a kernel simulation's busy
intervals adapted from :class:`repro.sim.trace.TraceInterval`
(``kind="sim"``).  Events are plain tuples with fixed per-kind layouts
(:data:`EVENT_FIELDS`); the hot paths append tuples and nothing else, so
an enabled recorder never perturbs what it observes and a disabled one
(:data:`NULL_RECORDER`, or simply ``recorder=None``) costs one boolean
check per instrumentation site.

Serving events carry *simulated-clock* timestamps (the engine's
seconds); span events carry *wall-clock* ``time.perf_counter`` seconds —
the tuner's spans answer "where did the sweep spend its wall time",
which is real time, not simulated time.

Recordings persist as strict JSON (``{"format": "repro-obs/1", ...}``,
never a bare NaN/Infinity token) via :meth:`Recorder.save` /
:func:`save_recording` and come back as :class:`Recording` via
:func:`load`, which validates the layout field-by-field and raises
:class:`repro.errors.ObsError` on anything malformed — the CLI and the
exporters never operate on half-checked data.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from repro.errors import ObsError

__all__ = [
    "EVENT_FIELDS", "FORMAT", "KINDS", "NULL_RECORDER", "NullRecorder",
    "Recorder", "Recording", "load", "save_recording",
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

#: ``EVENT_FIELDS`` payload slots holding strings (everything else is a
#: finite number).
_STR_FIELDS = {("span", "category"), ("span", "label")}


class Recorder:
    """Collects one run's events.

    The instrumented code paths (``serve_events``, the tuner) treat this
    purely as ``events.append`` plus the :attr:`enabled` gate — they
    never import :mod:`repro.obs`, so the serving engine stays free of
    any observability dependency.  Use one fresh recorder per run: the
    engine refuses a recorder that already holds events (mixing two
    runs' simulated clocks would corrupt every downstream view).
    """

    __slots__ = ("events", "meta")

    #: Instrumentation sites check this one flag; subclasses (the null
    #: recorder) turn the whole layer off by flipping it.
    enabled = True

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


class NullRecorder(Recorder):
    """The default no-op recorder: every hook sees ``enabled`` False."""

    enabled = False

    def span(self, t0, t1, category, label) -> None:
        pass

    @contextmanager
    def timed(self, category, label):
        yield self


#: Shared disabled recorder — pass this (or ``None``) to keep the
#: instrumented paths at their zero-overhead baseline.
NULL_RECORDER = NullRecorder()


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


def _is_num(value: object) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_event(i: int, event: object) -> tuple:
    if not isinstance(event, (list, tuple)) or not event:
        raise ObsError(f"event {i}: not a non-empty list: {event!r}")
    kind = event[0]
    # a list or object kind is unhashable: reject it before the lookup
    fields = EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ObsError(f"event {i}: unknown event kind {kind!r}; "
                       f"expected one of {sorted(EVENT_FIELDS)}")
    if len(event) != 1 + len(fields):
        raise ObsError(f"event {i} ({kind}): expected fields {fields}, "
                       f"got {len(event) - 1} values")
    for name, value in zip(fields, event[1:]):
        if (kind, name) in _STR_FIELDS:
            if not isinstance(value, str) or not value:
                raise ObsError(f"event {i} ({kind}): field {name!r} must be "
                               f"a non-empty string, got {value!r}")
        elif not _is_num(value):
            raise ObsError(f"event {i} ({kind}): field {name!r} must be a "
                           f"finite number, got {value!r}")
    return tuple(event)


def _check_interval(i: int, iv: object) -> tuple:
    if not isinstance(iv, (list, tuple)) or len(iv) != 5:
        raise ObsError(f"interval {i}: expected "
                       f"[rank, category, label, start, end], got {iv!r}")
    rank, category, label, start, end = iv
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise ObsError(f"interval {i}: rank must be an int >= 0, got {rank!r}")
    for name, value in (("category", category), ("label", label)):
        if not isinstance(value, str) or not value:
            raise ObsError(f"interval {i}: {name} must be a non-empty "
                           f"string, got {value!r}")
    if not _is_num(start) or not _is_num(end) or end < start:
        raise ObsError(f"interval {i}: needs finite start <= end, "
                       f"got {start!r}..{end!r}")
    return tuple(iv)


def _reject_constant(token: str) -> float:
    raise ObsError(f"non-finite JSON constant {token!r} in recording; "
                   f"the emitter must write null instead")


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
    """Read a recording back, validating every event field.

    Raises :class:`ObsError` on a missing/unreadable file, non-UTF-8 or
    non-strict JSON, a foreign format tag, or any malformed
    event/interval.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ObsError(f"cannot read recording {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ObsError(f"recording {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ObsError(f"recording {path}: top level must be an object, "
                       f"got {type(payload).__name__}")
    if payload.get("format") != FORMAT:
        raise ObsError(f"recording {path}: format "
                       f"{payload.get('format')!r} is not {FORMAT!r}")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise ObsError(f"recording {path}: unknown kind {kind!r}; "
                       f"expected one of {KINDS}")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ObsError(f"recording {path}: meta must be an object")
    raw_events = payload.get("events", [])
    raw_intervals = payload.get("intervals", [])
    if not isinstance(raw_events, list) or not isinstance(raw_intervals, list):
        raise ObsError(f"recording {path}: events and intervals must be "
                       f"lists")
    events = [_check_event(i, e) for i, e in enumerate(raw_events)]
    intervals = [_check_interval(i, iv) for i, iv in enumerate(raw_intervals)]
    return Recording(kind=kind, meta=meta, events=events,
                     intervals=intervals)
