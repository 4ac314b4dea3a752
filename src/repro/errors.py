"""Exception hierarchy for the TileLink reproduction.

All library-raised exceptions derive from :class:`TileLinkError` so user code
can catch one base class.  Sub-classes are grouped by subsystem: the
simulator, the tile language frontend, the compiler backend and the runtime.
"""

from __future__ import annotations


class TileLinkError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(TileLinkError):
    """The discrete-event simulator reached an invalid state."""


class DeadlockError(SimulationError):
    """The simulator ran out of events while processes were still blocked.

    This is how the substrate surfaces a lost-signal / missing-notify bug in
    a fused kernel: a ``consumer_tile_wait`` whose producer never notifies
    leaves its process suspended forever, and the event queue drains.
    """

    def __init__(self, message: str, blocked: list[str] | None = None):
        super().__init__(message)
        #: Names of the processes that were still blocked at drain time.
        self.blocked = blocked or []


class CompileError(TileLinkError):
    """The tile-language frontend rejected a kernel."""

    def __init__(self, message: str, lineno: int | None = None, source: str | None = None):
        loc = f" (line {lineno})" if lineno is not None else ""
        super().__init__(f"{message}{loc}")
        self.lineno = lineno
        self.source = source


class LoweringError(TileLinkError):
    """The backend could not lower a primitive (e.g. missing mapping)."""


class ConsistencyError(TileLinkError):
    """A memory-consistency violation was detected.

    Raised by the consistency checker when a schedule moves a guarded
    load/store across its acquire/release primitive (paper §4.2).
    """


class AnalysisError(TileLinkError):
    """The static synchronization analyzer rejected a kernel or plan.

    Raised at compile time (``CompileOptions(validate=True)``) when a
    structural rule fires at error severity, e.g. a ``producer_tile_notify``
    whose mode is neither ``"p2p"`` nor ``"broadcast"``.  ``findings`` carries the machine-readable
    :class:`repro.analyze.Finding` records behind the message.
    """

    def __init__(self, message: str, findings: list | None = None):
        super().__init__(message)
        self.findings = findings or []


class MappingError(TileLinkError):
    """A tile-centric mapping was queried outside its valid domain."""


class RuntimeLaunchError(TileLinkError):
    """Kernel launch failed (bad grid, missing symmetric tensor, ...)."""


class ShapeError(TileLinkError):
    """Tile/tensor shape mismatch detected at compile or run time."""


class ServeError(TileLinkError):
    """The serving simulator was misconfigured (unknown scenario, missing
    latency-table entry, invalid trace, ...)."""


class ObsError(TileLinkError):
    """The observability layer was misused (recorder reuse, malformed
    recording file, metric type conflict, unknown export kind, ...).

    Raised by :mod:`repro.obs` — the recorder/metrics/export subsystem —
    never by the serving hot path itself: with the recorder disabled the
    engine cannot reach any code that raises this."""


class RegistryError(TileLinkError):
    """A kernel-family registration is incomplete, duplicated, or unknown.

    Raised by :func:`repro.registry.register_family` when a family record is
    missing a required piece (the message names it), and by lookups for
    families that were never registered."""
