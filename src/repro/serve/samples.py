"""Streaming per-step sample accumulators for the serving engine.

The scheduler samples three series once per engine step — waiting-queue
depth, running-batch size, pool occupancy — and a 1M-request run takes
millions of steps, so the seed's plain lists grew to tens of MB per
:class:`~repro.serve.scheduler.ServeResult`.  Every consumer only ever
asks for order statistics (``max``, percentiles) and the last sample,
and the series take few distinct values (queue depths are small ints,
batch sizes are bounded by ``max_batch``, occupancies by the block
count), so :class:`StepStats` stores a ``{value: count}`` multiset
instead: O(distinct values) memory, O(1) appends, and percentiles that
equal :func:`repro.serve.metrics.percentile` bit-for-bit, because both
interpolate through :func:`interpolate_percentile`.

``add_repeat`` is the macro-stepping hook: the event-driven engine
(:mod:`repro.serve.engine`) records a whole run of identical steps in
one call.  ``append`` keeps the reference loop's call sites unchanged,
and iteration replays the samples in insertion order of first
occurrence (grouped by value) — enough for the ``max()`` / ``all()`` /
``[-1]`` idioms the tests and benches use, though not the original
interleaving.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.errors import ServeError

__all__ = ["StepStats", "interpolate_percentile"]


def interpolate_percentile(n: int, q: float, at: Callable[[int], float]
                           ) -> float:
    """q-th percentile (0..100) of ``n >= 1`` samples whose ``i``-th
    smallest is ``at(i)``: deterministic linear interpolation."""
    if not 0.0 <= q <= 100.0:
        raise ServeError(f"percentile q must be in [0, 100], got {q}")
    if n == 1:
        return float(at(0))
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= n:
        return float(at(n - 1))
    v_lo = at(lo)
    return float(v_lo + frac * (at(lo + 1) - v_lo))


class StepStats:
    """Order-statistics multiset over one per-step sample series."""

    __slots__ = ("_counts", "_n", "_last")

    def __init__(self) -> None:
        self._counts: dict = {}     # value -> occurrences
        self._n = 0
        self._last = None

    @classmethod
    def of(cls, values: Iterable) -> "StepStats":
        stats = cls()
        for v in values:
            stats.append(v)
        return stats

    # -- recording ----------------------------------------------------------

    def append(self, value) -> None:
        """Record one sample (list-compatible call shape)."""
        self._counts[value] = self._counts.get(value, 0) + 1
        self._n += 1
        self._last = value

    def add_repeat(self, value, count: int) -> None:
        """Record ``count`` consecutive samples of ``value`` at once."""
        if count <= 0:
            return
        self._counts[value] = self._counts.get(value, 0) + count
        self._n += count
        self._last = value

    @classmethod
    def _from_counts(cls, counts: dict, last) -> "StepStats":
        """Adopt a prebuilt ``value -> count`` mapping (engine hook: the
        hot loops count inline and hand the dict over once)."""
        stats = cls()
        stats._counts = counts
        stats._n = sum(counts.values())
        stats._last = last
        return stats

    # -- querying -----------------------------------------------------------

    def counts(self) -> dict:
        """A copy of the ``value -> occurrences`` multiset.

        Public adoption point for consumers that fold a finished series
        into their own accumulator (e.g. ``repro.obs`` histograms merge
        a :class:`~repro.serve.scheduler.ServeResult`'s per-step series
        without replaying millions of samples)."""
        return dict(self._counts)

    @property
    def distinct(self) -> int:
        """Number of distinct values held — the memory footprint."""
        return len(self._counts)

    @property
    def last(self):
        """The most recent sample (``None`` when empty)."""
        return self._last

    @property
    def max(self):
        if not self._n:
            raise ServeError("max of an empty sample series")
        return max(self._counts)

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) of the samples."""
        if not self._n:
            # a *named* ServeError, never a bare IndexError/KeyError from
            # the rank walk below: obs histograms snapshot empty series
            # routinely and must be able to catch this precisely
            raise ServeError("percentile of an empty sample series")
        values = sorted(self._counts)
        return interpolate_percentile(
            self._n, q, lambda rank: self._at_rank(values, rank))

    def _at_rank(self, sorted_values: list, rank: int):
        """The ``rank``-th (0-based) sample of the sorted multiset."""
        cum = 0
        for v in sorted_values:
            cum += self._counts[v]
            if rank < cum:
                return v
        raise ServeError(f"rank {rank} out of range for {self._n} samples")

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator:
        """Samples grouped by first-occurrence order (not the original
        interleaving — the multiset does not keep it)."""
        for v, c in self._counts.items():
            for _ in range(c):
                yield v

    def __getitem__(self, index: int):
        if index == -1:
            if not self._n:
                raise IndexError("StepStats is empty")
            return self._last
        raise IndexError(
            "StepStats keeps value counts, not the sample sequence; only "
            "[-1] (the most recent sample) is indexable — use .max / "
            ".percentile(q) for order statistics")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepStats):
            return NotImplemented
        return (self._n == other._n and self._last == other._last
                and self._counts == other._counts)

    def __repr__(self) -> str:
        return (f"StepStats(n={self._n}, distinct={self.distinct}, "
                f"last={self._last!r})")
