"""Declarative search spaces over the decoupled design space (paper §3.1).

The paper's central observation is that an overlapped kernel is picked from
*independent* subspaces: compute tile sizes, communication tile sizes,
push vs. pull dataflow, SM vs. copy-engine transport, and the number of
communication SMs.  :class:`SearchSpace` makes that product explicit — a
tuple of named :class:`Axis` objects plus an optional constraint that
rejects invalid/duplicate combinations (e.g. shape-divisibility rules, or
the fact that a copy-engine mapping ignores the ``comm_blocks`` axis).

A kernel family's tuning is stated once, in its ``*_tune_task(...)``
factory (see ``repro.kernels.ag_gemm``), and reached through its
:func:`repro.registry.register_family` record.  To add a kernel to the
tuner:

1. write ``def my_kernel_tune_task(m, n, k, *, world, spec)`` returning
   a :class:`repro.tuner.search.TuneTask` over a :class:`SearchSpace`
   whose axis names are fields of the kernel's config dataclass; its
   ``default`` is ``space.project(MyConfig(m, n, k))``, the shipped
   config's values on those axes, and a kernel that fills an op slot
   builds each candidate with :func:`repro.registry.slot_builder`;
2. pass, beside the family's table entry (``slot``/``launch``) in its
   one ``register_family()`` call, ``retune=lambda cfg, **kw:
   my_kernel_tune_task(cfg.m, cfg.n, cfg.k, **kw)``, its task at a
   figure table's config, to join that table's sweep (and, for a
   TileLink entry, its TileLink-tuned column and the warm cache);
3. tune with ``tune(my_kernel_tune_task(m, n, k, world=8), world=8)``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.errors import TileLinkError


class TunerError(TileLinkError):
    """Invalid search-space definition or tuner usage."""


#: A candidate point: axis name -> chosen value.
Candidate = dict


@dataclass(frozen=True)
class Axis:
    """One named knob of the design space with its discrete values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise TunerError(f"axis {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise TunerError(f"axis {self.name!r} has duplicate values")


@dataclass(frozen=True)
class SearchSpace:
    """Cartesian product of :class:`Axis` values, minus constraint rejects.

    ``constraint(candidate) -> bool`` prunes invalid points *structurally*
    (divisibility, aliasing axes); performance-based pruning is the job of
    :mod:`repro.tuner.costprune`.
    """

    axes: tuple[Axis, ...]
    constraint: Callable[[Candidate], bool] | None = field(default=None)

    def __post_init__(self) -> None:
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise TunerError(f"duplicate axis names: {names}")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def candidates(self) -> Iterator[Candidate]:
        """Yield every valid candidate (deterministic axis-major order)."""
        for combo in itertools.product(*(a.values for a in self.axes)):
            cand = dict(zip(self.axis_names, combo))
            if self.constraint is None or self.constraint(cand):
                yield cand

    def __len__(self) -> int:
        return sum(1 for _ in self.candidates())

    def fingerprint(self) -> str:
        """Short stable hash of the axes (names + values).

        Used in cache keys so a changed space invalidates stale entries.
        The constraint is intentionally not hashed (not reliably
        serialisable); change an axis when a space's semantics change.
        """
        payload = json.dumps(
            [[a.name, [repr(v) for v in a.values]] for a in self.axes])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def project(self, config) -> Candidate:
        """``config``'s values on this space's axes, as a candidate (how a
        task states its default: the shipped config, seen by the tuner)."""
        return {name: getattr(config, name) for name in self.axis_names}


def divisors_of(extent: int, values: Sequence[int]) -> tuple[int, ...]:
    """Filter ``values`` down to those dividing ``extent`` (axis helper)."""
    out = tuple(v for v in values if extent % v == 0)
    if not out:
        raise TunerError(f"no value of {values} divides extent {extent}")
    return out
