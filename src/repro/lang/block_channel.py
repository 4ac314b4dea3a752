"""The BlockChannel special kernel argument (paper Figure 7).

``BlockChannel`` encapsulates the distributed mapping metadata a fused
kernel needs: process rank, world size, barrier configuration,
producer/consumer block relationships and the tile-centric mapping used to
resolve primitives.  The backend "decomposes" it during compilation /
interpretation: scalar fields feed ``channel.<field>`` reads, mappings feed
primitive lowering, and the signal banks are the physical barriers.

Primitive resolution (which bank and cell a notify or wait touches, which
rows a data primitive moves) lives here once; the backend interpreter and
the static analyzer both call it.  The methods read the channel's fields
live, on every call.  Generated kernel code calls each one only on a
tile's first use in a launch and reads the answer from a per-launch,
per-rank table after that
(:class:`repro.compiler.interp.ChannelTable`), so a field changed between
two launches reaches the second one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.errors import LoweringError
from repro.mapping.dynamic import TableTileMapping
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.memory.signals import SignalArray

Mapping = Union[AffineTileMapping, TableTileMapping]


@dataclass
class BlockChannel:
    """Distributed metadata + barriers for one rank's kernel launch."""

    rank: int
    num_ranks: int
    #: blocks of the launch grid assigned to the communication part
    comm_blocks: int
    #: producer (communication) tile grid over the mapped tensor
    comm_grid: TileGrid | None = None
    #: consumer (computation) tile grid over the same index space
    consumer_grid: TileGrid | None = None
    #: tile-centric mapping along the sharded dimension
    producer_mapping: Mapping | None = None
    #: this rank's producer->consumer barrier bank
    barriers: SignalArray | None = None
    #: every rank's producer->consumer bank (remote notifies)
    all_barriers: list[SignalArray] = field(default_factory=list)
    #: per-tile peer barrier banks (ring/peer signalling), one per rank
    all_peer_barriers: list[SignalArray] = field(default_factory=list)
    #: notifies required before one channel counts as ready (static default)
    producer_threshold: int = 1
    #: where p2p notifies land: "local" (pull-style kernels: producer and
    #: consumer share a rank) or "mapped" (push-style: f_R names the target)
    notify_target: str = "local"
    #: dynamic consumer-side mapping (MoE); producer side stays static
    consumer_mapping: TableTileMapping | None = None
    #: multiplies static wait thresholds when producer tiles span several
    #: column tiles per channel row (each (m, n) tile notifies once)
    threshold_scale: int = 1
    #: dynamic per-(tile, channel) notify amounts: a "broadcast" notify of
    #: tile t posts notify_counts[t][c] to each local channel c (used by the
    #: MoE scatter/topk-reduce chain, where one grouped tile contributes
    #: rows to several token segments)
    notify_counts: "object | None" = None

    # -- derived metadata (exposed to kernels as channel.<field>) ----------------

    @property
    def num_barriers(self) -> int:
        return len(self.barriers) if self.barriers is not None else 0

    @property
    def num_producer_blocks(self) -> int:
        return self.comm_grid.n_tiles if self.comm_grid is not None else 0

    @property
    def num_consumer_blocks(self) -> int:
        return self.consumer_grid.n_tiles if self.consumer_grid is not None else 0

    def scalar_field(self, name: str) -> int:
        """Resolve a ``channel.<name>`` read inside a kernel."""
        try:
            value = getattr(self, name)
        except AttributeError:
            raise LoweringError(f"BlockChannel has no field {name!r}") from None
        if not isinstance(value, int):
            raise LoweringError(f"BlockChannel field {name!r} is not scalar")
        return value

    # -- primitive resolution -----------------------------------------------------

    def require_mapping(self) -> Mapping:
        if self.producer_mapping is None:
            raise LoweringError(
                "kernel uses tile-centric primitives but the BlockChannel "
                "carries no producer mapping"
            )
        return self.producer_mapping

    def consumer_wait_list(self, consumer_tid_m: int) -> list[tuple[int, int]]:
        """(channel, threshold) pairs a consumer row-tile must wait on."""
        if self.consumer_mapping is not None:
            return self.consumer_mapping.wait_list_for_tile(consumer_tid_m)
        mapping = self.require_mapping()
        if isinstance(mapping, TableTileMapping):
            return mapping.wait_list_for_tile(consumer_tid_m)
        if self.consumer_grid is None:
            raise LoweringError("consumer_tile_wait needs a consumer grid")
        lo, hi = self.consumer_grid.row_range(consumer_tid_m)
        return [(c, t * self.threshold_scale) for c, t in mapping.wait_list(lo, hi)]

    def producer_channel(self, producer_tile_id: int) -> int:
        return self.require_mapping().channel_of(producer_tile_id)

    def producer_rank(self, producer_tile_id: int) -> int:
        return self.require_mapping().rank_of(producer_tile_id)

    def notify_posts(self, tile_id: int, mode: str, to: int | None = None
                     ) -> list[tuple[SignalArray, int, int]]:
        """``(bank, cell, amount)`` posts of ``producer_tile_notify(tile_id,
        mode, to=to)`` issued on this channel's rank.

        A p2p notify lands on ``to``, else on the tile's mapped rank
        (``notify_target="mapped"``), else locally; a broadcast lands on
        every rank, unless ``notify_counts`` fans the tile out over the
        local channels instead.
        """
        if self.notify_counts is not None and mode == "broadcast":
            return [(self.barriers, int(cell), int(amount))
                    for cell, amount in enumerate(self.notify_counts[tile_id])
                    if amount > 0]
        cell = self.producer_channel(tile_id)
        if mode == "p2p":
            if to is None:
                to = self.producer_rank(tile_id) \
                    if self.notify_target == "mapped" else self.rank
            return [(self.all_barriers[to], cell, 1)]
        if mode == "broadcast":
            return [(self.all_barriers[dst], cell, 1)
                    for dst in range(self.num_ranks)]
        raise LoweringError(f"unknown notify mode {mode!r}")

    def peer_bank(self, rank: int) -> SignalArray:
        """``rank``'s peer barrier bank (``peer_tile_notify``/``_wait``)."""
        if not self.all_peer_barriers:
            raise LoweringError("BlockChannel has no peer barriers")
        return self.all_peer_barriers[rank]

    def comm_tile_ranges(self, tid_m: int, tid_n: int
                         ) -> tuple[tuple[int, int], tuple[int, int]]:
        """Row and column ranges of communication tile ``(tid_m, tid_n)``."""
        if self.comm_grid is None:
            raise LoweringError("BlockChannel has no comm grid")
        return self.comm_grid.ranges(self.comm_grid.tile_id(tid_m, tid_n))

    def pull_source(self, tid_m: int, tid_n: int
                    ) -> tuple[int, tuple[int, int], tuple[int, int]]:
        """``tile_pull_data`` source: ``(rank, shard-local rows, cols)``.

        The pulled tensor is sharded by rows along the affine producer
        mapping, so the tile's rows shift by its owner's shard offset.
        """
        mapping = self.require_mapping()
        if not isinstance(mapping, AffineTileMapping):
            raise LoweringError(
                "tile_pull_data needs an affine producer mapping, got "
                f"{type(mapping).__name__}")
        rank = mapping.rank_of(tid_m)
        (r0, r1), cols = self.comm_tile_ranges(tid_m, tid_n)
        base = rank * mapping.per_rank
        return rank, (r0 - base, r1 - base), cols
