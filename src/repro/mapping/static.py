"""Static (affine) tile-centric mapping — paper §4.1.

For a dimension of extent ``M`` sharded across ``R`` ranks with ``C``
channels (barriers) per rank and producer tile size ``T``, the paper defines

.. code-block:: text

    M_per_rank    = ceil(M / R)
    M_per_channel = ceil(M / (R * C))
    range(t)  = [t * T, t * T + T)
    rank(t)   = floor(t / floor(M_per_rank / T))
    channel(t)= floor(t / floor(M_per_channel / T))

:class:`AffineTileMapping` implements exactly these formulas plus the
consumer-side queries the compiler needs: which channels cover a row span
and how many producer notifies make each channel "ready" (the
``producer_threshold`` embedded in the BlockChannel argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import MappingError
from repro.mapping.layout import ceil_div


@dataclass(frozen=True)
class AffineTileMapping:
    """Affine f_S / f_R / f_C over one sharded dimension.

    Parameters
    ----------
    extent:
        Global extent M of the mapped dimension (the full, gathered view).
    tile:
        Producer tile size T along this dimension.
    world_size:
        Number of ranks R the dimension is sharded across.
    channels_per_rank:
        Barriers per rank C; more channels = finer consumer wake-ups.
    """

    extent: int
    tile: int
    world_size: int
    channels_per_rank: int = 1

    def __post_init__(self) -> None:
        if self.extent <= 0 or self.tile <= 0:
            raise MappingError(f"extent/tile must be positive: {self}")
        if self.world_size <= 0 or self.channels_per_rank <= 0:
            raise MappingError(f"world_size/channels must be positive: {self}")
        if self.per_rank % self.tile != 0:
            raise MappingError(
                f"per-rank extent {self.per_rank} must be a multiple of the "
                f"tile size {self.tile} (got extent={self.extent}, "
                f"R={self.world_size})"
            )
        if (self.per_rank // self.tile) % self.channels_per_rank != 0:
            raise MappingError(
                f"channels_per_rank={self.channels_per_rank} must divide the "
                f"{self.per_rank // self.tile} tiles of each rank (the "
                "paper's affine formulas assume channel-aligned tiles)"
            )

    # -- derived quantities (the paper's M_per_rank / M_per_channel) -----------

    @cached_property
    def per_rank(self) -> int:
        return ceil_div(self.extent, self.world_size)

    @cached_property
    def per_channel(self) -> int:
        return ceil_div(self.extent, self.world_size * self.channels_per_rank)

    @cached_property
    def n_tiles(self) -> int:
        return ceil_div(self.extent, self.tile)

    @cached_property
    def n_channels(self) -> int:
        """Global channel count (R * C)."""
        return self.world_size * self.channels_per_rank

    @cached_property
    def tiles_per_rank(self) -> int:
        return max(1, self.per_rank // self.tile)

    @cached_property
    def tiles_per_channel(self) -> int:
        return max(1, self.per_channel // self.tile)

    # -- the three mappings -------------------------------------------------------

    def shape_range(self, tile_id: int) -> tuple[int, int]:
        """f_S: half-open element range of a producer tile (clamped)."""
        self._check(tile_id)
        lo = tile_id * self.tile
        return lo, min(lo + self.tile, self.extent)

    def rank_of(self, tile_id: int) -> int:
        """f_R: rank owning the shard this tile falls in."""
        self._check(tile_id)
        return min(tile_id // self.tiles_per_rank, self.world_size - 1)

    def channel_of(self, tile_id: int) -> int:
        """f_C: global channel (barrier) index of this tile."""
        self._check(tile_id)
        return min(tile_id // self.tiles_per_channel, self.n_channels - 1)

    def _check(self, tile_id: int) -> None:
        if not 0 <= tile_id < self.n_tiles:
            raise MappingError(
                f"tile_id {tile_id} outside [0, {self.n_tiles}) for {self}"
            )

    # -- inverse / consumer-side queries -------------------------------------------

    def local_channel(self, channel: int) -> tuple[int, int]:
        """Split a global channel index into (owner_rank, channel_in_rank)."""
        if not 0 <= channel < self.n_channels:
            raise MappingError(f"channel {channel} out of range for {self}")
        return divmod(channel, self.channels_per_rank)[0], channel % self.channels_per_rank

    def channel_range(self, channel: int) -> tuple[int, int]:
        """Element range covered by one channel."""
        if not 0 <= channel < self.n_channels:
            raise MappingError(f"channel {channel} out of range for {self}")
        lo = channel * self.per_channel
        return lo, min(lo + self.per_channel, self.extent)

    def tiles_in_channel(self, channel: int) -> int:
        """Producer tiles mapped to a channel — the channel's full threshold."""
        lo, hi = self.channel_range(channel)
        if hi <= lo:
            return 0
        first = lo // self.tile
        last = ceil_div(hi, self.tile)
        return last - first

    def owner_of_element(self, index: int) -> int:
        """Rank whose shard contains element ``index`` of the global view."""
        if not 0 <= index < self.extent:
            raise MappingError(f"element {index} out of extent {self.extent}")
        return min(index // self.per_rank, self.world_size - 1)

    def channels_covering(self, lo: int, hi: int) -> list[int]:
        """Global channels whose ranges intersect [lo, hi)."""
        if lo >= hi:
            return []
        lo = max(lo, 0)
        hi = min(hi, self.extent)
        first = lo // self.per_channel
        last = ceil_div(hi, self.per_channel)
        return list(range(first, min(last, self.n_channels)))

    def wait_list(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Consumer wait set for a row span: [(channel, threshold), ...].

        The consumer is ready when every covering channel has received its
        *full* producer count (the paper's "consumer tile is marked ready
        when all the producer tiles it depends on are done").
        """
        return [(c, self.tiles_in_channel(c)) for c in self.channels_covering(lo, hi)]
