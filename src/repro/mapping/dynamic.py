"""Dynamic (lookup-table) tile-centric mapping — paper §4.1.

For workloads whose data placement is only known at runtime (MoE dynamic
routing), the mappings become tables::

    range   = [fS_low[tile_id], fS_high[tile_id])
    rank    = fR[tile_id]
    channel = fC[tile_id]

The *access* pattern is fixed at compile time; the *values* are filled by
runtime logic.  :func:`build_moe_consumer_mapping` is that runtime logic for
the AG + MoE kernel of Figure 5: after top-k routing, tokens are grouped by
expert, and each consumer tile of the grouped layout learns which source
rank's shard its tokens came from and which channel signals their arrival.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MappingError
from repro.mapping.layout import ceil_div


class TableTileMapping:
    """Lookup-table f_S / f_R / f_C with the same query interface as affine.

    Tables are filled one tile at a time (``fill``); querying an unfilled
    entry raises, mirroring how a real kernel reading an unwritten table
    would be a bug.
    """

    UNFILLED = -1

    def __init__(self, n_tiles: int, n_channels: int, world_size: int):
        if n_tiles <= 0:
            raise MappingError("TableTileMapping needs n_tiles >= 1")
        self.n_tiles = n_tiles
        self.n_channels = n_channels
        self.world_size = world_size
        self.fS_low = np.full(n_tiles, self.UNFILLED, dtype=np.int64)
        self.fS_high = np.full(n_tiles, self.UNFILLED, dtype=np.int64)
        self.fR = np.full(n_tiles, self.UNFILLED, dtype=np.int64)
        self.fC = np.full(n_tiles, self.UNFILLED, dtype=np.int64)
        #: Per-channel producer-notify thresholds (filled with the tables).
        self.channel_threshold = np.zeros(n_channels, dtype=np.int64)
        #: Optional per-tile wait sets for tiles gated by several channels
        #: (a consumer tile whose tokens arrive from multiple source ranks
        #: must see every covering shard land, not only the primary one).
        self.wait_sets: list[list[tuple[int, int]] | None] = [None] * n_tiles

    def fill(self, tile_id: int, lo: int, hi: int, rank: int, channel: int,
             wait_set: list[tuple[int, int]] | None = None) -> None:
        self._check(tile_id)
        if hi < lo:
            raise MappingError(f"fill: bad range [{lo}, {hi})")
        if not 0 <= rank < self.world_size:
            raise MappingError(f"fill: rank {rank} out of range")
        if not 0 <= channel < self.n_channels:
            raise MappingError(f"fill: channel {channel} out of range")
        self.fS_low[tile_id] = lo
        self.fS_high[tile_id] = hi
        self.fR[tile_id] = rank
        self.fC[tile_id] = channel
        if wait_set is not None:
            for c, _thr in wait_set:
                if not 0 <= c < self.n_channels:
                    raise MappingError(f"fill: wait-set channel {c} out of range")
            self.wait_sets[tile_id] = list(wait_set)

    def _check(self, tile_id: int) -> None:
        if not 0 <= tile_id < self.n_tiles:
            raise MappingError(f"tile_id {tile_id} outside [0, {self.n_tiles})")

    def _filled(self, tile_id: int) -> None:
        if self.fR[tile_id] == self.UNFILLED:
            raise MappingError(
                f"dynamic mapping queried at unfilled tile {tile_id} "
                "(runtime routing has not populated the lookup tables)"
            )

    # -- queries (same protocol as AffineTileMapping) ---------------------------

    def shape_range(self, tile_id: int) -> tuple[int, int]:
        self._check(tile_id)
        self._filled(tile_id)
        return int(self.fS_low[tile_id]), int(self.fS_high[tile_id])

    def rank_of(self, tile_id: int) -> int:
        self._check(tile_id)
        self._filled(tile_id)
        return int(self.fR[tile_id])

    def channel_of(self, tile_id: int) -> int:
        self._check(tile_id)
        self._filled(tile_id)
        return int(self.fC[tile_id])

    def wait_list_for_tile(self, tile_id: int) -> list[tuple[int, int]]:
        """Channel/threshold pairs a consumer tile must wait on.

        Multi-source tiles return their full wait set; single-source tiles
        return the primary (f_C) channel with its full threshold.
        """
        self._check(tile_id)
        self._filled(tile_id)
        ws = self.wait_sets[tile_id]
        if ws is not None:
            return list(ws)
        c = self.channel_of(tile_id)
        return [(c, int(self.channel_threshold[c]))]


def build_moe_consumer_mapping(
    topk_ids: np.ndarray,
    n_experts: int,
    tokens_per_rank: int,
    world_size: int,
    block_m: int,
) -> tuple[TableTileMapping, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Runtime routing -> dynamic mapping for the AG + MoE kernel (Fig. 5).

    Tokens (already ordered rank-major in the gathered view: rank ``r``
    contributed rows ``[r * tokens_per_rank, (r+1) * tokens_per_rank)``) are
    expanded top-k ways and grouped by expert.  The grouped view is tiled
    with ``block_m`` rows per consumer tile; each (expert-aligned) tile
    learns, via the returned tables, the *source rank* whose AllGather shard
    must land before the tile may compute, and the channel that signals it.

    Returns ``(mapping, order, sorted_token_ids, group_starts,
    expert_tile_offsets)``: ``order`` lists the flat (token, k) slots in
    grouped-row order, ``sorted_token_ids`` maps grouped rows back to
    original token indices (the gather the kernel fuses into the
    GroupGEMM), ``group_starts[e]`` is the first grouped row of expert
    ``e`` and ``expert_tile_offsets[e]`` its first tile id.  The padded
    routing arrays of :func:`repro.kernels.moe_common.build_moe_routing`
    derive from the same grouping.
    """
    if topk_ids.ndim != 2:
        raise MappingError("topk_ids must be (tokens, topk)")
    n_tokens, topk = topk_ids.shape
    if n_tokens != tokens_per_rank * world_size:
        raise MappingError(
            f"topk_ids rows ({n_tokens}) != tokens_per_rank*world_size "
            f"({tokens_per_rank * world_size})"
        )
    if topk_ids.size and (topk_ids.min() < 0 or topk_ids.max() >= n_experts):
        raise MappingError("expert id out of range in topk_ids")

    flat_experts = topk_ids.reshape(-1)                  # row i*topk+j
    token_of_slot = np.arange(n_tokens).repeat(topk)      # original token per slot
    # group by expert, and *within* an expert order rows by source rank so
    # early tiles gate on early-arriving AllGather shards (this ordering is
    # what lets the grouped GEMM start before the last shard lands)
    src_of_slot = token_of_slot // max(1, tokens_per_rank)
    order = np.argsort(flat_experts * world_size + src_of_slot, kind="stable")
    sorted_token_ids = token_of_slot[order]

    # Pad each expert group to a multiple of block_m (vLLM-style alignment)
    counts = np.bincount(flat_experts, minlength=n_experts)
    padded = np.maximum(ceil_div_vec(counts, block_m), 0) * block_m
    n_tiles = int(padded.sum() // block_m)
    expert_tile_offsets = np.zeros(n_experts + 1, dtype=np.int64)
    np.cumsum(padded // block_m, out=expert_tile_offsets[1:])

    mapping = TableTileMapping(max(n_tiles, 1), world_size, world_size)
    # Channel r covers the shard rows of rank r; its threshold counts
    # AllGather producer tiles (one producer tile per block of shard rows
    # — the producer grid must agree; see ag_moe kernel).
    mapping.channel_threshold[:] = ceil_div(tokens_per_rank, block_m)

    group_starts = np.zeros(n_experts + 1, dtype=np.int64)
    np.cumsum(counts, out=group_starts[1:])
    for e in range(n_experts):
        for t in range(int(padded[e] // block_m)):
            tile_id = int(expert_tile_offsets[e]) + t
            row_lo = t * block_m
            row_hi = min(row_lo + block_m, int(counts[e]))
            # slots of this tile within the expert's sorted group
            g0 = int(group_starts[e])
            slots = sorted_token_ids[g0 + row_lo: g0 + max(row_hi, row_lo)]
            if len(slots) == 0:
                # fully padded tile: no data dependency; rank 0 / channel of
                # rank 0, threshold satisfied trivially
                mapping.fill(tile_id, 0, 0, 0, 0)
                continue
            # every source rank contributing tokens to this tile gates it;
            # the primary f_R / f_C entries record the highest source rank,
            # and the wait set lists every covering channel with its full
            # arrival threshold
            src_ranks = np.unique(slots // tokens_per_rank)
            gate_rank = int(src_ranks.max())
            lo_g, hi_g = g0 + row_lo, g0 + row_hi
            wait_set = [(int(r), int(mapping.channel_threshold[r]))
                        for r in src_ranks]
            mapping.fill(tile_id, int(lo_g), int(hi_g), gate_rank,
                         gate_rank, wait_set=wait_set)
    return mapping, order, sorted_token_ids, group_starts, expert_tile_offsets


def ceil_div_vec(a: np.ndarray, b: int) -> np.ndarray:
    """Vectorized ceil-division (numpy arrays)."""
    if b <= 0:
        raise MappingError("ceil_div_vec by non-positive divisor")
    return -(-a // b)
