"""Tests for the BlockChannel special argument (Figure 7)."""

from __future__ import annotations

import pytest

from repro.errors import LoweringError
from repro.lang.block_channel import BlockChannel
from repro.mapping.dynamic import TableTileMapping
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from tests.conftest import make_ctx


def _channels(ctx, **kw):
    mapping = kw.pop("mapping", AffineTileMapping(64, 16, ctx.world_size))
    grid = TileGrid(64, 32, 16, 32)
    return ctx.make_block_channels("t", mapping=mapping, comm_grid=grid,
                                   consumer_grid=grid, **kw)


def test_scalar_fields(ctx2):
    ch = _channels(ctx2)[1]
    assert ch.scalar_field("rank") == 1
    assert ch.scalar_field("num_ranks") == 2
    assert ch.num_barriers == 2          # one channel per rank
    assert ch.num_producer_blocks == ch.num_consumer_blocks == 4
    with pytest.raises(LoweringError):
        ch.scalar_field("does_not_exist")
    with pytest.raises(LoweringError):
        ch.scalar_field("barriers")      # not a scalar


def test_consumer_wait_list_static(ctx2):
    ch = _channels(ctx2)[0]
    # row-tile 0 covers rows [0,16) -> channel 0, threshold = 2 tiles/channel
    assert ch.consumer_wait_list(0) == [(0, 2)]
    assert ch.consumer_wait_list(2) == [(1, 2)]


def test_threshold_scale(ctx2):
    ch = _channels(ctx2, threshold_scale=3)[0]
    assert ch.consumer_wait_list(0) == [(0, 6)]


def test_consumer_mapping_overrides_static(ctx2):
    dyn = TableTileMapping(4, 2, 2)
    dyn.channel_threshold[:] = 7
    for t in range(4):
        dyn.fill(t, t * 16, (t + 1) * 16, t % 2, t % 2)
    ch = _channels(ctx2, consumer_mapping=dyn)[0]
    assert ch.consumer_wait_list(1) == [(1, 7)]


def test_missing_mapping_raises(ctx2):
    ch = BlockChannel(rank=0, num_ranks=2, comm_blocks=0)
    with pytest.raises(LoweringError):
        ch.require_mapping()
    with pytest.raises(LoweringError):
        ch.consumer_wait_list(0)


def test_producer_queries(ctx2):
    ch = _channels(ctx2)[0]
    assert ch.producer_rank(3) == 1
    assert ch.producer_channel(3) == 1


def test_banks_are_shared_across_ranks(ctx2):
    channels = _channels(ctx2)
    # rank 0's view of rank 1's bank is the same object rank 1 waits on
    assert channels[0].all_barriers[1] is channels[1].barriers


# -- primitive resolution shared by the interpreter and the analyzer ----------


def test_notify_posts_local_mapped_and_explicit(ctx2):
    channels = _channels(ctx2)
    ch = channels[1]
    banks = ch.all_barriers
    # tile 0 is rank 0's, channel 0: local lands here, mapped on rank 0
    assert ch.notify_posts(0, "p2p") == [(banks[1], 0, 1)]
    ch.notify_target = "mapped"
    assert ch.notify_posts(0, "p2p") == [(banks[0], 0, 1)]
    # an explicit target wins over the channel's routing
    assert ch.notify_posts(0, "p2p", to=1) == [(banks[1], 0, 1)]
    assert ch.notify_posts(3, "p2p", to=0) == [(banks[0], 1, 1)]


def test_notify_posts_broadcast_and_fan_out(ctx2):
    ch = _channels(ctx2)[0]
    banks = ch.all_barriers
    assert ch.notify_posts(2, "broadcast") == [(banks[0], 1, 1),
                                              (banks[1], 1, 1)]
    # notify_counts fans one tile out over the local channels instead
    ch.notify_counts = [[0, 0], [3, 0], [0, 0], [1, 2]]
    assert ch.notify_posts(1, "broadcast") == [(ch.barriers, 0, 3)]
    assert ch.notify_posts(3, "broadcast") == [(ch.barriers, 0, 1),
                                              (ch.barriers, 1, 2)]
    assert ch.notify_posts(0, "broadcast") == []
    # p2p ignores the fan-out table
    assert ch.notify_posts(1, "p2p") == [(ch.barriers, 0, 1)]


def test_notify_posts_unknown_mode_raises(ctx2):
    ch = _channels(ctx2)[0]
    with pytest.raises(LoweringError, match="unknown notify mode"):
        ch.notify_posts(0, "multicast")


def test_peer_bank(ctx2):
    channels = _channels(ctx2, peer_cells=4)
    assert channels[0].peer_bank(1) is channels[1].all_peer_barriers[1]
    assert len(channels[0].peer_bank(0)) == 4
    with pytest.raises(LoweringError, match="no peer barriers"):
        _channels(ctx2)[0].peer_bank(0)


def test_comm_tile_ranges(ctx2):
    ch = _channels(ctx2)[0]
    assert ch.comm_tile_ranges(2, 0) == ((32, 48), (0, 32))
    with pytest.raises(LoweringError, match="no comm grid"):
        BlockChannel(rank=0, num_ranks=2, comm_blocks=0).comm_tile_ranges(0, 0)


def test_pull_source_shard_local_rows(ctx2):
    ch = _channels(ctx2)[0]
    # tile 3 covers global rows [48, 64): rank 1's shard rows [16, 32)
    assert ch.pull_source(3, 0) == (1, (16, 32), (0, 32))
    assert ch.pull_source(1, 0) == (0, (16, 32), (0, 32))


def test_pull_source_needs_affine_mapping(ctx2):
    table = TableTileMapping(4, 2, 2)
    ch = _channels(ctx2, mapping=table)[0]
    with pytest.raises(LoweringError, match="affine"):
        ch.pull_source(0, 0)
