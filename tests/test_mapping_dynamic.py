"""Tests for dynamic (lookup-table) mappings and MoE routing tables."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MappingError
from repro.mapping.dynamic import TableTileMapping, build_moe_consumer_mapping
from repro.kernels.moe_common import build_moe_routing, random_router_logits


def test_table_mapping_fill_and_query():
    m = TableTileMapping(n_tiles=4, n_channels=8, world_size=4)
    m.fill(0, 0, 16, 2, 5)
    assert m.shape_range(0) == (0, 16)
    assert m.rank_of(0) == 2
    assert m.channel_of(0) == 5


def test_table_mapping_unfilled_raises():
    m = TableTileMapping(n_tiles=2, n_channels=2, world_size=2)
    m.fill(0, 0, 4, 0, 0)
    with pytest.raises(MappingError, match="unfilled"):
        m.shape_range(1)
    with pytest.raises(MappingError, match="unfilled"):
        m.wait_list_for_tile(1)


def test_table_mapping_validation():
    with pytest.raises(MappingError):
        TableTileMapping(0, 1, 1)
    m = TableTileMapping(2, 2, 2)
    with pytest.raises(MappingError):
        m.fill(5, 0, 1, 0, 0)
    with pytest.raises(MappingError):
        m.fill(0, 4, 1, 0, 0)   # hi < lo
    with pytest.raises(MappingError):
        m.fill(0, 0, 1, 9, 0)   # bad rank
    with pytest.raises(MappingError):
        m.fill(0, 0, 1, 0, 9)   # bad channel
    with pytest.raises(MappingError):
        m.fill(0, 0, 1, 0, 0, wait_set=[(9, 1)])


def test_wait_set_override():
    m = TableTileMapping(1, 4, 4)
    m.fill(0, 0, 8, 3, 3, wait_set=[(0, 2), (3, 1)])
    assert m.wait_list_for_tile(0) == [(0, 2), (3, 1)]


@st.composite
def routings(draw):
    world = draw(st.sampled_from([2, 4]))
    tokens_per_rank = draw(st.sampled_from([8, 16, 32]))
    n_experts = draw(st.sampled_from([2, 4, 8]))
    topk = draw(st.integers(min_value=1, max_value=min(2, n_experts)))
    block_m = draw(st.sampled_from([4, 8, 16]))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return world, tokens_per_rank, n_experts, topk, block_m, seed


@given(routings())
@settings(max_examples=30, deadline=None)
def test_moe_mapping_wait_sets_cover_sources(params):
    """Every consumer tile waits on the channel of every source rank whose
    tokens it consumes — the correctness invariant of the dynamic mapping."""
    world, tpr, n_experts, topk, block_m, seed = params
    logits = random_router_logits(tpr * world, n_experts, seed=seed)
    routing = build_moe_routing(logits, tpr, world, topk, block_m=block_m)
    mapping = routing.mapping

    for t in range(routing.n_tiles):
        rows = routing.padded_token_ids[t * block_m:(t + 1) * block_m]
        valid = routing.valid_mask[t * block_m:(t + 1) * block_m]
        sources = set((rows[valid] // tpr).tolist())
        if not sources:
            continue
        waited = {c for c, _ in mapping.wait_list_for_tile(t)}
        for src in sources:
            assert src in waited, (t, src, waited)


@given(routings())
@settings(max_examples=30, deadline=None)
def test_moe_routing_invariants(params):
    world, tpr, n_experts, topk, block_m, seed = params
    logits = random_router_logits(tpr * world, n_experts, seed=seed)
    routing = build_moe_routing(logits, tpr, world, topk, block_m=block_m)
    n_tokens = tpr * world
    # every (token, expert-copy) slot appears exactly once among valid rows
    valid_ids = routing.padded_token_ids[routing.valid_mask]
    assert len(valid_ids) == n_tokens * topk
    counts = np.bincount(valid_ids, minlength=n_tokens)
    assert (counts == topk).all()
    # expert tiles partition the padded rows and are expert-homogeneous
    assert routing.expert_tile_offsets[-1] == routing.n_tiles
    for e in range(n_experts):
        t0 = int(routing.expert_tile_offsets[e])
        t1 = int(routing.expert_tile_offsets[e + 1])
        assert (routing.expert_of_tile[t0:t1] == e).all()
    # per-tile segment counts sum to the segment thresholds
    assert (routing.segment_counts.sum(axis=0)
            == routing.segment_thresholds).all()
    # within an expert group, valid rows are ordered by source rank
    for e in range(n_experts):
        rows = routing.padded_token_ids[
            routing.expert_tile_offsets[e] * block_m:
            routing.expert_tile_offsets[e + 1] * block_m]
        mask = routing.valid_mask[
            routing.expert_tile_offsets[e] * block_m:
            routing.expert_tile_offsets[e + 1] * block_m]
        srcs = rows[mask] // tpr
        assert (np.diff(srcs) >= 0).all()


def test_moe_mapping_rejects_bad_inputs():
    with pytest.raises(MappingError):
        build_moe_consumer_mapping(np.zeros((4, 2, 2), dtype=int), 4, 2, 2, 8)
    with pytest.raises(MappingError):
        build_moe_consumer_mapping(np.zeros((5, 2), dtype=int), 4, 2, 2, 8)
    bad = np.full((8, 2), 99, dtype=int)
    with pytest.raises(MappingError):
        build_moe_consumer_mapping(bad, 4, 4, 2, 8)
