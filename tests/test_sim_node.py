"""Tests for the node model: cost model, interconnect, streams, host, trace."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import H800, SimConfig
from repro.errors import SimulationError
from repro.sim.costmodel import CostModel
from repro.sim.engine import Join, Timeout
from repro.sim.machine import Machine
from repro.sim.trace import Trace, intersect_time, merge_intervals, total_time


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def test_tile_efficiency_bounds_and_monotonicity():
    cm = CostModel(H800)
    assert cm.tile_efficiency(128, 128, 64) == pytest.approx(1.0)
    assert cm.tile_efficiency(16, 16, 16) >= cm.MIN_TILE_EFFICIENCY
    assert cm.tile_efficiency(64, 128, 64) < cm.tile_efficiency(128, 128, 64)
    assert cm.tile_efficiency(128, 128, 16) < cm.tile_efficiency(128, 128, 64)


@given(st.sampled_from([64, 128, 256]), st.sampled_from([64, 128, 256]),
       st.sampled_from([512, 1024, 4096]))
@settings(max_examples=30, deadline=None)
def test_gemm_tile_time_scales_with_depth(bm, bn, k):
    cm = CostModel(H800)
    t1 = cm.gemm_tile_time(bm, bn, k).compute
    t2 = cm.gemm_tile_time(bm, bn, 2 * k).compute
    assert t2 > t1
    assert t2 == pytest.approx(2 * t1, rel=0.01)


def test_gemm_monolithic_wave_quantization():
    cm = CostModel(H800)
    # one extra tile beyond a full wave costs ~a full extra wave
    full = cm.gemm_time_monolithic(128 * 132, 128, 1024, n_sms=132)
    plus = cm.gemm_time_monolithic(128 * 133, 128, 1024, n_sms=132)
    assert plus > full * 1.5


def test_gemm_monolithic_more_sms_faster():
    cm = CostModel(H800)
    slow = cm.gemm_time_monolithic(8192, 4096, 4096, n_sms=64)
    fast = cm.gemm_time_monolithic(8192, 4096, 4096, n_sms=132)
    assert fast < slow


def test_gemm_rejects_bad_dims():
    cm = CostModel(H800)
    with pytest.raises(ValueError):
        cm.gemm_tile_time(0, 128, 128)
    with pytest.raises(ValueError):
        cm.gemm_time_monolithic(128, 128, 128, n_sms=0)


def test_flash_step_reasonable():
    cm = CostModel(H800)
    t = cm.flash_step_time(128, 128, 128)
    assert 0 < t < 1e-4
    assert cm.flash_step_time(128, 128, 256) > t


def test_atomic_latencies():
    cm = CostModel(H800)
    assert cm.atomic_latency(remote=True) > cm.atomic_latency(remote=False)


# ---------------------------------------------------------------------------
# interconnect
# ---------------------------------------------------------------------------

def test_interconnect_local_transfer_free():
    m = Machine(SimConfig(world_size=2))
    start, arrival = m.interconnect.reserve(0, 0, 1e9)
    assert start == arrival == 0.0


def test_interconnect_protocol_efficiencies():
    m = Machine(SimConfig(world_size=2))
    t_p2p = m.interconnect.min_transfer_time(0, 1, 1e9, "p2p")
    t_nccl = m.interconnect.min_transfer_time(0, 1, 1e9, "nccl")
    t_rs = m.interconnect.min_transfer_time(0, 1, 1e9, "nccl_rs")
    assert t_p2p < t_nccl
    assert t_rs < t_nccl
    with pytest.raises(SimulationError):
        m.interconnect.min_transfer_time(0, 1, 1e9, "smoke-signals")


def test_interconnect_inter_node_path_slower():
    m = Machine(SimConfig(world_size=4, n_nodes=2))
    # ranks 0,1 on node 0; ranks 2,3 on node 1
    intra = m.interconnect.min_transfer_time(0, 1, 1e8)
    inter = m.interconnect.min_transfer_time(0, 2, 1e8)
    assert inter > intra


def test_interconnect_per_pipe_packing():
    """Independent per-pipe reservation keeps each pipe contiguous even
    when many fine-grained transfers interleave across pairs."""
    m = Machine(SimConfig(world_size=4))

    def puller(rank):
        for i in range(12):
            src = (rank + 1 + i % 3) % 4
            yield m.interconnect.transfer(src, rank, 1e6)

    m.spawn_per_rank(puller, "pull")
    total = m.run()
    ingress = m.interconnect.ingress[0]
    # each rank moves 12 MB through its ingress; the run should finish in
    # about that serialized time, not multiples of it
    assert total < ingress.busy_time * 1.5


def test_interconnect_validates_ranks():
    m = Machine(SimConfig(world_size=2))
    with pytest.raises(SimulationError):
        m.interconnect.reserve(0, 5, 10)


# ---------------------------------------------------------------------------
# streams / host / machine
# ---------------------------------------------------------------------------

def test_stream_serializes_work():
    m = Machine(SimConfig(world_size=1))
    s = m.stream(0)
    log = []

    def op(name, d):
        yield Timeout(d)
        log.append((name, m.now))

    s.enqueue(op("a", 2.0))
    s.enqueue(op("b", 1.0))
    m.run()
    assert log == [("a", pytest.approx(2.0)), ("b", pytest.approx(3.0))]


def test_stream_start_delay_models_launch():
    m = Machine(SimConfig(world_size=1))
    s = m.stream(0)

    def op():
        return m.now
        yield  # pragma: no cover

    p = s.enqueue(op(), start_delay=5e-6)
    m.run()
    assert p.result == pytest.approx(5e-6)


def test_streams_run_concurrently():
    m = Machine(SimConfig(world_size=1))
    a, b = m.stream(0, "a"), m.stream(0, "b")
    ends = []

    def op():
        yield Timeout(1.0)
        ends.append(m.now)

    a.enqueue(op())
    b.enqueue(op())
    m.run()
    assert ends == [pytest.approx(1.0), pytest.approx(1.0)]


def test_host_launch_and_sync_cost():
    m = Machine(SimConfig(world_size=1))
    host = m.hosts[0]
    s = m.stream(0)
    spec = m.config.spec

    def kernel():
        yield Timeout(1e-3)

    def orchestrate():
        proc = yield from host.launch(s, kernel())
        yield from host.sync(proc)
        return m.now

    p = m.spawn(orchestrate())
    m.run()
    expected = spec.kernel_launch_overhead + 1e-3 + spec.host_sync_overhead
    assert p.result == pytest.approx(expected)


def test_machine_guards_reuse():
    m = Machine(SimConfig(world_size=1))
    m.run()
    with pytest.raises(SimulationError):
        m.run()


def test_machine_rank_bounds():
    m = Machine(SimConfig(world_size=2))
    with pytest.raises(SimulationError):
        m.device(2)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_merge_and_total():
    spans = [(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]
    assert merge_intervals(spans) == [(0.0, 2.0), (3.0, 4.0)]
    assert total_time(spans) == pytest.approx(3.0)


def test_intersect_time():
    a = [(0.0, 2.0), (4.0, 6.0)]
    b = [(1.0, 5.0)]
    assert intersect_time(a, b) == pytest.approx(2.0)


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), max_size=30))
@settings(max_examples=50, deadline=None)
def test_merge_intervals_properties(raw):
    spans = [(min(a, b), max(a, b)) for a, b in raw]
    merged = merge_intervals(spans)
    # disjoint and sorted
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
    # union preserved: every original span covered
    for s, e in spans:
        if e > s:
            assert any(ms <= s and e <= me for ms, me in merged)


def test_trace_overlap_and_categories():
    tr = Trace()
    tr.record(0, "compute", "gemm", 0.0, 2.0)
    tr.record(0, "comm", "ag", 1.0, 3.0)
    assert tr.busy_time("compute") == pytest.approx(2.0)
    assert tr.overlap_time("compute", "comm") == pytest.approx(1.0)
    assert tr.makespan() == pytest.approx(3.0)
    with pytest.raises(ValueError):
        tr.record(0, "nonsense", "x", 0, 1)
    assert "C" in tr.render()


def test_trace_disabled_records_nothing():
    tr = Trace(enabled=False)
    tr.record(0, "compute", "x", 0.0, 1.0)
    assert tr.intervals == []
    assert tr.render() == "(empty trace)"
