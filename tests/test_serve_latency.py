"""Tests for the step-latency table (repro.serve.latency).

Most tests stub :func:`repro.models.runner.layer_time` with an analytic
fake so interpolation arithmetic can be checked exactly and the suite
stays fast; one integration test drives the real simulator at a tiny
shape.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import repro.models.runner as runner_mod
from repro.config import H800, HardwareSpec
from repro.errors import ServeError
from repro.models.configs import ModelConfig
from repro.serve.latency import (
    DEFAULT_BUCKETS,
    DEFAULT_CTX_BUCKETS,
    StepLatencyTable,
    entry_key,
    model_key,
)

TINY = ModelConfig("tiny", n_layers=4, hidden=512, heads=4, head_dim=128,
                   intermediate=2048, batch=1, seq_len=2048)
TINY_MOE = ModelConfig("tiny-moe", n_layers=4, hidden=512, heads=4,
                       head_dim=128, intermediate=2048, moe=True,
                       n_experts=4, topk=2, batch=1, seq_len=2048)
BUCKETS = (64, 128, 256)
CTX = (0, 1024)


@pytest.fixture
def fake_sim(monkeypatch):
    """Replace layer_time with an affine (tokens, kv_len) law; count
    calls.  Linear on both axes, so bilinear interpolation is exact."""
    calls = []

    def fake(model, method, world=8, seed=0, spec=None):
        calls.append((model.tokens, model.kv_len, method))
        return 1e-4 + model.tokens * 1e-6 + model.kv_len * 1e-8

    monkeypatch.setattr(runner_mod, "layer_time", fake)
    return calls


def test_ensure_simulates_once_then_memoises(tmp_path, fake_sim):
    table = StepLatencyTable(tmp_path / "lat.json")
    n = len(BUCKETS) * len(CTX)     # one sim per grid cell
    table.ensure(TINY, "tilelink", buckets=BUCKETS, ctx_buckets=CTX)
    assert len(fake_sim) == n
    table.ensure(TINY, "tilelink", buckets=BUCKETS,  # warm: no new sims
                 ctx_buckets=CTX)
    assert len(fake_sim) == n
    # a fresh handle re-reads the flushed file, still zero simulations
    again = StepLatencyTable(tmp_path / "lat.json")
    again.ensure(TINY, "tilelink", buckets=BUCKETS, ctx_buckets=CTX)
    assert len(fake_sim) == n


def test_changed_bucket_ladder_resimulates_whole_entry(tmp_path, fake_sim):
    table = StepLatencyTable(tmp_path / "lat.json")
    table.ensure(TINY, "tilelink", buckets=BUCKETS, ctx_buckets=CTX)
    table.ensure(TINY, "tilelink", buckets=(64, 128), ctx_buckets=CTX)
    assert len(fake_sim) == (len(BUCKETS) + 2) * len(CTX)
    # a differing *context* ladder also resimulates the whole entry
    table.ensure(TINY, "tilelink", buckets=(64, 128),
                 ctx_buckets=(0, 1024, 4096))
    assert len(fake_sim) == (len(BUCKETS) + 2) * len(CTX) + 2 * 3


def test_interpolation_is_exact_at_buckets_and_linear_between(
        tmp_path, fake_sim):
    table = StepLatencyTable(tmp_path / "lat.json")
    table.ensure(TINY, "tilelink", buckets=BUCKETS, ctx_buckets=CTX)
    f = table.interpolator(TINY, "tilelink")
    n = TINY.n_layers
    per_layer = lambda t, c=0: 1e-4 + t * 1e-6 + c * 1e-8  # the fake's law
    # exact at bucket points
    for b in BUCKETS:
        assert f(b) == pytest.approx(per_layer(b) * n)
    # linear in between (the fake is linear, so interpolation is exact)
    assert f(96) == pytest.approx(per_layer(96) * n)
    # flat floor below the smallest bucket
    assert f(1) == pytest.approx(per_layer(64) * n)
    # linear extrapolation above the largest
    assert f(512) == pytest.approx(per_layer(512) * n)


def test_context_axis_interpolates_and_extrapolates(tmp_path, fake_sim):
    table = StepLatencyTable(tmp_path / "lat.json")
    table.ensure(TINY, "tilelink", buckets=BUCKETS,
                 ctx_buckets=(0, 1024, 4096))
    f = table.interpolator(TINY, "tilelink")
    n = TINY.n_layers
    per_layer = lambda t, c: 1e-4 + t * 1e-6 + c * 1e-8
    # exact at the grid points
    for c in (0, 1024, 4096):
        assert f(128, c) == pytest.approx(per_layer(128, c) * n)
    # bilinear between rungs (the fake is linear on both axes -> exact),
    # including off-bucket token counts
    assert f(128, 512) == pytest.approx(per_layer(128, 512) * n)
    assert f(96, 2048) == pytest.approx(per_layer(96, 2048) * n)
    # linear extrapolation above the largest context rung
    assert f(128, 8192) == pytest.approx(per_layer(128, 8192) * n)
    # ctx=0 is the default: the one-axis form is unchanged
    assert f(128) == f(128, 0)
    # monotone in context under a monotone law
    assert f(128, 0) < f(128, 1024) < f(128, 4096) < f(128, 8192)


def test_step_time_scales_with_layer_count(tmp_path, fake_sim):
    table = StepLatencyTable(tmp_path / "lat.json")
    table.ensure(TINY, "tilelink", buckets=BUCKETS)
    deep = replace(TINY, n_layers=2 * TINY.n_layers)
    table.ensure(deep, "tilelink", buckets=BUCKETS)  # same key space entry
    assert table.step_time(deep, "tilelink", 128) == \
        pytest.approx(2 * table.step_time(TINY, "tilelink", 128))


def test_missing_entry_raises_with_refresh_pointer(tmp_path):
    table = StepLatencyTable(tmp_path / "lat.json")
    with pytest.raises(ServeError, match="refresh_latency_table"):
        table.step_time(TINY, "tilelink", 100)


def test_readonly_table_never_touches_disk(tmp_path, fake_sim):
    path = tmp_path / "lat.json"
    table = StepLatencyTable(path, readonly=True)
    table.ensure(TINY, "tilelink", buckets=BUCKETS)
    assert table.step_time(TINY, "tilelink", 128) > 0   # in-memory view
    assert not path.exists()


def test_invalid_bucket_ladder_raises(tmp_path):
    table = StepLatencyTable(tmp_path / "lat.json")
    with pytest.raises(ServeError, match="invalid bucket ladder"):
        table.ensure(TINY, "tilelink", buckets=())
    with pytest.raises(ServeError, match="invalid bucket ladder"):
        table.ensure(TINY, "tilelink", buckets=(4, 64))
    # a single bucket would leave the interpolator no segment to
    # extrapolate from — rejected at build time, not IndexError at query
    with pytest.raises(ServeError, match="invalid bucket ladder"):
        table.ensure(TINY, "tilelink", buckets=(64,))


def test_invalid_context_ladder_raises(tmp_path):
    table = StepLatencyTable(tmp_path / "lat.json")
    # the 0 rung (prefill form) is mandatory
    with pytest.raises(ServeError, match="context-bucket ladder"):
        table.ensure(TINY, "tilelink", buckets=BUCKETS,
                     ctx_buckets=(1024, 4096))
    # a single rung leaves the ctx axis no segment to extrapolate from
    with pytest.raises(ServeError, match="context-bucket ladder"):
        table.ensure(TINY, "tilelink", buckets=BUCKETS, ctx_buckets=(0,))


#: stored-entry mutations that used to raise a bare KeyError, TypeError,
#: IndexError or ValueError, or to price a step wrong without an error
MALFORMED = {
    "not-an-object": lambda e: [e["buckets"], e["layer_s"]],
    "missing-layer_s": lambda e: {k: v for k, v in e.items()
                                  if k != "layer_s"},
    "buckets-not-a-list": lambda e: {**e, "buckets": 64},
    "buckets-reversed": lambda e: {**e, "buckets": e["buckets"][::-1]},
    "buckets-below-8": lambda e: {**e, "buckets": [4, 128, 256]},
    "single-bucket": lambda e: {**e, "buckets": [64]},
    "float-bucket": lambda e: {**e, "buckets": [64.5, 128, 256]},
    "ctx-not-from-0": lambda e: {**e, "ctx_buckets": [512, 1024]},
    "row-too-short": lambda e: {**e, "layer_s": [e["layer_s"][0][:2],
                                                 e["layer_s"][1]]},
    "row-missing": lambda e: {**e, "layer_s": e["layer_s"][:1]},
    "cell-not-a-number": lambda e: {**e, "layer_s": [
        ["fast"] + e["layer_s"][0][1:], e["layer_s"][1]]},
    "cell-nan": lambda e: {**e, "layer_s": [
        e["layer_s"][0], [float("nan")] + e["layer_s"][1][1:]]},
}


@pytest.mark.parametrize("mutation", sorted(MALFORMED))
def test_malformed_entry_raises_serve_error(tmp_path, fake_sim, mutation):
    """Both readers of a stored entry (``interpolator`` and ``ensure``'s
    reuse test) raise a ServeError naming the key and the file, and
    ``ensure`` simulates nothing."""
    path = tmp_path / "lat.json"
    StepLatencyTable(path).ensure(TINY, "tilelink", buckets=BUCKETS,
                                  ctx_buckets=CTX)
    payload = json.loads(path.read_text())
    key = entry_key(TINY, "tilelink", 8, H800, 0)
    payload["entries"][key] = MALFORMED[mutation](payload["entries"][key])
    path.write_text(json.dumps(payload))
    table = StepLatencyTable(path, readonly=True)
    for read in (lambda: table.interpolator(TINY, "tilelink"),
                 lambda: table.ensure(TINY, "tilelink", buckets=BUCKETS,
                                      ctx_buckets=CTX)):
        with pytest.raises(ServeError, match="malformed") as err:
            read()
        assert key in str(err.value) and str(path) in str(err.value)
    assert len(fake_sim) == len(BUCKETS) * len(CTX)


def test_corrupt_file_reads_as_empty(tmp_path):
    path = tmp_path / "lat.json"
    path.write_text("{not json")
    assert len(StepLatencyTable(path)) == 0


def test_keys_fold_everything_that_changes_the_answer():
    base = entry_key(TINY, "tilelink", 8, H800, 0)
    assert entry_key(TINY, "torch", 8, H800, 0) != base
    assert entry_key(TINY, "tilelink", 4, H800, 0) != base
    assert entry_key(TINY, "tilelink", 8, H800, 1) != base
    assert entry_key(replace(TINY, hidden=1024), "tilelink", 8, H800, 0) \
        != base
    other = HardwareSpec(n_sms=H800.n_sms - 2)
    assert entry_key(TINY, "tilelink", 8, other, 0) != base
    # n_layers and the display name scale/label outside the table
    assert entry_key(replace(TINY, n_layers=80, name="x"), "tilelink",
                     8, H800, 0) == base
    # MoE fields join the architecture fingerprint
    assert "moe4k2" in model_key(TINY_MOE)
    assert model_key(TINY_MOE) != model_key(TINY)


def test_tuned_entry_key_folds_the_warm_cache_content(tmp_path,
                                                      monkeypatch):
    """Retuning warm_cache.json changes what tilelink-tuned simulates,
    so tuned keys must go stale with the cache content (plain methods
    must not)."""
    shipped_tuned = entry_key(TINY, "tilelink-tuned", 8, H800, 0)
    shipped_plain = entry_key(TINY, "tilelink", 8, H800, 0)
    monkeypatch.setenv("REPRO_WARM_CACHE", str(tmp_path / "absent.json"))
    assert entry_key(TINY, "tilelink-tuned", 8, H800, 0) != shipped_tuned
    assert entry_key(TINY, "tilelink-tuned", 8, H800, 0).endswith("wcnone")
    assert entry_key(TINY, "tilelink", 8, H800, 0) == shipped_plain


def test_default_buckets_are_power_of_two_and_bounded():
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
    assert all(b & (b - 1) == 0 for b in DEFAULT_BUCKETS)
    assert list(DEFAULT_CTX_BUCKETS) == sorted(set(DEFAULT_CTX_BUCKETS))
    assert DEFAULT_CTX_BUCKETS[0] == 0      # prefill form is mandatory
    # the acceptance budget: a cold build simulates well under ~50
    # build_layer points per (model, method)
    assert len(DEFAULT_BUCKETS) * len(DEFAULT_CTX_BUCKETS) <= 50


def test_real_simulator_integration(tmp_path):
    """One real entry at a tiny shape: monotone non-decreasing ladder,
    interpolation brackets the simulated bucket values, and resident
    context makes a decode step strictly more expensive."""
    table = StepLatencyTable(tmp_path / "lat.json")
    entry = table.ensure(TINY, "tilelink", buckets=(64, 128), seed=0,
                         ctx_buckets=(0, 4096))
    (t64, t128), (c64, c128) = entry["layer_s"]
    assert 0 < t64 <= t128
    assert table.step_time(TINY, "tilelink", 96) == \
        pytest.approx((t64 + t128) / 2 * TINY.n_layers)
    # a 4096-token resident cache must cost more than prefill-form
    # attention over the step's own tokens alone
    assert c64 > t64 and c128 > t128
    assert table.step_time(TINY, "tilelink", 64, ctx=4096) > \
        table.step_time(TINY, "tilelink", 64)
