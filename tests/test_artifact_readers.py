"""Every runtime reader of a persisted artifact loads a foreign value or
raises its own named error, and both ``--check`` scripts read entry
content.

Each reader gets one valid artifact and every single mutation that
writes one of the bench-schema test's ``FOREIGN`` values at one path of
it, plus each value as the whole document.  A mutant either loads or
raises the reader's named error (``ObsError``, ``TunerError`` or
``ServeError``); a bare ``KeyError``, ``TypeError``, ``IndexError``,
``ValueError`` or ``AttributeError`` fails the test.  A recording that
loads must also pass each of the four views of it or raise ``ObsError``.
"""

from __future__ import annotations

import contextlib
import copy
import json

import pytest

import repro.models.runner as runner_mod
from benchmarks import refresh_latency_table, refresh_warm_cache
from repro.config import H800
from repro.errors import ObsError, ServeError
from repro.kernels.ag_gemm import ag_gemm_tune_task
from repro.models.configs import ModelConfig
from repro.obs import (
    Recorder,
    build_metrics,
    load,
    phase_attribution,
    save_recording,
    slowest_requests,
    to_perfetto,
)
from repro.serve.kv import KVCacheConfig
from repro.serve.latency import StepLatencyTable
from repro.serve.scheduler import ServerConfig, serve
from repro.serve.workload import generate_requests
from repro.tuner import (
    TuneCache,
    TunerError,
    task_cache_key,
    tune,
    warm_tuned_config,
)
from repro.tuner import search as search_mod
from tests.conftest import AffineTable
from tests.test_validate_bench_json import FOREIGN, _paths

TINY = ModelConfig("tiny", n_layers=4, hidden=512, heads=4, head_dim=128,
                   intermediate=2048, batch=1, seq_len=2048)
TASK = ag_gemm_tune_task(512, 256, 256, world=4)
KEY = task_cache_key(TASK, world=4, spec=H800)
BUCKETS = (64, 128, 256)
CTX = (0, 1024)


def _first_of_each_kind(rows: list, kind) -> list:
    seen, kept = set(), []
    for row in rows:
        if kind(row) not in seen:
            seen.add(kind(row))
            kept.append(row)
    return kept


def _serve_recording(path) -> None:
    """A complete pooled serving run of six requests."""
    recorder = Recorder()
    serve(generate_requests("chat", 6, seed=5), TINY, "tilelink",
          AffineTable(), ServerConfig(max_batch=8),
          kv=KVCacheConfig(block_tokens=16, pool_blocks=40,
                           admission="naive", victim="longest-context"),
          recorder=recorder)
    recorder.save(path)


def _sim_recording(path) -> None:
    """A traced kernel simulation's first interval of each category."""
    from repro.obs.__main__ import main as obs_main

    obs_main(["record", "--kind", "sim", "--out", str(path)])
    rec = load(path)
    save_recording(path, kind="sim", meta=rec.meta, intervals=(
        _first_of_each_kind(rec.intervals, lambda iv: iv[1])))


def _load_and_view(path) -> None:
    """Load a recording and run each view of it; a view may raise only
    ``ObsError``."""
    rec = load(path)
    for view in (phase_attribution, slowest_requests, build_metrics,
                 to_perfetto):
        with contextlib.suppress(ObsError):
            view(rec)


def _tuner_cache(path) -> None:
    tune(TASK, world=4, cache=TuneCache(path))


def _latency_table(path) -> None:
    StepLatencyTable(path).ensure(TINY, "tilelink", buckets=BUCKETS,
                                  ctx_buckets=CTX)


#: reader -> (artifact writer, read, the reader's named error)
READERS = {
    "obs.load (serve)": (_serve_recording, _load_and_view, ObsError),
    "obs.load (sim)": (_sim_recording, _load_and_view, ObsError),
    "tune() cache hit": (
        _tuner_cache,
        lambda path: tune(TASK, world=4, cache=TuneCache(path)),
        TunerError),
    "warm_tuned_config": (
        _tuner_cache,
        lambda path: warm_tuned_config(TuneCache(path, readonly=True), TASK,
                                       world=4, spec=H800),
        TunerError),
    "StepLatencyTable.interpolator": (
        _latency_table,
        lambda path: StepLatencyTable(path, readonly=True).interpolator(
            TINY, "tilelink")(1000, 2048),
        ServeError),
    "StepLatencyTable.ensure reuse": (
        _latency_table,
        lambda path: StepLatencyTable(path, readonly=True).ensure(
            TINY, "tilelink", buckets=BUCKETS, ctx_buckets=CTX),
        ServeError),
}


@pytest.fixture
def fake_sims(monkeypatch):
    """A cache miss or a resimulated entry costs no simulation."""
    monkeypatch.setattr(search_mod, "_simulate",
                        lambda task, cand, *, world, spec: 1e-5)
    monkeypatch.setattr(runner_mod, "layer_time",
                        lambda model, method, **kw: 1e-4 + model.tokens * 1e-6)


def _mutants(doc):
    yield from FOREIGN
    for path, key in _paths(doc):
        for value in FOREIGN:
            mutant = copy.deepcopy(doc)
            target = mutant
            for step in path:
                target = target[step]
            target[key] = value
            yield mutant


@pytest.mark.parametrize("reader", READERS)
def test_foreign_values_load_or_raise_the_named_error(reader, tmp_path,
                                                      fake_sims):
    write, read, error = READERS[reader]
    path = tmp_path / "artifact.json"
    write(path)
    doc = json.loads(path.read_text())
    read(path)                                  # the valid artifact loads
    n_raised = 0
    for mutant in _mutants(doc):
        path.write_text(json.dumps(mutant))
        try:
            read(path)
        except error:
            n_raised += 1
    assert n_raised > 0


@pytest.mark.parametrize("script, shipped, mutate", [
    pytest.param(refresh_latency_table, "latency_table.json",
                 lambda e: {**e, "layer_s": [e["layer_s"][0][:3],
                                             *e["layer_s"][1:]]},
                 id="latency-table-short-row"),
    pytest.param(refresh_latency_table, "latency_table.json",
                 lambda e: [e["buckets"], e["layer_s"]],
                 id="latency-table-list-entry"),
    pytest.param(refresh_warm_cache, "warm_cache.json",
                 lambda e: {**e, "best": {"bogus": 1}},
                 id="warm-cache-bogus-best"),
    pytest.param(refresh_warm_cache, "warm_cache.json",
                 lambda e: [e["best"]], id="warm-cache-list-entry"),
])
def test_check_rejects_a_malformed_first_entry(script, shipped, mutate,
                                               tmp_path, capsys):
    payload = json.loads((script.DEFAULT_PATH.parent / shipped).read_text())
    key = min(payload["entries"])
    payload["entries"][key] = mutate(payload["entries"][key])
    path = tmp_path / shipped
    path.write_text(json.dumps(payload))
    assert script.main(["--check", "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert "MALFORMED" in err and key in err and str(path) in err
