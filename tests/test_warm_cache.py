"""Tests for the shipped warm cache and the tuned-by-default bench columns.

``benchmarks/warm_cache.json`` is a checked-in tuner cache covering the
Figure-8 MLP, Table-4 MoE and Figure-10 attention shape tables; when it
resolves, the ``*_builders`` in :mod:`repro.bench.experiments` grow a
TileLink-tuned column *by default* and every tuned-column lookup at
bench time is a warm hit — zero simulations.
``benchmarks/refresh_warm_cache.py --check`` is the CI staleness
tripwire; the tests here are its tier-1 shadow.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from benchmarks import refresh_warm_cache
from repro.bench import experiments
from repro.bench.experiments import (
    ag_gemm_builders,
    attention_builders,
    attention_sweep_tasks,
    gemm_rs_builders,
    mlp_sweep_tasks,
    moe_part1_builders,
    moe_part2_builders,
    moe_sweep_tasks,
)
from repro.bench.harness import run_builder
from repro.config import H800
from repro.kernels.ag_gemm import ag_gemm_tune_task
from repro.models.configs import ATTENTION_BENCHES, MLP_BENCHES, MOE_BENCHES
from repro.tuner import TuneCache, task_cache_key, tune
from repro.tuner.warm import (
    ENV_WARM_CACHE,
    resolve_warm_cache,
    tuned_config,
    warm_cache_path,
)

WORLD = 8

#: the 32 paper tables with a TileLink-tuned column, as (builders, args):
#: both MLP halves at each Figure-8 shape, both MoE parts at each Table-4
#: shape and attention at each Figure-10 shape and sequence length
TUNED_TABLES = (
    [(fn, (shape,)) for fn in (ag_gemm_builders, gemm_rs_builders)
     for shape in MLP_BENCHES]
    + [(fn, (shape,)) for fn in (moe_part1_builders, moe_part2_builders)
       for shape in MOE_BENCHES]
    + [(attention_builders, (shape, seq_len)) for shape in ATTENTION_BENCHES
       for seq_len in shape.seq_lens])


def test_warm_cache_ships_and_covers_the_paper_tables():
    """The checked-in cache must hold a current-fingerprint entry for
    every Figure-8 MLP, Table-4 MoE and Figure-10 attention tuning task,
    and no other (else it is stale — CI runs refresh_warm_cache.py
    --check for the same contract)."""
    cache = resolve_warm_cache()
    assert cache is not None, \
        f"{warm_cache_path()} must ship with the repo"
    assert cache.readonly
    tasks = (mlp_sweep_tasks(MLP_BENCHES, world=WORLD)
             + moe_sweep_tasks(MOE_BENCHES, world=WORLD)
             + attention_sweep_tasks(ATTENTION_BENCHES, world=WORLD))
    expected = {task_cache_key(task, world=WORLD, spec=H800): name
                for name, task in tasks}
    missing = [name for key, name in expected.items() if key not in cache]
    assert not missing, f"warm cache is stale; missing: {missing}"
    orphaned = sorted(set(cache.keys()) - set(expected))
    assert not orphaned, f"warm cache holds orphaned keys: {orphaned}"


def test_warm_cache_resolution_performs_zero_simulations():
    shape = MLP_BENCHES[0]
    task = ag_gemm_tune_task(shape.s, shape.i // WORLD, shape.h, world=WORLD)
    res = tune(task, world=WORLD, cache=resolve_warm_cache())
    assert res.from_cache and res.n_simulated == 0
    assert res.best_time <= res.default_time


def test_builders_default_to_tuned_column_when_warm(monkeypatch):
    """Every paper table grows a TileLink-tuned column by default, and
    the keys those columns look up are exactly the shipped cache's."""
    looked_up = set()

    def recording(retune, cfg, cache, *, world, spec, **kw):
        task = retune(cfg, world=world, spec=spec)
        looked_up.add(task_cache_key(task, world=world, spec=spec))
        return tuned_config(retune, cfg, cache, world=world, spec=spec, **kw)

    monkeypatch.setattr(experiments, "tuned_config", recording)
    assert len(TUNED_TABLES) == 32
    for builders_fn, args in TUNED_TABLES:
        builders = builders_fn(*args, WORLD)       # tuned=None -> auto
        assert "TileLink-tuned" in builders, (builders_fn.__name__, args)
    assert looked_up == set(resolve_warm_cache().keys())
    # explicit opt-out still wins
    assert "TileLink-tuned" not in ag_gemm_builders(MLP_BENCHES[0], WORLD,
                                                    tuned=False)


def test_tuned_column_resolves_without_simulating():
    """The auto-enabled column runs the tuned config straight from the
    warm cache: never slower than the paper-config TileLink column."""
    from repro.bench.harness import run_builder

    builders = moe_part2_builders(MOE_BENCHES[0], WORLD)
    t_paper = run_builder(builders["TileLink"], world=WORLD)
    t_tuned = run_builder(builders["TileLink-tuned"], world=WORLD)
    assert t_tuned <= t_paper * 1.001


def test_auto_tuned_column_never_simulates_on_runtime_mismatch(monkeypatch):
    """The auto probe keys on the builder world + H800, but the closure
    launches at ctx world/spec: on a runtime key miss it must fall back
    to the paper config, never tune inside the timed bench."""
    from repro.bench.harness import run_builder
    from repro.tuner import search

    builders = ag_gemm_builders(MLP_BENCHES[0], WORLD)   # probed at world=8
    assert "TileLink-tuned" in builders

    def boom(*args, **kwargs):
        raise AssertionError("the tuner simulated on a warm-cache miss")

    monkeypatch.setattr(search, "_simulate", boom)
    # world=4 has no warm entry: the tuned builder must still run (paper
    # config) without ever reaching a tuner simulation
    t_tuned = run_builder(builders["TileLink-tuned"], world=4)
    t_paper = run_builder(builders["TileLink"], world=4)
    assert t_tuned == pytest.approx(t_paper)


def test_missing_warm_cache_disables_auto_columns(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_WARM_CACHE, str(tmp_path / "nope.json"))
    assert resolve_warm_cache() is None
    builders = ag_gemm_builders(MLP_BENCHES[0], WORLD)
    assert "TileLink-tuned" not in builders


def test_foreign_shape_keeps_untuned_columns(monkeypatch):
    """A shape the warm cache does not cover must not enable the column
    (enabling it would simulate at bench time)."""
    from repro.models.configs import MlpShape

    odd = MlpShape("odd", 2048, 512, 2048, "not-in-the-tables")
    builders = ag_gemm_builders(odd, WORLD)
    assert "TileLink-tuned" not in builders


def test_shape_outside_the_tuner_space_keeps_untuned_columns():
    """Per-rank rows below every searchable tile leave the tuner's space
    empty, so the shape can have no cache entry: the default builders
    keep their untuned columns instead of raising TunerError."""
    from repro.models.configs import MlpShape

    tiny_mlp = MlpShape("tiny", 64, 128, 512, "below-every-tile")
    tiny_moe = replace(MOE_BENCHES[0], s=64)
    for builders_fn, shape in ((ag_gemm_builders, tiny_mlp),
                               (gemm_rs_builders, tiny_mlp),
                               (moe_part1_builders, tiny_moe),
                               (moe_part2_builders, tiny_moe)):
        columns = list(builders_fn(shape, WORLD))       # tuned=None
        assert columns == list(builders_fn(shape, WORLD, tuned=False))
        assert "TileLink-tuned" not in columns


# ---------------------------------------------------------------------------
# Figure-10 attention: the same warm-cache contract as Figures 8/9
# ---------------------------------------------------------------------------

def test_attention_builders_default_to_tuned_column_when_warm():
    shape, seq_len = ATTENTION_BENCHES[0], ATTENTION_BENCHES[0].seq_lens[0]
    builders = attention_builders(shape, seq_len, WORLD)  # tuned=None
    assert "TileLink-tuned" in builders
    # explicit opt-out still wins
    assert "TileLink-tuned" not in attention_builders(shape, seq_len, WORLD,
                                                      tuned=False)


def test_attention_tuned_column_resolves_without_simulating(monkeypatch):
    """The auto-enabled Figure-10 column runs the tuned config straight
    from the warm cache — zero bench-time simulations (the tuner's
    simulate step is never reached), never slower than the paper-config
    TileLink."""
    from repro.bench.harness import run_builder
    from repro.tuner import search

    shape, seq_len = ATTENTION_BENCHES[0], ATTENTION_BENCHES[0].seq_lens[0]
    builders = attention_builders(shape, seq_len, WORLD)

    def boom(*args, **kwargs):
        raise AssertionError("the tuner simulated inside the timed bench")

    monkeypatch.setattr(search, "_simulate", boom)
    t_paper = run_builder(builders["TileLink"], world=WORLD)
    t_tuned = run_builder(builders["TileLink-tuned"], world=WORLD)
    assert t_tuned <= t_paper * 1.001


def test_attention_auto_column_never_simulates_on_runtime_mismatch(
        monkeypatch):
    """Runtime world/spec diverging from the build-time probe must fall
    back to the paper config, never tune inside the timed bench."""
    from repro.bench.harness import run_builder
    from repro.tuner import search

    shape, seq_len = ATTENTION_BENCHES[0], ATTENTION_BENCHES[0].seq_lens[0]
    builders = attention_builders(shape, seq_len, WORLD)  # probed at world=8
    assert "TileLink-tuned" in builders

    def boom(*args, **kwargs):
        raise AssertionError("the tuner simulated on a warm-cache miss")

    monkeypatch.setattr(search, "_simulate", boom)
    # world=4 has no warm entry: still runs, on the paper config
    t_tuned = run_builder(builders["TileLink-tuned"], world=4)
    t_paper = run_builder(builders["TileLink"], world=4)
    assert t_tuned == pytest.approx(t_paper)


def test_foreign_seq_len_keeps_untuned_attention_columns():
    """A sequence length outside the Figure-10 sweep must not enable the
    column (enabling it would simulate at bench time)."""
    shape = ATTENTION_BENCHES[0]
    assert 8192 not in shape.seq_lens
    builders = attention_builders(shape, 8192, WORLD)
    assert "TileLink-tuned" not in builders


def test_missing_warm_cache_disables_attention_auto_column(tmp_path,
                                                           monkeypatch):
    monkeypatch.setenv(ENV_WARM_CACHE, str(tmp_path / "nope.json"))
    shape, seq_len = ATTENTION_BENCHES[0], ATTENTION_BENCHES[0].seq_lens[0]
    assert "TileLink-tuned" not in attention_builders(shape, seq_len, WORLD)


def test_warm_cache_file_is_never_written_by_benches():
    path = warm_cache_path()
    if not path.is_file():
        pytest.skip("warm cache not shipped in this checkout")
    before = path.read_bytes()
    cache = resolve_warm_cache()
    cache.put("scratch", {"block_m": 128}, 1.0)
    assert path.read_bytes() == before


def test_check_replays_every_winner_bit_for_bit(tmp_path, monkeypatch,
                                                capsys):
    """``--check`` re-simulates each stored winner: a ``time_s`` one ulp
    off fails and names the entry; the true time passes."""
    task = ag_gemm_tune_task(1024, 128, 128, world=WORLD)
    monkeypatch.setattr(refresh_warm_cache, "expected_tasks",
                        lambda: [("tiny/ag_gemm", task)])
    key = task_cache_key(task, world=WORLD, spec=H800)
    true = run_builder(task.make_builder(task.default), world=WORLD)
    for stored, code in ((math.nextafter(true, math.inf), 1), (true, 0)):
        path = tmp_path / f"{code}.json"
        TuneCache(path).put(key, task.default, stored)
        assert refresh_warm_cache.main(["--check", "--out", str(path)]) \
            == code
    err = capsys.readouterr().err
    assert (f"STALE: tiny/ag_gemm: stored time_s "
            f"{math.nextafter(true, math.inf)!r}, replays to {true!r}") in err
