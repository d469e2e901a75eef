"""Parallel sweep runner: determinism, caching, key derivation."""

import json

import pytest

from repro import runner
from repro.experiments import fig06_auth_latency as fig06
from repro.params import SimParams


def _dumps(rows):
    return json.dumps(rows, sort_keys=True)


def test_parallel_rows_identical_to_serial(monkeypatch):
    """--jobs N must be byte-identical to --jobs 1 (same rows, same order)."""
    serial = fig06.run(quick=True, jobs=1, cache=False)
    # pretend to have cores so the clamp doesn't serialize us on 1-CPU CI,
    # and a costly point so the break-even heuristic picks the pool
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(runner, "_COST_EMA", {"fig06": 1.0})
    try:
        parallel = fig06.run(quick=True, jobs=2, cache=False)
    finally:
        runner.shutdown_pool()
    assert _dumps(serial) == _dumps(parallel)
    assert runner.LAST_STATS.jobs == 2
    assert runner.LAST_STATS.n_computed == len(serial)


def test_small_sweeps_skip_the_pool(monkeypatch):
    """Pool spin-up is skipped (and recorded as serial) when workers
    would get fewer than two points each."""
    # no cost estimate and no warm pool left by earlier tests: otherwise
    # the break-even heuristic, not the few-points rule, decides; and 16
    # cores, so the core-count clamp keeps all 16 requested workers
    # (on a 2-core host the 4 quick points would be 2 per worker)
    monkeypatch.setattr(runner, "_COST_EMA", {})
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 16)
    runner.shutdown_pool()
    rows = fig06.run(quick=True, jobs=16, cache=False)
    assert len(rows) < 2 * 16
    assert runner.LAST_STATS.jobs == 1
    assert runner.LAST_STATS.pool_decision == "serial:few-points"


def test_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    # a costly estimate keeps the break-even heuristic out of the way:
    # this test is about the core-count clamp only
    monkeypatch.setattr(runner, "_COST_EMA", {"fig06": 1.0})
    try:
        rows = fig06.run(quick=True, jobs=64, cache=False)
    finally:
        runner.shutdown_pool()
    assert rows
    assert runner.LAST_STATS.jobs == 2


def test_cache_hit_returns_identical_rows_without_resimulating(tmp_path):
    cdir = str(tmp_path / "cache")
    cold = fig06.run(quick=True, jobs=1, cache=True, cache_dir=cdir)
    stats = runner.LAST_STATS
    assert stats.n_computed == len(cold) and stats.n_cached == 0

    warm = fig06.run(quick=True, jobs=1, cache=True, cache_dir=cdir)
    stats = runner.LAST_STATS
    assert stats.n_cached == len(warm) and stats.n_computed == 0
    assert _dumps(cold) == _dumps(warm)


def test_cached_rows_really_come_from_disk(tmp_path):
    """Tamper with a cache entry; the tampered row must come back (proof
    that a hit short-circuits the simulation entirely)."""
    cdir = tmp_path / "cache"
    fig06.run(quick=True, jobs=1, cache=True, cache_dir=str(cdir))
    victim = sorted(cdir.glob("*.json"))[0]
    entry = json.loads(victim.read_text())
    entry["row"]["raw"] = -123.0
    victim.write_text(json.dumps(entry))

    rows = fig06.run(quick=True, jobs=1, cache=True, cache_dir=str(cdir))
    assert runner.LAST_STATS.n_cached == len(rows)
    assert any(r["raw"] == -123.0 for r in rows)


def test_cache_keys_depend_on_point_params_and_source():
    src = runner._module_source_hash(fig06.ID)
    k1 = runner.point_key(fig06.ID, {"size": 1024}, None, src)
    assert k1 == runner.point_key(fig06.ID, {"size": 1024}, None, src)
    assert k1 != runner.point_key(fig06.ID, {"size": 2048}, None, src)
    assert k1 != runner.point_key(fig06.ID, {"size": 1024}, SimParams(), src)
    assert k1 != runner.point_key(fig06.ID, {"size": 1024}, None, "othersrc")
    assert k1 != runner.point_key("other", {"size": 1024}, None, src)


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    cdir = tmp_path / "cache"
    fig06.run(quick=True, jobs=1, cache=True, cache_dir=str(cdir))
    for f in cdir.glob("*.json"):
        f.write_text("{not json")
    rows = fig06.run(quick=True, jobs=1, cache=True, cache_dir=str(cdir))
    assert runner.LAST_STATS.n_computed == len(rows)


def test_point_seed_is_stable():
    s = runner.point_seed("exp", {"loss": 1e-3})
    assert s == runner.point_seed("exp", {"loss": 1e-3})
    assert s != runner.point_seed("exp", {"loss": 1e-2})
    assert s != runner.point_seed("other", {"loss": 1e-3})


def test_all_converted_experiments_expose_the_point_protocol():
    from repro.experiments import REGISTRY

    converted = [eid for eid, mod in REGISTRY.items() if hasattr(mod, "run_point")]
    assert {"fig06", "fig09_latency", "fig10", "fig15_latency", "loss"} <= set(converted)
    for eid in converted:
        mod = REGISTRY[eid]
        pts = mod.points(quick=True)
        assert pts, eid
        # points must round-trip through JSON (cache + pool pickling)
        assert json.loads(json.dumps(pts)) == pts, eid


@pytest.mark.parametrize("eid", ["fig15_latency", "loss"])
def test_single_point_matches_full_sweep_row(eid):
    """run_point on the first point reproduces the first row of run()."""
    from repro.experiments import REGISTRY

    mod = REGISTRY[eid]
    rows = mod.run(quick=True, jobs=1, cache=False)
    row = runner._exec_point(eid, mod.points(quick=True)[0], None)
    assert _dumps([rows[0]]) == _dumps([row])


# ------------------------------------------------ warm pool + break-even

def test_pool_decision_and_cost_ema_recorded(monkeypatch):
    """A serial sweep records its decision and seeds the per-experiment
    cost estimate the break-even heuristic feeds on."""
    monkeypatch.setattr(runner, "_COST_EMA", {})
    fig06.run(quick=True, jobs=1, cache=False)
    assert runner.LAST_STATS.pool_decision == "serial:jobs=1"
    assert runner.LAST_STATS.est_point_s is None  # nothing known yet
    assert runner._COST_EMA["fig06"] > 0.0  # ...but now there is


def test_break_even_keeps_cheap_sweeps_serial(monkeypatch):
    """With a known tiny per-point cost, forking can never pay off: the
    sweep runs serial and says why."""
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(runner, "_COST_EMA", {"fig06": 1e-6})
    rows = fig06.run(quick=True, jobs=2, cache=False)
    assert rows
    assert runner.LAST_STATS.pool_decision == "serial:break-even"
    assert runner.LAST_STATS.jobs == 1
    assert runner.LAST_STATS.est_point_s == 1e-6


def test_warm_pool_is_reused_across_sweeps(monkeypatch):
    """The worker pool persists between run_sweep calls: the first
    parallel sweep pays the fork, the second reuses it."""
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
    # a (fake) expensive point makes the pool path the clear winner
    monkeypatch.setattr(runner, "_COST_EMA", {"fig06": 1.0})
    runner.shutdown_pool()
    try:
        fig06.run(quick=True, jobs=2, cache=False)
        assert runner.LAST_STATS.pool_decision == "pool:cold"
        assert not runner.LAST_STATS.pool_reused
        monkeypatch.setitem(runner._COST_EMA, "fig06", 1.0)
        fig06.run(quick=True, jobs=2, cache=False)
        assert runner.LAST_STATS.pool_decision == "pool:warm"
        assert runner.LAST_STATS.pool_reused
    finally:
        runner.shutdown_pool()
