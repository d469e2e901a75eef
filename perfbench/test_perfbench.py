"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench/test_perfbench.py`` (about a minute).  The equivalence tests
hold each workload equal to the repo entry point it mirrors, so the
benchmark times the repo's workloads and not a fork.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hostspeed as H  # noqa: E402
import layers as L  # noqa: E402
import workloads as W  # noqa: E402
from repro.dfs.cluster import build_testbed  # noqa: E402
from repro.dfs.layout import ReplicationSpec  # noqa: E402
from repro.protocols import install_spin_targets  # noqa: E402
from repro.scenarios.matrix import run_scenario  # noqa: E402
from repro.workloads import closed_loop_write_load  # noqa: E402

SEED = 5


def test_million_users_matches_run_scenario():
    measure, warmup = 0.3e9, 0.05e9
    row = run_scenario(W.million_users_spec(measure, warmup), SEED)
    s = W.run_million_users(SEED, measure_ns=measure, warmup_ns=warmup)
    assert s.measured_ops > 100
    assert s.schedule_digest[:16] == row["schedule_digest"]
    assert s.attempted == row["issued"]
    assert s.measured_ops == row["ops"]
    assert s.sim_p50_ns == row["p50_ns"]
    assert s.sim_p99_ns == row["p99_ns"]
    assert all(s.checks.values()), s.checks


def test_bulk_replicated_matches_closed_loop_write_load():
    measure = 40_000.0
    tb = build_testbed(n_storage=8, n_clients=4)
    install_spin_targets(tb)
    ref = closed_loop_write_load(
        tb, W.BULK_SIZE, "spin", W.bulk_load_spec(SEED, measure),
        replication=ReplicationSpec(k=3),
    )
    s = W.run_bulk_replicated(SEED, measure_ns=measure)
    assert s.measured_ops > 20
    assert s.attempted == ref.issued
    assert s.measured_ops == ref.ops
    assert s.sim_p50_ns == ref.latency["p50"]
    assert s.sim_p99_ns == ref.latency["p99"]
    assert s.sim_goodput_gbps == ref.goodput_gbps
    assert s.completed == s.attempted and s.failed == 0
    assert all(s.checks.values()), s.checks


def test_mixed_slice_checks_pass_and_repeat_exactly():
    a = W.run_mixed_rw_lossy(SEED, measure_ns=150_000.0)
    b = W.run_mixed_rw_lossy(SEED, measure_ns=150_000.0)
    assert all(a.checks.values()), a.checks
    assert a.sim_key() == b.sim_key()
    # the loss campaign is live: something was retransmitted
    nics = [h.nic for h in a.testbed.storage_nodes + a.testbed.clients]
    assert sum(n.retransmits for n in nics) > 0


def test_seed_changes_the_schedule():
    a = W.run_bulk_replicated(1, measure_ns=20_000.0)
    b = W.run_bulk_replicated(2, measure_ns=20_000.0)
    assert a.schedule_digest != b.schedule_digest


@pytest.mark.parametrize("workload", ["bulk_replicated", "mixed_rw_lossy"])
def test_setup_trial_stops_at_first_issue(workload):
    setup_s = W.setup_trial(workload, SEED)
    assert 0.0 < setup_s < 5.0


def test_tracer_accounts_for_host_time():
    with L.Tracer() as tracer:
        s = W.run_bulk_replicated(SEED, measure_ns=20_000.0)
    packets = sum(p.tx_packets for p in L.all_ports(s.testbed))
    out = L.trace_metrics(tracer, [s], packets, untraced_rps=s.requests_per_s)
    assert out["layers.accounted_share"] >= 0.9
    shares = [out[f"{x}.self_share"] for x in L.LAYER_NAMES]
    total = sum(shares) + out["bench.self_share"] + out["other.self_share"]
    assert total == pytest.approx(1.0)
    assert 0.0 < out["simnet.link.train_packet_frac"] <= 1.0
    assert out["simnet.engine.calls_per_request"] > 0


def test_hostspeed_clock_samples_and_stops():
    before = signal.getsignal(signal.SIGALRM)
    H.start()
    try:
        a = H.now()
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
        b = H.now()
    finally:
        info = H.stop()
    # five calibration samples, then one per period of the 0.2-s loop
    assert info["speed_samples"] >= 5 + 4
    assert 0.0 < b - a < 10.0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert abs(H.now() - time.perf_counter()) < 1.0


def test_layer_of_maps_modules():
    assert L._layer_of("/x/src/repro/simnet/link.py") == "simnet.link"
    assert L._layer_of("/x/src/repro/simnet/trace.py") == "telemetry"
    assert L._layer_of("/x/src/repro/pspin/isa.py") == "pspin.accelerator"
    assert L._layer_of("/x/src/repro/params.py") == "other"
    assert L._layer_of("~") is None
    assert L._layer_of(os.path.join(HERE, "workloads.py")) == "bench"


def test_command_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, the command must exit
    non-zero and print no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "million_users",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    for line in p.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
