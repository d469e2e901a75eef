"""The benchmark's three workloads, driven through the public API.

Each ``run_<workload>(seed)`` call is one *slice*: it builds a fresh
testbed, installs the sPIN targets, creates the namespace, drives the
repo's own load engine (``run_open_loop`` or ``run_closed_loop``) with a
benchmark-owned ``issue`` callback, checks the outputs and returns a
:class:`Slice`.  Everything simulated is a function of the seed, so the
``sim_*`` figures and the schedule digest of two slices with one seed
are identical; the host timings are what varies.

The ``issue`` callback is the only place the benchmark touches the
request stream.  It stamps the host clock at its first call (the end of
set-up), counts attempted requests, folds each request into a schedule
digest and times the last completion.  ``test_perfbench.py`` holds the
workloads equal to ``repro.scenarios.run_scenario`` and
``closed_loop_write_load``, so the benchmark times the repo's workloads
and not a fork of them.

Why each workload exists, and which layer it loads, is in
``RATIONALE.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.dfs.client import DfsClient
from repro.dfs.cluster import build_testbed
from repro.dfs.layout import EcSpec, ReplicationSpec
from repro.params import MiB, SimParams
from repro.protocols import install_spin_targets
from repro.scenarios import builtin
from repro.workloads import LoadSpec, payload_bytes, run_closed_loop, run_open_loop
from repro.workloads.streams import TAG_OBJ, u01

import hostspeed

KiB = 1024

#: draw tag of the op-kind stream in ``mixed_rw_lossy`` (distinct from
#: the tags the repo's engines use, so no stream is shared)
TAG_KIND = 0x6B696E00

_STAMP = struct.Struct("<dqqq")

# ------------------------------------------------------------------ sizes
# Each measure window holds at least 1,000 completed ops, so that the
# p99 has at least ten samples beyond it.

#: million_users: simulated window after the 0.2-s warm-up (~1,250 ops/s)
MU_WARMUP_NS = 0.2e9
MU_MEASURE_NS = 3.0e9
MU_MAX_BYTES = 64 * KiB

#: bulk_replicated: 64 KiB r=3 ring writes, ~1,500 measured ops per ms
BULK_SIZE = 64 * KiB
BULK_WARMUP_NS = 20_000.0
BULK_MEASURE_NS = 600_000.0
#: mean think time between a client's ops.  Small against the ~11 us
#: op latency, so the wire stays saturated; non-zero, so the seed sets
#: the start stagger and the interleaving of the clients.
BULK_THINK_NS = 500.0

#: mixed_rw_lossy: 16 KiB objects, 60/20/20 read/replicated/EC mix
MIX_SIZE = 16 * KiB
MIX_WARMUP_NS = 50_000.0
MIX_MEASURE_NS = 6_000_000.0
MIX_THINK_NS = 5_000.0
MIX_LOSS = 1e-3
MIX_REP_OBJECTS = 2      # r=3 objects per client (read and written)
MIX_EC_OBJECTS = 1       # RS(4,2) objects per client (written)


@dataclass
class Slice:
    """One set-up plus measured run of a workload.  Its timings are in
    the seconds of ``hostspeed.now``, except ``took_s``."""

    #: workload start -> first ``issue`` call
    setup_s: float
    #: workload start -> the load engine is entered (testbed, targets,
    #: namespace, capabilities)
    dfs_setup_s: float
    #: load engine entered -> first ``issue`` call
    workload_start_s: float
    #: first ``issue`` call -> last completion
    run_s: float
    #: raw host seconds of the whole slice, output checks included
    took_s: float
    attempted: int
    completed: int
    failed: int
    #: ops completing inside the measure window, and their statistics
    measured_ops: int
    sim_p50_ns: float
    sim_p99_ns: float
    sim_goodput_gbps: float
    schedule_digest: str
    checks: Dict[str, bool] = field(default_factory=dict)
    testbed: Any = None
    phase_latency: Optional[Dict[str, dict]] = None

    @property
    def requests_per_s(self) -> float:
        return self.completed / self.run_s

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted

    def sim_key(self) -> tuple:
        """Everything that must repeat exactly for one seed."""
        return (
            self.schedule_digest, self.attempted, self.completed, self.failed,
            self.measured_ops, self.sim_p50_ns, self.sim_p99_ns,
            self.sim_goodput_gbps,
        )


class SetupDone(Exception):
    """Raised by the first ``issue`` call of a set-up-only trial."""

    def __init__(self, setup_s: float) -> None:
        super().__init__(setup_s)
        self.setup_s = setup_s


class _Issue:
    """Host-side bookkeeping around the benchmark's ``issue`` callback.

    Set-up and run times are read from ``hostspeed.now`` (reference
    seconds, once ``run.py`` has started the sampler); ``took_s`` is raw
    host time, which is what the run's time budget is spent in."""

    def __init__(self, setup_only: bool = False) -> None:
        self.raw_start = time.perf_counter()
        self.t_start = hostspeed.now()
        self.setup_only = setup_only
        self.t_engine = self.t_start
        self.t_first: Optional[float] = None
        self.t_last = self.t_start
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def engine_entered(self) -> None:
        self.t_engine = hostspeed.now()

    def track(self, ev, stamp: tuple,
              on_done: Optional[Callable[[Any], None]] = None):
        if self.t_first is None:
            self.t_first = hostspeed.now()
            if self.setup_only:
                raise SetupDone(self.t_first - self.t_start)
        self.attempted += 1
        self.digest.update(_STAMP.pack(*stamp))

        def done(e) -> None:
            self.completed += 1
            if not getattr(e.value, "ok", True):
                self.failed += 1
            elif on_done is not None:
                on_done(e.value)
            self.t_last = hostspeed.now()

        ev.add_callback(done)
        return ev

    def timings(self) -> Dict[str, float]:
        """Host timings of the slice; call it last, after the checks."""
        assert self.t_first is not None, "the workload issued nothing"
        return {
            "setup_s": self.t_first - self.t_start,
            "dfs_setup_s": self.t_engine - self.t_start,
            "workload_start_s": self.t_first - self.t_engine,
            "run_s": self.t_last - self.t_first,
            "took_s": time.perf_counter() - self.raw_start,
        }


def _slice(clock: _Issue, res, digest: str, checks: Dict[str, bool],
           tb) -> Slice:
    """Assemble a slice from the load engine's result (an
    ``OpenLoopResult`` or a ``LoadResult``)."""
    return Slice(
        **clock.timings(),
        attempted=clock.attempted, completed=clock.completed,
        failed=clock.failed, measured_ops=res.ops,
        sim_p50_ns=float(res.latency["p50"]),
        sim_p99_ns=float(res.latency["p99"]),
        sim_goodput_gbps=res.goodput_gbps, schedule_digest=digest,
        checks=checks, testbed=tb, phase_latency=res.phase_latency,
    )


# ---------------------------------------------------------- million_users
def million_users_spec(measure_ns: float = MU_MEASURE_NS,
                       warmup_ns: float = MU_WARMUP_NS):
    """The builtin ``hot_shard_1m`` scenario cut to a short window, with
    the size clamp raised from 16 KiB to ``MU_MAX_BYTES``.

    Nothing queues at this load, so a request's latency is a function of
    its size alone.  Under the 16 KiB clamp 2.4% of the requests are
    exactly 16 KiB, and the p99 is the latency of that one size for
    every seed.  With the clamp at 64 KiB the p99 falls in the
    lognormal tail (about 21 KiB) and measures it."""
    spec = builtin.get("hot_shard_1m")
    wl = dataclasses.replace(
        spec.workload, warmup_ns=warmup_ns, measure_ns=measure_ns,
        size=dataclasses.replace(spec.workload.size, max_bytes=MU_MAX_BYTES),
    )
    return dataclasses.replace(spec, workload=wl)


def run_million_users(seed: int, measure_ns: float = MU_MEASURE_NS,
                      warmup_ns: float = MU_WARMUP_NS,
                      setup_only: bool = False) -> Slice:
    """Open loop: 10^6 Poisson users writing a pinned Zipf namespace."""
    spec = million_users_spec(measure_ns, warmup_ns)
    # the builtin spec is fault-free, telemetry-off, unreplicated spin
    assert spec.protocol == "spin" and spec.replication_k == 1
    assert spec.faults.loss == 0.0 and spec.faults.kill_node_index is None
    wl = dataclasses.replace(spec.workload, seed=seed)
    size_max = wl.size.max_bytes

    clock = _Issue(setup_only)
    params = dataclasses.replace(
        SimParams(), storage_capacity_bytes=spec.topology.storage_mib * MiB
    )
    tb = build_testbed(
        n_storage=spec.topology.n_storage,
        n_clients=spec.topology.n_clients,
        params=params,
        telemetry=spec.telemetry,
        placement=spec.topology.placement,
    )
    install_spin_targets(tb)
    n_hosts = len(tb.clients)
    endpoints = [
        DfsClient(tb, client_index=h, principal=f"open{h}") for h in range(n_hosts)
    ]
    md = tb.metadata
    pin_node = md.nodes[spec.pin_node_index]
    paths: List[str] = []
    for i in range(wl.popularity.n_objects):
        path = f"/ol/{i}"
        pin = [pin_node] if i < spec.pin_top else None
        md.create(path, size=size_max, pin_nodes=pin)
        for ep in endpoints:
            ep.open(path)
        paths.append(path)
    payload = payload_bytes(size_max, seed=seed)
    widest: Dict[int, int] = {}   # object -> largest size written to it

    def issue(cid: int, n: int, obj: int, size: int):
        if size > widest.get(obj, 0):
            widest[obj] = size
        ev = endpoints[cid % n_hosts].write(
            paths[obj], payload[:size], protocol="spin"
        )
        return clock.track(ev, (tb.sim.now, cid, n, obj))

    clock.engine_entered()
    res = run_open_loop(tb, issue, wl)

    checks = _common_checks(clock, res.quiesced, res.issued, fault_free=True)
    # every write puts payload[:size] at offset 0, so whatever the order,
    # an object holds payload[:widest] once the run has drained
    checks["written_bytes_match"] = all(
        np.array_equal(endpoints[0].read_back(paths[o])[:w], payload[:w])
        for o, w in widest.items()
    )
    checks["sampled_reads_match"] = _sampled_reads([
        (endpoints[0], paths[o], w, payload[:w])
        for o, w in sorted(widest.items())[:8]
    ])
    return _slice(clock, res, res.schedule_digest, checks, tb)


# -------------------------------------------------------- bulk_replicated
def bulk_load_spec(seed: int, measure_ns: float = BULK_MEASURE_NS) -> LoadSpec:
    return LoadSpec(
        n_clients=8, outstanding=2, think_ns=BULK_THINK_NS, think_jitter=True,
        warmup_ns=BULK_WARMUP_NS, measure_ns=measure_ns, seed=seed,
    )


def run_bulk_replicated(seed: int, measure_ns: float = BULK_MEASURE_NS,
                        setup_only: bool = False) -> Slice:
    """Closed loop: 8 clients x 2 outstanding 64 KiB r=3 ring writes."""
    spec = bulk_load_spec(seed, measure_ns)
    rep = ReplicationSpec(k=3)
    clock = _Issue(setup_only)
    tb = build_testbed(n_storage=8, n_clients=4)
    install_spin_targets(tb)
    n_hosts = len(tb.clients)
    endpoints = [
        DfsClient(tb, client_index=c % n_hosts, principal=f"load{c}")
        for c in range(spec.n_clients)
    ]
    data = payload_bytes(BULK_SIZE, seed=seed)
    paths = []
    for c, ep in enumerate(endpoints):
        path = f"/load/c{c}"
        ep.create(path, size=BULK_SIZE * 2, replication=rep)
        paths.append(path)

    def issue(cid: int, i: int):
        ev = endpoints[cid].write(paths[cid], data, protocol="spin")
        return clock.track(ev, (tb.sim.now, cid, i, 0))

    clock.engine_entered()
    res = run_closed_loop(tb, issue, spec, op_bytes=BULK_SIZE)

    checks = _common_checks(clock, res.quiesced, res.issued, fault_free=True)
    checks["replicas_identical"] = all(
        _replicas_hold(tb, paths[c], data) for c in range(spec.n_clients)
    )
    checks["sampled_reads_match"] = _sampled_reads(
        [(ep, paths[c], BULK_SIZE, data) for c, ep in enumerate(endpoints)],
        rotate=rep.k,
    )
    return _slice(clock, res, clock.digest.hexdigest(), checks, tb)


# --------------------------------------------------------- mixed_rw_lossy
def run_mixed_rw_lossy(seed: int, measure_ns: float = MIX_MEASURE_NS,
                       setup_only: bool = False) -> Slice:
    """Closed loop under seeded loss: 60% spin reads of r=3 objects (the
    serving replica rotates), 20% r=3 writes, 20% RS(4,2) writes."""
    spec = LoadSpec(
        n_clients=16, outstanding=1, think_ns=MIX_THINK_NS, think_jitter=True,
        warmup_ns=MIX_WARMUP_NS, measure_ns=measure_ns, seed=seed,
        allow_failures=True,
    )
    rep, ec = ReplicationSpec(k=3), EcSpec(k=4, m=2)
    clock = _Issue(setup_only)
    params = SimParams().with_faults(seed=seed, loss_prob=MIX_LOSS, retransmit=True)
    tb = build_testbed(n_storage=8, n_clients=4, params=params, telemetry=True)
    install_spin_targets(tb)
    n_hosts = len(tb.clients)
    endpoints = [
        DfsClient(tb, client_index=c % n_hosts, principal=f"mix{c}")
        for c in range(spec.n_clients)
    ]
    rep_paths: List[List[str]] = []
    ec_paths: List[List[str]] = []
    for c, ep in enumerate(endpoints):
        rp = [f"/mix/c{c}/r{j}" for j in range(MIX_REP_OBJECTS)]
        epth = [f"/mix/c{c}/e{j}" for j in range(MIX_EC_OBJECTS)]
        for p in rp:
            ep.create(p, size=MIX_SIZE, replication=rep)
        for p in epth:
            ep.create(p, size=MIX_SIZE, ec=ec)
        rep_paths.append(rp)
        ec_paths.append(epth)
    # versions are 16 KiB windows of one buffer, at 512-byte steps
    source = payload_bytes(2 * MIX_SIZE, seed=seed)
    zeros = np.zeros(MIX_SIZE, dtype=np.uint8)
    current: Dict[str, np.ndarray] = {}   # path -> last acknowledged bytes
    bad_reads: List[str] = []

    def issue(cid: int, i: int):
        ep = endpoints[cid]
        u_kind = u01(seed, cid, i, TAG_KIND)
        u_obj = u01(seed, cid, i, TAG_OBJ)
        if u_kind < 0.6:
            path = rep_paths[cid][int(u_obj * MIX_REP_OBJECTS)]
            want = current.get(path, zeros)

            def check(out, path=path, want=want) -> None:
                if not np.array_equal(out.data, want):
                    bad_reads.append(path)

            ev = ep.read(path, 0, MIX_SIZE, replica=i % rep.k)
            return clock.track(ev, (tb.sim.now, cid, i, 0), check)
        if u_kind < 0.8:
            kind, path = 1, rep_paths[cid][int(u_obj * MIX_REP_OBJECTS)]
        else:
            kind, path = 2, ec_paths[cid][int(u_obj * MIX_EC_OBJECTS)]
        off = (cid * 31 + i) % (MIX_SIZE // 512) * 512
        data = source[off: off + MIX_SIZE]

        def commit(_out, path=path, data=data) -> None:
            current[path] = data

        ev = ep.write(path, data, protocol="spin")
        return clock.track(ev, (tb.sim.now, cid, i, kind), commit)

    clock.engine_entered()
    res = run_closed_loop(tb, issue, spec, op_bytes=MIX_SIZE)

    checks = _common_checks(clock, res.quiesced, res.issued, fault_free=False)
    checks["reads_match"] = not bad_reads
    checks["replicas_identical"] = all(
        _replicas_hold(tb, p, current.get(p, zeros))
        for paths in rep_paths for p in paths
    )
    ec_ok = True
    for paths in ec_paths:
        for p in paths:
            layout = tb.metadata.lookup(p)
            lost = {layout.extents[0].node, layout.extents[1].node}
            got = endpoints[0].recover(p, failed_nodes=lost)
            ec_ok &= bool(np.array_equal(got, current.get(p, zeros)))
    checks["ec_decodes_two_lost"] = ec_ok
    return _slice(clock, res, clock.digest.hexdigest(), checks, tb)


# ------------------------------------------------------------------ checks
def _common_checks(clock: _Issue, quiesced: bool, engine_issued: int,
                   fault_free: bool) -> Dict[str, bool]:
    checks = {
        "quiesced": quiesced,
        "every_op_accounted": (
            clock.attempted == engine_issued == clock.completed
        ),
    }
    if fault_free:
        checks["no_failures"] = clock.failed == 0
    return checks


def _replicas_hold(tb, path: str, want: np.ndarray) -> bool:
    """All k replicas of ``path`` hold ``want`` at the object's start."""
    layout = tb.metadata.lookup(path)
    n = want.nbytes
    return all(
        np.array_equal(tb.node(e.node).memory.read(e.addr, n), want)
        for e in layout.extents
    )


def _sampled_reads(samples, rotate: int = 1) -> bool:
    """Data-plane spin reads of ``(endpoint, path, nbytes, expected)``
    after the run, rotating the serving replica."""
    for j, (ep, path, n, want) in enumerate(samples):
        out = ep.read_sync(path, 0, n, replica=j % rotate)
        if not (out.ok and np.array_equal(out.data, want)):
            return False
    return True


def setup_trial(workload: str, seed: int) -> float:
    """Host seconds from the start of ``workload`` to its first ``issue``
    call; the trial stops there, before any simulated request runs."""
    try:
        WORKLOADS[workload](seed, setup_only=True)
    except SetupDone as done:
        setup_s = done.setup_s
    else:
        raise RuntimeError(f"{workload} issued nothing")
    # the abandoned testbed is a reference cycle; free it before the next
    gc.collect()
    return setup_s


WORKLOADS: Dict[str, Callable[..., Slice]] = {
    "million_users": run_million_users,
    "bulk_replicated": run_bulk_replicated,
    "mixed_rw_lossy": run_mixed_rw_lossy,
}
