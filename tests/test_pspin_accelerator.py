"""PsPIN accelerator tests: pipeline timing, handler ordering, HPU
scheduling, egress back-pressure, cleanup."""

import gc

import numpy as np
import pytest

from repro.core.context import ExecutionContext, Handler, HandlerSet
from repro.core.handlers import DfsPolicy, build_dfs_context
from repro.core.request import DfsHeader, WriteRequestHeader
from repro.core.state import DfsState
from repro.params import PsPinParams, SimParams
from repro.pspin.accelerator import PsPinAccelerator
from repro.pspin.isa import HandlerCost
from repro.pspin.memory import NicMemory
from repro.simnet import Process, Simulator
from repro.simnet.packet import Message, Packet, segment_message


class PollingAccelerator(PsPinAccelerator):
    """Reference model: the cleanup sweeper as a fixed-period polling
    loop, waking every ``cleanup_timeout_ns / 2`` whether or not any
    message is live.  The parked sweeper must clean at its instants."""

    def _cleanup_sweeper(self):
        sim = self.sim
        period = self.params.cleanup_timeout_ns / 2
        while True:
            yield sim.timeout(period)
            deadline = sim.now - self.params.cleanup_timeout_ns
            stale = [
                run
                for run in self._runs.values()
                if run.last_activity <= deadline and not run.finished
            ]
            for run in stale:
                yield from self._exec_cleanup(run)


class Harness:
    """Accelerator with stub NIC egress and DMA."""

    def __init__(self, params: PsPinParams | None = None, authority=None,
                 egress_delay_ns: float = 0.0, accel_cls=PsPinAccelerator,
                 sim: Simulator | None = None, node: str = "node"):
        self.sim = sim or Simulator()
        self.node = node
        self.params = params or PsPinParams()
        self.sent: list[Packet] = []
        self.dmas: list[tuple] = []
        self.egress_delay_ns = egress_delay_ns

        def send_fn(pkt):
            self.sent.append(pkt)
            ev = self.sim.event()
            if self.egress_delay_ns:
                self.sim._call_soon(lambda: ev.succeed(None), delay=self.egress_delay_ns)
            else:
                ev.succeed(None)
            return ev

        def dma_fn(addr, payload):
            self.dmas.append((addr, payload))
            ev = self.sim.event()
            ev.succeed(None)
            return ev

        self.accel = accel_cls(self.sim, self.params, node, send_fn, dma_fn)
        self.nicmem = NicMemory(self.sim, self.params)
        self.state = DfsState(self.nicmem, self.params, authority=authority)

    def install_policy(self, policy=None):
        ctx = build_dfs_context("dfs", policy or DfsPolicy(), self.state)
        self.accel.install(ctx)
        return ctx

    def write_packets(self, nbytes, msg_id=1, header_bytes=80):
        dfs = DfsHeader(greq_id=msg_id, op="write", client_id=1, capability=None,
                        reply_to="client")
        wrh = WriteRequestHeader(addr=0)
        msg = Message(
            src="client", dst=self.node, op="write",
            data=np.zeros(nbytes, dtype=np.uint8),
            headers={"dfs": dfs, "wrh": wrh, "write_len": nbytes},
            header_bytes=header_bytes, msg_id=msg_id,
        )
        return segment_message(msg, 2048)


def test_non_matching_packet_not_consumed():
    h = Harness()
    h.install_policy()
    pkt = Packet(src="a", dst="node", op="ack", msg_id=9, seq=0, nseq=1)
    assert not h.accel.ingest(pkt)


def test_no_context_not_consumed():
    h = Harness()
    pkt = Packet(src="a", dst="node", op="write", msg_id=9, seq=0, nseq=1)
    assert not h.accel.ingest(pkt)


def test_single_packet_write_acks_and_dmas():
    h = Harness()
    h.install_policy()
    for pkt in h.write_packets(1000):
        assert h.accel.ingest(pkt)
    h.sim.run(until=100_000)
    acks = [p for p in h.sent if p.op == "ack"]
    assert len(acks) == 1 and acks[0].dst == "client"
    assert len(h.dmas) == 1 and h.dmas[0][1].nbytes == 1000
    assert h.accel.packets_processed == 1
    assert h.state.requests_completed == 1 and not h.state.req_table


def test_multi_packet_write_one_request_entry():
    h = Harness()
    h.install_policy()
    pkts = h.write_packets(20_000)
    assert len(pkts) > 5
    for pkt in pkts:
        assert h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    assert h.state.requests_started == 1
    assert h.state.requests_completed == 1
    assert sum(d[1].nbytes for d in h.dmas) == 20_000
    assert len([p for p in h.sent if p.op == "ack"]) == 1


def test_handler_ordering_hh_before_ph_before_ch():
    """sPIN contract: HH completes before PHs; CH after all PHs."""
    h = Harness()
    order = []

    class P(DfsPolicy):
        def on_header(self, api, task, entry, pkt):
            super().on_header(api, task, entry, pkt)
            order.append(("hh", api.now))

        def process_pkt(self, api, task, entry, pkt):
            order.append(("ph", api.now))
            return
            yield

        def request_fini(self, api, task, entry, pkt):
            order.append(("ch", api.now))
            return
            yield

    h.install_policy(P())
    for pkt in h.write_packets(30_000):
        h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    kinds = [k for k, _ in order]
    assert kinds[0] == "hh" and kinds[-1] == "ch"
    assert kinds.count("ph") == len(h.write_packets(30_000))
    hh_t = order[0][1]
    ch_t = order[-1][1]
    assert all(hh_t <= t <= ch_t for _, t in order)


def test_out_of_order_payload_waits_for_header():
    h = Harness()
    h.install_policy()
    pkts = h.write_packets(5000)
    # deliver payload packets before the header
    for pkt in pkts[1:]:
        h.accel.ingest(pkt)
    h.sim.run(until=10_000)
    assert h.state.requests_started == 0  # parked on hh_done
    h.accel.ingest(pkts[0])
    h.sim.run(until=1_000_000)
    assert h.state.requests_completed == 1
    assert sum(d[1].nbytes for d in h.dmas) == 5000


def test_pipeline_latency_matches_fig7():
    """Single 2 KiB packet: buffer copy 32 + sched 2 + L1 copy 43 +
    dispatch 1 + HH 211 (+ PH + CH) — the ingest-to-HH-start delay is
    the Fig. 7 fixed pipeline."""
    h = Harness()
    t_hh = []

    class P(DfsPolicy):
        def on_header(self, api, task, entry, pkt):
            super().on_header(api, task, entry, pkt)
            t_hh.append(api.now)

    h.install_policy(P())
    (pkt,) = h.write_packets(2048 - 80)
    assert pkt.size == 2048 + 64  # transport framing extra
    h.accel.ingest(pkt)
    h.sim.run(until=10_000)
    # on_header runs after pipeline + HH compute: 33+2+44+1+211 = 291
    assert t_hh[0] == pytest.approx(291, abs=5)


def test_hpu_parallelism_bounded_by_pool():
    """With 1 cluster x 1 HPU, payload handlers serialize."""
    h = Harness(PsPinParams(n_clusters=1, hpus_per_cluster=1))
    h.install_policy()
    pkts = h.write_packets(20_000)
    for pkt in pkts:
        h.accel.ingest(pkt)
    h.sim.run(until=10_000_000)
    assert h.state.requests_completed == 1
    st = h.accel.stats["payload:dfs"]
    assert st.n == len(pkts)


def test_egress_backpressure_stretches_handler():
    """If egress transmissions are slow, forwarding handlers stall."""
    from repro.core.policies.replication import ReplicationPolicy
    from repro.core.request import ReplicaCoord, ReplicationParams

    def run(delay):
        h = Harness(egress_delay_ns=delay)
        h.install_policy(ReplicationPolicy())
        dfs = DfsHeader(greq_id=5, op="write", client_id=1, capability=None, reply_to="c")
        rp = ReplicationParams(strategy="ring", virtual_rank=0,
                               coords=(ReplicaCoord("n2", 0),))
        wrh = WriteRequestHeader(addr=0, resiliency="replication", replication=rp)
        msg = Message(src="c", dst="node", op="write",
                      data=np.zeros(30_000, dtype=np.uint8),
                      headers={"dfs": dfs, "wrh": wrh, "write_len": 30_000},
                      header_bytes=100, msg_id=77)
        for pkt in segment_message(msg, 2048):
            h.accel.ingest(pkt)
        h.sim.run(until=50_000_000)
        return h.accel.stats["payload:dfs"].mean_duration()

    fast = run(0.0)
    slow = run(2000.0)
    assert slow > fast * 2


def test_ingress_overload_nacks_new_messages():
    """When the accelerator can't keep up, new messages are denied and
    the client retries later (§III-B2/§III-C)."""
    h = Harness(PsPinParams(ingress_queue_packets=2, n_clusters=1, hpus_per_cluster=1))
    h.install_policy()
    first = h.write_packets(40_000, msg_id=1)
    for pkt in first[:4]:  # saturate the 2-packet ingress queue
        assert h.accel.ingest(pkt)
    second = h.write_packets(4_000, msg_id=2)
    for pkt in second:
        assert h.accel.ingest(pkt)  # consumed: denied, not raw-written
    h.sim.run(until=50_000_000)
    assert h.accel.packets_steered >= len(second)
    nacks = [p for p in h.sent if p.op == "nack"]
    assert any(p.headers.get("reason") == "overload" for p in nacks)
    # the denied message wrote nothing
    assert sum(d[1].nbytes for d in h.dmas) <= 40_000


def test_auth_reject_nacks_and_drops():
    from repro.dfs.capability import CapabilityAuthority

    h = Harness(authority=CapabilityAuthority(key=b"k"))
    h.install_policy()
    pkts = h.write_packets(10_000)  # capability=None -> reject
    for pkt in pkts:
        h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    nacks = [p for p in h.sent if p.op == "nack"]
    assert len(nacks) == 1 and nacks[0].headers["reason"] == "auth"
    assert not h.dmas  # no payload ever crossed to the host
    assert h.state.requests_rejected_auth == 1
    assert [e["type"] for e in h.state.drain_host_events()] == ["auth_reject"]


def test_memory_denial_nacks():
    params = PsPinParams()
    h = Harness(params)
    h.install_policy()
    # exhaust request memory: drain every L1 and whatever L2 remains
    for c in range(params.n_clusters):
        assert h.nicmem.l1[c].try_get(h.nicmem.l1[c].level)
    assert h.nicmem.l2.try_get(h.nicmem.l2.level)
    for pkt in h.write_packets(1000):
        h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    nacks = [p for p in h.sent if p.op == "nack"]
    assert len(nacks) == 1 and nacks[0].headers["reason"] == "nic_mem"


def test_cleanup_reclaims_abandoned_request():
    params = PsPinParams(cleanup_timeout_ns=10_000.0)
    h = Harness(params)
    h.install_policy()
    pkts = h.write_packets(50_000)
    for pkt in pkts[:3]:  # client dies mid-write
        h.accel.ingest(pkt)
    h.sim.run(until=200_000)
    assert h.state.requests_cleaned == 1
    assert not h.state.req_table
    assert h.accel.in_flight_messages == 0
    events = h.state.drain_host_events()
    assert any(e["type"] == "write_interrupted" for e in events)


def test_cleanup_does_not_touch_active_requests():
    params = PsPinParams(cleanup_timeout_ns=50_000.0)
    h = Harness(params)
    h.install_policy()
    for pkt in h.write_packets(4000):
        h.accel.ingest(pkt)
    h.sim.run(until=500_000)
    assert h.state.requests_cleaned == 0
    assert h.state.requests_completed == 1


def test_stats_record_instruction_counts():
    h = Harness()
    h.install_policy()
    for pkt in h.write_packets(10_000):
        h.accel.ingest(pkt)
    h.sim.run(until=1_000_000)
    hh = h.accel.stats["header:dfs"]
    assert hh.n == 1 and hh.mean_instructions() == 120
    assert hh.mean_duration() == pytest.approx(211, abs=2)
    assert hh.mean_ipc(1.0) == pytest.approx(0.57, abs=0.02)


# ------------------------------------------------- parked vs polling sweeper
#: 10 us timeout: the polling reference sweeps every 5 us
TIMEOUT = 10_000.0


def _outcome(h):
    """Everything a cleanup sweep can change, with its timestamps."""
    return {
        "host_events": h.state.drain_host_events(),
        "cleaned": h.state.requests_cleaned,
        "completed": h.state.requests_completed,
        "cleanup": h.accel.stats_for("cleanup", "dfs"),
        "dropped": h.accel.packets_dropped,
        "in_flight": h.accel.in_flight_messages,
    }


def _drive(accel_cls, deliveries, until):
    """Ingest ``(t, msg_id, nbytes, packet slice)`` deliveries at their
    instants, then run to ``until``."""
    h = Harness(PsPinParams(cleanup_timeout_ns=TIMEOUT), accel_cls=accel_cls)
    h.install_policy()
    for t, msg_id, nbytes, sl in deliveries:
        h.sim.run(until=t)
        for pkt in h.write_packets(nbytes, msg_id=msg_id)[sl]:
            h.accel.ingest(pkt)
    h.sim.run(until=until)
    return _outcome(h)


def _assert_same_as_polling(deliveries, until):
    parked = _drive(PsPinAccelerator, deliveries, until)
    polling = _drive(PollingAccelerator, deliveries, until)
    assert parked == polling
    return parked


ABANDON = slice(0, 3)  # the client dies after three packets
WHOLE = slice(None)
HEADER_LOST = slice(1, 4)

SWEEP_CASES = {
    "abandoned_after_long_idle": ([(2_000_000.5, 1, 50_000, ABANDON)], 2_100_000),
    "two_runs_under_a_period_apart": (
        [(1_000, 1, 50_000, ABANDON), (5_000, 2, 50_000, ABANDON)], 60_000),
    "run_opens_while_armed_on_another": (
        [(1_000, 1, 50_000, ABANDON), (3_000, 2, 50_000, ABANDON),
         (6_000, 3, 4_000, WHOLE), (8_000, 4, 50_000, ABANDON)], 60_000),
    "message_opens_during_cleanup": (
        [(1_000, 1, 50_000, ABANDON), (15_100, 2, 4_000, WHOLE),
         (15_200, 3, 50_000, ABANDON)], 60_000),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_parked_sweeper_cleans_at_polling_instants(case):
    deliveries, until = SWEEP_CASES[case]
    out = _assert_same_as_polling(deliveries, until)
    assert out["in_flight"] == 0
    assert [e["type"] for e in out["host_events"]] == ["write_interrupted"] * sum(
        sl is not WHOLE for *_, sl in deliveries
    )


def test_cleanup_shift_moves_the_grid():
    """The second cleanup lands on the grid restarted at the first
    cleanup's end, not on the 5 us grid from install time."""
    out = _assert_same_as_polling(
        [(1_000, 1, 50_000, ABANDON), (16_000, 2, 50_000, ABANDON)], 60_000)
    first, second = (e["t"] for e in out["host_events"])
    dur = out["cleanup"].durations_ns
    assert first - dur[0] == 15_000.0
    tick2 = second - dur[1]
    assert tick2 % (TIMEOUT / 2) != 0
    assert tick2 - first == pytest.approx(3 * TIMEOUT / 2)


def test_parked_sweeper_inclusive_deadline_on_a_tick():
    """Last activity exactly ``timeout`` before a grid point: the run is
    stale at that very tick (``<=``), under both sweepers."""
    probe = Harness(PsPinParams(cleanup_timeout_ns=TIMEOUT))
    probe.install_policy()
    pkts = probe.write_packets(50_000)[HEADER_LOST]
    p = probe.params
    f1 = (-(-pkts[-1].size // p.pkt_buffer_bytes_per_cycle) + p.sched_cycles) * p.cycle_ns
    # header lost: parked payload packets only record their F1 time
    t_in = 20_000.0 - f1
    probe.sim.run(until=t_in)
    for q in pkts:
        probe.accel.ingest(q)
    probe.sim.run(until=t_in + f1)
    assert probe.accel._runs[1].last_activity + TIMEOUT == 30_000.0

    out = _assert_same_as_polling([(t_in, 1, 50_000, HEADER_LOST)], 60_000)
    (ev,) = out["host_events"]
    assert ev["t"] - out["cleanup"].durations_ns[0] == 30_000.0
    assert out["dropped"] == 3


def test_message_right_after_cleanup_rearms_the_sweeper():
    """A message opening at the instant a cleanup finishes is swept on
    the grid restarted there."""
    first = _drive(PollingAccelerator, [(1_000, 1, 50_000, ABANDON)], 20_000)
    t_end = first["host_events"][0]["t"]
    deliveries = [(1_000, 1, 50_000, ABANDON), (t_end, 2, 50_000, ABANDON),
                  (t_end + 20_000, 3, 4_000, WHOLE)]
    out = _assert_same_as_polling(deliveries, 80_000)
    assert out["cleaned"] == 2 and out["completed"] == 1


def _drive_pair(accel_cls, sanitize):
    """Two accelerators on one kernel, each with a run gone stale at the
    same grid tick; the parked sweepers arm at different instants."""
    sim = Simulator(sanitize=sanitize)
    params = PsPinParams(cleanup_timeout_ns=TIMEOUT)
    pair = [Harness(params, accel_cls=accel_cls, sim=sim, node=n) for n in ("sn0", "sn1")]
    for h in pair:
        h.install_policy()
    for h, t in zip(pair, (1_000.0, 3_000.0)):
        sim.run(until=t)
        for pkt in h.write_packets(50_000)[ABANDON]:
            h.accel.ingest(pkt)
    sim.run(until=40_000)
    return [_outcome(h) for h in pair], sim


def test_sweepers_on_different_accelerators_commute():
    parked, _ = _drive_pair(PsPinAccelerator, sanitize=False)
    polling, _ = _drive_pair(PollingAccelerator, sanitize=False)
    assert parked == polling
    (a,), (b,) = (o["host_events"] for o in parked)
    assert a["t"] == b["t"]  # both swept at the same tick
    for cls in (PsPinAccelerator, PollingAccelerator):
        out, sim = _drive_pair(cls, sanitize=True)
        assert out == parked
        sim.sanitizer.check_quiesce()
        report = sim.sanitizer.report()
        assert report.ok, report.summary()
        # the two sweeps really met on one instant
        assert report.stats["ties_cross_origin"] >= 1


def test_handlerless_cleanup_releases_parked_pipelines():
    """A context without a cleanup handler is still swept (by the
    sweeper another context brings up); its parked pipelines must be
    released, not stranded on the gates of a finished run."""
    h = Harness(PsPinParams(cleanup_timeout_ns=TIMEOUT))
    bare = build_dfs_context("bare", DfsPolicy(), h.state)
    bare.handlers.cleanup = None
    h.accel.install(bare)
    h.accel.install(build_dfs_context("other", DfsPolicy(), h.state, match_ops=("other",)))
    for pkt in h.write_packets(50_000)[HEADER_LOST]:
        assert h.accel.ingest(pkt)
    h.sim.run(until=100_000)
    assert h.accel.in_flight_messages == 0
    assert h.accel.packets_dropped == 3
    alive = [
        o for o in gc.get_objects()
        if isinstance(o, Process) and o.sim is h.sim and o.name == "_pipeline" and o.is_alive
    ]
    assert alive == []


def test_idle_accelerator_dispatches_no_sweeps():
    """No traffic, no wake-ups: the egress pump and the sweeper start
    and park.  The polling loop would tick 200 times in 100 ms."""
    h = Harness()
    h.install_policy()
    h.sim.run(until=100_000_000)
    assert h.sim.events_dispatched <= 2
    ref = Harness(accel_cls=PollingAccelerator)
    ref.install_policy()
    ref.sim.run(until=100_000_000)
    assert ref.sim.events_dispatched >= 200
