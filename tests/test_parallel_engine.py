"""Unit tests for the partitioned-engine building blocks.

Covers the conservative-window kernel primitive
(:meth:`Simulator.run_window`), the deterministic heap tie-break
contract the parallel engine relies on, the :meth:`Topology.partition`
validation surface, telemetry merging, and the coordinator-facing
pieces of :class:`ParallelSimulator` (boundary ordering, ``call_at``,
``MultiEvent``).
"""

from __future__ import annotations

import pytest

from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.network import NetConfig
from repro.simnet.parallel import MultiEvent, ParallelSimulator, PartitionedNetwork
from repro.simnet.topology import PartitionSpec, Topology, star_topology
from repro.telemetry.merge import (
    PARTITION_ID_STRIDE,
    MergedTelemetry,
    merge_telemetry,
)
from repro.telemetry.spans import Telemetry


# ------------------------------------------------------------- run_window

class TestRunWindow:
    def test_exclusive_bound(self):
        sim = Simulator()
        fired = []
        for t in (5.0, 10.0, 15.0):
            sim._call_soon(lambda t=t: fired.append(t), delay=t)
        sim.run_window(10.0)
        assert fired == [5.0]
        assert sim.now == 5.0  # never advanced to the bound

    def test_inclusive_bound(self):
        sim = Simulator()
        fired = []
        for t in (5.0, 10.0, 15.0):
            sim._call_soon(lambda t=t: fired.append(t), delay=t)
        sim.run_window(10.0, inclusive=True)
        assert fired == [5.0, 10.0]
        assert sim.now == 10.0

    def test_events_beyond_bound_stay_queued(self):
        sim = Simulator()
        fired = []
        sim._call_soon(lambda: fired.append(1), delay=20.0)
        sim.run_window(10.0)
        assert fired == [] and sim.now == 0.0
        assert len(sim._heap) == 1
        sim.run_window(30.0)
        assert fired == [1] and sim.now == 20.0

    def test_injection_between_windows_is_legal(self):
        """The whole point of run_window: after a window ends at the last
        dispatched event, an absolute-time injection inside the *next*
        window must not be in the past."""
        sim = Simulator()
        fired = []
        sim._call_soon(lambda: fired.append("a"), delay=3.0)
        sim.run_window(10.0)
        assert sim.now == 3.0
        sim._call_at1(fired.append, "boundary", 7.0)  # 7.0 > now: fine
        sim.run_window(10.0)
        assert fired == ["a", "boundary"]

    def test_counters_maintained(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim._call_soon(lambda: None, delay=t)
        sim.run_window(2.5)
        assert sim.events_dispatched == 2
        assert sim._heap_high_water >= 3
        assert sim.wall_seconds > 0.0


# ------------------------------------------- heap tie-break determinism

class TestHeapTieBreak:
    """Satellite: same-timestamp events must dispatch in insertion
    order, stably across fresh kernels and under partition merge."""

    N = 32
    T = 100.0

    def _schedule(self, sim, log, tag=""):
        for i in range(self.N):
            sim._call_at1(log.append, f"{tag}{i}", self.T)

    def test_insertion_order_on_one_kernel(self):
        sim, log = Simulator(), []
        self._schedule(sim, log)
        sim.run(until=self.T)
        assert log == [f"{i}" for i in range(self.N)]

    def test_order_survives_kernel_restart(self):
        runs = []
        for _ in range(3):
            sim, log = Simulator(), []
            self._schedule(sim, log)
            sim.run(until=self.T)
            runs.append(log)
        assert runs[0] == runs[1] == runs[2] == [f"{i}" for i in range(self.N)]

    def test_order_survives_run_window_split(self):
        """Dispatching the tie through run_window (the partitioned path)
        must preserve the same insertion order as run()."""
        sim, log = Simulator(), []
        self._schedule(sim, log)
        sim.run_window(self.T)          # exclusive: dispatches nothing
        assert log == []
        sim.run_window(self.T, inclusive=True)
        assert log == [f"{i}" for i in range(self.N)]

    def test_order_under_partition_merge(self):
        """Per-partition ties keep their local insertion order after the
        windows interleave; injected boundary ties sort by
        (fire_t, src_rank, src_seq) — reproducibly."""
        logs = []
        for _ in range(2):
            topo = star_topology(["a", "b"])
            psim = ParallelSimulator(topo.partition(2))
            log = []
            for rank in (0, 1):
                sim = psim.sims[rank]
                for i in range(4):
                    sim._call_at1(log.append, (rank, i), self.T)
            psim.run(until=self.T)
            logs.append(log)
        assert logs[0] == logs[1]
        # within one partition the insertion order is intact
        for rank in (0, 1):
            mine = [x for x in logs[0] if x[0] == rank]
            assert mine == [(rank, i) for i in range(4)]


# ------------------------------------------------- Topology.partition

class TestPartitionValidation:
    """Satellite: every invalid cut raises with a message naming the
    offender."""

    def _topo(self, n=4):
        return star_topology([f"n{i}" for i in range(n)])

    def test_default_assignment_is_contiguous(self):
        spec = self._topo(4).partition(2)
        assert spec.k == 2
        assert spec.members(0) == ["n0", "n1"]
        assert spec.members(1) == ["n2", "n3"]
        assert spec.lookahead_ns == NetConfig().switch_latency_ns

    def test_k_exceeds_node_count(self):
        with pytest.raises(ValueError, match=r"k=5 partitions exceed the 4"):
            self._topo(4).partition(5)

    def test_single_node_topology(self):
        spec = self._topo(1).partition(1)
        assert spec.members(0) == ["n0"]
        with pytest.raises(ValueError, match="exceed the 1 endpoint"):
            self._topo(1).partition(2)

    def test_invalid_k(self):
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ValueError, match="positive integer"):
                self._topo().partition(bad)

    def test_empty_topology(self):
        with pytest.raises(ValueError, match="empty topology"):
            Topology().partition(1)

    def test_orphaned_endpoint(self):
        with pytest.raises(ValueError, match=r"orphans link n3<->switch"):
            self._topo(4).partition(2, {"n0": 0, "n1": 0, "n2": 1})

    def test_unknown_endpoint_in_assignment(self):
        with pytest.raises(ValueError, match="unknown endpoint 'ghost'"):
            self._topo(2).partition(
                2, {"n0": 0, "n1": 1, "ghost": 0})

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match=r"outside range\(0, 2\)"):
            self._topo(2).partition(2, {"n0": 0, "n1": 2})

    def test_empty_partition(self):
        with pytest.raises(ValueError, match="partition 1 would be empty"):
            self._topo(2).partition(2, {"n0": 0, "n1": 0})

    def test_duplicate_endpoint(self):
        topo = self._topo(2)
        with pytest.raises(ValueError, match="duplicate endpoint"):
            topo.add_endpoint("n0")

    def test_direct_link_cannot_cross_cut(self):
        topo = self._topo(4)
        topo.add_link("n0", "n3")
        with pytest.raises(ValueError, match=r"direct link n0<->n3"):
            topo.partition(2)
        # co-partitioned is fine
        spec = topo.partition(2, {"n0": 0, "n3": 0, "n1": 1, "n2": 1})
        assert spec.rank_of("n3") == 0

    def test_link_to_unregistered_endpoint(self):
        with pytest.raises(ValueError, match="unknown endpoint 'nx'"):
            self._topo(2).add_link("n0", "nx")


# ------------------------------------------------------ telemetry merge

class TestTelemetryMerge:
    def _parts(self, k=2):
        parts = []
        for rank in range(k):
            t = Telemetry(enabled=True)
            import itertools
            t._trace_ids = itertools.count(1 + rank * PARTITION_ID_STRIDE)
            t._span_ids = itertools.count(1 + rank * PARTITION_ID_STRIDE)
            parts.append(t)
        return parts

    def test_span_ids_never_collide(self):
        parts = self._parts()
        s0 = parts[0].begin("a", "p", "t", 1.0)
        s1 = parts[1].begin("b", "p", "t", 2.0)
        assert s0.span_id != s1.span_id
        assert abs(s0.span_id - s1.span_id) >= PARTITION_ID_STRIDE - 1

    def test_spans_sorted_globally(self):
        parts = self._parts()
        parts[1].span("late", "p", "t", 5.0, 6.0)
        parts[0].span("early", "p", "t", 1.0, 2.0)
        parts[1].span("mid", "p", "t", 3.0, 4.0)
        merged = merge_telemetry(parts)
        assert [s.name for s in merged.spans] == ["early", "mid", "late"]

    def test_shared_counters_sum(self):
        parts = self._parts()
        parts[0].metrics.counter("switch.rx").inc(3)
        parts[1].metrics.counter("switch.rx").inc(4)
        parts[0].metrics.counter("only0").inc(7)
        m = merge_telemetry(parts).metrics
        assert m.counters["switch.rx"].value == 7
        # unique names are shared, not copied
        assert m.counters["only0"] is parts[0].metrics.counters["only0"]

    def test_colliding_gauges_replay_in_time_order(self):
        parts = self._parts()
        parts[0].metrics.gauge("q").set(1.0, 1.0)
        parts[0].metrics.gauge("q").set(5.0, 0.0)
        parts[1].metrics.gauge("q").set(3.0, 2.0)
        g = merge_telemetry(parts).metrics.gauges["q"]
        assert list(zip(g.times, g.values)) == [(1.0, 1.0), (3.0, 2.0), (5.0, 0.0)]
        assert g.max == 2.0

    def test_colliding_histograms_concat(self):
        parts = self._parts()
        parts[0].metrics.histogram("lat").observe(1.0)
        parts[1].metrics.histogram("lat").observe(2.0)
        assert sorted(
            merge_telemetry(parts).metrics.histograms["lat"].values
        ) == [1.0, 2.0]

    def test_facade_enabled_fans_out(self):
        parts = self._parts()
        mt = MergedTelemetry(parts)
        mt.enabled = False
        assert not parts[0].enabled and not parts[1].enabled
        mt.enabled = True
        assert parts[0].enabled and parts[1].enabled

    def test_facade_reset_fans_out(self):
        parts = self._parts()
        parts[0].span("x", "p", "t", 1.0, 2.0)
        parts[1].metrics.counter("c").inc()
        mt = MergedTelemetry(parts)
        mt.reset()
        assert mt.spans == [] and mt.metrics.counters == {}


# ------------------------------------------------- ParallelSimulator

def _psim(k=2, n=4, mode="inline"):
    topo = star_topology([f"n{i}" for i in range(n)])
    return ParallelSimulator(topo.partition(k), mode=mode)


class TestParallelSimulator:
    def test_rejects_bad_mode(self):
        topo = star_topology(["a", "b"])
        with pytest.raises(ValueError, match="mode"):
            ParallelSimulator(topo.partition(2), mode="threads")

    def test_rejects_zero_lookahead(self):
        spec = PartitionSpec(k=2, ranks=(("a", 0), ("b", 1)), lookahead_ns=0.0)
        with pytest.raises(SimulationError, match="positive lookahead"):
            ParallelSimulator(spec)

    def test_network_lookahead_consistency(self):
        """The cut rides the switch hop: a network whose switch latency
        is *below* the spec's claimed lookahead would let boundary
        packets fire inside the current window — rejected."""
        spec = PartitionSpec(k=2, ranks=(("a", 0), ("b", 1)),
                             lookahead_ns=NetConfig().switch_latency_ns + 1.0)
        psim = ParallelSimulator(spec)
        with pytest.raises(SimulationError, match="lookahead"):
            PartitionedNetwork(psim, NetConfig())

    def test_call_at_rejects_past(self):
        psim = _psim()
        psim.run(until=100.0)
        with pytest.raises(SimulationError, match="past"):
            psim.call_at(50.0, lambda: None)

    def test_call_at_targets_rank(self):
        psim = _psim(k=2, n=4)
        hits = []
        psim.call_at(10.0, lambda: hits.append("r0"), rank=0)
        psim.call_at(10.0, lambda: hits.append("r1"), rank=1)
        psim.run(until=20.0)
        assert sorted(hits) == ["r0", "r1"]

    def test_now_is_max_and_run_returns_it(self):
        psim = _psim()
        assert psim.run(until=500.0) == 500.0
        assert psim.now == 500.0
        for s in psim.sims:
            assert s.now == 500.0

    def test_past_until_leaves_clocks_alone(self):
        # the serial run(until) contract: now = max(now, until)
        psim = _psim()
        psim.sims[1]._call_soon(lambda: None, delay=30.0)
        assert psim.run(until=20.0) == 20.0
        assert psim.run(until=5.0) == 20.0
        assert [s.now for s in psim.sims] == [20.0, 20.0]

    def test_timers_across_partitions(self):
        psim = _psim(k=2, n=4)
        fired = []
        for rank, sim in enumerate(psim.sims):
            def tick(rank=rank, sim=sim):
                yield sim.timeout(50.0 + rank)
                fired.append((sim.now, rank))
            sim.process(tick(), name=f"tick{rank}")
        psim.run(until=100.0)
        assert fired == [(50.0, 0), (51.0, 1)]

    def test_profile_shape(self):
        psim = _psim()
        psim.sims[0]._call_soon(lambda: None, delay=5.0)
        psim.run(until=10.0)
        prof = psim.profile()
        assert prof["partitions"] == 2
        assert prof["mode"] == "inline"
        assert prof["rounds"] >= 1

    def test_multievent_all_of(self):
        psim = _psim()
        evs = [s.event(f"e{r}") for r, s in enumerate(psim.sims)]
        me = psim.all_of(evs)
        assert isinstance(me, MultiEvent)
        assert not me.triggered
        evs[0].succeed(value="a")
        assert not me.triggered
        evs[1].succeed(value="b")
        assert me.triggered
        assert me.value == ["a", "b"]

    def test_run_until_event_deadlock_message_matches_serial(self):
        psim = _psim()
        ev = psim.event("never")
        with pytest.raises(SimulationError, match="can never fire"):
            psim.run_until_event(ev)

    def test_run_until_event_limit(self):
        psim = _psim()
        ev = psim.event("slow")
        psim.sims[1]._call_at1(lambda e: e.succeed(), ev, 1000.0)
        with pytest.raises(SimulationError, match="did not fire by"):
            psim.run_until_event(ev, limit=10.0)

    def test_boundary_message_ordering(self):
        """Equal fire times sort by (src_rank, src_seq): emission order
        within a rank, rank order across ranks."""
        psim = _psim(k=2, n=4)
        rt0, rt1 = psim._runtimes[0], psim._runtimes[1]
        rt1.emit(5.0, 0, "n0", "pkt-b")
        rt0.emit(5.0, 1, "n2", "pkt-a")
        rt0.emit(3.0, 1, "n2", "pkt-first")
        psim._route(rt0.take() + rt1.take())
        fire = [(m[0], m[1], m[5]) for m in psim._pending[1]]
        assert fire == [(3.0, 0, "pkt-first"), (5.0, 0, "pkt-a")]
        assert [(m[0], m[1], m[5]) for m in psim._pending[0]] == [
            (5.0, 1, "pkt-b")
        ]
