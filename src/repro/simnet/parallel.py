"""Partitioned conservative-time-window parallel DES engine.

The serial :class:`~repro.simnet.engine.Simulator` dispatches one global
heap.  This module shards one big simulation the way the paper shards
packet processing across PsPIN HPUs: the topology is cut at the switch
core into per-partition subgraphs (each host/NIC subtree plus its local
switch ports), every partition runs the *unmodified* serial kernel over
its own heap, and partitions advance in lock-stepped conservative time
windows.

**Lookahead.**  A packet crossing the cut is known one switch-traversal
latency before it can have any effect on the destination partition: the
serial switch schedules ``out.enqueue(pkt)`` at ``arrival +
switch_latency_ns``.  With ``t_min`` the earliest pending event (or
boundary fire time) across all partitions, every partition can safely
run the window ``[t_min, t_min + switch_latency_ns)`` — any boundary
message generated inside the window fires at or after the horizon.

**Determinism.**  Boundary messages carry their exact serial fire time
and are injected into the destination heap — via the same absolute-time
``_call_at1(out.enqueue, pkt, t)`` push the serial switch uses — sorted by
``(fire_t, source_rank, source_seq)``.  Packet / message / RDMA-request
ids are drawn from per-partition strided streams so id allocation is
order-independent.  The differential suite
(``tests/test_parallel_differential.py``) gates the construction:
completion times and telemetry must be byte-identical to the serial
kernel across 2/4/8-way cuts, all eight write protocols, with and
without seeded faults.

**Modes.**  ``inline`` steps every partition in one process (full
compatibility: driver-side Python may touch any node's state between
windows).  ``process`` forks partitions ``1..k-1`` into workers at the
first window (copy-on-write after construction) and keeps the driver
partition — clients, metadata, measurement — in the parent; boundary
packets cross on pipes.  Windows are identical in both modes, so
results are too; the parent's direct view of *remote* node memory is
stale in process mode (see ``docs/parallel_engine.md``).
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..telemetry.merge import PARTITION_ID_STRIDE, MergedTelemetry
from .engine import Event, Process, SimulationError, Simulator
from .network import NetConfig, Switch
from .topology import PartitionSpec

__all__ = [
    "ParallelSimulator",
    "PartitionedNetwork",
    "PartitionSwitch",
    "MultiEvent",
]

#: boundary-message tuple layout: (fire_t, src_rank, src_seq, dst_rank,
#: dst_name, pkt) — the first three fields are a unique total order, so
#: sorting never compares packets
_FIRE_T, _SRC_RANK, _SRC_SEQ, _DST_RANK, _DST, _PKT = range(6)


def _invoke(fn: Callable[[], None]) -> None:
    fn()


class _IdStreams:
    """One partition's strided slice of the global id spaces.

    ``packet._pkt_ids`` / ``packet._msg_ids`` / ``nic._greq_ids`` are
    module globals consumed at allocation time; rank ``r`` of ``k``
    partitions draws ``start + r`` with stride ``k + 1`` (the extra
    stream belongs to driver-side code between windows), so ids are
    globally unique without cross-partition coordination and each
    partition's sequence is independent of sibling scheduling.
    """

    __slots__ = ("pkt", "msg", "greq")

    def __init__(self, rank: int, stride: int):
        self.pkt = itertools.count(rank, stride)
        self.msg = itertools.count(rank, stride)
        self.greq = itertools.count(1 + rank, stride)

    def install(self) -> None:
        from ..rdma import nic as _nic
        from . import packet as _pkt

        _pkt._pkt_ids = self.pkt
        _pkt._msg_ids = self.msg
        _nic._greq_ids = self.greq


class _PartitionRuntime:
    """Per-partition boundary-message outbox."""

    __slots__ = ("rank", "outbox", "_seq")

    def __init__(self, rank: int):
        self.rank = rank
        self.outbox: List[tuple] = []
        self._seq = 0

    def emit(self, fire_t: float, dst_rank: int, dst: str, pkt: Any) -> None:
        self._seq += 1
        self.outbox.append((fire_t, self.rank, self._seq, dst_rank, dst, pkt))

    def take(self) -> List[tuple]:
        out = self.outbox
        self.outbox = []
        return out


class PartitionSwitch(Switch):
    """One partition's slice of the star switch.

    Local destinations take exactly the serial
    :meth:`~repro.simnet.network.Switch.forward` path.  A packet for an
    endpoint owned by another partition becomes a boundary message
    stamped with its serial fire time (``now + switch_latency_ns``); the
    coordinator replays the identical ``out.enqueue`` push in the owning
    partition before the window containing that time.  Coalesced trains
    hit the inherited ``forward_train`` out-of-partition fallback, which
    de-coalesces into per-packet :meth:`forward` calls at the exact
    slow-path times — the PR 4 differential suite proves that path
    byte-identical to the coalesced one.
    """

    def __init__(
        self,
        sim: Simulator,
        cfg: NetConfig,
        rt: _PartitionRuntime,
        rank_of: Dict[str, int],
        name: str = "switch",
    ) -> None:
        super().__init__(sim, cfg, name=name)
        self._rt = rt
        self._rank = rt.rank
        self._rank_of = rank_of

    def forward(self, pkt: Any) -> None:
        self.rx_packets += 1
        out = self._out_ports.get(pkt.dst)
        if out is not None:
            tel = self.sim.telemetry
            if tel.enabled:
                self._handles.get(tel.metrics)[0].inc()
            self.sim._call_soon1(out.enqueue, pkt, delay=self.cfg.switch_latency_ns)
            return
        dst_rank = self._rank_of.get(pkt.dst)
        routable = dst_rank is not None and dst_rank != self._rank
        tel = self.sim.telemetry
        if tel.enabled:
            rx, drops = self._handles.get(tel.metrics)
            rx.inc()
            if not routable:
                drops.inc()
        if not routable:
            raise KeyError(f"{self.name}: no route to {pkt.dst!r}")
        self._rt.emit(
            self.sim.now + self.cfg.switch_latency_ns, dst_rank, pkt.dst, pkt
        )


class _SwitchView:
    """Read-only aggregate over the per-partition switch slices."""

    __slots__ = ("_switches",)

    def __init__(self, switches: List[PartitionSwitch]):
        self._switches = switches

    @property
    def rx_packets(self) -> int:
        return sum(s.rx_packets for s in self._switches)

    def out_port(self, node_name: str):
        for s in self._switches:
            if node_name in s._out_ports:
                return s._out_ports[node_name]
        raise KeyError(node_name)


class PartitionedNetwork:
    """Star network sliced into one :class:`PartitionSwitch` per rank.

    API-compatible with :class:`~repro.simnet.network.Network` for the
    testbed's purposes: ``register`` attaches an endpoint to the switch
    slice of its partition (both link ports live on that partition's
    simulator), ``.switch`` is an aggregate view, ``min_rtt_ns`` is
    unchanged.
    """

    def __init__(self, psim: "ParallelSimulator", cfg: Optional[NetConfig] = None):
        self.psim = psim
        self.cfg = cfg or NetConfig()
        if psim.lookahead_ns > self.cfg.switch_latency_ns:
            raise SimulationError(
                f"lookahead {psim.lookahead_ns} ns exceeds the cut latency "
                f"(switch traversal {self.cfg.switch_latency_ns} ns)"
            )
        self.switches = [
            PartitionSwitch(sim, self.cfg, rt, psim._rank_of)
            for sim, rt in zip(psim.sims, psim._runtimes)
        ]
        self.endpoints: Dict[str, object] = {}
        psim._attach_network(self)

    def register(self, endpoint: Any) -> Any:
        name = endpoint.name
        if name in self.endpoints:
            raise ValueError(f"duplicate endpoint name {name!r}")
        rank = self.psim._rank_of.setdefault(name, 0)
        sw = self.switches[rank]
        ep_sim = getattr(endpoint, "sim", None)
        if ep_sim is self.psim:  # built on the facade -> driver partition
            ep_sim = self.psim.driver_sim
        if ep_sim is not None and ep_sim is not sw.sim:
            raise SimulationError(
                f"endpoint {name!r} was built on a different simulator than "
                f"its partition {rank} — construct it with "
                f"ParallelSimulator.sim_for({name!r})"
            )
        self.endpoints[name] = endpoint
        return sw.attach(endpoint)

    @property
    def switch(self) -> _SwitchView:
        return _SwitchView(self.switches)

    def min_rtt_ns(self) -> float:
        one_way = 2 * self.cfg.link_latency_ns + self.cfg.switch_latency_ns
        return 2 * one_way


class MultiEvent:
    """Cross-partition ``all_of``: a poll-based conjunction.

    The serial :class:`~repro.simnet.engine.AllOf` registers callbacks
    on its children, which requires every child to live on one
    simulator.  Partitioned workloads wait on events spread across
    partitions, so the facade polls between windows instead.  Child
    :class:`Process` failures are marked observed here and surface from
    :meth:`ParallelSimulator.run_until_event` (matching AllOf's
    fail-fast observer semantics) rather than crashing mid-window.
    """

    __slots__ = ("events", "name")

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)
        self.name = "all_of"
        for e in self.events:
            if isinstance(e, Process):
                e._observed = True

    @property
    def triggered(self) -> bool:
        return all(e.triggered for e in self.events)

    @property
    def exception(self) -> Optional[BaseException]:
        for e in self.events:
            if e.triggered and e.exception is not None:
                return e.exception
        return None

    @property
    def value(self) -> List[Any]:
        return [e.value for e in self.events]


class ParallelSimulator:
    """Coordinator facade over ``k`` per-partition serial kernels.

    Exposes the driver-facing subset of the
    :class:`~repro.simnet.engine.Simulator` API —
    ``run``/``run_until_event``/``process``/``timeout``/``event``/
    ``all_of``/``now``/``peek``/``profile`` — so testbeds, workloads,
    and experiments run unchanged.  Driver-side constructions delegate
    to :attr:`driver_sim` (partition 0); components living on other
    partitions must be built with their own partition's simulator
    (:meth:`sim_for`).
    """

    def __init__(self, spec: PartitionSpec, mode: str = "inline",
                 sanitize: bool = False):
        if mode not in ("inline", "process"):
            raise ValueError(f"unknown parallel mode {mode!r}")
        if sanitize and mode == "process":
            raise SimulationError(
                "sanitize=True needs inline partitions: worker-process "
                "findings would be lost at the pipe (use mode='inline')"
            )
        if spec.lookahead_ns <= 0:
            raise SimulationError(
                f"conservative windows need positive lookahead, "
                f"got {spec.lookahead_ns}"
            )
        self.spec = spec
        self.k = spec.k
        self.mode = mode
        self.lookahead_ns = spec.lookahead_ns
        self.sims = [Simulator(sanitize=sanitize) for _ in range(self.k)]
        #: cross-partition determinism auditor (sanitize runs only)
        self.audit = None
        if sanitize:
            from ..simsan import BoundaryAudit

            self.audit = BoundaryAudit()
        for rank, sim in enumerate(self.sims):
            # collision-free span/trace ids across partitions -> telemetry
            # merge is pure concatenation (see repro.telemetry.merge)
            sim.telemetry._trace_ids = itertools.count(1 + rank * PARTITION_ID_STRIDE)
            sim.telemetry._span_ids = itertools.count(1 + rank * PARTITION_ID_STRIDE)
        self.driver_sim = self.sims[0]
        self.telemetry = MergedTelemetry([s.telemetry for s in self.sims])
        self.faults = None  # driver partition's injector (testbed fills it)
        self._rank_of: Dict[str, int] = dict(spec.ranks)
        self._runtimes = [_PartitionRuntime(r) for r in range(self.k)]
        self._ids = [_IdStreams(r, self.k + 1) for r in range(self.k)]
        self._driver_ids = _IdStreams(self.k, self.k + 1)
        self._driver_ids.install()
        self._pending: List[List[tuple]] = [[] for _ in range(self.k)]
        self._net: Optional[PartitionedNetwork] = None
        self._workers: Optional[List["_Worker"]] = None
        self.rounds = 0
        self.boundary_messages = 0
        self._wall_s = 0.0

    # ------------------------------------------------------------ wiring
    def _attach_network(self, net: PartitionedNetwork) -> None:
        self._net = net

    def rank_of(self, name: str) -> int:
        """Partition rank owning endpoint ``name`` (driver rank 0 if
        unregistered — late control-plane nodes land with the driver)."""
        return self._rank_of.get(name, 0)

    def sim_for(self, name: str) -> Simulator:
        """The simulator an endpoint named ``name`` must be built on."""
        return self.sims[self.rank_of(name)]

    # ------------------------------------------- Simulator-API delegation
    @property
    def now(self) -> float:
        return max(sim.now for sim in self.sims)

    def event(self, name: str = "") -> Event:
        return self.driver_sim.event(name)

    def timeout(self, delay: float, value: Any = None):
        return self.driver_sim.timeout(delay, value)

    def timeout_at(self, t: float, value: Any = None) -> Event:
        return self.driver_sim.timeout_at(t, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return self.driver_sim.process(gen, name=name)

    def all_of(self, events: Iterable[Event]) -> MultiEvent:
        return MultiEvent(events)

    def any_of(self, events: Iterable[Event]):
        # callback-based: legal only when every child shares a simulator
        events = list(events)
        owners = {e.sim for e in events}
        if len(owners) > 1:
            raise SimulationError(
                "any_of across partitions is not supported; wait on a "
                "single partition's events or poll a MultiEvent"
            )
        return (owners.pop() if owners else self.driver_sim).any_of(events)

    # Compatibility shims so code that passes the facade itself into
    # Event/Store constructors keeps working: Event.succeed touches
    # sim._seq/_heap directly.  They resolve to the driver partition.
    @property
    def sanitizer(self):
        """Driver partition's sanitizer (None when sanitize is off); use
        :func:`repro.simsan.report_for` to aggregate all partitions."""
        return self.driver_sim.sanitizer

    @property
    def _heap(self) -> list:
        return self.driver_sim._heap

    @property
    def _seq(self) -> int:
        return self.driver_sim._seq

    @_seq.setter
    def _seq(self, v: int) -> None:
        self.driver_sim._seq = v

    @property
    def coalescing(self) -> bool:
        return self.driver_sim.coalescing

    @coalescing.setter
    def coalescing(self, on: bool) -> None:
        for sim in self.sims:
            sim.coalescing = on

    def _call_soon(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        self.driver_sim._call_soon(fn, delay)

    def _call_soon1(self, fn: Callable[[Any], None], arg: Any, delay: float = 0.0) -> None:
        self.driver_sim._call_soon1(fn, arg, delay)

    def _call_at1(self, fn: Callable[[Any], None], arg: Any, t: float) -> None:
        self.driver_sim._call_at1(fn, arg, t)

    def call_at(self, t: float, fn: Callable[[], None], rank: int = 0) -> None:
        """Schedule ``fn()`` at absolute time ``t`` in partition ``rank``.

        The cross-partition control primitive for drivers that must act
        on remote-partition state at an exact time (e.g. the recovery
        storm's rack killer failing nodes in their own partitions).
        """
        sim = self.sims[rank]
        if t < sim.now:
            raise SimulationError(
                f"call_at({t}) is in partition {rank}'s past (now={sim.now})"
            )
        sim._call_at1(_invoke, fn, t)

    # ------------------------------------------------------- observation
    @property
    def events_dispatched(self) -> int:
        return sum(sim.events_dispatched for sim in self.sims)

    @property
    def heap_high_water(self) -> int:
        return max(sim.heap_high_water for sim in self.sims)

    @property
    def wall_seconds(self) -> float:
        return self._wall_s

    def peek(self) -> float:
        return self._next_time()

    def profile(self) -> dict:
        wall_ns = self._wall_s * 1e9
        now = self.now
        return {
            "events_dispatched": self.events_dispatched,
            "heap_high_water": self.heap_high_water,
            "sim_ns": now,
            "wall_s": self._wall_s,
            "wall_ns_per_sim_ns": wall_ns / now if now > 0 else 0.0,
            "events_per_wall_s": (
                self.events_dispatched / self._wall_s if self._wall_s > 0 else 0.0
            ),
            "partitions": self.k,
            "rounds": self.rounds,
            "boundary_messages": self.boundary_messages,
            "mode": self.mode if self._workers is None else "process",
        }

    # ------------------------------------------------------ coordination
    def _next_time(self) -> float:
        if self._workers is None:
            t = min(sim.peek() for sim in self.sims)
        else:
            t = self.driver_sim.peek()
            for w in self._workers:
                if w.peek < t:
                    t = w.peek
        for pend in self._pending:
            if pend and pend[0][_FIRE_T] < t:
                t = pend[0][_FIRE_T]
        return t

    def _take_due(self, rank: int, horizon: float, inclusive: bool) -> List[tuple]:
        """Pop rank's boundary messages firing inside this window."""
        pend = self._pending[rank]
        if not pend:
            return ()
        i, n = 0, len(pend)
        while i < n:
            t = pend[i][_FIRE_T]
            if t > horizon or (t == horizon and not inclusive):
                break
            i += 1
        if not i:
            return ()
        due = pend[:i]
        del pend[:i]
        return due

    def _inject(self, sim: Simulator, rank: int, msgs: List[tuple]) -> None:
        # replay the exact push the serial switch makes: out.enqueue(pkt)
        # at the absolute fire time, in (fire_t, src_rank, src_seq) order
        ports = self._net.switches[rank]._out_ports
        san = sim.sanitizer
        for m in msgs:
            if san is not None and m[_FIRE_T] < sim.now - 1e-9:
                san.record_stale_injection(m[_FIRE_T], m[_DST], sim.now)
            sim._call_at1(ports[m[_DST]].enqueue, m[_PKT], m[_FIRE_T])

    def _window_inline(self, rank: int, horizon: float, inclusive: bool) -> None:
        sim = self.sims[rank]
        self._ids[rank].install()
        due = self._take_due(rank, horizon, inclusive)
        if due:
            self._inject(sim, rank, due)
        sim.run_window(horizon, inclusive)

    def _route(self, msgs: List[tuple]) -> None:
        if not msgs:
            return
        self.boundary_messages += len(msgs)
        for m in msgs:
            self._pending[m[_DST_RANK]].append(m)
        for pend in self._pending:
            pend.sort()

    def _round(self, clip: Optional[float]) -> bool:
        """Run one conservative window everywhere; False when drained
        (or when the next event lies beyond ``clip``)."""
        t_min = self._next_time()
        if t_min == float("inf"):
            return False
        if clip is not None and t_min > clip:
            return False
        horizon = t_min + self.lookahead_ns
        inclusive = False
        if clip is not None and horizon > clip:
            # final window: run(until) includes events at exactly `until`
            # only if nothing else bounds them — match serial run(), which
            # stops *before* events later than `until` but processes
            # everything at or before it
            horizon, inclusive = clip, True
        self.rounds += 1
        if self._workers is None and self.mode == "process":
            self._start_workers()
        try:
            if self._workers is not None:
                for w in self._workers:
                    w.send_window(horizon, inclusive,
                                  self._take_due(w.rank, horizon, inclusive))
                self._window_inline(0, horizon, inclusive)
                msgs = self._runtimes[0].take()
                for w in self._workers:
                    msgs.extend(w.collect())
            else:
                msgs = []
                for rank in range(self.k):
                    self._window_inline(rank, horizon, inclusive)
                for rt in self._runtimes:
                    msgs.extend(rt.take())
            if self.audit is not None:
                self.audit.record(self.rounds, msgs)
            self._route(msgs)
        finally:
            self._driver_ids.install()
        return True

    # ------------------------------------------------------------ running
    def run(self, until: Optional[float] = None) -> float:
        wall0 = time.perf_counter()  # simlint: disable=SIM101 -- coordinator self-profile
        try:
            while self._round(until):
                pass
            # mirror the serial run(until) clock contract: the clock
            # stops at max(now, until) (at the last event anywhere when
            # until is None) — pull the idle partitions forward so driver
            # code never schedules at a stale local clock
            t = self.now if until is None else max(self.now, until)
            self._sync_clocks(t, drained=True)
        finally:
            self._wall_s += time.perf_counter() - wall0  # simlint: disable=SIM101 -- coordinator self-profile
        return self.now

    def _sync_clocks(self, t: float, drained: bool = False) -> None:
        """Set every partition clock to ``t`` — the serial kernel's
        stopping point — before handing control back to driver code.

        Without this, driver-side scheduling between runs would land on
        idle partitions at their *stale local* clocks (possibly far in
        the global past), and their boundary traffic would then inject
        into partitions whose clocks are already ahead.  Rewinding an
        overshot partition is safe after a completed round: every heap
        item and pending boundary message lies at or beyond the final
        window's horizon, which bounds ``t`` from above.
        """
        for rank, sim in enumerate(self.sims):
            if self._workers is not None and rank > 0:
                continue  # worker-side clocks sync over the pipe
            sim.now = max(sim.now, t) if drained else t
        if self._workers is not None:
            for w in self._workers:
                w.sync_now(t, drained)

    def run_until_event(self, ev: Any, limit: Optional[float] = None) -> Any:
        """Run whole windows until ``ev`` triggers (completed windows may
        overshoot the trigger time by up to one lookahead; the clocks are
        rewound to the exact trigger time before returning, so driver
        code observes the serial ``now``)."""
        wall0 = time.perf_counter()  # simlint: disable=SIM101 -- coordinator self-profile
        # succeed()/fail() dispatch an event's callbacks at the
        # triggering partition's current time — exactly where the serial
        # kernel's clock would stop.  Capture it so the window overshoot
        # never leaks into driver-visible time.
        fired: List[float] = []
        _mark = fired.append
        targets = ev.events if isinstance(ev, MultiEvent) else (ev,)
        for e in targets:
            if not e.triggered:
                e.add_callback(lambda _e: _mark(_e.sim.now))
        try:
            while True:
                if isinstance(ev, MultiEvent):
                    exc = ev.exception  # fail fast, like AllOf
                    if exc is not None:
                        raise exc
                if ev.triggered:
                    break
                t_min = self._next_time()
                if t_min == float("inf"):
                    raise SimulationError(
                        f"deadlock: event {ev.name!r} can never fire (heap empty)"
                    )
                if limit is not None and t_min > limit:
                    raise SimulationError(
                        f"event {ev.name!r} did not fire by t={limit} ns"
                    )
                self._round(None)
        finally:
            self._wall_s += time.perf_counter() - wall0  # simlint: disable=SIM101 -- coordinator self-profile
        if fired:
            # a MultiEvent completes when its last child does, so the
            # serial stopping point is the latest capture
            self._sync_clocks(max(fired))
        if ev.exception is not None:
            raise ev.exception
        return ev.value

    def run_until_complete(self, proc: Process, until: Optional[float] = None) -> Any:
        proc._observed = True
        return self.run_until_event(proc, limit=until)

    # ------------------------------------------------------ process mode
    def start_workers(self) -> None:
        """Fork the worker pool *now* instead of lazily on the first
        window.  Call after the testbed is fully built and before any
        timed region: fork + import cost lands outside the measurement
        (the perf harness warms pools this way).  No-op in inline mode
        or when the pool is already up."""
        if self.mode == "process" and self._workers is None:
            self._start_workers()

    def _start_workers(self) -> None:
        """Fork partitions 1..k-1 (copy-on-write: call after the full
        testbed is built).  The driver partition stays in the parent."""
        import multiprocessing as mp

        if self._workers is not None:
            return
        if self._net is None:
            raise SimulationError("process mode needs an attached network")
        ctx = mp.get_context("fork")
        workers = []
        for rank in range(1, self.k):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(self, rank, child_conn), daemon=True
            )
            proc.start()
            child_conn.close()
            tag, peek = parent_conn.recv()
            if tag != "ready":  # pragma: no cover - defensive
                raise SimulationError(f"partition {rank} worker failed to start")
            workers.append(_Worker(rank, proc, parent_conn, peek))
        self._workers = workers

    def finish(self) -> None:
        """Join process-mode workers, folding their final clocks, event
        counts, and telemetry back into the parent's partition objects.
        No-op in inline mode; the facade stays queryable afterwards."""
        if self._workers is None:
            return
        for w in self._workers:
            w.conn.send(("finish",))
        for w in self._workers:
            reply = w.conn.recv()
            if reply[0] != "fin":
                raise SimulationError(
                    f"partition {w.rank} worker failed:\n{reply[1]}"
                )
            _tag, now, ndisp, hw, wall_s, tel = reply
            sim = self.sims[w.rank]
            sim.now = max(sim.now, now)
            sim.events_dispatched = ndisp
            sim._heap_high_water = hw
            sim._wall_s = wall_s
            sim.telemetry = tel
            self.telemetry._parts[w.rank] = tel
            w.conn.close()
            w.proc.join()
        self._workers = None
        self.mode = "inline"  # any further windows run in-process


class _Worker:
    """Parent-side handle for one forked partition."""

    __slots__ = ("rank", "proc", "conn", "peek")

    def __init__(self, rank: int, proc: Any, conn: Any, peek: float):
        self.rank = rank
        self.proc = proc
        self.conn = conn
        self.peek = peek

    def send_window(self, horizon: float, inclusive: bool, msgs: List[tuple]) -> None:
        self.conn.send(("win", horizon, inclusive, list(msgs)))

    def collect(self) -> List[tuple]:
        reply = self.conn.recv()
        if reply[0] != "out":
            raise SimulationError(f"partition {self.rank} worker failed:\n{reply[1]}")
        _tag, outbox, self.peek = reply
        return outbox

    def sync_now(self, until: float, drained: bool) -> None:
        self.conn.send(("sync_now", until, drained))
        reply = self.conn.recv()
        if reply[0] != "ok":
            raise SimulationError(f"partition {self.rank} worker failed:\n{reply[1]}")


def _worker_main(psim: ParallelSimulator, rank: int, conn: Any) -> None:
    """Forked worker loop: one partition, commanded window by window."""
    sim = psim.sims[rank]
    rt = psim._runtimes[rank]
    ids = psim._ids[rank]
    net = psim._net
    try:
        conn.send(("ready", sim.peek()))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "win":
                _op, horizon, inclusive, msgs = cmd
                ids.install()
                if msgs:
                    psim._inject(sim, rank, msgs)
                sim.run_window(horizon, inclusive)
                conn.send(("out", rt.take(), sim.peek()))
            elif op == "sync_now":
                _op, until, drained = cmd
                sim.now = max(sim.now, until) if drained else until
                conn.send(("ok",))
            elif op == "finish":
                conn.send((
                    "fin", sim.now, sim.events_dispatched,
                    sim._heap_high_water, sim._wall_s, sim.telemetry,
                ))
                conn.close()
                return
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown worker command {op!r}")
    except BaseException:
        import traceback

        try:
            conn.send(("err", traceback.format_exc()))
        except OSError:  # parent already gone
            pass
    finally:
        # keep `net` alive in the child until the loop exits (forked
        # state is shared only by copy-on-write, nothing to clean up)
        del net
