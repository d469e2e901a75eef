"""Per-layer numbers: public counters, and a profiled ("traced") slice.

Layers are named after the repo's modules.  Two kinds of figures:

* :func:`counters` reads the components' public counters after an
  untraced slice.  For one seed they repeat exactly.
* :class:`Tracer` runs a slice under ``cProfile`` and attributes host
  self time and call counts to layers by the module of the function
  that is executing.  Time spent in C functions and in foreign Python
  code (builtins, numpy, the standard library) is charged to the layer
  that called it, split by the per-caller times the profiler records.
  The tracer also wraps ``Port.try_send_train`` for the duration of the
  slice, to count the packets that travel in trains.  Nothing under
  ``src/`` changes.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, List, Optional, Tuple

from repro.simnet.link import Port

#: layer -> module prefixes (first match wins; order matters only for
#: ``repro.simnet.trace``, which belongs to telemetry)
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("telemetry", ("repro.telemetry", "repro.simnet.trace")),
    ("simnet.engine", ("repro.simnet.engine",)),
    ("simnet.link", ("repro.simnet.link", "repro.simnet.network",
                     "repro.simnet.packet", "repro.simnet.topology",
                     "repro.faults")),
    ("simnet.resources", ("repro.simnet.resources",)),
    ("rdma.nic", ("repro.rdma",)),
    ("pspin.accelerator", ("repro.pspin",)),
    ("core.policies", ("repro.core",)),
    ("ec", ("repro.ec",)),
    ("hostsim", ("repro.hostsim",)),
    ("dfs", ("repro.dfs",)),
    ("protocols", ("repro.protocols",)),
    ("workloads", ("repro.workloads", "repro.scenarios")),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: timer-driven service loops whose resumptions count as sweeps
SWEEP_LOOPS = {
    ("repro.pspin.accelerator", "_cleanup_sweeper"),
    ("repro.dfs.monitor", "_sweep"),
    ("repro.dfs.monitor", "_beat"),
}

#: latency phases whose p99 is reported as a per-layer wait
WAIT_PHASES = ("wire", "hpu", "host_queue", "retransmit")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))



# --------------------------------------------------------------- counters
def all_ports(tb) -> List[Port]:
    """Every wire port: switch egress ports and each host's uplink."""
    hosts = list(tb.storage_nodes) + list(tb.clients)
    return [tb.net.switch.out_port(h.name) for h in hosts] + [
        h.nic.port for h in hosts
    ]


def counters(sl) -> Dict[str, float]:
    """Deterministic per-layer counts of one untraced slice."""
    tb = sl.testbed
    sim = tb.sim
    n = sl.completed
    events = sim.events_dispatched
    packets = tb.net.switch.rx_packets
    ports = all_ports(tb)
    accels = [s.accelerator for s in tb.storage_nodes]
    hosts = list(tb.storage_nodes) + list(tb.clients)
    out = {
        "simnet.engine.events_per_request": events / n,
        "simnet.link.packets_per_request": packets / n,
        "simnet.link.events_per_packet": events / packets,
        "simnet.link.util": sum(p.busy_ns for p in ports) / (len(ports) * sim.now),
        "pspin.accelerator.hpu_util":
            sum(a.hpu_utilisation() for a in accels) / len(accels),
        "pspin.accelerator.handlers_per_request":
            sum(st.n for a in accels for st in a.stats.values()) / n,
        "pspin.accelerator.drops_per_request":
            sum(a.packets_dropped for a in accels) / n,
        "rdma.nic.retransmits_per_request":
            sum(h.nic.retransmits for h in hosts) / n,
        "rdma.nic.timeouts_per_request": sum(h.nic.timeouts for h in hosts) / n,
        "hostsim.pcie.bytes_per_request":
            sum(h.pcie.bytes_transferred for h in hosts) / n,
        "telemetry.spans_per_request": len(tb.telemetry.spans) / n,
    }
    # phase waits exist only where the workload runs with telemetry on
    phases = sl.phase_latency or {}
    for ph in WAIT_PHASES:
        p99 = (phases.get(ph) or {}).get("p99")
        out[f"wait.{ph}_p99_us"] = (p99 or 0.0) / 1e3
    return out


# ----------------------------------------------------------------- tracer
def _module_of(filename: str) -> Optional[str]:
    """Dotted module name of a ``repro`` source file, else None."""
    path = filename.replace("\\", "/")
    i = path.rfind("/repro/")
    if i < 0 or not path.endswith(".py"):
        return None
    mod = "repro." + path[i + len("/repro/"):-3].replace("/", ".")
    return mod[: -len(".__init__")] if mod.endswith(".__init__") else mod


def _layer_of(filename: str) -> Optional[str]:
    if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
        return "bench"
    mod = _module_of(filename)
    if mod is None:
        return None
    for name, prefixes in LAYERS:
        if any(mod == p or mod.startswith(p + ".") for p in prefixes):
            return name
    return "other"


class Tracer:
    """Profile one or more slices; attribute host time to layers."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.trains: list = []
        self._orig = Port.try_send_train

    def __enter__(self) -> "Tracer":
        orig = self._orig

        def try_send_train(port, pkts, *a, **kw):
            st = orig(port, pkts, *a, **kw)
            if st is not None:
                self.trains.append(st)
            return st

        Port.try_send_train = try_send_train  # type: ignore[method-assign]
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        Port.try_send_train = self._orig  # type: ignore[method-assign]

    def attribute(self) -> Tuple[Dict[str, float], Dict[str, int], int]:
        """``(self seconds per layer, calls per layer, sweep resumptions)``.

        Layers absent from the profile read 0.  ``bench`` is the
        benchmark's own code; ``other`` is unattributable time (code of
        ``repro`` outside the named layers, and foreign code reached
        only from outside any layer)."""
        stats = pstats.Stats(self.profile).stats  # type: ignore[attr-defined]
        layer_of = {f: _layer_of(f[0]) for f in stats}
        secs: Dict[str, float] = dict.fromkeys(LAYER_NAMES + ("bench", "other"), 0.0)
        calls: Dict[str, int] = dict.fromkeys(LAYER_NAMES, 0)
        sweeps = 0

        def charge(func, amount: float, depth: int) -> None:
            layer = layer_of.get(func)
            if layer is not None:
                secs[layer] += amount
                return
            callers = stats[func][4] if func in stats else {}
            total = sum(edge[2] for edge in callers.values())
            if depth >= 8 or total <= 0.0:
                secs["other"] += amount
                return
            for caller, edge in callers.items():
                charge(caller, amount * edge[2] / total, depth + 1)

        for func, (_cc, nc, tt, _ct, _callers) in stats.items():
            charge(func, tt, 0)
            layer = layer_of[func]
            if layer in calls:
                calls[layer] += nc
            mod = _module_of(func[0])
            if (mod, func[2]) in SWEEP_LOOPS:
                sweeps += nc
        return secs, calls, sweeps


def trace_metrics(tracer: Tracer, slices, packets: int,
                  untraced_rps: float) -> Dict[str, float]:
    """Per-layer figures of the traced ``slices`` (summed)."""
    secs, calls, sweeps = tracer.attribute()
    total = sum(secs.values())
    n = sum(s.completed for s in slices)
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.self_share"] = secs[layer] / total
    for layer in LAYER_NAMES:
        out[f"{layer}.calls_per_request"] = calls[layer] / n
    out["bench.self_share"] = secs["bench"] / total
    out["other.self_share"] = secs["other"] / total
    out["layers.accounted_share"] = sum(secs[x] for x in LAYER_NAMES) / total
    # ``cut`` counts the packets a train carried before cross traffic
    # de-coalesced it; the rest went out one by one
    train_packets = sum(st.cut for st in tracer.trains)
    out["simnet.link.train_packet_frac"] = train_packets / packets
    out["pspin.accelerator.sweeps_per_request"] = sweeps / n
    traced_rps = n / sum(s.run_s for s in slices)
    out["trace.requests_per_s"] = traced_rps
    out["trace.overhead_x"] = untraced_rps / traced_rps
    return out
