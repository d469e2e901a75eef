"""Multi-switch topologies.

The paper's SST configuration is a flat network (§III-D), which
:class:`~repro.simnet.network.Network` models as one switch.  Real
deployments hang storage and compute off different leaves; this module
adds a two-tier **leaf–spine** fabric so sensitivity studies can vary
hop counts and uplink oversubscription:

* endpoints attach to leaf switches;
* each leaf connects to every spine with ``uplink_gbps`` links;
* traffic within a leaf switches locally (1 switch hop); cross-leaf
  traffic takes leaf → spine → leaf (3 hops) and shares the uplinks —
  an oversubscribed fabric throttles cross-leaf incast exactly like the
  real thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .engine import Simulator
from .link import Port
from .network import NetConfig, Switch
from .packet import Packet

__all__ = ["LeafSpineNetwork", "Topology", "PartitionSpec", "star_topology"]


# --------------------------------------------------------------------------
# Graph-level topology description + partitioning (repro.simnet.parallel)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionSpec:
    """A validated k-way cut of a :class:`Topology`.

    ``ranks`` lists every endpoint with its partition rank, in
    registration order — the deterministic basis for cross-partition
    message ordering.  ``lookahead_ns`` is the minimum latency any
    packet spends crossing the cut (here: one switch traversal), i.e.
    the conservative-window lookahead of the parallel engine.
    """

    k: int
    ranks: Tuple[Tuple[str, int], ...]
    lookahead_ns: float

    def rank_of(self, name: str, default: int = 0) -> int:
        return self._rank_map.get(name, default)

    def members(self, rank: int) -> List[str]:
        return [n for n, r in self.ranks if r == rank]

    @property
    def _rank_map(self) -> Dict[str, int]:
        m = self.__dict__.get("_rank_map_cache")
        if m is None:
            m = dict(self.ranks)
            object.__setattr__(self, "_rank_map_cache", m)
        return m


@dataclass
class Topology:
    """Abstract star-graph description: endpoint subtrees + cut links.

    Every endpoint (a host/NIC subtree) hangs off the switch core over
    one link; :meth:`partition` cuts the graph *inside* the switch so
    each endpoint subtree — including its local switch out-port — lands
    wholly in one partition.  Direct endpoint↔endpoint links (no switch
    hop between them) cannot be cut and must be co-partitioned.
    """

    cfg: NetConfig = field(default_factory=NetConfig)
    endpoints: List[str] = field(default_factory=list)
    #: (a, b, latency_ns); b == "switch" for the standard star links
    links: List[Tuple[str, str, float]] = field(default_factory=list)

    def add_endpoint(self, name: str) -> None:
        if name in self.endpoints:
            raise ValueError(f"duplicate endpoint {name!r} in topology")
        self.endpoints.append(name)
        self.links.append((name, "switch", self.cfg.link_latency_ns))

    def add_link(self, a: str, b: str, latency_ns: Optional[float] = None) -> None:
        """An extra direct link between two registered endpoints."""
        for end in (a, b):
            if end != "switch" and end not in self.endpoints:
                raise ValueError(
                    f"link {a}<->{b} references unknown endpoint {end!r}; "
                    f"add_endpoint() it first"
                )
        self.links.append((a, b, self.cfg.link_latency_ns
                           if latency_ns is None else latency_ns))

    def partition(self, k: int, assignment: Optional[Dict[str, int]] = None) -> PartitionSpec:
        """Cut the graph into ``k`` partitions at the switch core.

        Default assignment: contiguous blocks in registration order.
        An explicit ``assignment`` maps every endpoint to a rank in
        ``range(k)``; partial maps, empty partitions, and cuts through
        direct endpoint↔endpoint links all raise ``ValueError`` with a
        message naming the offender.
        """
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"partition count must be a positive integer, got {k!r}")
        n = len(self.endpoints)
        if n == 0:
            raise ValueError("cannot partition an empty topology (no endpoints)")
        if k > n:
            raise ValueError(
                f"k={k} partitions exceed the {n} endpoint(s) in the topology; "
                f"every partition needs at least one endpoint subtree"
            )
        if assignment is None:
            ranks = tuple(
                (name, (i * k) // n) for i, name in enumerate(self.endpoints)
            )
        else:
            missing = [name for name in self.endpoints if name not in assignment]
            if missing:
                raise ValueError(
                    f"partition assignment orphans link "
                    f"{missing[0]}<->switch: endpoint {missing[0]!r} has no partition"
                )
            unknown = sorted(set(assignment) - set(self.endpoints))
            if unknown:
                raise ValueError(
                    f"partition assignment names unknown endpoint {unknown[0]!r}"
                )
            for name in self.endpoints:
                r = assignment[name]
                if not isinstance(r, int) or r < 0 or r >= k:
                    raise ValueError(
                        f"endpoint {name!r} assigned to partition {r!r}, "
                        f"outside range(0, {k})"
                    )
            ranks = tuple((name, assignment[name]) for name in self.endpoints)
        rank_map = dict(ranks)
        used = {r for _, r in ranks}
        empty = sorted(set(range(k)) - used)
        if empty:
            raise ValueError(
                f"partition {empty[0]} would be empty; every partition "
                f"needs at least one endpoint subtree"
            )
        # a direct (switch-less) link has no lookahead-sized hop to cut at
        for a, b, _lat in self.links:
            if a != "switch" and b != "switch" and rank_map[a] != rank_map[b]:
                raise ValueError(
                    f"partitioning would cut the direct link {a}<->{b} "
                    f"(partitions {rank_map[a]} and {rank_map[b]}); direct "
                    f"links cannot cross a partition boundary"
                )
        return PartitionSpec(k=k, ranks=ranks,
                             lookahead_ns=self.cfg.switch_latency_ns)


def star_topology(names: List[str], cfg: Optional[NetConfig] = None) -> Topology:
    """The standard testbed shape: every endpoint one link from the switch."""
    topo = Topology(cfg=cfg or NetConfig())
    for name in names:
        topo.add_endpoint(name)
    return topo


class _LeafSwitch(Switch):
    """A leaf: local endpoints plus uplinks to every spine."""

    def __init__(self, sim: Simulator, cfg: NetConfig, name: str, fabric: "LeafSpineNetwork") -> None:
        super().__init__(sim, cfg, name=name)
        self.fabric = fabric
        self.uplinks: List[Port] = []
        self._rr = 0

    def forward(self, pkt: Packet) -> None:
        self.rx_packets += 1
        if pkt.dst in self._out_ports:
            out = self._out_ports[pkt.dst]
            self.sim._call_soon1(out.enqueue, pkt, delay=self.cfg.switch_latency_ns)
            return
        # cross-leaf: ECMP round robin over the spine uplinks
        if not self.uplinks:
            raise KeyError(f"{self.name}: no route to {pkt.dst!r}")
        up = self.uplinks[self._rr % len(self.uplinks)]
        self._rr += 1
        self.sim._call_soon1(up.enqueue, pkt, delay=self.cfg.switch_latency_ns)


class _SpineSwitch(Switch):
    """A spine: routes down to the leaf owning the destination."""

    def __init__(self, sim: Simulator, cfg: NetConfig, name: str, fabric: "LeafSpineNetwork") -> None:
        super().__init__(sim, cfg, name=name)
        self.fabric = fabric
        self.downlinks: Dict[str, Port] = {}  # leaf name -> port

    def forward(self, pkt: Packet) -> None:
        self.rx_packets += 1
        leaf = self.fabric.leaf_of.get(pkt.dst)
        if leaf is None:
            raise KeyError(f"{self.name}: no route to {pkt.dst!r}")
        down = self.downlinks[leaf]
        self.sim._call_soon1(down.enqueue, pkt, delay=self.cfg.switch_latency_ns)


class _Shim:
    def __init__(self, target: Any, name: str) -> None:
        self._t = target
        self.name = name

    def receive(self, pkt: Packet) -> None:
        self._t.forward(pkt)


class LeafSpineNetwork:
    """A two-tier fabric with configurable uplink oversubscription."""

    def __init__(
        self,
        sim: Simulator,
        cfg: Optional[NetConfig] = None,
        n_leaves: int = 2,
        n_spines: int = 1,
        uplink_gbps: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.cfg = cfg or NetConfig()
        self.uplink_gbps = uplink_gbps or self.cfg.bandwidth_gbps
        self.leaves = [
            _LeafSwitch(sim, self.cfg, f"leaf{i}", self) for i in range(n_leaves)
        ]
        self.spines = [
            _SpineSwitch(sim, self.cfg, f"spine{j}", self) for j in range(n_spines)
        ]
        self.leaf_of: Dict[str, str] = {}
        self.endpoints: Dict[str, object] = {}
        # wire every leaf to every spine, both directions
        for leaf in self.leaves:
            for spine in self.spines:
                up = Port(sim, f"{leaf.name}->{spine.name}", self.uplink_gbps,
                          queue_packets=self.cfg.port_queue_packets)
                up.connect(_Shim(spine, spine.name), self.cfg.link_latency_ns)
                leaf.uplinks.append(up)
                down = Port(sim, f"{spine.name}->{leaf.name}", self.uplink_gbps,
                            queue_packets=self.cfg.port_queue_packets)
                down.connect(_Shim(leaf, leaf.name), self.cfg.link_latency_ns)
                spine.downlinks[leaf.name] = down

    def register(self, endpoint: Any, leaf: int = 0) -> Port:
        """Attach an endpoint to a given leaf; returns its uplink port."""
        if endpoint.name in self.endpoints:
            raise ValueError(f"duplicate endpoint name {endpoint.name!r}")
        self.endpoints[endpoint.name] = endpoint
        self.leaf_of[endpoint.name] = self.leaves[leaf].name
        return self.leaves[leaf].attach(endpoint)

    @property
    def switch(self) -> Switch:  # Network-compat shim for code that pokes .switch
        return self.leaves[0]
