"""The coherence-network model shared by cores and the routing device.

Both Virtual-Link and SPAMeR reuse the existing hierarchical coherence
network rather than a dedicated queue network (Section 2), so every queue
packet — consumer *request* (vl_fetch), producer *data* (vl_push) and
routing-device *stash* — competes for the same interconnect.

The *fabric* underneath is pluggable (:mod:`repro.net`): the default
``single-bus`` topology is a single FIFO server — each packet serializes
onto the network for :attr:`SystemConfig.bus_occupancy` cycles and then
propagates for :attr:`SystemConfig.bus_latency` cycles, and utilization —
the fraction of cycles with a packet occupying the network — is exactly the
metric the paper reports in Figure 10b.  ``mesh``/``ring``/``crossbar``
topologies instead route each packet hop-by-hop through per-link servers,
so source/destination placement matters; callers pass ``src``/``dst`` node
ids obtained from :meth:`CoherenceNetwork.core_node` /
:meth:`CoherenceNetwork.srd_node`.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, TYPE_CHECKING

from repro.net.topology import build_topology
from repro.sim.event import Event
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.hooks import HookBus
    from repro.sim.kernel import Environment
    from repro.sim.transaction import TransactionRecord


class PacketKind(Enum):
    """Packet classes that occupy the coherence network."""

    REQUEST = "request"       # consumer vl_fetch  (core -> routing device)
    PUSH_DATA = "push_data"   # producer vl_push   (core -> routing device)
    STASH = "stash"           # data delivery      (routing device -> core)
    REGISTER = "register"     # spamer_register    (core -> routing device)
    COHERENCE = "coherence"   # MOESI snoop/data traffic (software baseline)


class CoherenceNetwork:
    """Shared interconnect with occupancy accounting.

    ``transit(kind)`` returns an event that fires when the packet has been
    delivered at the far end (serialization + propagation).  Hit/miss
    *response signals* ride the dedicated response channel and are modelled
    as pure latency (no occupancy), matching the paper's utilization metric
    which counts request/data packets only.
    """

    def __init__(
        self,
        env: "Environment",
        config: "SystemConfig",
        hooks: Optional["HookBus"] = None,
    ) -> None:
        self.env = env
        self.config = config
        #: Instrumentation bus; occupancy events are published per accepted
        #: packet when somebody subscribed to ``BusHook`` (None = silent).
        self.hooks = hooks
        #: The fabric model (:mod:`repro.net`): ``single-bus`` replicates
        #: the historical one-server arithmetic bit-for-bit; NoC
        #: topologies route hop-by-hop through per-link servers.
        self.topology = build_topology(config.topology, env, config, hooks=hooks)
        self.latency = config.bus_latency
        self.counters = Counter()

    def transit(
        self,
        kind: PacketKind,
        txn: Optional["TransactionRecord"] = None,
        src: int = 0,
        dst: int = 0,
    ) -> Event:
        """Send one packet from node *src* to node *dst*; event fires at
        delivery.

        On the ``single-bus`` topology *src*/*dst* are ignored (every pair
        is equidistant).  *txn* threads the packet's transaction record
        through the network layer so instrumentation can attribute
        occupancy to lifecycles; the network itself only forwards it to
        :class:`BusHook` subscribers.
        """
        self.counters.add(kind.value)
        self.counters.add("total_packets")
        delivered = self.topology.transit(kind.value, src, dst)
        if self.hooks is not None:
            from repro.sim.hooks import BusHook

            if self.hooks.wants(BusHook):
                self.hooks.publish(
                    BusHook(
                        tick=self.env.now,
                        kind=kind.value,
                        busy_cycles=self.busy_cycles,
                    )
                )
        return delivered

    def response(self, src: int = 0, dst: int = 0) -> Event:
        """Send a hit/miss response signal (latency only, no occupancy).

        Responses ride dedicated wires but still cover the src→dst
        distance; on ``single-bus`` that is the flat ``bus_latency``.
        """
        self.counters.add("responses")
        return self.env.timeout(self.topology.response_latency(src, dst))

    # -- placement ---------------------------------------------------------------
    def core_node(self, core_id: int) -> int:
        """The topology node core *core_id*'s cache controller sits on."""
        return self.topology.core_node(core_id)

    def srd_node(self, srd_index: int) -> int:
        """The topology node SRD shard *srd_index* sits on."""
        return self.topology.srd_node(srd_index)

    # -- metrics -----------------------------------------------------------------
    @property
    def busy_cycles(self) -> int:
        return self.topology.busy_cycles

    @property
    def wait_cycles(self) -> int:
        """Backpressure cycles packets spent queued at NoC links (0 on
        the shared bus, which folds queueing into busy time)."""
        return self.topology.wait_cycles

    def links(self):
        """Per-link objects on NoC topologies; ``[]`` on ``single-bus``."""
        return self.topology.links()

    def link_report(self, elapsed: int = 0):
        """Per-link utilization/backpressure rows (empty on single-bus)."""
        return self.topology.link_report(elapsed)

    def utilization(self, elapsed: int = 0) -> float:
        """Busy fraction over *elapsed* cycles across the bus or all links
        (default window: current sim time)."""
        return self.topology.utilization(elapsed)

    def packets(self, kind: PacketKind) -> int:
        return self.counters.get(kind.value)

    @property
    def total_packets(self) -> int:
        return self.counters.get("total_packets")
