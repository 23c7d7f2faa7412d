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
metric the paper reports in Figure 10b.  ``mesh``/``ring``/``torus``/
``crossbar`` topologies instead route each packet hop-by-hop through
per-link servers, so source/destination placement matters; callers pass
``src``/``dst`` node ids obtained from :meth:`CoherenceNetwork.core_node` /
:meth:`CoherenceNetwork.srd_node`.

The network is callback-passing: a sender hands ``transit``/``response``
the handler to run at delivery, and each hop is one ``call_later`` queue
entry keyed exactly as the ``Timeout`` it replaced (docs/PERFORMANCE.md
§5).  Only the MOESI baseline, whose processes ``yield`` their packets,
goes through the :meth:`CoherenceNetwork.transit_event` adapter.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.net.topology import build_topology
from repro.sim.event import Event
from repro.sim.hooks import BusHook
from repro.sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.sim.hooks import HookBus
    from repro.sim.kernel import Environment


class PacketKind(Enum):
    """Packet classes that occupy the coherence network."""

    REQUEST = "request"       # consumer vl_fetch  (core -> routing device)
    PUSH_DATA = "push_data"   # producer vl_push   (core -> routing device)
    STASH = "stash"           # data delivery      (routing device -> core)
    REGISTER = "register"     # spamer_register    (core -> routing device)
    COHERENCE = "coherence"   # MOESI snoop/data traffic (software baseline)


class CoherenceNetwork:
    """Shared interconnect with occupancy accounting.

    ``transit(kind, src, dst, callback, arg)`` runs ``callback(arg)`` when
    the packet has been delivered at the far end (serialization +
    propagation).  Hit/miss *response signals* ride the dedicated response
    channel and are modelled as pure latency (no occupancy), matching the
    paper's utilization metric which counts request/data packets only.
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
        src: int,
        dst: int,
        callback: Callable[[Any], None],
        arg: Any = None,
    ) -> None:
        """Send one packet from node *src* to node *dst*; *callback(arg)*
        runs at delivery.

        On the ``single-bus`` topology *src*/*dst* are ignored (every pair
        is equidistant).
        """
        self.counters.add(kind.value)
        self.counters.add("total_packets")
        self.topology.transit(kind.value, src, dst, callback, arg)
        hooks = self.hooks
        if hooks is not None and hooks.wants(BusHook):
            hooks.publish(
                BusHook(
                    tick=self.env.now,
                    kind=kind.value,
                    busy_cycles=self.busy_cycles,
                )
            )

    def transit_event(self, kind: PacketKind, src: int, dst: int) -> Event:
        """:meth:`transit` for process code that waits on its packets
        (the MOESI baseline of :mod:`repro.mem.coherence`).

        The returned plain :class:`Event` is fired in place by the
        delivery callback, so it adds no queue entry of its own: the
        waiting process resumes inside the dispatch that delivers the
        packet, exactly as it did when it waited on the delivery event.
        """
        event = Event(self.env)
        self.transit(kind, src, dst, Event.succeed_now, event)
        return event

    def response(
        self, src: int, dst: int, callback: Callable[[Any], None], arg: Any = None
    ) -> None:
        """Send a hit/miss response signal (latency only, no occupancy);
        *callback(arg)* runs when it arrives.

        Responses ride dedicated wires but still cover the src→dst
        distance; on ``single-bus`` that is the flat ``bus_latency``.
        """
        self.counters.add("responses")
        self.env.call_later(
            self.topology.response_latency(src, dst), callback, arg
        )

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
