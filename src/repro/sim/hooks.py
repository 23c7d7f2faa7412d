"""The instrumentation hook bus.

Simulation components publish *typed events* — transaction state changes,
the five Figure-7 trace moments, specBuf hit/miss outcomes, network
occupancy — onto a :class:`HookBus`; observers subscribe per event type
instead of being hard-wired into the hot path.  The
:class:`~repro.sim.trace.TraceRecorder`, the metrics collector, the trace
sinks and the invariant checker are all plain subscribers.

Design constraints:

* **Zero-cost when silent** — publishers guard with :meth:`HookBus.wants`
  so no event object is even constructed unless somebody listens.
* **Deterministic delivery** — subscribers of an event's exact type fire
  synchronously, in subscription order (there is no catch-all type).
* **Fails loudly** — a subscriber exception propagates out of
  :meth:`HookBus.publish`, so a broken observer fails the run instead of
  silently dropping what it was meant to see.
* **No timing impact** — publishing schedules no simulation events, so
  attaching instrumentation never changes a run's tick sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Type

from repro.sim.trace import EventKind
from repro.sim.transaction import TransactionRecord, TxnState


# --------------------------------------------------------------------- events
@dataclass(frozen=True, slots=True)
class HookEvent:
    """Base class for every bus event (delivery is by exact type)."""

    tick: int


@dataclass(frozen=True, slots=True)
class TraceHook(HookEvent):
    """One of the five Figure-7 trace moments (see :class:`EventKind`).

    ``tick`` may lie in the past: a request arrival is only attributable to
    a transaction once its data shows up, and is then published with its
    original timestamp (back-timestamped).
    """

    kind: EventKind = EventKind.DATA_ARRIVE
    transaction_id: int = 0
    sqi: int = 0
    detail: str = ""


@dataclass(frozen=True, slots=True)
class TransactionHook(HookEvent):
    """A transaction entered a new lifecycle state."""

    record: Optional[TransactionRecord] = None
    state: TxnState = TxnState.CREATED
    sqi: int = 0
    detail: str = ""


@dataclass(frozen=True, slots=True)
class SpecBufHook(HookEvent):
    """A speculative push response reached the specBuf (hit or miss)."""

    sqi: int = 0
    entry_index: int = 0
    hit: bool = False


@dataclass(frozen=True, slots=True)
class SpecDecisionHook(HookEvent):
    """A delay algorithm decided when (or whether) to push speculatively.

    Published by the speculation policy at selection and at sticky-slot
    retry time, before the push travels the network — the moment the
    per-algorithm delay decision is made.  ``delay`` is ``send_tick - now``
    (0 = push immediately); ``retry`` distinguishes a first-chance
    selection from a post-miss retry of the same ring slot.  A refused
    retry (``NeverPush``/backoff gave up) is published with ``delay=-1``.
    """

    sqi: int = 0
    entry_index: int = 0
    algorithm: str = ""
    delay: int = 0
    retry: bool = False


@dataclass(frozen=True, slots=True)
class BusHook(HookEvent):
    """A packet was accepted onto the coherence network."""

    kind: str = ""            # PacketKind.value
    busy_cycles: int = 0      # cumulative network busy cycles so far


@dataclass(frozen=True, slots=True)
class LinkHook(HookEvent):
    """A packet traversed one directed NoC link (:mod:`repro.net`).

    Only published by hop-routed topologies (mesh/ring/torus/crossbar);
    the default ``single-bus`` fabric has no links, so golden traces and
    metrics of bus-model runs never see this event.
    """

    link: str = ""            # link name, e.g. "mesh.e[1,2]"
    kind: str = ""            # PacketKind.value of the packet on the link
    src: int = 0              # route source node
    dst: int = 0              # route destination node
    busy_cycles: int = 0      # cumulative busy cycles of this link so far
    wait_cycles: int = 0      # cumulative backpressure cycles at this link


@dataclass(frozen=True, slots=True)
class PushHook(HookEvent):
    """The library issued ``vl_push`` for one message (semantic send)."""

    sqi: int = 0
    producer_id: int = 0
    seq: int = 0              # per-producer FIFO sequence number
    transaction_id: int = 0


@dataclass(frozen=True, slots=True)
class DeliveryHook(HookEvent):
    """A consumer popped one message (the semantic delivery moment)."""

    sqi: int = 0
    endpoint_id: int = 0
    producer_id: int = 0
    seq: int = 0
    transaction_id: int = 0


@dataclass(frozen=True, slots=True)
class RequestHook(HookEvent):
    """An open-system request changed lifecycle state.

    Published by :class:`~repro.sim.request.RequestLog` at every stamp of
    an *active* log — closed-batch runs never activate one, so golden
    traces and metric exports of the default workloads are unchanged.
    ``state`` is a :class:`~repro.sim.request.ReqState` value string
    (``arrived``/``admitted``/``first-pop``/``completed``); ``sojourn``
    is only set on the completion event.  ``tick`` may lie in the past
    for the arrival stamp: a backlogged session admits a request after
    its scheduled arrival and publishes the arrival with its planned
    tick (back-timestamped, like :class:`TraceHook`).
    """

    rid: int = 0
    session: str = ""
    seq: int = 0
    state: str = ""
    sojourn: Optional[int] = None


@dataclass(frozen=True, slots=True)
class LineHook(HookEvent):
    """A consumer cacheline changed occupancy state.

    ``transition`` is ``"fill"`` (EMPTY→VALID), ``"vacate"`` (VALID→EMPTY),
    ``"failed-fill"`` (a stash bounced off a VALID line — the legal miss
    response, not a state change) or ``"rollback"`` (a burst misprediction
    invalidated an unconfirmed fill: VALID→EMPTY without a delivery).
    """

    addr: int = 0
    endpoint_id: int = 0
    index: int = 0
    transition: str = ""
    transaction_id: Optional[int] = None


# ----------------------------------------------------------------------- bus
class HookBus:
    """Synchronous publish/subscribe fan-out for instrumentation events."""

    __slots__ = ("_subs",)

    def __init__(self) -> None:
        self._subs: Dict[Type[HookEvent], List[Callable[[Any], None]]] = {}

    def subscribe(
        self, event_type: Type[HookEvent], callback: Callable[[Any], None]
    ) -> None:
        """Register *callback* for events of exactly *event_type*.
        Delivery order is subscription order."""
        self._subs.setdefault(event_type, []).append(callback)

    def wants(self, event_type: Type[HookEvent]) -> bool:
        """True when at least one subscriber would receive *event_type*.

        Publishers use this to skip constructing event objects on silent
        buses, keeping the un-instrumented hot path free.
        """
        return event_type in self._subs

    def publish(self, event: HookEvent) -> None:
        """Deliver *event* to the subscribers of its exact type, in
        subscription order.  A subscriber's exception propagates to the
        publisher and aborts the run."""
        for callback in self._subs.get(type(event), ()):
            callback(event)
