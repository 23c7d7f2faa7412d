"""Shared-resource primitives built on the event kernel.

Two primitives cover every contention point in the modelled system:

* :class:`Resource` — counted semaphore with FIFO waiters (e.g. SRD buffer
  entries, producer credits).
* :class:`FifoServer` — a single server that items occupy for a service time
  (the coherence-network bus); tracks busy cycles for utilization metrics.

Both carry ``__slots__`` (a system builds hundreds of them);
:class:`Resource` precomputes its grant-event name once in ``__init__`` —
``acquire`` runs per message hop, and the f-string per call showed up in
the sim-leg profile (docs/PERFORMANCE.md §5).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment


class Resource:
    """A counted resource with FIFO-queued acquire requests."""

    __slots__ = ("env", "name", "capacity", "_in_use", "_waiters",
                 "_acquire_name")

    def __init__(self, env: "Environment", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self._acquire_name = f"acquire:{name}"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        """Return an event that fires when one unit has been granted."""
        ev = Event(self.env, name=self._acquire_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return one unit; wakes the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release() without acquire()")
        if self._waiters:
            # Hand the unit straight to the next waiter (count unchanged).
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class FifoServer:
    """A single FIFO server with a fixed per-item service time.

    Models the shared coherence-network bus: each packet occupies the server
    for ``service_time`` cycles (its *occupancy*); total busy cycles divided
    by elapsed time is the bus utilization reported in Figure 10b.
    """

    __slots__ = ("env", "name", "service_time", "_free_at", "busy_cycles",
                 "packets_served")

    def __init__(self, env: "Environment", service_time: int, name: str = "bus") -> None:
        if service_time < 0:
            raise SimulationError(f"{name}: negative service time {service_time}")
        self.env = env
        self.name = name
        self.service_time = int(service_time)
        self._free_at: int = env.now
        self.busy_cycles: int = 0
        self.packets_served: int = 0

    def serve(
        self, callback: Callable[[Any], None], arg: Any = None, extra_delay: int = 0
    ) -> None:
        """Enqueue one packet; *callback(arg)* runs when service (plus any
        *extra_delay*, e.g. wire propagation after serialization) completes.

        The completion rides the queue as one ``call_later`` entry, keyed
        ``(finish + extra_delay, NORMAL, seq)`` exactly as a ``Timeout``
        created here would be, so no :class:`Event` is allocated per packet.
        """
        env = self.env
        now = env.now
        free_at = self._free_at
        finish = (now if now > free_at else free_at) + self.service_time
        self._free_at = finish
        self.busy_cycles += self.service_time
        self.packets_served += 1
        env.call_later(finish - now + extra_delay, callback, arg)

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Fraction of cycles the server was busy over *elapsed* (default: now)."""
        window = self.env.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / window)
