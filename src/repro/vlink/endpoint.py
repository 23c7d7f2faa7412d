"""Producer and consumer endpoints.

An endpoint is "a distinct address whose offsets serve as buffering points
for data" (Section 3.1): the library allocates each consumer endpoint a
page-aligned buffer of cachelines which it consumes round-robin, and each
producer endpoint a staging buffer it writes and ``vl_push``-es from.
Endpoints subscribe to a Shared Queue Identifier (SQI) to form M:N channels.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.errors import RegistrationError
from repro.mem.address import Segment
from repro.mem.cacheline import ConsumerLine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.hooks import HookBus
    from repro.sim.kernel import Environment


class ProducerEndpoint:
    """A producer's subscription to an SQI.

    The producer side needs no line state machine: after ``vl_push`` the
    device owns the data and the producer's staging line returns to a
    writable state immediately (no coherence transition — Section 3.1).
    """

    def __init__(self, endpoint_id: int, sqi: int, segment: Segment, core_id: int) -> None:
        self.endpoint_id = endpoint_id
        self.sqi = sqi
        self.segment = segment
        self.core_id = core_id
        self.pushes = 0
        self.next_seq = 0

    def take_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProducerEndpoint {self.endpoint_id} sqi={self.sqi} core={self.core_id}>"


class ConsumerEndpoint:
    """A consumer's subscription to an SQI with its receive cachelines."""

    def __init__(
        self,
        env: "Environment",
        endpoint_id: int,
        sqi: int,
        segment: Segment,
        core_id: int,
        num_lines: int,
        spec_enabled: bool = False,
        hooks: Optional["HookBus"] = None,
    ) -> None:
        if num_lines < 1:
            raise RegistrationError("a consumer endpoint needs >= 1 cacheline")
        if num_lines > segment.num_lines:
            raise RegistrationError(
                f"{num_lines} lines do not fit the {segment.length}-byte segment"
            )
        self.env = env
        self.endpoint_id = endpoint_id
        self.sqi = sqi
        self.segment = segment
        self.core_id = core_id
        #: SPAMeR: registered in specBuf and using the fetch-free dequeue path.
        self.spec_enabled = spec_enabled
        self.lines: List[ConsumerLine] = [
            ConsumerLine(
                env, segment.line_addr(i), endpoint_id, i,
                hooks=hooks, core_id=core_id,
            )
            for i in range(num_lines)
        ]
        self._rr_index = 0
        self.pops = 0
        #: Slow-path line checks: one per poll quantum a pop spent parked.
        self.polls = 0

    # -- round-robin consumption -------------------------------------------------
    @property
    def current_line(self) -> ConsumerLine:
        """The line the library will consume next (round-robin discipline)."""
        return self.lines[self._rr_index]

    def advance(self) -> None:
        """Move the round-robin pointer past the just-consumed line."""
        self._rr_index = (self._rr_index + 1) % len(self.lines)

    def oldest_valid_line(self) -> Optional[ConsumerLine]:
        """The next VALID line in round-robin order after the current one.

        Used by the library's stale-scan recovery: a stale prerequest can
        park a message in a future round-robin slot (Section 4.2's
        "prerequest" behaviour); scanning forward restores liveness.
        """
        n = len(self.lines)
        for step in range(n):
            line = self.lines[(self._rr_index + step) % n]
            if line.poppable:
                return line
        return None

    def retarget(self, line: ConsumerLine) -> None:
        """Point the round-robin index at *line* (stale-scan recovery)."""
        self._rr_index = line.index

    # -- metrics -----------------------------------------------------------------
    def empty_cycles(self) -> int:
        return sum(line.empty_cycles() for line in self.lines)

    def valid_cycles(self) -> int:
        return sum(line.valid_cycles() for line in self.lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ConsumerEndpoint {self.endpoint_id} sqi={self.sqi} "
            f"core={self.core_id} lines={len(self.lines)} "
            f"spec={'on' if self.spec_enabled else 'off'}>"
        )
