"""The FIFO job queue behind the serve daemon.

A :class:`Job` wraps one :class:`~repro.eval.parallel.RunRequest` with
its serving lifecycle — ``QUEUED → RUNNING → DONE | FAILED`` (or
``CANCELLED`` when a stop discards queued work).  Jobs dispatch in
admission order.  Wall-clock timestamps live on the job so callers can
report per-job wait vs service time — serving figures, measured in real
seconds, entirely separate from the deterministic simulated clock inside
each run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, List, Optional

from repro.eval.metrics import RunMetrics
from repro.eval.parallel import RunRequest


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class Job:
    """One admitted run request and its serving lifecycle."""

    request: RunRequest
    #: Monotone admission sequence number — FIFO order within the daemon.
    seq: int = 0
    state: JobState = JobState.QUEUED
    #: Wall-clock lifecycle stamps (seconds, time.monotonic domain).
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Set on completion: exactly one of metrics/error for DONE/FAILED.
    metrics: Optional[RunMetrics] = None
    error: Optional[BaseException] = None
    #: True when the result came straight from the result cache.
    cache_hit: bool = False
    cache_key: Optional[str] = None

    @property
    def wait_s(self) -> Optional[float]:
        """Admission-to-dispatch wall time (None while queued)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def service_s(self) -> Optional[float]:
        """Dispatch-to-completion wall time (None until finished)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class JobQueue:
    """Unbounded FIFO of admitted jobs plus the record of every job."""

    def __init__(self) -> None:
        self._queued: Deque[Job] = deque()
        self._jobs: List[Job] = []

    def submit(self, job: Job) -> Job:
        """Record *job*; a ``QUEUED`` job also waits for dispatch (a cache
        hit is born terminal and only joins the record)."""
        job.seq = len(self._jobs)
        self._jobs.append(job)
        if job.state is JobState.QUEUED:
            self._queued.append(job)
        return job

    def select_next(self) -> Optional[Job]:
        """Pop the oldest queued job (None when nothing is queued)."""
        if not self._queued:
            return None
        job = self._queued.popleft()
        job.state = JobState.RUNNING
        job.started_at = time.monotonic()
        return job

    def cancel_queued(self) -> None:
        """Cancel every still-queued job (a stop discarding backlog)."""
        for job in self._queued:
            job.state = JobState.CANCELLED
            job.finished_at = time.monotonic()
        self._queued.clear()

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet dispatched."""
        return len(self._queued)

    def jobs(self) -> List[Job]:
        """Every job ever admitted, in admission order."""
        return list(self._jobs)
