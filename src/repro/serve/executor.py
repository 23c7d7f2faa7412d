"""A cached drop-in for :func:`repro.eval.parallel.run_requests`.

Every sweep in ``repro.eval`` funnels through one API — a list of
:class:`~repro.eval.parallel.RunRequest` in, a list of
:class:`~repro.eval.metrics.RunMetrics` out, submission order preserved,
first failure re-raised typed.  :class:`ServeExecutor` implements exactly
that contract on an embedded :class:`~repro.serve.daemon.ServeDaemon`, so
``repro batch``, ``repro load`` and ``repro autotune --burst`` route
through its warm pool and result cache by passing ``executor=`` — no other
code changes, and byte-identical results by the same determinism argument
as ``--jobs``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.eval.metrics import RunMetrics
from repro.eval.parallel import RunRequest, execute_request
from repro.serve.daemon import ServeDaemon
from repro.serve.queue import JobState


class ServeExecutor:
    """``run_requests``-shaped callable owning an embedded daemon."""

    def __init__(self, daemon: ServeDaemon) -> None:
        self.daemon = daemon

    @classmethod
    def local(
        cls,
        jobs: Optional[int] = None,
        cache_dir=None,
        runner: Callable[[RunRequest], object] = execute_request,
    ) -> "ServeExecutor":
        """An executor owning a private, already-warmed daemon; results
        spill to *cache_dir* when given."""
        return cls(ServeDaemon(jobs=jobs, cache_dir=cache_dir, runner=runner).start())

    def __call__(
        self, requests: Sequence[RunRequest], jobs: Optional[int] = None
    ) -> List[RunMetrics]:
        """Run every request; submission order, first typed error re-raised.

        ``jobs`` is accepted for signature compatibility with
        :func:`~repro.eval.parallel.run_requests` and ignored — the
        daemon's worker pool governs parallelism.
        """
        jobs = [self.daemon.submit(request) for request in requests]
        self.daemon.drain()
        for job in jobs:
            if job.state is JobState.FAILED:
                raise job.error
        return [job.metrics for job in jobs]

    def close(self) -> None:
        """Stop the embedded daemon and release its pool."""
        self.daemon.stop()

    def __enter__(self) -> "ServeExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
