"""The embedded experiment daemon: warm pool + FIFO queue + result cache.

One :class:`ServeDaemon` owns a **persistent warmed**
:class:`~concurrent.futures.ProcessPoolExecutor` (worker spawn is paid
once at startup, not once per sweep), a FIFO
:class:`~repro.serve.queue.JobQueue`, and a content-addressed
:class:`~repro.serve.cache.ResultCache` that turns any repeated sweep cell
into a zero-cost, provably byte-identical hit.  With a ``cache_dir`` the
cache spills to disk, so a later process over the same directory serves
the repeats of an earlier one.

Crash isolation mirrors the parallel executor's contract: a typed
simulation failure (deadlock, verification) travels back pickled and
marks only its own job ``FAILED``; a hard worker death (the pool breaks)
fails the in-flight jobs with a typed :class:`~repro.errors.ServeError`
and the daemon rebuilds its pool and keeps serving.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.errors import ServeError
from repro.eval.parallel import RunRequest, execute_request, make_pool, resolve_jobs
from repro.serve.cache import ResultCache
from repro.serve.queue import Job, JobQueue, JobState


class ServeDaemon:
    """The in-process experiment service; see the module docstring."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[Path] = None,
        runner: Callable[[RunRequest], object] = execute_request,
    ) -> None:
        self.queue = JobQueue()
        self.cache = ResultCache(cache_dir)
        self._runner = runner
        self._workers = resolve_jobs(jobs)
        self._pool = None
        self._running: Dict[Future, Job] = {}
        self._stopped = False

    @property
    def stopped(self) -> bool:
        return self._stopped

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> "ServeDaemon":
        """Create and warm the persistent worker pool; idempotent."""
        if self._pool is None and not self._stopped:
            self._pool = make_pool(self._workers)
        return self

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ---------------------------------------------------------------- admission
    def submit(self, request: RunRequest) -> Job:
        """Queue one request, or serve it straight from the cache.

        A cache hit is born terminal with the cached metrics attached and
        never waits for a worker.  Raises :class:`ServeError` once the
        daemon is stopped.
        """
        if self._stopped:
            raise ServeError("daemon is stopped; start a new one to submit")
        key = request.cache_key()
        job = Job(request=request, cache_key=key)
        payload = self.cache.get_bytes(key)
        if payload is not None:
            job.state = JobState.DONE
            job.started_at = job.finished_at = job.submitted_at
            job.metrics = pickle.loads(payload)
            job.cache_hit = True
        return self.queue.submit(job)

    # ------------------------------------------------------------------ running
    def _harvest(self) -> None:
        """Collect finished futures; rebuild the pool after a worker death."""
        pool_broken = False
        for future in [f for f in self._running if f.done()]:
            job = self._running.pop(future)
            try:
                job.metrics = future.result()
                job.state = JobState.DONE
                self.cache.put(job.cache_key, job.metrics)
            except BrokenProcessPool as exc:
                pool_broken = True
                job.error = ServeError(
                    f"worker died mid-job while running "
                    f"{job.request.workload!r} (job {job.seq}): {exc}"
                )
                job.state = JobState.FAILED
            except Exception as exc:  # noqa: BLE001 - typed errors pass through
                job.error = exc
                job.state = JobState.FAILED
            job.finished_at = time.monotonic()
        if pool_broken and not self._stopped:
            # Crash isolation: the broken pool took its workers down, not
            # the service.  Stand a fresh warmed pool up and keep going.
            self._pool.shutdown(wait=False)
            self._pool = make_pool(self._workers)

    def _dispatch(self) -> None:
        """Fill free worker slots in FIFO order."""
        while len(self._running) < self._workers:
            job = self.queue.select_next()
            if job is None:
                break
            self._running[self._pool.submit(self._runner, job.request)] = job

    def _wait(self) -> None:
        """Block until at least one in-flight job finishes, then harvest."""
        wait(list(self._running), return_when=FIRST_COMPLETED)
        self._harvest()

    def drain(self) -> None:
        """Run every queued job to a terminal state; returns when idle."""
        self.start()
        self._dispatch()
        while self._running:
            self._wait()
            self._dispatch()

    def stop(self) -> None:
        """Finish in-flight jobs, cancel the backlog, release the pool.

        Idempotent: a second (or tenth) call on a stopped daemon — or a
        call on one that never started — is a no-op.
        """
        if self._stopped:
            return
        self._stopped = True
        self.queue.cancel_queued()
        # Dispatched simulations are never preempted.
        while self._running:
            self._wait()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
