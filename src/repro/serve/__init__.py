"""``repro.serve`` — the embedded cached executor.

A drop-in for :func:`~repro.eval.parallel.run_requests` that keeps a
warmed worker pool across calls and answers repeated sweep cells from a
content-addressed result cache made provably exact by bit-wise
determinism; the cache can spill to a directory for reuse across
processes (``--cache-dir``).  Architecture and the cache-correctness
argument: ``docs/SERVING.md``.
"""

from repro.serve.cache import ResultCache, metrics_bytes
from repro.serve.daemon import ServeDaemon
from repro.serve.executor import ServeExecutor
from repro.serve.queue import Job, JobQueue, JobState

__all__ = [
    "Job",
    "JobQueue",
    "JobState",
    "ResultCache",
    "ServeDaemon",
    "ServeExecutor",
    "metrics_bytes",
]
