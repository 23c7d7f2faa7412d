"""Daemon lifecycle: warm pool, cache hits, crash isolation, disk spill.

Every scenario — including worker death and deadlocked simulations — runs
in-process through :meth:`ServeDaemon.submit` and :meth:`ServeDaemon.drain`.
"""

import os

import pytest

from repro.errors import ServeError, SimDeadlockError
from repro.eval.parallel import RunRequest, run_requests
from repro.eval.runner import setting_by_name
from repro.serve import JobState, ServeDaemon, metrics_bytes

SCALE = 0.05
SEED = 0xC0FFEE


def _request(workload="ping-pong", setting="tuned", seed=SEED, **kwargs):
    return RunRequest.from_setting(
        workload, setting_by_name(setting), scale=SCALE, seed=seed, **kwargs
    )


def _die(request):
    """A runner whose worker process dies hard (no exception to pickle)."""
    os._exit(13)


# --------------------------------------------------------------- lifecycle
def test_daemon_runs_jobs_and_matches_run_requests():
    requests = [_request("ping-pong"), _request("incast")]
    with ServeDaemon(jobs=1) as daemon:
        jobs = [daemon.submit(r) for r in requests]
        daemon.drain()
    expected = run_requests(requests)
    assert [j.state for j in jobs] == [JobState.DONE, JobState.DONE]
    assert [j.metrics for j in jobs] == expected
    for job in jobs:
        assert job.wait_s is not None and job.wait_s >= 0
        assert job.service_s is not None and job.service_s >= 0


def test_cache_hit_is_byte_identical_and_skips_the_queue():
    request = _request()
    with ServeDaemon(jobs=1) as daemon:
        first = daemon.submit(request)
        daemon.drain()
        assert not first.cache_hit
        hit = daemon.submit(request)
        assert hit.cache_hit
        assert hit.state is JobState.DONE
        # Born terminal: no queue depth consumed, nothing to drain.
        assert daemon.queue.depth == 0
        assert metrics_bytes(hit.metrics) == metrics_bytes(first.metrics)
        assert hit.wait_s == 0.0 and hit.service_s == 0.0
        stats = daemon.cache.stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (1, 1, 1)


def test_stop_is_idempotent_and_cancels_backlog():
    daemon = ServeDaemon(jobs=1)
    daemon.start()
    job = daemon.submit(_request())
    daemon.stop()
    daemon.stop()  # second call is a no-op
    assert daemon.stopped
    assert job.state is JobState.CANCELLED
    with pytest.raises(ServeError, match="stopped"):
        daemon.submit(_request())
    ServeDaemon(jobs=1).stop()  # never started: also a no-op


def test_drain_finishes_in_flight_jobs():
    with ServeDaemon(jobs=1) as daemon:
        # Three distinct cells on one worker: two wait while one runs,
        # and drain returns only when all three have finished.
        jobs = [daemon.submit(_request(seed=SEED + i)) for i in range(3)]
        daemon.drain()
        assert all(j.state is JobState.DONE for j in jobs)
        assert daemon.queue.depth == 0
        assert [j.seq for j in daemon.queue.jobs()] == [0, 1, 2]


def test_serve_metrics_separate_wait_from_service():
    # One worker, two distinct cells: the second waits in the queue while
    # the first runs, so its admission-to-dispatch wait covers the first
    # job's dispatch-to-completion service time.
    with ServeDaemon(jobs=1) as daemon:
        first = daemon.submit(_request("ping-pong"))
        second = daemon.submit(_request("incast"))
        daemon.drain()
    assert first.service_s > 0 and second.service_s > 0
    assert second.wait_s >= first.service_s
    assert second.started_at >= first.finished_at


# ---------------------------------------------------------- crash isolation
def test_deadlock_fails_typed_and_daemon_keeps_serving():
    # The `never` ablation on fetch-skipping consumers deadlocks by
    # construction; the daemon must fail that job with the typed error —
    # .tick/.blocked intact across the process boundary — and keep going.
    with ServeDaemon(jobs=1) as daemon:
        bad = daemon.submit(_request("incast", setting="never"))
        good = daemon.submit(_request("ping-pong"))
        daemon.drain()
        assert bad.state is JobState.FAILED
        assert isinstance(bad.error, SimDeadlockError)
        assert bad.error.tick > 0
        assert bad.error.blocked
        assert good.state is JobState.DONE
        # Only the success is cached; the failure re-runs if resubmitted.
        assert daemon.cache.stats()["stores"] == 1


def test_worker_death_fails_job_and_rebuilds_pool():
    daemon = ServeDaemon(jobs=1, runner=_die)
    daemon.start()
    job = daemon.submit(_request())
    daemon.drain()
    assert job.state is JobState.FAILED
    assert isinstance(job.error, ServeError)
    assert "worker died" in str(job.error)
    # The rebuilt pool serves the next job (with a working runner again).
    from repro.eval.parallel import execute_request

    daemon._runner = execute_request
    recovered = daemon.submit(_request())
    daemon.drain()
    assert recovered.state is JobState.DONE
    daemon.stop()


# ------------------------------------------------------------------- spill
def test_cache_dir_serves_a_fresh_daemon(tmp_path):
    request = _request()
    with ServeDaemon(jobs=1, cache_dir=tmp_path) as daemon:
        first = daemon.submit(request)
        daemon.drain()
    assert first.state is JobState.DONE
    assert first.metrics == run_requests([request])[0]
    # The result landed on disk, so a *fresh* daemon over the same
    # directory serves the repeat as a hit with the same bytes.
    with ServeDaemon(jobs=1, cache_dir=tmp_path) as second:
        repeat = second.submit(request)
        assert repeat.cache_hit
        assert metrics_bytes(repeat.metrics) == metrics_bytes(first.metrics)
