"""The serve job queue: FIFO dispatch and the admission record.

Jobs dispatch in admission order, a dispatched job is never preempted,
and a stop cancels only what is still queued.
"""

from repro.eval.parallel import RunRequest
from repro.eval.runner import setting_by_name
from repro.serve import Job, JobQueue, JobState


def _request(workload="ping-pong", scale=0.05):
    return RunRequest.from_setting(
        workload, setting_by_name("tuned"), scale=scale
    )


def test_fifo_preserves_submission_order():
    queue = JobQueue()
    workloads = ["incast", "ping-pong", "FIR", "halo"]
    for workload in workloads:
        queue.submit(Job(request=_request(workload)))
    order = [queue.select_next().request.workload for _ in workloads]
    assert order == workloads
    assert queue.select_next() is None
    assert [job.seq for job in queue.jobs()] == [0, 1, 2, 3]
    assert all(job.state is JobState.RUNNING for job in queue.jobs())


def test_cancel_queued_leaves_running_jobs_alone():
    queue = JobQueue()
    running = queue.submit(Job(request=_request()))
    waiting = queue.submit(Job(request=_request("incast")))
    assert queue.select_next() is running
    queue.cancel_queued()
    assert running.state is JobState.RUNNING
    assert waiting.state is JobState.CANCELLED
    assert waiting.finished_at is not None
    assert queue.depth == 0
