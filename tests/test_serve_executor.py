"""ServeExecutor: the run_requests-shaped cached executor.

The contract under test is substitution: anywhere ``run_requests`` goes —
``repro batch``, the load sweep, the burst autotuner — a
:class:`~repro.serve.ServeExecutor` must produce byte-identical results,
cached or fresh, in one process or across two over a ``--cache-dir``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.batch import run_batch
from repro.eval.parallel import RunRequest, execute_request, make_pool, run_requests
from repro.eval.runner import setting_by_name
from repro.serve import Job, ResultCache, ServeExecutor

SCALE = 0.05
SEED = 0xC0FFEE
QUICK_STUDY = Path(__file__).resolve().parent.parent / "examples/specs/quick_study.json"


def _requests(n=4):
    matrix = [
        ("ping-pong", "vl"), ("ping-pong", "tuned"),
        ("incast", "vl"), ("incast", "tuned"),
    ]
    return [
        RunRequest.from_setting(w, setting_by_name(s), scale=SCALE, seed=SEED)
        for w, s in matrix[:n]
    ]


def _snap(metrics_list):
    return [dataclasses.asdict(m) for m in metrics_list]


# ---------------------------------------------------------------- embedded
def test_embedded_executor_matches_run_requests():
    requests = _requests()
    expected = _snap(run_requests(requests))
    with ServeExecutor.local(jobs=1) as executor:
        assert _snap(executor(requests)) == expected
        # Second pass: pure cache hits, still byte-identical.
        assert _snap(executor(requests)) == expected
        assert executor.daemon.cache.hits == len(requests)


def test_executor_reraises_the_first_typed_failure():
    from repro.errors import SimDeadlockError

    bad = RunRequest.from_setting(
        "incast", setting_by_name("never"), scale=SCALE, seed=SEED
    )
    with ServeExecutor.local(jobs=1) as executor:
        with pytest.raises(SimDeadlockError):
            executor([_requests(1)[0], bad])


def test_executor_keeps_the_surface_perfbench_reads():
    # The cached-sweep benchmark drives the executor through exactly this
    # surface: local(jobs=, runner=), call, .daemon.cache.stats(),
    # .daemon.queue.jobs() in admission order with per-job cache and
    # timing fields, and close().
    requests = _requests(2)
    executor = ServeExecutor.local(jobs=1, runner=execute_request)
    try:
        first = executor(requests)
        assert _snap(executor(requests[:1])) == _snap(first[:1])
        assert isinstance(executor.daemon.cache, ResultCache)
        stats = executor.daemon.cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 2)
        jobs = executor.daemon.queue.jobs()
        assert all(isinstance(job, Job) for job in jobs)
        assert [job.request for job in jobs] == requests + requests[:1]
        assert [job.cache_hit for job in jobs] == [False, False, True]
        assert [job.cache_key for job in jobs] == [
            r.cache_key() for r in requests + requests[:1]
        ]
        for job in jobs:
            assert job.wait_s is not None and job.wait_s >= 0
            assert job.service_s is not None and job.service_s >= 0
    finally:
        executor.close()
    assert executor.daemon.stopped


# ------------------------------------------------------------- eval routing
def test_run_batch_routes_through_the_executor():
    spec = {
        "name": "serve-routing",
        "workloads": ["ping-pong"],
        "settings": ["vl", "tuned"],
        "scale": SCALE,
    }
    direct = run_batch(spec)
    with ServeExecutor.local(jobs=1) as executor:
        served = run_batch(spec, executor=executor)
    assert served == direct


def test_load_experiment_routes_through_the_executor():
    from repro.eval.load import load_experiment

    kwargs = dict(
        workload="ping-pong", settings=("tuned",),
        topologies=("single-bus",), rhos=(0.5,), scale=SCALE,
    )
    direct = load_experiment(**kwargs)
    with ServeExecutor.local(jobs=1) as executor:
        served = load_experiment(executor=executor, **kwargs)
    assert served.to_json() == direct.to_json()


def test_autotune_burst_routes_through_the_executor():
    from repro.eval.autotune import autotune_burst

    kwargs = dict(ks=(1, 2), p_mins=(0.75,), scale=0.02)
    direct = autotune_burst("incast", **kwargs)
    with ServeExecutor.local(jobs=1) as executor:
        served = autotune_burst("incast", executor=executor, **kwargs)
    assert _snap([p.metrics for p in served.points]) == _snap(
        [p.metrics for p in direct.points]
    )
    assert served.best.score == direct.best.score
    assert served.baseline_score == direct.baseline_score


# ------------------------------------------------------------------- CLI
def test_batch_cache_dir_second_run_is_all_hits(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    reports = []
    for attempt in range(2):
        out = tmp_path / f"r{attempt}.json"
        main(["batch", str(QUICK_STUDY), "--cache-dir", str(cache_dir),
              "--out", str(out)])
        reports.append(out.read_bytes())
        printed = capsys.readouterr().out
        assert f"cache hits: {9 if attempt else 0}/9" in printed
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["name"] == "quick-study"


# --------------------------------------------------------------- warm pool
def test_make_pool_is_prewarmed():
    pool = make_pool(2)
    try:
        # Warmed pools have already spawned their full complement.
        assert len(pool._processes) == 2
    finally:
        pool.shutdown(wait=True)
