"""End-to-end tests for the open-system request layer.

Closed-batch byte-identity is pinned by the golden suites; this file
covers what they cannot: whole workloads running under open arrival
processes — request lifecycle ordering, sojourn accounting, churn,
labeled work-counter diagnostics, the collector/Perfetto request tracks,
and the closed-only guard rails.
"""

import json

import pytest

from repro.errors import WorkloadError
from repro.eval.runner import run_workload, setting_by_name
from repro.obs.collector import MetricsCollector, finalize_system
from repro.obs.metrics import MetricsRegistry
from repro.obs.perfetto import (
    PID_REQUESTS,
    REQUEST_FLOW_BASE,
    JsonlTraceSink,
    PerfettoTraceSink,
)
from repro.sim.request import ReqState, RequestLog, RequestRecord
from repro.workloads.arrival import ArrivalSpec, Poisson
from repro.workloads.base import WorkCounter
from repro.workloads.registry import make_workload

OPEN_WORKLOADS = ["ping-pong", "incast", "pipeline", "firewall", "FIR"]
CLOSED_WORKLOADS = ["halo", "sweep", "bitonic"]


def run_open(workload="incast", rate=0.002, churn=0.0, **kwargs):
    return run_workload(
        workload,
        setting_by_name("tuned"),
        scale=0.1,
        arrival=Poisson(rate=rate, churn=churn),
        return_system=True,
        **kwargs,
    )


# ---------------------------------------------------------------- lifecycle
def test_open_incast_completes_with_ordered_lifecycles():
    metrics, system = run_open()
    log = system.requests
    assert log.active
    records = log.records()
    assert records and all(r.completed for r in records)
    for r in records:
        assert r.arrival <= r.admission <= r.first_pop <= r.completion
        assert r.sojourn == r.completion - r.arrival
        assert r.queue_delay == r.admission - r.arrival >= 0
        assert r.service == r.completion - r.admission
        assert r.state is ReqState.COMPLETED
    # rids are dense creation-order, sessions/seqs consistent
    assert [r.rid for r in records] == list(range(len(records)))
    assert log.completed == len(records) == log.opened
    assert log.in_flight() == []


def test_open_run_reports_request_extras():
    metrics, system = run_open()
    extra = metrics.extra
    assert extra["request_count"] == system.requests.completed > 0
    assert extra["request_p50"] <= extra["request_p99"] <= extra["request_p999"]
    assert extra["request_mean"] > 0


def test_closed_run_keeps_request_layer_dormant():
    metrics, system = run_workload(
        "incast", setting_by_name("tuned"), scale=0.1, return_system=True
    )
    assert not system.requests.active
    assert system.requests.opened == 0
    assert not any(k.startswith("request_") for k in metrics.extra)


@pytest.mark.parametrize("workload", OPEN_WORKLOADS)
def test_every_open_capable_workload_runs_under_poisson(workload):
    metrics, system = run_open(workload=workload, rate=0.005)
    assert system.requests.completed > 0
    assert metrics.messages_delivered == metrics.messages_produced > 0


@pytest.mark.parametrize("workload", CLOSED_WORKLOADS)
def test_closed_only_workloads_reject_open_arrivals(workload):
    with pytest.raises(WorkloadError, match="closed-only"):
        make_workload(workload, scale=0.1, arrival=Poisson(rate=0.01))


def test_arrival_spec_accepted_by_run_workload():
    metrics, system = run_workload(
        "ping-pong",
        setting_by_name("vl"),
        scale=0.1,
        arrival=ArrivalSpec.make("poisson", rate=0.005),
        return_system=True,
    )
    assert system.requests.completed > 0


def test_session_quotas_only_on_open_capable_workloads():
    quotas = make_workload("incast", scale=0.1).session_quotas()
    assert quotas and all(n >= 1 for n in quotas.values())
    assert all(s.startswith("incast-prod") for s in quotas)
    with pytest.raises(WorkloadError, match="closed-only"):
        make_workload("halo", scale=0.1).session_quotas()


def test_open_arrivals_spread_admissions_over_time():
    """A slow Poisson source must admit requests across the run, not all
    at t=0 — the property that makes offered load meaningful."""
    _, system = run_open(rate=0.001)
    admissions = [r.admission for r in system.requests.records()]
    assert max(admissions) > min(admissions) > 0


# -------------------------------------------------------------------- churn
def test_churned_run_completes_and_validates():
    metrics, system = run_open(workload="pipeline", rate=0.005, churn=0.9)
    assert system.requests.completed == system.requests.opened > 0
    assert metrics.messages_delivered == metrics.messages_produced > 0


def test_churn_truncates_issue_counts():
    truncated = False
    for seed in range(6):
        _, full = run_open(workload="incast", rate=0.005, seed=seed)
        _, churned = run_open(
            workload="incast", rate=0.005, churn=0.95, seed=seed
        )
        assert churned.requests.opened <= full.requests.opened
        truncated |= churned.requests.opened < full.requests.opened
    assert truncated


# -------------------------------------------------------------- WorkCounter
def test_work_counter_overrun_names_the_offender():
    counter = WorkCounter(1, label="pipeline.q1:stage-a")
    counter.mark_done()
    with pytest.raises(WorkloadError, match="pipeline.q1:stage-a"):
        counter.mark_done()


def test_work_counter_retire_lowers_target():
    counter = WorkCounter(10, label="q")
    counter.mark_done(4)
    counter.retire(6)
    assert counter.target == 4 and counter.retired == 6
    assert counter.all_done()
    counter.retire(0)  # no-op
    assert counter.target == 4


def test_work_counter_retire_validation():
    counter = WorkCounter(10)
    counter.mark_done(8)
    with pytest.raises(WorkloadError, match="cannot retire"):
        counter.retire(5)  # would drop the target below done_count
    with pytest.raises(WorkloadError, match="negative"):
        counter.retire(-1)


def test_work_counter_retire_negative_names_the_offender():
    # Regression: the negative-amount diagnostic used to drop the counter
    # label, unlike every other WorkCounter error path.
    counter = WorkCounter(10, label="pipeline.q2:stage-b")
    with pytest.raises(WorkloadError, match="pipeline.q2:stage-b"):
        counter.retire(-3)


# -------------------------------------------------------------- RequestLog
def test_request_log_touch_and_complete_are_idempotent():
    log = RequestLog().activate()
    record = log.open("s", 0, arrival_tick=5, admission_tick=9)
    log.touch(record, 12)
    log.touch(record, 99)  # later touches no-op
    assert record.first_pop == 12
    log.complete(record, 20)
    log.complete(record, 99)
    assert record.completion == 20 and log.completed == 1
    assert log.sojourn_stats.n == 1 and log.percentile(50) == 15.0


def test_single_hop_completion_backfills_first_pop():
    log = RequestLog().activate()
    record = log.open("s", 0, arrival_tick=0, admission_tick=0)
    log.complete(record, 30)
    assert record.first_pop == 30  # stamped alongside the completion
    states = [s.state for s in record.stamps]
    assert states == [
        ReqState.ARRIVED,
        ReqState.ADMITTED,
        ReqState.FIRST_POP,
        ReqState.COMPLETED,
    ]


def test_empty_log_percentile_is_zero():
    assert RequestLog().percentile(99) == 0.0
    assert RequestRecord(0, "s", 0).sojourn is None


# ----------------------------------------------------- collector + Perfetto
def test_collector_counts_request_lifecycle_events():
    registries = []

    def attach(system):
        registry = MetricsRegistry()
        MetricsCollector(system.hooks, registry)
        registries.append(registry)

    metrics, system = run_open(on_system=attach)
    registry = registries[0]
    completed = system.requests.completed
    assert registry.counter("request.completed") == completed
    assert registry.counter("request.arrived") == system.requests.opened
    finalize_system(system, registry)
    assert registry.gauge("request.completed") == float(completed)
    assert registry.gauge("request.sojourn.p99") == system.requests.percentile(99)


def test_perfetto_request_track_and_flows():
    sinks = []

    def attach(system):
        sinks.append(PerfettoTraceSink(system.hooks))

    _, system = run_open(on_system=attach)
    sink = sinks[0]
    completed = system.requests.completed
    req_events = [e for e in sink.events if e.get("pid") == PID_REQUESTS]
    assert req_events
    meta = [e for e in req_events if e["ph"] == "M"]
    assert any(e["args"]["name"] == "requests" for e in meta
               if e["name"] == "process_name")
    # one flow chain per request: s (arrived) ... f (completed), offset
    # so request flows never collide with transaction flows
    starts = [e for e in req_events if e["ph"] == "s"]
    ends = [e for e in req_events if e["ph"] == "f"]
    assert len(starts) == system.requests.opened
    assert len(ends) == completed
    assert all(e["id"] >= REQUEST_FLOW_BASE for e in starts + ends)
    assert all(e["bp"] == "e" for e in ends)
    instants = [e for e in req_events if e["ph"] == "i"]
    assert any(e["args"].get("sojourn") is not None for e in instants)


def test_jsonl_sink_streams_request_events():
    sinks = []

    def attach(system):
        sinks.append(JsonlTraceSink(system.hooks))

    _, system = run_open(on_system=attach)
    lines = [json.loads(l) for l in sinks[0].to_jsonl().splitlines()]
    req = [e for e in lines if e["ev"] == "request"]
    assert {e["state"] for e in req} == {
        "arrived", "admitted", "first-pop", "completed"
    }
    completed = [e for e in req if e["state"] == "completed"]
    assert all(e["sojourn"] >= 0 for e in completed)
    assert len(completed) == system.requests.completed
