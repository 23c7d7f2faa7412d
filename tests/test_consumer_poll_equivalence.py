"""Differential test of the consumer poll against the literal spin loop.

The pop slow path used to wait with ``while not poppable: yield
env.timeout(quantum)``, one generator resume per quantum.  It now runs as
:class:`repro.vlink.library._ConsumerPoller`: one ``call_later`` callback
per quantum, with the process parked on a wake event that never enters
the queue.  The claim is exactness by construction — every queue entry
and its ``(time, priority, seq)`` key is the same as the literal loop's —
so this suite keeps that loop as the reference (:func:`reference_pop_impl`,
monkeypatched onto :meth:`QueueLibrary._pop_impl`; ``src/`` keeps no
second path) and runs both over:

* every oracle-matrix device on the matrix workloads;
* multipush k=2 and k=4 bursts with rollbacks;
* Poisson open sessions with churn (``pop_until`` + ``WorkCounter.retire``);
* the VL refetch backoff and stale-scan recovery;
* ``spin_then_yield=True``.

Each pair must agree on the pickled :class:`RunMetrics` byte for byte,
on ``events_scheduled``/``events_processed``, on every run-boundary gauge
(``kernel.events.*``, ``vlink.polls``) and on the full list of dispatched
``(time, priority, seq)`` keys.  A positive control per case proves the
path it names actually ran.  Two mutation kills — the refetch sent after
the re-arm, and a wake through ``succeed()`` — show the differential sees
a broken seq position and an extra queue entry.
"""

from __future__ import annotations

import heapq
from typing import Generator

import pytest

import repro.sim.kernel as kernel
from repro.config import SystemConfig
from repro.eval.runner import multipush_setting, run_workload, setting_by_name
from repro.mem.cacheline import LineState
from repro.obs.collector import finalize_system
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import metrics_bytes
from repro.sim.hooks import DeliveryHook, TraceHook
from repro.sim.trace import EventKind
from repro.sim.transaction import TxnState
from repro.vlink.endpoint import ConsumerEndpoint
from repro.vlink.library import QueueLibrary, _ConsumerPoller
from repro.workloads.arrival import Poisson
from repro.workloads.base import WorkCounter
from tests.test_oracle_matrix import SMALL, WORKLOADS, matrix_settings


# ------------------------------------------------------------ the reference
def reference_pop_impl(self, consumer: ConsumerEndpoint, stop_check) -> Generator:
    """The pop with the literal spin loop: one Timeout and one generator
    resume per poll quantum.  Verbatim (comments dropped) except for
    ``consumer.polls += 1`` after each poll timeout, so the
    ``vlink.polls`` gauge compares too.  Outside the slow path it must
    track ``QueueLibrary._pop_impl``."""
    cfg = self.config
    if not cfg.inline_library:
        yield self.env.timeout(cfg.call_overhead)

    if not consumer.spec_enabled:
        yield self.env.timeout(cfg.fetch_instruction_cost)
        self._send_request(
            consumer,
            prerequest=consumer.current_line.state is LineState.VALID,
        )

    line = consumer.current_line
    if not line.poppable:
        stall_start = self.env.now
        since_fetch = 0
        refetch_after = cfg.refetch_interval
        while not consumer.current_line.poppable:
            if (
                cfg.spin_then_yield
                and self.env.now - stall_start >= cfg.spin_threshold
            ):
                quantum = cfg.yield_penalty
            else:
                quantum = cfg.poll_interval
            yield self.env.timeout(quantum)
            consumer.polls += 1
            if stop_check is not None and stop_check():
                return None
            since_fetch += quantum
            if not consumer.spec_enabled and since_fetch >= refetch_after:
                self._send_request(consumer, prerequest=True)
                since_fetch = 0
                refetch_after = min(refetch_after * 2, 1 << 16)
            if self.env.now - stall_start >= cfg.stale_scan_threshold:
                recovered = consumer.oldest_valid_line()
                if recovered is not None:
                    consumer.retarget(recovered)
                    break
                stall_start = self.env.now
        yield self.env.timeout(cfg.slow_path_penalty)
        line = consumer.current_line

    hooks = self.system.hooks
    if hooks.wants(TraceHook):
        hooks.publish(
            TraceHook(
                tick=self.env.now,
                kind=EventKind.FIRST_USE,
                transaction_id=line.fill_txn or 0,
                sqi=consumer.sqi,
            )
        )
    yield self.env.timeout(cfg.pop_fast_path_cost)
    message = line.consume()
    if message.txn is not None:
        self._stamp(message.txn, TxnState.RETIRED)
    if hooks.wants(DeliveryHook):
        hooks.publish(
            DeliveryHook(
                tick=self.env.now,
                sqi=message.sqi,
                endpoint_id=consumer.endpoint_id,
                producer_id=message.producer_id,
                seq=message.seq,
                transaction_id=message.transaction_id,
            )
        )
    self.system.latency_stats.add(self.env.now - message.produced_at)
    consumer.advance()
    consumer.pops += 1
    return message


# ------------------------------------------------------------------- cells
def _cell(workload, setting, scale, config=None, arrival=None, controls=()):
    return dict(workload=workload, setting=setting, scale=scale,
                config=config, arrival=arrival, controls=controls)


BURST = SystemConfig(num_cores=16, lines_per_endpoint=4)
CHURN = Poisson(rate=0.005, churn=0.9)

#: Oracle-matrix cells: every device on every matrix workload.
MATRIX_CELLS = {
    f"{workload}-{setting.label}": _cell(workload, setting, scale, SMALL,
                                         controls=("stalls",))
    for workload, scale in WORKLOADS
    for setting in matrix_settings()
}

#: Cells aimed at one slow-path branch each; ``controls`` name the
#: branches the new implementation must be seen taking.
TARGETED_CELLS = {
    "multipush-k2-firewall": _cell(
        "firewall", multipush_setting(2, 0.0), 0.05, BURST,
        controls=("stalls", "rollbacks")),
    "multipush-k4-FIR": _cell(
        "FIR", multipush_setting(4, 0.0), 0.05, BURST,
        controls=("stalls", "rollbacks")),
    "churn-pipeline-tuned": _cell(
        "pipeline", setting_by_name("tuned"), 0.1, arrival=CHURN,
        controls=("stalls", "stopped", "retired")),
    "churn-pipeline-vl": _cell(
        "pipeline", setting_by_name("vl"), 0.1, arrival=CHURN,
        controls=("stalls", "stopped", "retired", "backoff")),
    "vl-sweep-backoff-stale-scan": _cell(
        "sweep", setting_by_name("vl"), 0.05,
        controls=("stalls", "backoff", "retargets")),
    "stale-scan-firewall": _cell(
        "firewall", setting_by_name("0delay"), 0.05,
        SystemConfig(stale_scan_threshold=64),
        controls=("stalls", "retargets")),
    "spin-then-yield-vl": _cell(
        "ping-pong", setting_by_name("vl"), 0.05,
        SystemConfig(spin_then_yield=True),
        controls=("stalls", "backoff", "yield_quantum")),
    "spin-then-yield-tuned": _cell(
        "incast", setting_by_name("tuned"), 0.05,
        SystemConfig(num_cores=16, spin_then_yield=True, spin_threshold=0),
        controls=("stalls", "yield_quantum")),
}


def run_cell(monkeypatch, cell, reference=False):
    """Run one cell; return everything the two implementations must share,
    plus the positive-control counts (those read the new poller, so they
    stay zero on the reference)."""
    keys = []
    controls = dict.fromkeys(
        ("stalls", "stopped", "backoff", "yield_quantum", "retargets",
         "retired"), 0)

    def recording_pop(queue):
        entry = heapq.heappop(queue)
        keys.append(entry[:3])
        return entry

    def observed_poll(self, arg, _poll=_ConsumerPoller.poll):
        _poll(self, arg)
        cfg = self.config
        if self.wake.processed:
            controls["stalls"] += 1
            controls["stopped"] += self.wake.value is True
        if self.refetch_after >= 4 * cfg.refetch_interval:
            controls["backoff"] += 1
        if cfg.spin_then_yield and self.quantum == cfg.yield_penalty:
            controls["yield_quantum"] += 1

    def counted_retarget(self, line, _retarget=ConsumerEndpoint.retarget):
        controls["retargets"] += 1
        _retarget(self, line)

    def counted_retire(self, amount, _retire=WorkCounter.retire):
        controls["retired"] += amount > 0
        _retire(self, amount)

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_heappop", recording_pop)
        patch.setattr(_ConsumerPoller, "poll", observed_poll)
        patch.setattr(ConsumerEndpoint, "retarget", counted_retarget)
        patch.setattr(WorkCounter, "retire", counted_retire)
        if reference:
            patch.setattr(QueueLibrary, "_pop_impl", reference_pop_impl)
        metrics, system = run_workload(
            cell["workload"], cell["setting"], scale=cell["scale"],
            config=cell["config"], arrival=cell["arrival"],
            return_system=True,
        )
    registry = MetricsRegistry()
    finalize_system(system, registry)
    shared = {
        "metrics": metrics_bytes(metrics),
        "events_scheduled": system.env.events_scheduled,
        "events_processed": system.env.events_processed,
        "gauges": registry.as_dict()["gauges"],
        "keys": keys,
        "retargets": controls["retargets"],
        "retired": controls["retired"],
    }
    controls["rollbacks"] = system.aggregate_device_stats().get("spec_rollbacks")
    return shared, controls


def assert_equivalent(monkeypatch, cell):
    reference, _ = run_cell(monkeypatch, cell, reference=True)
    candidate, controls = run_cell(monkeypatch, cell)
    for field in reference:
        assert candidate[field] == reference[field], field
    assert reference["gauges"]["vlink.polls"] > 0
    for name in cell["controls"]:
        assert controls[name] > 0, (name, controls)


@pytest.mark.parametrize("name", sorted(MATRIX_CELLS))
def test_oracle_matrix_cell_matches_literal_loop(monkeypatch, name):
    assert_equivalent(monkeypatch, MATRIX_CELLS[name])


@pytest.mark.parametrize("name", sorted(TARGETED_CELLS))
def test_slow_path_branch_matches_literal_loop(monkeypatch, name):
    assert_equivalent(monkeypatch, TARGETED_CELLS[name])


# ---------------------------------------------------------- mutation kills
def _refetch_after_rearm(self, arg, _poll=_ConsumerPoller.poll):
    """Mutant: the poll's refetch is sent after its re-arm, so the next
    poll takes a seq ahead of the request's entries."""
    library = self.library
    deferred = []
    library._send_request = lambda consumer, prerequest: deferred.append(
        (consumer, prerequest))
    try:
        _poll(self, arg)
    finally:
        del library._send_request
    for consumer, prerequest in deferred:
        library._send_request(consumer, prerequest)


def _wake_via_succeed(self, stopped):
    """Mutant: wake the process through the queue, one entry per stall."""
    self.wake.succeed(stopped)


@pytest.mark.parametrize("attribute,mutant,field", [
    ("poll", _refetch_after_rearm, "keys"),
    ("_resume", _wake_via_succeed, "events_scheduled"),
])
def test_differential_kills_mutant(monkeypatch, attribute, mutant, field):
    cell = TARGETED_CELLS["vl-sweep-backoff-stale-scan"]
    reference, _ = run_cell(monkeypatch, cell, reference=True)
    with monkeypatch.context() as patch:
        patch.setattr(_ConsumerPoller, attribute, mutant)
        candidate, _ = run_cell(monkeypatch, cell)
    assert candidate[field] != reference[field]
