"""The live invariant checker: clean bills of health and seeded bugs.

The mutation tests are the checker's own test suite: monkeypatch a
deliberate hardware bug into the routing device — a specBuf
double-delivery, a dropped fetch-response — and assert the checker (or
the stall watchdog) catches exactly that class of violation.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import SimDeadlockError, VerificationError
from repro.eval.runner import run_workload, setting_by_name, standard_settings
from repro.system import System
from repro.verify.invariants import InvariantChecker, StallWatchdog

from tests.conftest import build_pingpong


def verified_system(device: str = "spamer", algorithm: str = "0delay",
                    **overrides) -> System:
    config = SystemConfig(num_cores=4, verify=True, **overrides)
    if device == "vl":
        return System(config=config, device="vl")
    return System(config=config, device=device, algorithm=algorithm)


# ------------------------------------------------------------------ clean runs
def test_clean_run_has_zero_violations():
    system = verified_system()
    build_pingpong(system, rounds=40)
    system.run_to_completion()
    assert system.verifier is not None
    system.verifier.quiesce()  # must not raise
    assert system.verifier.ok
    assert system.verifier.events_seen > 0


def test_clean_run_vl_baseline():
    system = verified_system(device="vl")
    build_pingpong(system, rounds=40)
    system.run_to_completion()
    system.verifier.quiesce()
    assert system.verifier.ok


@pytest.mark.parametrize("setting", standard_settings(),
                         ids=lambda s: s.label)
def test_run_workload_verify_flag_all_settings(setting):
    m = run_workload("ping-pong", setting, scale=0.02,
                     config=SystemConfig(num_cores=4), verify=True)
    assert m.messages_delivered > 0


def test_verify_does_not_perturb_timing():
    """The checker is observe-only: metrics are bit-identical with it on."""
    base = run_workload("ping-pong", standard_settings()[3], scale=0.02,
                        config=SystemConfig(num_cores=4))
    checked = run_workload("ping-pong", standard_settings()[3], scale=0.02,
                           config=SystemConfig(num_cores=4), verify=True)
    assert checked.exec_cycles == base.exec_cycles
    assert checked.push_attempts == base.push_attempts
    assert checked.latency_mean == base.latency_mean


# ----------------------------------------------------------- seeded bug: dup
def test_checker_catches_specbuf_double_delivery():
    """Mutation: after one speculative hit, requeue the entry anyway.

    The packet re-enters the mapping pipeline after a *hit* response and is
    eventually stashed and popped a second time — the double-delivery bug
    the conservation and lifecycle rules exist for.
    """
    system = verified_system()
    build_pingpong(system, rounds=30)
    device = system.device
    original = device._on_response
    fired = {"done": False}

    def double_delivering(entry, line, hit, speculative):
        original(entry, line, hit, speculative)
        if hit and speculative and not fired["done"]:
            fired["done"] = True
            entry.spec_entry_index = None
            # A real double-delivery bug would not free credits twice;
            # neutralize the pool so the injected re-dispatch models only
            # the duplicated stash.
            entry.message.credit_pool = None
            device.pipeline.requeue(entry)

    device._on_response = double_delivering
    system.run_to_completion(limit=50_000_000)
    assert fired["done"], "mutation never triggered (no speculative hit?)"
    with pytest.raises(VerificationError) as excinfo:
        system.verifier.quiesce()
    rules = {v.rule for v in excinfo.value.violations}
    assert "lifecycle/re-entry-after-hit" in rules
    assert rules & {
        "conservation/duplicate-delivery",
        "conservation/refill-of-retired-message",
    }


# ---------------------------------------------------------- seeded bug: drop
def test_checker_catches_dropped_fetch_response():
    """Mutation: the device silently swallows one stash dispatch.

    The consumer spins on a line nothing will fill: the stall watchdog
    aborts with a diagnostic, and quiesce flags the leaked in-flight
    record stuck at MAPPED.
    """
    system = verified_system(watchdog_cycles=20_000)
    build_pingpong(system, rounds=30)
    device = system.device
    original = device._dispatch
    fired = {"count": 0}

    def dropping(entry, line, speculative):
        fired["count"] += 1
        if fired["count"] == 5:
            return  # swallow the stash: no fill, no response, ever
        original(entry, line, speculative)

    device._dispatch = dropping
    device.pipeline._dispatch = dropping
    StallWatchdog(system).install()
    with pytest.raises(SimDeadlockError) as excinfo:
        system.run_to_completion(limit=50_000_000)
    assert "consumer" in excinfo.value.blocked
    leaks = system.verifier.check_quiesce()
    assert any(v.rule == "lifecycle/leaked-in-flight-record" for v in leaks)
    with pytest.raises(VerificationError):
        system.verifier.raise_if_violations()


# ------------------------------------------------- never-ablation regression
def test_never_ablation_raises_typed_deadlock():
    """The ``never`` setting stalls by construction; the watchdog must turn
    that into a diagnosable SimDeadlockError naming the blocked consumers
    instead of a silent hang (regression for the old exclude-from-lists
    workaround)."""
    setting = setting_by_name("never")
    config = SystemConfig(num_cores=4, watchdog_cycles=30_000)
    with pytest.raises(SimDeadlockError) as excinfo:
        run_workload("ping-pong", setting, scale=0.02, config=config)
    err = excinfo.value
    assert err.tick > 0
    assert "pingpong-a" in err.blocked and "pingpong-b" in err.blocked
    message = str(err)
    assert "no queue progress" in message
    assert "blocked threads" in message
    assert "buffered" in message  # the parked-packet dump names the SQI


def test_never_setting_is_offered():
    from repro.eval.runner import available_setting_names

    assert "never" in available_setting_names()


# ------------------------------------------------------------------ watchdog
def test_watchdog_defers_while_progress_happens():
    system = verified_system(watchdog_cycles=2_000)
    build_pingpong(system, rounds=50, compute=500)
    StallWatchdog(system).install()
    system.run_to_completion()  # must not raise despite the tiny window
    system.verifier.quiesce()


def test_checker_exception_fails_the_run(monkeypatch):
    """A bug in the checker itself must abort the run, not pass it."""

    def broken(self, event):
        raise RuntimeError("checker bug")

    monkeypatch.setattr(InvariantChecker, "_on_line", broken)
    with pytest.raises(RuntimeError, match="checker bug"):
        run_workload("incast", setting_by_name("tuned"), scale=0.05,
                     verify=True)


def test_invariant_checker_attachable_to_plain_system(spamer_system):
    checker = InvariantChecker(spamer_system)
    build_pingpong(spamer_system, rounds=10)
    spamer_system.run_to_completion()
    checker.quiesce()
    assert checker.ok
