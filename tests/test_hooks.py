"""The instrumentation hook bus: ordering, loud failures, zero-cost guards."""

import pytest

from repro.sim.hooks import (
    BusHook,
    HookBus,
    TraceHook,
)
from repro.sim.trace import EventKind


def test_subscribers_fire_in_subscription_order():
    bus = HookBus()
    order = []
    bus.subscribe(BusHook, lambda e: order.append("first"))
    bus.subscribe(BusHook, lambda e: order.append("second"))
    bus.subscribe(BusHook, lambda e: order.append("third"))
    bus.publish(BusHook(tick=0, kind="stash", busy_cycles=3))
    assert order == ["first", "second", "third"]


def test_subscriber_exception_propagates():
    bus = HookBus()
    seen = []

    def broken(event):
        raise RuntimeError("boom")

    bus.subscribe(BusHook, broken)
    bus.subscribe(BusHook, seen.append)
    with pytest.raises(RuntimeError, match="boom"):
        bus.publish(BusHook(tick=0, kind="stash", busy_cycles=0))
    # The failure aborts delivery: later subscribers never see the event.
    assert seen == []


def test_wants_guards_silent_buses():
    bus = HookBus()
    assert not bus.wants(BusHook)
    bus.subscribe(TraceHook, lambda e: None)
    assert bus.wants(TraceHook)
    assert not bus.wants(BusHook)


def test_trace_recorder_attaches_as_subscriber():
    from repro.sim.trace import TraceRecorder

    bus = HookBus()
    recorder = TraceRecorder(bus)
    assert bus.wants(TraceHook)
    bus.publish(
        TraceHook(tick=5, kind=EventKind.LINE_FILL, transaction_id=2, sqi=1,
                  detail="speculative")
    )
    assert len(recorder.events) == 1
    event = recorder.events[0]
    assert (event.time, event.kind, event.transaction_id, event.sqi) == (
        5, EventKind.LINE_FILL, 2, 1)
