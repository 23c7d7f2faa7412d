"""Hot-path regression tests: `__slots__` coverage, polymorphic callbacks
and ``call_later`` edge cases.

The allocation-free dispatch work (PERFORMANCE.md §5) rests on three
properties that nothing else in the suite pins directly:

* every per-event / per-component class in ``sim/`` carries ``__slots__``
  (an instance ``__dict__`` would be the kernel's largest allocation), as
  do the consumer poller allocated per parked pop and the multi-hop
  packet allocated per NoC packet;
* the network path allocates no ``Event`` or ``Timeout`` per packet: each
  hop and each delivery is a ``call_later`` entry;
* the ``Event.callbacks`` slot is polymorphic (None | callable | list |
  PROCESSED) and all four states behave identically to the old
  always-a-list protocol;
* deferred calls order by ``(time, priority, seq)`` like events do,
  including URGENT calls issued from inside a NORMAL callback.
"""

from __future__ import annotations

import inspect
import sys

import pytest

import repro.sim.event
import repro.sim.hooks
import repro.sim.process
import repro.sim.request
import repro.sim.resources
import repro.sim.rng
import repro.sim.stats
import repro.sim.trace
import repro.sim.transaction
from repro.errors import SchedulingError
from repro.sim.event import Event, PROCESSED
from repro.sim.kernel import Environment, NORMAL, URGENT
from repro.net.topology import _Packet
from repro.vlink.library import _ConsumerPoller


# ------------------------------------------------------------ __slots__ audit
#: Modules whose classes must all be slotted (allocated per event, per
#: message hop, or per component — see each module's docstring).
_AUDITED_MODULES = [
    repro.sim.event,
    repro.sim.process,
    repro.sim.resources,
    repro.sim.hooks,
    repro.sim.stats,
    repro.sim.trace,
    repro.sim.request,
    repro.sim.transaction,
    repro.sim.rng,
]


def _audited_classes():
    for module in _AUDITED_MODULES:
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue  # re-exported import, audited in its own module
            if issubclass(cls, (Exception, tuple)) or hasattr(cls, "_member_map_"):
                continue  # enums and NamedTuples manage their own layout
            yield pytest.param(cls, id=f"{module.__name__}.{name}")


@pytest.mark.parametrize("cls", list(_audited_classes()))
def test_sim_classes_define_slots(cls):
    """No class in the audited modules may reintroduce a per-instance dict.

    ``__slots__`` only suppresses the dict if every class in the MRO
    (below ``object``) defines it, so the assertion checks the layout
    outcome — ``__dict__`` must be absent from instances — not just the
    attribute's presence on one class.
    """
    for klass in cls.__mro__[:-1]:
        assert "__slots__" in klass.__dict__, (
            f"{klass.__qualname__} (in {cls.__qualname__}'s MRO) lacks "
            f"__slots__ — instances of {cls.__qualname__} would carry a dict"
        )


def test_consumer_poller_defines_slots():
    """The pop slow path's poller is allocated per parked pop.  Its module
    cannot join the audit above: ``QueueLibrary`` there is unslotted."""
    assert not hasattr(_ConsumerPoller.__new__(_ConsumerPoller), "__dict__")


def test_multi_hop_packet_defines_slots():
    """One ``_Packet`` is allocated per multi-hop NoC packet."""
    assert not hasattr(_Packet.__new__(_Packet), "__dict__")


# ------------------------------------------------------ event-free network
def _event_allocations_by_module(monkeypatch, config):
    """Run one small cell, counting every ``Event`` (and subclass)
    allocation by the module of the first caller outside ``repro.sim``."""
    from repro.eval.runner import run_workload, setting_by_name

    counts = {}
    original = Event.__init__

    def counting_init(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__", "").startswith("repro.sim"):
            frame = frame.f_back
        module = frame.f_globals.get("__name__", "")
        counts[module] = counts.get(module, 0) + 1
        original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Event, "__init__", counting_init)
        _metrics, system = run_workload(
            "firewall", setting_by_name("tuned"), scale=0.05, config=config,
            return_system=True,
        )
    return counts, system


@pytest.mark.parametrize("topology", ["mesh", "single-bus"])
def test_network_path_allocates_no_events(monkeypatch, topology):
    from repro.eval.scaling import scaling_config

    counts, system = _event_allocations_by_module(
        monkeypatch, scaling_config(16, topology)
    )
    assert system.network.total_packets > 0
    if topology == "mesh":
        assert max(link.packets for link in system.network.links()) > 0
    assert sum(counts.values()) > 0  # the counter sees the rest of the run
    network = {
        module: n for module, n in counts.items()
        if module.startswith("repro.net") or module == "repro.mem.bus"
    }
    assert network == {}


# --------------------------------------------------- polymorphic callbacks slot
def test_event_with_no_subscribers_dispatches(env):
    ev = env.event()
    ev.succeed("payload")
    env.run()
    assert ev.processed and ev.callbacks is PROCESSED


def test_single_subscriber_needs_no_list(env):
    got = []
    ev = env.event()
    ev.subscribe(lambda e: got.append(e.value))
    assert callable(ev.callbacks) and not isinstance(ev.callbacks, list)
    ev.succeed(41)
    env.run()
    assert got == [41]


def test_second_subscriber_promotes_to_list(env):
    got = []
    ev = env.event()
    ev.subscribe(lambda e: got.append("a"))
    ev.subscribe(lambda e: got.append("b"))
    ev.subscribe(lambda e: got.append("c"))
    assert isinstance(ev.callbacks, list) and len(ev.callbacks) == 3
    ev.succeed()
    env.run()
    assert got == ["a", "b", "c"]


def test_late_subscribe_after_processed_still_delivers(env):
    ev = env.event()
    ev.succeed("v")
    env.run()
    got = []
    ev.subscribe(lambda e: got.append(e.value))
    assert got == []  # delivery goes through the queue, not inline
    env.run()
    assert got == ["v"]


def test_subscribe_during_dispatch_of_same_event(env):
    """A callback adding another subscriber to its own (now PROCESSED)
    event must schedule it, not mutate the retired slot."""
    got = []

    def first(e):
        got.append("first")
        e.subscribe(lambda e2: got.append("second"))

    ev = env.event()
    ev.subscribe(first)
    ev.succeed()
    env.run()
    assert got == ["first", "second"]


# ----------------------------------------------------------- call_later edges
def test_call_later_negative_delay_rejected(env):
    with pytest.raises(SchedulingError, match="past"):
        env.call_later(-1, lambda arg: None)


def test_call_later_zero_delay_urgent_beats_normal(env):
    """Two zero-delay calls for the current cycle: the URGENT one runs
    first even though it was scheduled second (priority before seq)."""
    order = []
    env.call_later(0, lambda arg: order.append("normal"), priority=NORMAL)
    env.call_later(0, lambda arg: order.append("urgent"), priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_call_later_zero_delay_runs_in_current_cycle(env):
    """run(until=now) is a zero-width window: a zero-delay call fires
    inside it and the clock does not move."""
    fired = []
    env.timeout(3)
    env.run()
    env.call_later(0, lambda arg: fired.append(env.now))
    env.timeout(1)  # strictly later; must survive the window
    env.run(until=env.now)
    assert fired == [3] and env.now == 3 and env.queue_length == 1


def test_call_later_urgent_preempts_partially_drained_batch(env):
    """A NORMAL callback scheduling an URGENT call for the *same* cycle:
    the URGENT call runs before the NORMAL entries still pending for that
    cycle (priority orders before seq)."""
    order = []

    def first(arg):
        order.append("n1")
        env.call_later(0, lambda a: order.append("urgent"), priority=URGENT)

    env.call_later(5, first, priority=NORMAL)
    env.call_later(5, lambda a: order.append("n2"), priority=NORMAL)
    env.call_later(5, lambda a: order.append("n3"), priority=NORMAL)
    env.run()
    assert order == ["n1", "urgent", "n2", "n3"]


def test_call_later_reclaim_interleaves_repeatedly(env):
    """Every NORMAL callback of one cycle spawns an URGENT one for the same
    cycle: each URGENT call runs right after its parent, before the next
    NORMAL entry."""
    order = []

    def make_normal(i):
        def cb(arg):
            order.append(("n", i))
            env.call_later(0, lambda a, i=i: order.append(("u", i)),
                           priority=URGENT)
        return cb

    for i in range(4):
        env.call_later(2, make_normal(i), priority=NORMAL)
    env.run()
    assert order == [
        ("n", 0), ("u", 0), ("n", 1), ("u", 1),
        ("n", 2), ("u", 2), ("n", 3), ("u", 3),
    ]


def test_call_later_passes_argument(env):
    got = []
    env.call_later(4, got.append, arg={"k": 1})
    env.run()
    assert got == [{"k": 1}] and env.now == 4


def test_integer_priorities_order_within_a_cycle():
    """Any integer priority is accepted and orders by value around URGENT
    and NORMAL within one cycle."""
    env = Environment()
    order = []
    env.call_later(3, lambda a: order.append("n"), priority=NORMAL)
    env.call_later(3, lambda a: order.append("u"), priority=URGENT)
    env.call_later(3, lambda a: order.append("custom-early"), priority=-1)
    env.call_later(3, lambda a: order.append("custom-late"), priority=9)
    env.run()
    assert order == ["custom-early", "u", "n", "custom-late"]
