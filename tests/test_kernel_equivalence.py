"""Differential test of the kernel against a sorted-list reference.

The kernel's contract is that events dispatch in exact
``(time, priority, seq)`` order; every simulated result in the repo rests
on it.  This suite enforces it by running Hypothesis-generated op programs
(schedule / callback / process / late-subscribe operations, nested so that
children are issued from inside the dispatch loop) on the real
:class:`~repro.sim.kernel.Environment` and on :class:`Reference`, a tiny
interpreter that keeps its pending entries in a plain list and always
takes the minimum.  Both must produce the same ``(dispatch trace, now,
events_processed, events_scheduled, queue_length)`` under every way of
driving the kernel: ``run()``, windowed ``run(until)``, pure ``step()``
and ``run_until_complete``.

Two mutation kills — the heap push monkeypatched to break the seq
tiebreak or to ignore priorities — prove the differential has teeth
(mirrors ``test_sticky_slot_regression.py``).
"""

from __future__ import annotations

import heapq
import itertools
import sys

from hypothesis import given, settings, strategies as st

import repro.sim.kernel as kernel
from repro.sim.kernel import Environment, NORMAL, URGENT


# --------------------------------------------------------- the op interpreter
def execute(program, driver="run", until=None, target=()):
    """Interpret an op program on a real Environment; return its full trace.

    Ops (recursive — children run inside the parent's callback, i.e. from
    the dispatch loop itself):

    - ``("timeout", delay, children)``     NORMAL event via Timeout
    - ``("urgent", delay, children)``      pre-triggered event at URGENT
    - ``("far", delay)``                   far-future timeout
    - ``("late_sub",)``                    subscribe to the most recently
                                           processed event → URGENT
                                           schedule_callback at *now*
    - ``("call_later", delay, priority)``  event-free deferred call
    - ``("process", delays)``              generator process yielding
                                           timeouts

    *driver* ``"complete"`` adds a target process yielding the *target*
    delays and runs ``run_until_complete`` on it.
    """
    env = Environment()
    trace = []
    ids = itertools.count()
    done = []

    def fire(tag, ident, children):
        def callback(event):
            trace.append((tag, env.now, ident))
            done.append(event)
            run_ops(children)

        return callback

    def gen(delays, tag, ident):
        for d in delays:
            yield env.timeout(d)
            trace.append((tag, env.now, ident))

    def run_ops(ops):
        for op in ops:
            kind = op[0]
            ident = next(ids)
            if kind == "timeout":
                env.timeout(op[1]).subscribe(fire("t", ident, op[2]))
            elif kind == "urgent":
                event = env.event()
                event._ok, event._value = True, None
                event.subscribe(fire("u", ident, op[2]))
                env.schedule(event, delay=op[1], priority=URGENT)
            elif kind == "far":
                env.timeout(op[1]).subscribe(fire("f", ident, ()))
            elif kind == "late_sub":
                if done:
                    done[-1].subscribe(
                        lambda e, i=ident: trace.append(("l", env.now, i))
                    )
                else:
                    trace.append(("skip", env.now, ident))
            elif kind == "call_later":
                env.call_later(
                    op[1],
                    lambda arg, i=ident: trace.append(("c", env.now, i)),
                    priority=op[2],
                )
            elif kind == "process":
                env.process(gen(tuple(op[1]), "p", ident))
            else:  # pragma: no cover - grammar guard
                raise AssertionError(f"unknown op {op!r}")

    run_ops(program)
    if driver == "run":
        env.run()
    elif driver == "windowed":
        env.run(until=until)
        trace.append(("window", env.now, -1))
        env.run()
    elif driver == "step":
        while env.queue_length:
            env.step()
            trace.append(("step", env.now, -2))
    elif driver == "complete":
        env.run_until_complete(env.process(gen(tuple(target), "target", -1)))
    else:  # pragma: no cover - grammar guard
        raise AssertionError(f"unknown driver {driver!r}")
    return (trace, env.now, env.events_processed, env.events_scheduled,
            env.queue_length)


class Reference:
    """The op semantics over a plain list of ``(time, priority, seq,
    action)`` entries, dispatched by taking the minimum — no heap, no
    Events, no Processes.  Mirrors :func:`execute` entry for entry: a
    process costs an init entry, one entry per timeout, and a completion
    entry."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.processed = 0
        self.pending = []
        self.trace = []
        self.ids = itertools.count()
        self.fired = 0  # how many events `done` would hold
        self.target_done = False

    def push(self, delay, priority, action):
        self.pending.append((self.now + delay, priority, self.seq, action))
        self.seq += 1

    def fire(self, tag, ident, children):
        def action():
            self.trace.append((tag, self.now, ident))
            self.fired += 1
            self.run_ops(children)

        return action

    def resume(self, delays, tag, ident, k=0):
        def action():
            if k:
                self.trace.append((tag, self.now, ident))
            if k < len(delays):
                self.push(delays[k], NORMAL,
                          self.resume(delays, tag, ident, k + 1))
            else:
                if tag == "target":
                    self.target_done = True
                self.push(0, NORMAL, lambda: None)  # the process event

        return action

    def note(self, tag, ident):
        return lambda: self.trace.append((tag, self.now, ident))

    def run_ops(self, ops):
        for op in ops:
            kind = op[0]
            ident = next(self.ids)
            if kind == "timeout":
                self.push(op[1], NORMAL, self.fire("t", ident, op[2]))
            elif kind == "urgent":
                self.push(op[1], URGENT, self.fire("u", ident, op[2]))
            elif kind == "far":
                self.push(op[1], NORMAL, self.fire("f", ident, ()))
            elif kind == "late_sub":
                if self.fired:
                    self.push(0, URGENT, self.note("l", ident))
                else:
                    self.trace.append(("skip", self.now, ident))
            elif kind == "call_later":
                self.push(op[1], op[2], self.note("c", ident))
            elif kind == "process":
                self.push(0, NORMAL, self.resume(tuple(op[1]), "p", ident))

    def drain(self, until=None, stop=lambda: False, step=False):
        while self.pending and not stop():
            entry = min(self.pending)
            if until is not None and entry[0] > until:
                break
            self.pending.remove(entry)
            self.now = entry[0]
            self.processed += 1
            entry[3]()
            if step:
                self.trace.append(("step", self.now, -2))

    def execute(self, program, driver="run", until=None, target=()):
        self.run_ops(program)
        if driver == "windowed":
            self.drain(until)
            self.now = max(self.now, until)
            self.trace.append(("window", self.now, -1))
        elif driver == "complete":
            self.push(0, NORMAL, self.resume(tuple(target), "target", -1))
        self.drain(stop=lambda: self.target_done, step=driver == "step")
        return (self.trace, self.now, self.processed, self.seq,
                len(self.pending))


def reference(program, driver="run", until=None, target=()):
    return Reference().execute(program, driver, until, target)


def _op_strategy():
    leaf = st.one_of(
        st.tuples(st.just("far"), st.integers(1500, 9000)),
        st.just(("late_sub",)),
        st.tuples(st.just("call_later"), st.integers(0, 50),
                  st.sampled_from([URGENT, NORMAL])),
        st.tuples(st.just("process"),
                  st.lists(st.integers(0, 20), min_size=1, max_size=4)),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.tuples(st.just("timeout"), st.integers(0, 50),
                      st.lists(children, max_size=4)),
            st.tuples(st.just("urgent"), st.integers(0, 50),
                      st.lists(children, max_size=4)),
        ),
        max_leaves=12,
    )


PROGRAMS = st.lists(_op_strategy(), min_size=1, max_size=10)


# ----------------------------------------------------------- trace properties
@given(program=PROGRAMS)
@settings(max_examples=80, deadline=None)
def test_run_matches_reference(program):
    assert execute(program) == reference(program)


@given(program=PROGRAMS, until=st.integers(0, 120))
@settings(max_examples=40, deadline=None)
def test_windowed_runs_equivalent(program, until):
    """run(until) then run() — the window boundary must agree."""
    assert execute(program, "windowed", until) == \
        reference(program, "windowed", until)


@given(program=PROGRAMS)
@settings(max_examples=40, deadline=None)
def test_step_driven_runs_equivalent(program):
    """Driving purely via step(), one event per call."""
    assert execute(program, "step") == reference(program, "step")


@given(delays=st.lists(st.integers(0, 30), min_size=1, max_size=5),
       program=PROGRAMS)
@settings(max_examples=40, deadline=None)
def test_run_until_complete_equivalent(delays, program):
    """The target completing mid-cycle must leave identical state: the
    loop stops right after the dispatch that triggered it."""
    assert execute(program, "complete", target=delays) == \
        reference(program, "complete", target=delays)


# ------------------------------------------------------------------ watchdog
def test_watchdog_firing_point_identical(env):
    """The watchdog fires inside the first dispatch at/past the deadline."""
    fires = []

    def watchdog(now):
        fires.append(now)
        env.defer_watchdog(now + 25)

    for delay in (10, 20, 20, 30, 60):
        env.timeout(delay)
    env.set_watchdog(watchdog, deadline=15)
    env.run()
    assert fires == [20, 60]


def test_deep_far_future_spill(env):
    """Hundreds of entries spread far into the future still dispatch in
    exact ``(time, seq)`` order."""
    out = []
    delays = [(i * 7919) % 50_000 for i in range(300)]
    for i, delay in enumerate(delays):
        env.timeout(delay).subscribe(lambda e, i=i: out.append((env.now, i)))
    env.run()
    assert out == sorted((delay, i) for i, delay in enumerate(delays))
    assert env.events_processed == 300 and env.now == max(delays)


def test_inline_fast_paths_exposed():
    """Dispatch is inlined: draining many events through run(),
    run_until_complete() or step() enters one kernel frame per call, never
    one per event (a per-event helper frame was the largest kernel cost)."""
    env = Environment()
    calls = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_globals is vars(kernel):
            calls.append(frame.f_code.co_name)

    for i in range(200):
        env.call_later(i % 7, lambda arg: None)
    target = env.event()
    env.call_later(10, target.succeed)
    sys.setprofile(profiler)
    try:
        env.run(until=9)
        env.run_until_complete(target)
        env.step()  # the target's own entry
    finally:
        sys.setprofile(None)
    assert calls == ["run", "_loop", "run_until_complete", "_loop",
                     "schedule", "step", "_loop"]
    assert env.events_processed == 202


# -------------------------------------------------------------- mutation kill
def _lifo_seq_push(queue, entry):
    """Mutant: breaks the seq tiebreak — LIFO among equal (time, prio)."""
    heapq.heappush(queue, (entry[0], entry[1], -entry[2]) + entry[3:])


def _priority_blind_push(queue, entry):
    """Mutant: drops URGENT-before-NORMAL — everything lands NORMAL."""
    heapq.heappush(queue, (entry[0], NORMAL) + entry[2:])


def test_harness_kills_broken_seq_tiebreak(monkeypatch):
    program = [("timeout", 5, ()), ("timeout", 5, ()), ("timeout", 5, ())]
    monkeypatch.setattr(kernel, "_heappush", _lifo_seq_push)
    assert execute(program) != reference(program)


def test_harness_kills_broken_urgent_priority(monkeypatch):
    program = [("timeout", 5, ()), ("urgent", 5, ())]
    monkeypatch.setattr(kernel, "_heappush", _priority_blind_push)
    assert execute(program) != reference(program)


def test_mutants_are_otherwise_plausible(monkeypatch):
    """The mutants pass a trivially-ordered program — the kills above are
    detecting the specific broken guarantee, not generic breakage."""
    program = [("timeout", 3, ()), ("timeout", 9, ())]
    expected = reference(program)
    for mutant in (_lifo_seq_push, _priority_blind_push):
        monkeypatch.setattr(kernel, "_heappush", mutant)
        assert execute(program) == expected
