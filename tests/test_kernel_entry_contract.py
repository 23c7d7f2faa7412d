"""The kernel's event-entry contract and ``run_until_complete`` on any Event.

Every queue entry goes through one of three methods —
:meth:`Environment.schedule`, :meth:`Environment.schedule_callback` or
:meth:`Environment.call_later` — so wrapping those three counts every
entry.  The benchmark's traced run attributes event sources exactly that
way (``sim.events.from.*`` must sum to ``sim.events``); a hot path that
pushed onto the heap directly would break the attribution silently.  These
tests run real cells with the three methods wrapped and check that the
counts add up to ``events_scheduled``.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.eval.load import arrival_spec_for
from repro.eval.runner import run_workload, setting_by_name
from repro.eval.scaling import scaling_config
from repro.sim.kernel import Environment
from repro.workloads.registry import make_workload

ENTRY_POINTS = ("schedule", "schedule_callback", "call_later")


@pytest.fixture
def entries(monkeypatch):
    """Count calls per entry point; collect every Environment built."""
    counts = dict.fromkeys(ENTRY_POINTS, 0)
    envs = []
    init = Environment.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        envs.append(self)

    monkeypatch.setattr(Environment, "__init__", tracking_init)
    for name in ENTRY_POINTS:
        original = getattr(Environment, name)

        def counting(self, *args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Environment, name, counting)
    return counts, envs


def _assert_every_entry_counted(counts, envs):
    scheduled = sum(env.events_scheduled for env in envs)
    assert scheduled > 0
    assert sum(counts.values()) == scheduled, counts
    assert counts["schedule"] > 0


def test_fig8_cell_entries_all_pass_the_entry_points(entries):
    counts, envs = entries
    run_workload("ping-pong", setting_by_name("tuned"), scale=0.05, seed=7,
                 config=SystemConfig(num_cores=16))
    assert len(envs) == 1
    _assert_every_entry_counted(counts, envs)


def test_mesh_open_cell_entries_all_pass_the_entry_points(entries):
    """A Poisson cell on a 16-core mesh: NoC link serves, arrival
    sessions and speculative pushes all reach the queue."""
    counts, envs = entries
    config = scaling_config(16, "mesh")
    tuned = setting_by_name("tuned")
    calib = run_workload("incast", tuned, scale=0.05, seed=3, config=config)
    quotas = make_workload("incast", scale=0.05).session_quotas()
    rate = 0.8 * sum(quotas.values()) / calib.exec_cycles / len(quotas)
    run_workload("incast", tuned, scale=0.05, seed=3, config=config,
                 arrival=arrival_spec_for("poisson", rate))
    assert len(envs) == 2
    _assert_every_entry_counted(counts, envs)


def test_call_later_is_an_entry_point(entries):
    counts, _ = entries
    env = Environment()
    env.call_later(3, lambda arg: None)
    env.run()
    assert counts["call_later"] == 1 == env.events_scheduled


# --------------------------------------------- run_until_complete on any Event
def _worker(env, delay):
    yield env.timeout(delay)
    return delay


def test_run_until_complete_on_all_of():
    """The form ``swqueue/coherent.py`` and ``verify/oracle.py`` use."""
    env = Environment()
    procs = [env.process(_worker(env, d)) for d in (5, 9)]
    later = env.timeout(50)
    join = env.all_of(procs)
    value = env.run_until_complete(join)
    assert env.now == 9
    assert value == {procs[0]: 5, procs[1]: 9}
    # The loop stops as soon as the join is triggered: the join itself
    # and later work stay queued.
    assert not join.processed and not later.processed


def test_run_until_complete_on_a_plain_event():
    env = Environment()
    event = env.event()
    env.call_later(4, lambda arg: event.succeed("done"))
    assert env.run_until_complete(event) == "done"
    assert env.now == 4


def test_run_until_complete_raises_a_failed_all_of():
    env = Environment()

    def failing():
        yield env.timeout(2)
        raise ValueError("child failed")

    join = env.all_of([env.process(_worker(env, 5)), env.process(failing())])
    with pytest.raises(ValueError, match="child failed"):
        env.run_until_complete(join)
    assert env.now == 2


def test_run_until_complete_deadlock_and_limit():
    env = Environment()
    never = env.event()
    join = env.all_of([env.process(_worker(env, 5)), never])
    with pytest.raises(SimulationError, match="deadlock"):
        env.run_until_complete(join)
    env = Environment()
    join = env.all_of([env.process(_worker(env, 5)), env.timeout(100)])
    with pytest.raises(SimulationError, match="limit 50"):
        env.run_until_complete(join, limit=50)
    assert env.now == 5 and env.peek() == 100
