"""Shared fixtures: small systems and configurations for fast tests."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.sim.hooks import TransactionHook
from repro.sim.kernel import Environment
from repro.system import System


@pytest.fixture(params=["heap", "ladder", "calendar", "batch"])
def env(request) -> Environment:
    """A bare Environment.

    The kernel has one event queue.  The four ids are the names of the
    queue strategies it once chose between, kept only so that the ids of
    the tests using this fixture stay stable; every id builds the same
    Environment.
    """
    return Environment()


@pytest.fixture
def small_config() -> SystemConfig:
    """A reduced configuration that keeps unit tests fast."""
    return SystemConfig(num_cores=4)


def build_pingpong(system: System, rounds: int = 50, compute: int = 100):
    """Wire a 1:1 producer/consumer pair; returns the collected payloads."""
    lib = system.library
    q = lib.create_queue()
    prod = lib.open_producer(q, core_id=0)
    cons = lib.open_consumer(q, core_id=1)
    received = []

    def producer(ctx):
        for i in range(rounds):
            yield from ctx.push(prod, i)
            yield from ctx.compute(compute)

    def consumer(ctx):
        for _ in range(rounds):
            msg = yield from ctx.pop(cons)
            received.append(msg.payload)
            yield from ctx.compute(compute)

    system.spawn(0, producer, "producer")
    system.spawn(1, consumer, "consumer")
    return received


def subscribe_records(system: System, kind: str = "message") -> list:
    """Collect every transaction record of *kind*, in creation order.

    The log keeps no records; a :class:`TransactionHook` subscriber sees
    each one at its first stamp.  Subscribe before the run starts.
    """
    records: list = []
    seen: set = set()

    def on_transaction(event: TransactionHook) -> None:
        record = event.record
        if record is not None and record.kind == kind and record.tid not in seen:
            seen.add(record.tid)
            records.append(record)

    system.hooks.subscribe(TransactionHook, on_transaction)
    return records


@pytest.fixture
def vl_system(small_config) -> System:
    return System(config=small_config, device="vl")


@pytest.fixture
def spamer_system(small_config) -> System:
    return System(config=small_config, device="spamer", algorithm="0delay")
