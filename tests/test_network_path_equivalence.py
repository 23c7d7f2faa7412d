"""Differential test of the callback-passing network against the Event path.

Every packet used to return an :class:`~repro.sim.event.Event` from
``transit``/``response``: ``FifoServer.serve`` created a ``Timeout`` per
hop, a multi-hop packet chained its hops through ``advance`` closures and
fired a ``done`` event with ``succeed()``, and every sender subscribed
its handler to the returned event.  The network now passes the handler
down instead: each hop is one ``call_later`` entry and a multi-hop packet
is delivered through one zero-delay ``call_later`` entry
(:class:`repro.net.topology._Packet`).  A ``Timeout`` and a
``call_later`` both enqueue ``(now + delay, NORMAL, seq)`` at the moment
they are created, and ``succeed()`` enqueues ``(now, NORMAL, seq)``, so
the claim is exactness by construction.

This suite keeps the Event-based path as the reference, verbatim from the
last version that had it, and monkeypatches it in (``src/`` keeps no
second path).  The reference network takes the callback API through a
shim that subscribes the handler to the returned event, which is what
every sender did.  Both run over:

* the eight fig8 programs on the default single bus;
* 16-core mesh, ring, torus and crossbar cells on ``vl``, ``tuned`` and
  multipush k=2 (with rollbacks);
* multipush k=4 rollback invalidations on a mesh and a ring;
* the MOESI software queue on a mesh (the ``transit_event`` adapter);
* a mesh cell with the metrics collector and the Perfetto sink attached.

Each pair must agree on the pickled :class:`RunMetrics` byte for byte, on
``events_scheduled``/``events_processed`` and on the full list of
dispatched ``(time, priority, seq)`` keys; the observed cell also on the
registry export and the Perfetto document.  Positive controls show that
multi-hop packets, rollback invalidations and coherence transits ran.
Two mutation kills show the differential sees a dropped delivery entry
and a path reserved at send time.
"""

from __future__ import annotations

import heapq
import json
import pickle

import pytest

import repro.sim.kernel as kernel
from repro.config import SystemConfig
from repro.eval.runner import (
    collect_metrics,
    multipush_setting,
    run_workload,
    setting_by_name,
)
from repro.eval.scaling import scaling_config
from repro.mem.bus import CoherenceNetwork
from repro.net.singlebus import SingleBusTopology
from repro.net.topology import Link, Topology, _Packet
from repro.obs.collector import MetricsCollector, finalize_system
from repro.obs.metrics import MetricsRegistry
from repro.obs.perfetto import PerfettoTraceSink
from repro.serve.cache import metrics_bytes
from repro.sim.event import Event
from repro.sim.kernel import Environment
from repro.sim.resources import FifoServer
from repro.swqueue import run_software_pingpong
from repro.verify.fuzz import FuzzWorkload, LinkSpec, ProgramSpec, run_fuzz_case
from repro.vlink.pipeline import MappingPipeline
from repro.workloads.registry import workload_names


# ------------------------------------------------------------ the reference
def reference_serve(self, extra_delay: int = 0) -> Event:
    """``FifoServer.serve``, verbatim."""
    start = max(self.env.now, self._free_at)
    finish = start + self.service_time
    self._free_at = finish
    self.busy_cycles += self.service_time
    self.packets_served += 1
    return self.env.timeout(finish - self.env.now + int(extra_delay))


def reference_traverse(self) -> Event:
    """``Link.traverse``, verbatim."""
    wait = self.server._free_at - self.env.now
    if wait > 0:
        self.wait_cycles += wait
    return self.server.serve(extra_delay=self.latency)


def reference_topology_transit(self, kind: str, src: int, dst: int) -> Event:
    """``Topology.transit``, verbatim: hops chained by ``advance``
    closures, delivery through ``done.succeed()``."""
    links = self.route(src, dst)
    if not links:
        return self.env.timeout(self.config.bus_occupancy)
    if len(links) == 1:
        return self._traverse(links[0], kind, src, dst)
    done = Event(self.env, name=f"net-delivery[{kind}]")

    def advance(index: int) -> None:
        hop = self._traverse(links[index], kind, src, dst)
        if index + 1 == len(links):
            hop.subscribe(lambda _ev: done.succeed())
        else:
            hop.subscribe(lambda _ev: advance(index + 1))

    advance(0)
    return done


def reference_topology_traverse(self, link, kind: str, src: int, dst: int) -> Event:
    """``Topology._traverse``, verbatim."""
    event = link.traverse()
    hooks = self.hooks
    if hooks is not None:
        from repro.sim.hooks import LinkHook

        if hooks.wants(LinkHook):
            hooks.publish(
                LinkHook(
                    tick=self.env.now,
                    link=link.name,
                    kind=kind,
                    src=src,
                    dst=dst,
                    busy_cycles=link.busy_cycles,
                    wait_cycles=link.wait_cycles,
                )
            )
    return event


def reference_bus_transit(self, kind: str, src: int, dst: int) -> Event:
    """``SingleBusTopology.transit``, verbatim."""
    return self.channel.serve(extra_delay=self.latency)


def reference_network_transit(self, kind, txn=None, src: int = 0, dst: int = 0) -> Event:
    """``CoherenceNetwork.transit``, verbatim."""
    self.counters.add(kind.value)
    self.counters.add("total_packets")
    delivered = self.topology.transit(kind.value, src, dst)
    if self.hooks is not None:
        from repro.sim.hooks import BusHook

        if self.hooks.wants(BusHook):
            self.hooks.publish(
                BusHook(
                    tick=self.env.now,
                    kind=kind.value,
                    busy_cycles=self.busy_cycles,
                )
            )
    return delivered


def reference_network_response(self, src: int = 0, dst: int = 0) -> Event:
    """``CoherenceNetwork.response``, verbatim."""
    self.counters.add("responses")
    return self.env.timeout(self.topology.response_latency(src, dst))


def reference_after(self, delay: int, fn) -> None:
    """``MappingPipeline._after``, verbatim."""
    self.env.timeout(delay).subscribe(lambda _ev: fn())


# The callback API over the reference: what every sender did with the
# event the Event path returned.
def shim_transit(self, kind, src, dst, callback, arg=None) -> None:
    reference_network_transit(self, kind, src=src, dst=dst).subscribe(
        lambda _ev: callback(arg)
    )


def shim_transit_event(self, kind, src, dst) -> Event:
    return reference_network_transit(self, kind, src=src, dst=dst)


def shim_response(self, src, dst, callback, arg=None) -> None:
    reference_network_response(self, src=src, dst=dst).subscribe(
        lambda _ev: callback(arg)
    )


REFERENCE = (
    (FifoServer, "serve", reference_serve),
    (Link, "traverse", reference_traverse),
    (Topology, "transit", reference_topology_transit),
    (Topology, "_traverse", reference_topology_traverse),
    (SingleBusTopology, "transit", reference_bus_transit),
    (CoherenceNetwork, "transit", shim_transit),
    (CoherenceNetwork, "transit_event", shim_transit_event),
    (CoherenceNetwork, "response", shim_response),
    (MappingPipeline, "_after", reference_after),
)


# ------------------------------------------------------------------- cells
def _cell(kind, *, workload=None, setting=None, scale=0.05, config=None,
          spec=None, controls=()):
    return dict(kind=kind, workload=workload, setting=setting, scale=scale,
                config=config, spec=spec, controls=controls)


def _noc(topology: str) -> SystemConfig:
    return scaling_config(16, topology, base=SystemConfig(lines_per_endpoint=4))


NOC_SETTINGS = {
    "vl": setting_by_name("vl"),
    "tuned": setting_by_name("tuned"),
    "multipush-k2": multipush_setting(2, 0.0),
}

#: The doomed-claim-lands shape of tests/test_multipush_rollback_regression.py:
#: rolled-back burst claims that already filled are invalidated over the
#: network.
INVALIDATION = ProgramSpec(
    links=(LinkSpec(2, 1, 16),), producer_compute=0, consumer_compute=0
)
INVALIDATION_3P = ProgramSpec(
    links=(LinkSpec(3, 1, 24),), producer_compute=0, consumer_compute=0
)

CELLS = {
    **{
        f"bus-{workload}-{label}": _cell(
            "run", workload=workload, setting=setting_by_name(label))
        for workload in workload_names()
        for label in ("vl", "tuned")
    },
    **{
        f"{topology}-firewall-{label}": _cell(
            "run", workload="firewall", setting=setting, scale=0.1,
            config=_noc(topology),
            controls=("multi_hop",) + (
                ("rollbacks",) if label.startswith("multipush") else ()),
        )
        for topology in ("mesh", "ring", "torus", "crossbar")
        for label, setting in NOC_SETTINGS.items()
    },
    "mesh-invalidation-k4": _cell(
        "fuzz", setting=multipush_setting(4, 0.0), spec=INVALIDATION,
        config=SystemConfig(num_cores=8, lines_per_endpoint=4, topology="mesh"),
        controls=("multi_hop", "rollbacks", "invalidations")),
    "ring-invalidation-k4": _cell(
        "fuzz", setting=multipush_setting(4, 0.0), spec=INVALIDATION_3P,
        config=SystemConfig(num_cores=16, lines_per_endpoint=4, topology="ring"),
        controls=("multi_hop", "rollbacks", "invalidations")),
    "mesh-moesi-swqueue": _cell(
        "swqueue", config=scaling_config(16, "mesh"),
        controls=("multi_hop", "coherence")),
    "mesh-incast-tuned-observed": _cell(
        "observed", workload="incast", setting=setting_by_name("tuned"),
        config=_noc("mesh"), controls=("multi_hop",)),
}


def _run_simulation(cell, patch):
    """Run *cell*'s simulation; returns (result bytes, environment, system,
    observability documents)."""
    kind = cell["kind"]
    if kind == "swqueue":
        envs = []
        init = Environment.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            envs.append(self)

        patch.setattr(Environment, "__init__", tracking_init)
        result = run_software_pingpong(40, config=cell["config"])
        (env,) = envs
        return pickle.dumps(result), env, None, {}
    if kind == "fuzz":
        result = run_fuzz_case(cell["spec"], cell["setting"], config=cell["config"])
        assert result.ok, result.mismatches() or result.violations
        system = result.system
        metrics = collect_metrics(system, FuzzWorkload(cell["spec"]), cell["setting"])
        return metrics_bytes(metrics), system.env, system, {}
    observed = {}
    attach = None
    if kind == "observed":
        registry = MetricsRegistry()
        sinks = []

        def attach(system):
            sinks.append(MetricsCollector(system.hooks, registry))
            sinks.append(PerfettoTraceSink(system.hooks, label="observed"))

    metrics, system = run_workload(
        cell["workload"], cell["setting"], scale=cell["scale"],
        config=cell["config"], on_system=attach, return_system=True,
    )
    if kind == "observed":
        finalize_system(system, registry)
        observed["registry"] = json.dumps(registry.as_dict(), sort_keys=True)
        observed["perfetto"] = json.dumps(sinks[1].events, sort_keys=True)
    return metrics_bytes(metrics), system.env, system, observed


def run_cell(monkeypatch, cell, reference=False, mutant=None):
    """Run one cell; return everything the two paths must share, plus the
    positive-control counts."""
    keys = []
    delivered = []

    def recording_pop(queue):
        entry = heapq.heappop(queue)
        keys.append(entry[:3])
        return entry

    def counted_deliver(self, arg, _deliver=_Packet._deliver):
        delivered.append(1)
        _deliver(self, arg)

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_heappop", recording_pop)
        if reference:
            for owner, name, function in REFERENCE:
                patch.setattr(owner, name, function)
            # The reference delivers multi-hop packets through its done
            # event; count those instead.
            patch.setattr(Topology, "transit", _counting_reference(delivered))
        else:
            patch.setattr(_Packet, "_deliver", counted_deliver)
        if mutant is not None:
            patch.setattr(_Packet, *mutant)
        result, env, system, observed = _run_simulation(cell, patch)
    shared = {
        "metrics": result,
        "events_scheduled": env.events_scheduled,
        "events_processed": env.events_processed,
        "keys": keys,
        **observed,
    }
    controls = {"multi_hop": len(delivered)}
    if system is not None:
        stats = system.aggregate_device_stats()
        controls["rollbacks"] = stats.get("spec_rollbacks")
        controls["invalidations"] = stats.get("rollback_invalidations")
        controls["wait_cycles"] = system.network.wait_cycles
    else:
        controls["coherence"] = pickle.loads(result).coherence_packets
    return shared, controls


def _counting_reference(delivered):
    def transit(self, kind, src, dst):
        if len(self.route(src, dst)) > 1:
            delivered.append(1)
        return reference_topology_transit(self, kind, src, dst)
    return transit


def assert_equivalent(monkeypatch, cell):
    reference, reference_controls = run_cell(monkeypatch, cell, reference=True)
    candidate, controls = run_cell(monkeypatch, cell)
    assert candidate.keys() == reference.keys()
    for field in reference:
        assert candidate[field] == reference[field], field
    assert controls["multi_hop"] == reference_controls["multi_hop"]
    for name in cell["controls"]:
        assert controls[name] > 0, (name, controls)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_network_path_matches_event_path(monkeypatch, name):
    assert_equivalent(monkeypatch, CELLS[name])


# ---------------------------------------------------------- mutation kills
def _deliver_without_entry(self, _arg):
    """Mutant: run the last hop's handler directly, dropping the
    zero-delay delivery entry ``done.succeed()`` used to add."""
    self.callback(self.arg)


def _ignore(_arg):
    pass


def _reserve_every_hop(self, _arg):
    """Mutant: reserve every link of the path at send time instead of
    when the packet arrives at each hop (not store-and-forward)."""
    links = self.links
    last = len(links) - 1
    for index, link in enumerate(links):
        self.topology._traverse(
            link, self.kind, self.src, self.dst,
            self._deliver if index == last else _ignore, None,
        )


@pytest.mark.parametrize("mutant,field", [
    (("_deliver", _deliver_without_entry), "events_scheduled"),
    (("hop", _reserve_every_hop), "keys"),
])
def test_differential_kills_mutant(monkeypatch, mutant, field):
    cell = CELLS["mesh-firewall-multipush-k2"]
    reference, _ = run_cell(monkeypatch, cell, reference=True)
    candidate, controls = run_cell(monkeypatch, cell, mutant=mutant)
    assert controls["wait_cycles"] > 0  # the mesh is contended
    assert candidate[field] != reference[field]
