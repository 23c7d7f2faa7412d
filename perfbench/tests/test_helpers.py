"""Self-tests for the benchmark's helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import math

import pytest

import harness
import layers
from repro.serve.cache import metrics_bytes
from stats import (
    PAPER_GEOMEANS,
    OpCounter,
    block_percentile,
    geomean,
    highest_tail,
    percentile,
    quartile_spread,
    samples_beyond,
    sim_err_pct,
    speedup_geomeans,
)


# ------------------------------------------------------------ percentiles
def test_nearest_rank_percentile():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile(list(reversed(values)), 50) == 5


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),    # the median would leave only 9 beyond it
        (20, 50.0),
        (99, 50.0),    # p90 leaves 9
        (100, 90.0),
        (999, 90.0),   # p99 leaves 9
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_tail_keeps_ten_samples_beyond(n, expected):
    assert highest_tail(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_block_percentile_is_median_of_block_tails():
    blocks = [list(range(1, 101)), list(range(101, 201)), [1000.0] * 100]
    assert block_percentile(blocks, 90) == 190
    assert block_percentile(blocks, 50) == 150


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert math.isclose(quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), 5.0 / 5.0)


# ---------------------------------------------------- geomean and sim_err
def test_geomean():
    assert math.isclose(geomean([2.0, 8.0]), 4.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_speedup_geomeans_use_programs_with_both_settings():
    cycles = {
        "a": {"vl": 200, "tuned": 100, "adapt": 200},
        "b": {"vl": 800, "tuned": 100},
    }
    got = speedup_geomeans(cycles)
    assert math.isclose(got["tuned"], 4.0)       # sqrt(2 * 8)
    assert math.isclose(got["adapt"], 1.0)       # only program a ran adapt
    assert "vl" not in got


def test_sim_err_pct_against_paper_constants():
    assert PAPER_GEOMEANS == {"0delay": 1.45, "adapt": 1.25, "tuned": 1.33}
    assert sim_err_pct(dict(PAPER_GEOMEANS)) == 0.0
    assert math.isclose(sim_err_pct({"tuned": 1.33 * 1.1}), 10.0)
    measured = {"0delay": 1.45 * 0.9, "adapt": 1.25 * 1.1, "tuned": 1.33, "vl": 1.0}
    assert math.isclose(sim_err_pct(measured), 20.0 / 3.0)
    with pytest.raises(ValueError):
        sim_err_pct({"never": 1.0})


# ---------------------------------------------------------- op counting
def test_op_counter_fail_rate():
    ops = OpCounter()
    assert ops.fail_rate == 0.0 and ops.ok_rate == 0.0
    ops.ok(3)
    ops.fail("raised")
    assert ops.check(False, "bytes differ") is False
    assert ops.check(True, "fine") is True
    assert (ops.attempted, ops.failed) == (6, 2)
    assert math.isclose(ops.fail_rate, 2 / 6)
    assert math.isclose(ops.ok_rate, 4 / 6)
    assert ops.failures == ["raised", "bytes differ"]


@pytest.fixture(scope="module")
def tiny_run():
    request = harness.warm_requests(seed=7, workers=1)[0]
    return request, harness.execute_request(request)


def test_reference_gate_counts_a_byte_mismatch(tiny_run):
    request, metrics = tiny_run
    ops = OpCounter()
    reference = harness.Reference(ops)
    reference.check(request, metrics, "first")
    reference.check(request, metrics, "repeat")
    moved = dataclasses.replace(metrics, exec_cycles=metrics.exec_cycles + 1)
    reference.check(request, moved, "moved")
    reference.check(request, None, "raised")  # counted where it raised
    assert (ops.attempted, ops.failed) == (3, 1)


def test_inprocess_pass_lookups_return_fresh_bytes(tiny_run):
    request, metrics = tiny_run
    ops = OpCounter()
    clock = harness.HostClock()
    result = harness._inprocess_pass([request], [metrics], clock, ops)
    assert [len(block) for block in result.hit_blocks] == [100] * 10
    assert result.cache == {"hits": 1000, "misses": 0}
    reference = harness.Reference(ops)
    reference.check(request, metrics, "fresh")
    for hit_request, hit in result.hits:
        reference.check(hit_request, hit, "lookup")
    assert (ops.attempted, ops.failed) == (1001, 0)


def test_worker_probes_weight_by_work(tmp_path):
    nominal = harness.REF_NOMINAL_S
    (tmp_path / "probe-1.log").write_text(f"3.0 {nominal}\n")
    (tmp_path / "probe-2.log").write_text(f"1.0 {nominal * 2}\n")
    factor, probes = harness.worker_probes(tmp_path)
    assert math.isclose(factor, (3.0 + 0.5) / 4.0)
    assert math.isclose(probes, nominal * 3)
    assert harness.worker_probes(tmp_path) == (1.0, 0.0)  # logs were consumed


def test_mixed_sweep_is_half_repeats():
    fresh = harness.fig8_requests(seed=3, scale=0.05)
    mixed = harness.mixed_requests(fresh, seed=3)
    keys = {r.cache_key() for r in fresh}
    repeats = [r for r in mixed if r.cache_key() in keys]
    assert len(mixed) == len(fresh)
    assert len(repeats) == len(fresh) // 2


# ------------------------------------------------- event-source attribution
def test_layer_names():
    assert layers.layer_of_module("repro.vlink.library") == "vlink"
    assert layers.layer_of_module("repro.system") == "other"
    assert layers.layer_of_file("/x/src/repro/net/mesh.py") == "net"
    assert layers.layer_of_file("/x/src/repro/system.py") == "other"
    assert layers.layer_of_file("/usr/lib/python3/heapq.py") == "external"


def _snapshot():
    import repro.eval.runner as runner
    from repro.eval.parallel import RunRequest
    from repro.serve.cache import ResultCache
    from repro.sim.kernel import Environment
    from repro.sim.resources import FifoServer
    from repro.system import System
    from repro.vlink.library import QueueLibrary
    from repro.workloads.base import Workload

    owners = [runner, runner.Setting, RunRequest, ResultCache, Environment,
              FifoServer, System, QueueLibrary, *layers._subclasses(Workload)]
    return {owner: dict(vars(owner)) for owner in owners}


def test_tracer_restores_every_wrapped_method(tiny_run):
    request, _metrics = tiny_run
    before = _snapshot()
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert tracer._patches
            raise RuntimeError("abort mid-trace")
    after = _snapshot()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert after[owner][name] is value, (owner, name)


def test_event_sources_sum_to_kernel_events(tiny_run):
    request, untraced = tiny_run
    tracer = layers.Tracer()
    with tracer:
        traced = harness.execute_request(request)
    assert metrics_bytes(traced) == metrics_bytes(untraced)
    (system,) = tracer.systems
    assert sum(tracer.events.values()) == system["events"] > 0
    assert set(tracer.events) <= set(layers.EVENT_LAYERS)
    assert 0 < tracer.poll_events <= tracer.events["vlink"]
    assert tracer.pops >= untraced.messages_delivered
    assert tracer.pushes == untraced.messages_produced
    spans = tracer.span_totals()
    assert {"eval.build", "eval.run", "eval.collect"} <= set(spans)
    assert "vlink" in tracer.self_time_by_layer()


def test_link_serves_count_noc_links_only(tiny_run):
    from repro.eval.runner import setting_by_name
    from repro.eval.scaling import scaling_config

    request, _metrics = tiny_run
    bus = layers.Tracer()
    with bus:
        harness.execute_request(request)
    assert bus.link_serves == 0 < bus.events["net"]  # bus channels are no links

    mesh_request = harness.RunRequest.from_setting(
        request.workload, setting_by_name("tuned"), scale=request.scale,
        seed=request.seed, config=scaling_config(16, "mesh"),
    )
    mesh = layers.Tracer()
    with mesh:
        harness.execute_request(mesh_request)
    assert 0 < mesh.link_serves <= mesh.events["net"]


def test_worker_summaries_merge_by_sum(tiny_run):
    request, _metrics = tiny_run
    summaries = []
    for _ in range(2):
        tracer = layers.Tracer()
        with tracer:
            harness.execute_request(request)
        summaries.append(layers.summarize(tracer))
    merged = layers.merge(summaries)
    assert sum(merged["events"].values()) == 2 * sum(summaries[0]["events"].values())
    assert len(merged["systems"]) == 2


# ------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_the_metrics_printed():
    import json
    from pathlib import Path

    import run

    root = Path(__file__).resolve().parents[2]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert {w["name"] for w in bench["workloads"]} == set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(row) for row in run.PER_LAYER
    ]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
