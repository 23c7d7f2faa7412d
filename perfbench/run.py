"""The repo benchmark: simulator throughput on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-closed --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass of the same cells and reports the per-layer
metrics (see ``perfbench/README.md``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run's full record (shared header, digests, spans) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

E2E_UNITS = {
    "setup_s": "s",
    "msgs_per_s": "msg/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "hit_p50_us": "us",
    "hit_p90_us": "us",
    "sim_speedup_tuned": "x",
    "sim_err_pct": "%",
    "sim_p99_sojourn_cycles": "cycles",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig8-closed", "open-mesh64", "sweep-cached"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other repro."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


# ------------------------------------------------------------------ header
def header(args: argparse.Namespace, sizes: Dict) -> Dict:
    """The shared record header every benchmark record carries."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": rev,
        "src_digest": digest.hexdigest()[:16],
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


# ------------------------------------------------------------------- set-up
def setup_probe(args: argparse.Namespace) -> int:
    """Child side of a set-up probe: import, build, start, warm, say ready."""
    import harness
    import hostspeed
    from stats import OpCounter

    workload = harness.make(args.workload, args.seed)
    try:
        workload.set_up()
        ops = OpCounter()
        workload.warm(ops)
        print("ready" if ops.failed == 0 else "failed", flush=True)
        print(repr(statistics.median(hostspeed.probe() for _ in range(3))), flush=True)
    finally:
        workload.close()
    return 0 if ops.failed == 0 else 1


def time_setups(args: argparse.Namespace, count: int = SETUP_PROBES):
    """Per probe, host seconds from process start to a warm, ready
    workload: raw, and normalized by the median of three host-speed probes
    the child runs right after it is ready."""
    from hostspeed import REF_NOMINAL_S

    raw, norm = [], []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            ready = time.perf_counter() - start
            ref = child.stdout.readline().strip()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {code}")
        raw.append(ready)
        norm.append(ready * REF_NOMINAL_S / float(ref))
    return raw, norm


# ------------------------------------------------------------ measuring
def run_passes(workload, args, ops, reference):
    """Timed passes for about ``--seconds`` of host time, then any passes
    the ``sim_*`` panel still needs, untimed.  Returns (timed, all)."""
    passes = []
    measured = 0.0
    timed = 0
    while True:
        timing = not passes or (
            timed == len(passes) and measured + measured / timed <= args.seconds
        )
        if not timing and len(passes) >= workload.panel:
            break
        workload.warm(ops)
        result = workload.run_pass(ops, len(passes))
        if timing:
            timed += 1
            measured += result.seconds
        passes.append(result)
        check_pass(result, reference, f"pass {len(passes)}")
    return passes[:timed], passes


def check_pass(result, reference, what: str) -> None:
    """Gate one pass's runs and cache hits; the hits are dropped after."""
    reference.check_all(result.requests, result.metrics, what)
    for request, metrics in result.hits:
        reference.check(request, metrics, f"{what} cache hit")
    result.hits = []


def measure(args: argparse.Namespace, workload) -> Dict:
    """Set-up probes, timed passes, gates and the end-to-end metrics."""
    import harness
    from stats import OpCounter, block_percentile, highest_tail, percentile

    setup_raw, setups = time_setups(args)
    workload.set_up()
    ops = OpCounter()
    reference = harness.Reference(ops)
    timed, passes = run_passes(workload, args, ops, reference)
    workload.close()
    first = passes[0]
    harness.rerun_sample(workload.sim_cells(first)[0], args.seed, reference)
    rss = harness.self_peak_rss_mb() + workload.peak_children_mb
    requests, metrics = [], []
    for result in passes[:workload.panel]:
        cells = workload.sim_cells(result)
        requests.extend(cells[0])
        metrics.extend(cells[1])
    sim = harness.sim_summary(requests, metrics)
    rates = [p.messages / p.norm_seconds for p in timed]
    hit_blocks = [block for p in timed for block in p.hit_blocks]
    hit_s = [s for block in hit_blocks for s in block]
    metrics = {
        "setup_s": statistics.median(setups),
        "msgs_per_s": statistics.median(rates),
        "peak_rss_mb": rss,
        "ok_rate": ops.ok_rate,
        "hit_p50_us": block_percentile(hit_blocks, 50) * 1e6,
        "hit_p90_us": block_percentile(hit_blocks, 90) * 1e6,
        "sim_speedup_tuned": sim["sim_speedup_tuned"],
        "sim_err_pct": sim["sim_err_pct"],
        "sim_p99_sojourn_cycles": sim["sim_p99_sojourn_cycles"],
    }
    tail = highest_tail(len(hit_s))
    detail = {
        "timed_passes": len(timed),
        "panel_passes": len(passes),
        "pass_seconds_raw": [p.seconds for p in timed],
        "pass_seconds_norm": [p.norm_seconds for p in timed],
        "msgs_per_s_raw": statistics.median(p.messages / p.seconds for p in timed),
        "pass_rates_norm": rates,
        "setup_s_raw": setup_raw,
        "setup_s_norm": setups,
        "hit_samples": len(hit_s),
        "hit_tail_pct": tail,
        "hit_tail_us": percentile(hit_s, tail) * 1e6 if tail else None,
        "sim_geomeans": sim["geomeans"],
    }
    return finish(args, workload, ops, metrics, E2E_UNITS, first, detail, [])


def measure_traced(args: argparse.Namespace, workload) -> Dict:
    """One untraced pass, then the same cells traced (see README)."""
    import harness
    import layers
    from stats import OpCounter

    workload.set_up()
    ops = OpCounter()
    reference = harness.Reference(ops)
    warm_start = time.perf_counter()
    workload.warm(ops)
    warm_ms = (time.perf_counter() - warm_start) * 1000.0
    untraced = workload.run_pass(ops)

    sweep = isinstance(workload, harness.SweepCached)
    if sweep:
        workload.tracing = True
    workload.warm(ops)
    tracer = layers.Tracer()
    with tracer:
        traced = workload.run_pass(ops)
    workload.close()
    check_pass(untraced, reference, "untraced pass")
    check_pass(traced, reference, "traced pass")

    summaries = [layers.summarize(tracer)]
    serve = {"serve.cache.hits": traced.cache["hits"],
             "serve.cache.misses": traced.cache["misses"]}
    if sweep:
        summaries.extend(workload.worker_records)
        serve.update(sweep_serve_metrics(workload.jobs, workload.worker_records))
    merged = layers.merge(summaries)
    metrics = layer_metrics(
        merged, traced, untraced.norm_seconds, traced.seconds / untraced.seconds,
        warm_ms, tracer.key_s, tracer.lookup_s, serve,
    )
    units = {name: unit for name, unit, _better in PER_LAYER}
    detail = {"untraced_s_raw": untraced.seconds, "traced_s_raw": traced.seconds,
              "untraced_s_norm": untraced.norm_seconds}
    return finish(args, workload, ops, metrics, units, untraced, detail, merged["spans"])


def sweep_serve_metrics(jobs, records: List[Dict]) -> Dict[str, float]:
    """Dispatch and queueing figures of the traced sweep's executed jobs."""
    in_worker = {r["key"]: r["execute_s"] for r in records}
    ran = [j for j in jobs if not j.cache_hit and j.cache_key in in_worker
           and j.service_s is not None]
    return {
        "eval.dispatch_ms": sum(
            (j.service_s - in_worker[j.cache_key]) * 1000.0 for j in ran
        ),
        "serve.wait_ms_p50": statistics.median(j.wait_s for j in ran) * 1000.0,
        "serve.service_ms_p50": statistics.median(j.service_s for j in ran) * 1000.0,
    }


#: Per-layer metrics: name, unit, which direction is better.
PER_LAYER = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_msg", "events/msg", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.self_pct", "%", "lower"),
    *[(f"sim.events.from.{layer}", "count", "lower")
      for layer in ("sim", "cpu", "vlink", "spamer", "mem", "net", "workloads", "other")],
    ("vlink.poll_events", "count", "lower"),
    ("vlink.poll_share", "ratio", "lower"),
    ("vlink.pops", "count", "lower"),
    ("vlink.pushes", "count", "lower"),
    ("vlink.self_pct", "%", "lower"),
    ("net.link_serves", "count", "lower"),
    ("net.wait_cycles", "cycles", "lower"),
    ("net.utilization", "ratio", "lower"),
    ("net.self_pct", "%", "lower"),
    ("spamer.spec_pushes", "count", "lower"),
    ("spamer.spec_precision", "ratio", "higher"),
    ("spamer.rollbacks", "count", "lower"),
    ("spamer.self_pct", "%", "lower"),
    ("mem.bus_packets", "count", "lower"),
    ("mem.bus_busy_cycles", "cycles", "lower"),
    ("mem.push_fail_rate", "ratio", "lower"),
    ("mem.line_empty_cycles", "cycles", "lower"),
    ("mem.self_pct", "%", "lower"),
    ("cpu.compute_events", "count", "lower"),
    ("cpu.self_pct", "%", "lower"),
    ("workloads.requests", "count", "higher"),
    ("workloads.self_pct", "%", "lower"),
    ("eval.build_ms", "ms", "lower"),
    ("eval.run_ms", "ms", "lower"),
    ("eval.collect_ms", "ms", "lower"),
    ("eval.warm_ms", "ms", "lower"),
    ("eval.dispatch_ms", "ms", "lower"),
    ("serve.key_us", "us", "lower"),
    ("serve.lookup_us", "us", "lower"),
    ("serve.cache.hits", "count", "higher"),
    ("serve.cache.misses", "count", "lower"),
    ("serve.cache.hit_rate", "ratio", "higher"),
    ("serve.wait_ms_p50", "ms", "lower"),
    ("serve.service_ms_p50", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def layer_metrics(
    merged: Dict, traced, untraced_s: float, slowdown: float,
    warm_ms: float, key_s: List[float], lookup_s: List[float],
    serve: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of the traced pass (see ``PER_LAYER``)."""
    # Each distinct request was simulated once in the pass; repeats of it
    # came from the cache.
    simulated = {}
    for request, metrics in zip(traced.requests, traced.metrics):
        if metrics is not None:
            simulated.setdefault(request.cache_key(), metrics)
    runs = list(simulated.values())
    systems = merged["systems"]
    events = sum(s["events"] for s in systems)
    messages = sum(s["messages"] for s in systems)
    self_s = merged["self_s"]
    total_self = sum(self_s.values()) or 1.0
    by_source = merged["events"]
    linked = [s["utilization"] for s in systems if s["utilization"] is not None]
    spec = sum(m.spec_pushes for m in runs)
    rollbacks = sum((m.extra or {}).get("spec_rollbacks", 0) for m in runs)
    useful = sum(m.spec_pushes - m.spec_failures for m in runs) - rollbacks
    attempts = sum(m.push_attempts for m in runs)
    hits = serve.get("serve.cache.hits", 0)
    misses = serve.get("serve.cache.misses", 0)
    span_s = merged["span_s"]
    out = {
        "sim.events": events,
        "sim.events_per_msg": events / messages if messages else 0.0,
        "sim.ns_per_event": untraced_s / events * 1e9 if events else 0.0,
        "sim.self_pct": 100.0 * self_s.get("sim", 0.0) / total_self,
        "vlink.poll_events": merged["poll_events"],
        "vlink.poll_share": merged["poll_events"] / events if events else 0.0,
        "vlink.pops": merged["pops"],
        "vlink.pushes": merged["pushes"],
        "net.link_serves": merged["link_serves"],
        "net.wait_cycles": sum(s["wait_cycles"] for s in systems),
        "net.utilization": statistics.mean(linked) if linked else 0.0,
        "spamer.spec_pushes": spec,
        "spamer.spec_precision": max(useful, 0) / spec if spec else 0.0,
        "spamer.rollbacks": rollbacks,
        "mem.bus_packets": sum(m.bus_packets for m in runs),
        "mem.bus_busy_cycles": sum(m.bus_busy_cycles for m in runs),
        "mem.push_fail_rate": (
            sum(m.push_failures for m in runs) / attempts if attempts else 0.0
        ),
        "mem.line_empty_cycles": statistics.mean(m.avg_line_empty for m in runs),
        "cpu.compute_events": by_source.get("cpu", 0),
        "workloads.requests": sum((m.extra or {}).get("request_count", 0) for m in runs),
        "eval.build_ms": span_s.get("eval.build", 0.0) * 1000.0,
        "eval.run_ms": span_s.get("eval.run", 0.0) * 1000.0,
        "eval.collect_ms": span_s.get("eval.collect", 0.0) * 1000.0,
        "eval.warm_ms": warm_ms,
        "eval.dispatch_ms": serve.get("eval.dispatch_ms", 0.0),
        "serve.key_us": statistics.median(key_s) * 1e6 if key_s else 0.0,
        "serve.lookup_us": statistics.median(lookup_s) * 1e6 if lookup_s else 0.0,
        "serve.cache.hits": hits,
        "serve.cache.misses": misses,
        "serve.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.wait_ms_p50": serve.get("serve.wait_ms_p50", 0.0),
        "serve.service_ms_p50": serve.get("serve.service_ms_p50", 0.0),
        "trace.overhead_pct": (slowdown - 1.0) * 100.0,
    }
    for layer in ("sim", "cpu", "vlink", "spamer", "mem", "net", "workloads", "other"):
        out[f"sim.events.from.{layer}"] = by_source.get(layer, 0)
    for layer in ("vlink", "net", "spamer", "mem", "cpu", "workloads"):
        out[f"{layer}.self_pct"] = 100.0 * self_s.get(layer, 0.0) / total_self
    return out


# ------------------------------------------------------------------ output
def finish(args, workload, ops, metrics, units, first, detail, spans) -> Dict:
    import harness
    from repro.serve.cache import metrics_bytes

    digest = hashlib.sha256()
    for result in first.metrics:
        digest.update(metrics_bytes(result) if result is not None else b"-")
    record = {
        "header": header(args, workload.sizes()),
        "digest": digest.hexdigest(),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "detail": detail,
        "spans": spans,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    harness.write_record(OUT / name, record)
    print(f"header {json.dumps(record['header'], sort_keys=True)}")
    print(f"digest {args.workload} {record['digest']}")
    for why in ops.failures:
        print(f"FAILED {why}")
    for metric, entry in record["metrics"].items():
        print(f"{metric:28s} {entry['value']:.6g} {entry['unit']}")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    import_repro()
    if args.setup_probe:
        return setup_probe(args)
    import harness

    workload = harness.make(args.workload, args.seed)
    try:
        record = (measure_traced if args.trace else measure)(args, workload)
    finally:
        workload.close()
    correct = record["failed"] == 0 and record["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
