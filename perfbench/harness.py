"""The three benchmark workloads, driven through the public ``repro`` API.

Each workload is a list of :class:`~repro.eval.parallel.RunRequest` cells
plus a *pass* that runs them and returns the metrics.  A pass is the unit
the benchmark repeats for ``--seconds`` and takes medians over.

Correctness gates (every check is one op of :class:`stats.OpCounter`):

* every simulated run passes ``Workload.validate`` (``validate=True`` on
  every request, so ``run_workload`` raises on a bad result);
* every result for a request equals the first result for it, byte for
  byte: later passes, cache hits, lookups, in-process re-runs of pooled
  cells and, in the traced run, traced results.
"""

from __future__ import annotations

import functools
import json
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.eval.load import arrival_spec_for
from repro.eval.metrics import RunMetrics
from repro.eval.parallel import RunRequest, execute_request
from repro.eval.runner import multipush_setting, setting_by_name
from repro.eval.scaling import scaling_config
from repro.serve.cache import ResultCache, metrics_bytes
from repro.serve.executor import ServeExecutor
from repro.workloads.registry import make_workload, workload_names

from hostspeed import REF_NOMINAL_S, HostClock, probe, probe_lookup
from stats import OpCounter, geomean, sim_err_pct, speedup_geomeans

#: The four Figure 8 settings, by registry short-name.
FIG8_SETTINGS = ("vl", "0delay", "adapt", "tuned")
#: Scale of the fig8 grid: one serial pass is about 4 s on the baseline
#: host, so a run takes a median over several passes.
FIG8_SCALE = 0.25

OPEN_PROGRAMS = ("incast", "pipeline")
OPEN_RHOS = (0.8, 1.1)
OPEN_CORES = 64
OPEN_SCALE = 0.25
#: Seeds per open-mesh64 run.  One seed's open-system tails vary by about
#: 20% (quartile spread) from seed to seed; the geomean over 16 seeds
#: varies by about 5%.  Pass *i* runs seed ``i mod 16`` of the panel.
OPEN_PANEL = 16

#: Worker processes for ``sweep-cached`` (the baseline host's ``nproc``).
SWEEP_JOBS = 2
SWEEP_SCALE = 0.25
#: Single-request repeat lookups per ``sweep-cached`` pass.
SWEEP_LOOKUPS = 1000
#: Seeded sample of cells re-run in-process after the passes.
RERUN_SAMPLE = 2
#: Single-request lookups timed after an in-process workload's passes.
INPROC_LOOKUPS = 1000
#: Lookups between two host-speed probes.
LOOKUP_BLOCK = 100


# ------------------------------------------------------------------- cells
def fig8_requests(seed: int, scale: float = FIG8_SCALE) -> List[RunRequest]:
    """The 8 paper programs × the 4 Figure 8 settings, program-major."""
    return [
        RunRequest.from_setting(w, setting_by_name(s), scale=scale, seed=seed)
        for w in workload_names()
        for s in FIG8_SETTINGS
    ]


def open_settings():
    return (
        setting_by_name("vl"),
        setting_by_name("tuned"),
        multipush_setting(2, 0.0),
    )


def open_closed_requests(program: str, seed: int) -> List[RunRequest]:
    """Closed tuned (it calibrates the service rate) and closed VL runs."""
    return [
        RunRequest.from_setting(
            program, setting_by_name(name), scale=OPEN_SCALE, seed=seed,
            config=scaling_config(OPEN_CORES, "mesh"),
        )
        for name in ("tuned", "vl")
    ]


def open_requests(program: str, seed: int, calib: RunMetrics) -> List[RunRequest]:
    """Poisson cells at each rho × setting, rated from the closed tuned run."""
    quotas = make_workload(program, scale=OPEN_SCALE).session_quotas()
    service_rate = sum(quotas.values()) / calib.exec_cycles
    config = scaling_config(OPEN_CORES, "mesh")
    return [
        RunRequest.from_setting(
            program, setting, scale=OPEN_SCALE, seed=seed, config=config,
            arrival=arrival_spec_for("poisson", rho * service_rate / len(quotas)),
        )
        for rho in OPEN_RHOS
        for setting in open_settings()
    ]


def open_panel(seed: int) -> List[int]:
    """The open-mesh64 seeds of run *seed*; disjoint across runs."""
    return [seed * OPEN_PANEL + j for j in range(OPEN_PANEL)]


def mixed_requests(fresh: Sequence[RunRequest], seed: int) -> List[RunRequest]:
    """Half repeats of *fresh*, half new cells (next seed), interleaved."""
    repeats = fresh[1::2]
    new = [
        RunRequest.from_setting(
            r.workload, r.setting(), scale=r.scale, seed=seed + 1
        )
        for r in fresh[0::2]
    ]
    return [cell for pair in zip(new, repeats) for cell in pair]


def warm_requests(seed: int, workers: int) -> List[RunRequest]:
    """One tiny real simulation per worker, distinct from every pass cell."""
    return [
        RunRequest.from_setting(
            "ping-pong", setting_by_name("tuned"), scale=0.02, seed=seed + 100 + i
        )
        for i in range(workers)
    ]


# ----------------------------------------------------------- the adapter
class CachedExecutor:
    """The cached sweep path as ``sweep-cached`` sees it.

    Built only by :func:`open_cached_executor`, so pointing the workload at
    another cached sweep path is a change in that one function.
    """

    def __init__(self, executor: ServeExecutor) -> None:
        self._executor = executor

    def run(self, requests: Sequence[RunRequest]) -> List[RunMetrics]:
        return self._executor(list(requests))

    @property
    def cache(self) -> ResultCache:
        return self._executor.daemon.cache

    def jobs(self):
        return self._executor.daemon.queue.jobs()

    def close(self) -> None:
        self._executor.close()


def open_cached_executor(jobs: int, runner: Callable) -> CachedExecutor:
    """A warm ``jobs``-worker cached executor with an empty in-memory cache;
    each pool job runs ``runner(request)``."""
    return CachedExecutor(ServeExecutor.local(jobs=jobs, runner=runner))


# --------------------------------------------------------------- results
@dataclass
class PassResult:
    """One pass: the runs it returned, in order, and its host time."""

    requests: List[RunRequest]
    metrics: List[Optional[RunMetrics]]
    #: Host seconds of the timed sweeps, raw and normalized by the
    #: host-speed probe (equal to raw where the work runs in other processes).
    seconds: float
    norm_seconds: float
    #: Messages delivered in the results of the timed sweeps.
    messages: int = 0
    #: Single-request cache hits (sweep-cached): request and result.
    hits: List[Tuple[RunRequest, Optional[RunMetrics]]] = field(default_factory=list)
    #: Normalized host seconds of each hit, in blocks (see timed_lookups).
    hit_blocks: List[List[float]] = field(default_factory=list)
    #: Result-cache hits and misses during the pass.
    cache: Dict[str, int] = field(default_factory=dict)


class Reference:
    """The byte-identity gate: one entry per distinct request.

    The first result seen for a request becomes its reference; every later
    result for the same request must match it byte for byte.  Each call
    with a result is one op.
    """

    def __init__(self, ops: OpCounter) -> None:
        self.ops = ops
        self._bytes: Dict[str, bytes] = {}
        #: id(request) -> (request, cache key); holding the request keeps
        #: its id from being reused.
        self._keys: Dict[int, Tuple[RunRequest, str]] = {}

    def check(self, request: RunRequest, metrics: Optional[RunMetrics], what: str) -> None:
        if metrics is None:
            return  # counted as failed where it raised
        known = self._keys.get(id(request))
        if known is None:
            known = self._keys[id(request)] = (request, request.cache_key())
        got = metrics_bytes(metrics)
        want = self._bytes.setdefault(known[1], got)
        self.ops.check(got == want, f"{what}: {request.workload}/{request.label} differs")

    def check_all(self, requests, metrics, what: str) -> None:
        for request, result in zip(requests, metrics):
            self.check(request, result, what)


def run_inprocess(
    requests: Sequence[RunRequest], ops: OpCounter, clock: Optional[HostClock] = None
) -> List[Optional[RunMetrics]]:
    """Run cells here, one by one; *clock* times each cell."""
    out: List[Optional[RunMetrics]] = []
    for request in requests:
        start = time.perf_counter()
        try:
            out.append(execute_request(request))
        except Exception as exc:  # noqa: BLE001 - one failed op, keep going
            ops.fail(f"{request.workload}/{request.label}: {exc!r}")
            out.append(None)
        if clock is not None:
            clock.lap(time.perf_counter() - start)
    return out


def run_batch(
    executor: CachedExecutor, requests: Sequence[RunRequest], ops: OpCounter
) -> List[Optional[RunMetrics]]:
    try:
        return executor.run(requests)
    except Exception as exc:  # noqa: BLE001 - the whole batch counts failed
        for request in requests:
            ops.fail(f"{request.workload}/{request.label}: {exc!r}")
        return [None] * len(requests)


def timed_lookups(
    lookup: Callable[[RunRequest], Optional[RunMetrics]],
    requests: Sequence[RunRequest],
    count: int,
) -> Tuple[List[Tuple[RunRequest, Optional[RunMetrics]]], List[List[float]]]:
    """*count* single lookups cycling over *requests*.

    Returns the results and the normalized seconds of each lookup, in
    blocks of ``LOOKUP_BLOCK`` with a host-speed probe after each block.
    """
    clock = HostClock(probe_lookup)
    hits, blocks = [], []
    for base in range(0, count, LOOKUP_BLOCK):
        block = []
        for i in range(base, min(base + LOOKUP_BLOCK, count)):
            request = requests[i % len(requests)]
            start = time.perf_counter()
            hits.append((request, lookup(request)))
            block.append(time.perf_counter() - start)
        factor = clock.lap(sum(block))
        blocks.append([s * factor for s in block])
    return hits, blocks


class Workload:
    """Common shape: ``set_up`` once, then ``warm`` and ``run_pass`` per pass."""

    name = ""
    #: Distinct passes the ``sim_*`` metrics need (see ``OPEN_PANEL``).
    panel = 1
    #: Peak resident memory of worker processes, summed (pooled workloads).
    peak_children_mb = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._warmed = False

    def set_up(self) -> None:
        """Build the cells every pass runs (registry lookups included)."""

    def warm(self, ops: OpCounter) -> None:
        """One tiny real simulation per worker before the clock starts.

        Called before every pass; in-process workers stay warm after the
        first call.
        """
        if self._warmed:
            return
        self._warmed = True
        for metrics in run_inprocess(warm_requests(self.seed, 1), ops):
            if metrics is not None:
                ops.ok()

    def run_pass(self, ops: OpCounter, index: int = 0) -> PassResult:
        raise NotImplementedError

    def sim_cells(self, result: PassResult):
        """The (requests, metrics) the ``sim_*`` metrics are computed over."""
        return result.requests, result.metrics

    def close(self) -> None:
        pass

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError


def _inprocess_pass(requests, metrics, clock: HostClock, ops: OpCounter) -> PassResult:
    """Finish an in-process pass: answer ``INPROC_LOOKUPS`` single-request
    lookups from a result cache holding the pass's results."""
    cache = ResultCache()
    stored = []
    for request, result in zip(requests, metrics):
        if result is not None:
            cache.put(request.cache_key(), result)
            stored.append(request)

    def lookup(request):
        hit = cache.lookup(request)
        if hit is None:
            ops.fail(f"lookup of {request.workload}/{request.label} missed")
        return hit

    hits, blocks = timed_lookups(lookup, stored, INPROC_LOOKUPS) if stored else ([], [])
    return PassResult(
        list(requests), metrics, clock.raw, clock.norm, _messages(metrics),
        hits, blocks, {"hits": cache.hits, "misses": cache.misses},
    )


class Fig8Closed(Workload):
    name = "fig8-closed"

    def set_up(self) -> None:
        self.requests = fig8_requests(self.seed)

    def run_pass(self, ops: OpCounter, index: int = 0) -> PassResult:
        clock = HostClock()
        metrics = run_inprocess(self.requests, ops, clock)
        return _inprocess_pass(self.requests, metrics, clock, ops)

    def sizes(self) -> Dict[str, object]:
        return {"cells": len(self.requests), "scale": FIG8_SCALE,
                "settings": list(FIG8_SETTINGS), "lookups": INPROC_LOOKUPS}


class OpenMesh64(Workload):
    name = "open-mesh64"
    panel = OPEN_PANEL

    def run_pass(self, ops: OpCounter, index: int = 0) -> PassResult:
        seed = open_panel(self.seed)[index % OPEN_PANEL]
        clock = HostClock()
        requests: List[RunRequest] = []
        metrics: List[Optional[RunMetrics]] = []
        for program in OPEN_PROGRAMS:
            closed = open_closed_requests(program, seed)
            closed_metrics = run_inprocess(closed, ops, clock)
            requests.extend(closed)
            metrics.extend(closed_metrics)
            if closed_metrics[0] is None:
                continue
            cells = open_requests(program, seed, closed_metrics[0])
            requests.extend(cells)
            metrics.extend(run_inprocess(cells, ops, clock))
        return _inprocess_pass(requests, metrics, clock, ops)

    def sizes(self) -> Dict[str, object]:
        return {"programs": list(OPEN_PROGRAMS), "rhos": list(OPEN_RHOS),
                "cores": OPEN_CORES, "topology": "mesh", "scale": OPEN_SCALE,
                "cells_per_pass": len(OPEN_PROGRAMS) * (2 + len(OPEN_RHOS) * len(open_settings())),
                "seed_panel": OPEN_PANEL, "lookups": INPROC_LOOKUPS}


def probed_execute(log_dir: str, request: RunRequest) -> RunMetrics:
    """Pool-worker runner: ``execute_request``, then a host-speed probe.

    Appends ``<execute seconds> <probe seconds>`` to this worker's log, so
    the parent can normalize a sweep by the speed of the processes that
    did its work (a probe in the parent does not track the workers) and
    take the probes' own time back out of the sweep's wall time.
    """
    start = time.perf_counter()
    metrics = execute_request(request)
    seconds = time.perf_counter() - start
    ref = probe()
    with open(os.path.join(log_dir, f"probe-{os.getpid()}.log"), "a") as fh:
        fh.write(f"{seconds!r} {ref!r}\n")
    return metrics


def read_worker_logs(log_dir: Path, prefix: str) -> List[str]:
    """Every line the pool workers logged under *prefix*; the logs are
    removed, so the next call sees only newer lines."""
    lines: List[str] = []
    for path in sorted(log_dir.glob(f"{prefix}-*")):
        lines.extend(path.read_text().splitlines())
        path.unlink()
    return lines


def worker_probes(log_dir: Path) -> Tuple[float, float]:
    """(factor, probe seconds) of the jobs logged since the last call.

    The factor is the work-weighted normalization factor of those jobs
    (1.0 when no job ran, e.g. a sweep answered from the cache); the probe
    seconds are the summed time of their host-speed probes.
    """
    rows = [tuple(map(float, line.split())) for line in read_worker_logs(log_dir, "probe")]
    work = sum(seconds for seconds, _ref in rows)
    probes = sum(ref for _seconds, ref in rows)
    if not work:
        return 1.0, probes
    return sum(seconds * REF_NOMINAL_S / ref for seconds, ref in rows) / work, probes


class SweepCached(Workload):
    name = "sweep-cached"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.workers = min(SWEEP_JOBS, os.cpu_count() or 1)
        #: Run the pool's jobs under ``layers.traced_execute`` instead of
        #: ``probed_execute`` (set between passes by the traced run).
        self.tracing = False
        self.executor: Optional[CachedExecutor] = None
        self.log_dir = Path(__file__).resolve().parent / "out" / f"workers-{os.getpid()}"
        self.worker_records: List[Dict] = []

    def set_up(self) -> None:
        self.fresh = fig8_requests(self.seed, SWEEP_SCALE)
        self.mixed = mixed_requests(self.fresh, self.seed)

    def warm(self, ops: OpCounter) -> None:
        """Open a new executor (hence an empty cache) and warm each worker."""
        self.close()
        self.log_dir.mkdir(parents=True, exist_ok=True)
        if self.tracing:
            import layers

            runner = functools.partial(layers.traced_execute, str(self.log_dir))
        else:
            runner = functools.partial(probed_execute, str(self.log_dir))
        self.executor = open_cached_executor(self.workers, runner)
        for metrics in run_batch(self.executor, warm_requests(self.seed, self.workers), ops):
            if metrics is not None:
                ops.ok()

    def run_pass(self, ops: OpCounter, index: int = 0) -> PassResult:
        executor = self.executor
        before = executor.cache.stats()
        for prefix in ("probe", "trace"):
            read_worker_logs(self.log_dir, prefix)  # the warm-up jobs
        results: List[Optional[RunMetrics]] = []
        raw = norm = 0.0
        for step in (self.fresh, self.mixed):
            start = time.perf_counter()
            results.extend(run_batch(executor, step, ops))
            wall = time.perf_counter() - start
            # The workers probe after each job, in parallel; their probe
            # time, spread over the workers, is not the program's.
            factor, probes = worker_probes(self.log_dir)
            seconds = wall - probes / self.workers
            raw += seconds
            norm += seconds * factor
        hits, hit_blocks = timed_lookups(
            lambda request: run_batch(executor, [request], ops)[0],
            self.fresh, SWEEP_LOOKUPS,
        )
        after = executor.cache.stats()
        self.peak_children_mb = max(self.peak_children_mb, children_peak_rss_mb())
        self.jobs = executor.jobs()
        self.worker_records = [
            json.loads(line) for line in read_worker_logs(self.log_dir, "trace")
        ]
        self.close()
        return PassResult(
            list(self.fresh) + list(self.mixed), results, raw, norm,
            _messages(results), hits, hit_blocks,
            {k: after[k] - before[k] for k in ("hits", "misses")},
        )

    def sim_cells(self, result: PassResult):
        n = len(self.fresh)
        return result.requests[:n], result.metrics[:n]

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None
        shutil.rmtree(self.log_dir, ignore_errors=True)

    def sizes(self) -> Dict[str, object]:
        return {"fresh_cells": len(self.fresh), "mixed_cells": len(self.mixed),
                "mixed_repeats": len(self.fresh[1::2]), "scale": SWEEP_SCALE,
                "lookups_per_pass": SWEEP_LOOKUPS, "workers": self.workers}


WORKLOADS = {cls.name: cls for cls in (Fig8Closed, OpenMesh64, SweepCached)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


# ------------------------------------------------------------------ gates
def rerun_sample(requests: Sequence[RunRequest], seed: int, reference: Reference) -> None:
    """Re-run a seeded sample of cells here; bytes must match the first run."""
    for i in random.Random(seed).sample(range(len(requests)), RERUN_SAMPLE):
        (local,) = run_inprocess([requests[i]], reference.ops)
        reference.check(requests[i], local, "in-process re-run")


# ----------------------------------------------------------- sim metrics
def sim_summary(requests: Sequence[RunRequest], metrics: Sequence[RunMetrics]) -> Dict:
    """The simulated end-to-end metrics over a set of cells.

    Speedups compare VL against each SPAMeR setting over closed cells that
    ran both with otherwise equal inputs (program, seed, config).
    ``sim_p99_sojourn_cycles`` is the geomean p99 of the request sojourn
    over open cells when there are any, else of the per-message sojourn
    (push to pop) over closed cells.
    """
    cycles: Dict[str, Dict[str, int]] = {}
    open_p99: List[float] = []
    closed_p99: List[float] = []
    for request, m in zip(requests, metrics):
        if m is None:
            continue
        if request.arrival is not None:
            open_p99.append(m.extra["request_p99"])
            continue
        closed_p99.append(m.latency_p99)
        row = f"{request.workload}|{request.seed}|{request.config}"
        cycles.setdefault(row, {})[_short_setting(m.setting)] = m.exec_cycles
    geomeans = speedup_geomeans(cycles)
    return {
        "sim_speedup_tuned": geomeans["tuned"],
        "sim_err_pct": sim_err_pct(geomeans),
        "sim_p99_sojourn_cycles": geomean(open_p99 or closed_p99),
        "geomeans": geomeans,
    }


def _short_setting(label: str) -> str:
    if label.startswith("VL"):
        return "vl"
    return label[label.index("(") + 1:label.rindex(")")]


def _messages(metrics: Sequence[Optional[RunMetrics]]) -> int:
    return sum(m.messages_delivered for m in metrics if m is not None)


# ------------------------------------------------------------------ memory
def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Sum of the live multiprocessing children's peak resident sets."""
    import multiprocessing

    total = 0.0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024.0
    return total


def write_record(path: Path, record: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
