"""Outside-in layer attribution for the traced benchmark run.

Nothing under ``src/`` is edited.  :class:`Tracer` wraps public methods of
each layer's classes for the duration of a traced pass and restores every
one of them afterwards:

* **event sources** — ``Environment.schedule``, ``schedule_callback`` and
  ``call_later`` (``Environment.timeout`` reaches the queue through
  ``schedule``) count every queue entry by the package of the first caller
  frame outside ``repro.sim``.  A ``FifoServer.serve`` timeout therefore
  counts toward the layer that called ``serve``; an entry issued by the
  kernel's own dispatch loop (a process resume) counts toward ``sim``;
* **link serves** — ``FifoServer.serve`` calls made by a NoC ``Link``;
* **spans** — build / run / collect around ``Setting.build_system``,
  ``Workload.build``, ``System.run_to_completion``, ``collect_metrics`` and
  ``Workload.validate``, plus the cache-key and cache-lookup calls of the
  serve layer.  Spans live in memory until :meth:`Tracer.spans_json`;
* **self time** — a ``cProfile`` profile grouped by package.

Wrapping only observes: the wrapped calls get the same arguments and
return the same values, so a traced run's ``RunMetrics`` must be byte
identical to the untraced run's (the benchmark checks it).
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers (packages of ``repro``) the benchmark reports, in stack order.
LAYERS = ("sim", "cpu", "vlink", "spamer", "mem", "net", "workloads", "eval", "serve")

#: Layers that can put entries on the event queue; ``other`` collects the
#: top-level modules (``repro.system`` and friends).
EVENT_LAYERS = ("sim", "cpu", "vlink", "spamer", "mem", "net", "workloads", "other")

#: ``Environment`` entry points; a frame of ``repro.sim.kernel`` running
#: anything else is the dispatch loop itself.
_KERNEL_ENTRY = frozenset(
    {"timeout", "process", "event", "any_of", "all_of",
     "schedule", "schedule_callback", "call_later"}
)

#: Module of ``Link``, the only caller of ``FifoServer.serve`` that is a
#: NoC link.  The single bus's channels also serve from ``repro.net`` but
#: are not links (its ``links()`` is empty), so they count only as
#: ``net`` event sources.
_LINK_MODULE = "repro.net.topology"


def layer_of_module(module: str) -> str:
    """``repro.vlink.library`` → ``vlink``; other ``repro`` modules → ``other``."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


def layer_of_file(path: str) -> str:
    """Package of a source file, for grouping profiler self time."""
    marker = "/repro/"
    norm = path.replace("\\", "/")
    at = norm.rfind(marker)
    if at < 0:
        return "external"
    rest = norm[at + len(marker):]
    head = rest.split("/", 1)[0]
    return head if "/" in rest and head in LAYERS else "other"


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self) -> None:
        self.events: Counter = Counter()
        self.poll_events = 0
        self.link_serves = 0
        self.pushes = 0
        self.pops = 0
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.systems: List[Dict[str, Any]] = []
        self.key_s: List[float] = []
        self.lookup_s: List[float] = []
        self._stack: List[Tuple[int, str]] = []
        self._next_span = 0
        self._patches: List[Tuple[type, str, Any, bool]] = []
        self._profile = cProfile.Profile()

    # ------------------------------------------------------------- patching
    def _patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        had_own = name in vars(owner)
        original = getattr(owner, name)
        self._patches.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, make(original))

    def install(self) -> "Tracer":
        import repro.eval.runner as runner
        from repro.eval.parallel import RunRequest
        from repro.serve.cache import ResultCache
        from repro.sim.kernel import Environment
        from repro.sim.resources import FifoServer
        from repro.system import System
        from repro.vlink.library import QueueLibrary
        from repro.workloads.base import Workload

        for name in ("schedule", "schedule_callback", "call_later"):
            self._patch(Environment, name, self._counting)
        self._patch(FifoServer, "serve", self._serve_counting)
        self._patch(QueueLibrary, "push", self._push_counting)
        self._patch(QueueLibrary, "pop", self._pop_counting)
        self._patch(QueueLibrary, "pop_until", self._pop_counting)
        self._patch(runner.Setting, "build_system", self._spanned("eval.build"))
        self._patch(runner, "collect_metrics", self._spanned("eval.collect"))
        self._patch(System, "run_to_completion", self._run_spanned)
        for cls in _subclasses(Workload):
            if "build" in vars(cls):
                self._patch(cls, "build", self._spanned("eval.build"))
            if "validate" in vars(cls):
                self._patch(cls, "validate", self._spanned("eval.collect"))
        self._patch(RunRequest, "cache_key", self._timed(self.key_s, "serve.key"))
        self._patch(ResultCache, "get_bytes", self._timed(self.lookup_s, "serve.lookup"))
        self._profile.enable()
        return self

    def uninstall(self) -> None:
        self._profile.disable()
        while self._patches:
            owner, name, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --------------------------------------------------------------- spans
    def _spanned(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with _Span(self, name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def _timed(self, sink: List[float], name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with _Span(self, name) as span:
                    result = original(*args, **kwargs)
                sink.append(span.end - span.start)
                return result
            return wrapper
        return make

    def _run_spanned(self, original):
        def wrapper(system, *args, **kwargs):
            with _Span(self, "eval.run"):
                result = original(system, *args, **kwargs)
            network = system.network
            has_links = bool(network.links())
            self.systems.append(
                {
                    "events": system.env.events_scheduled,
                    "messages": system.messages_delivered(),
                    "wait_cycles": network.wait_cycles if has_links else 0,
                    "utilization": network.utilization() if has_links else None,
                }
            )
            return result
        return wrapper

    # ------------------------------------------------------- event sources
    def _counting(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            layer, frame = _event_source(frame)
            tracer.events[layer] += 1
            if layer == "vlink" and _is_poll(frame):
                tracer.poll_events += 1
            return original(*args, **kwargs)
        return wrapper

    def _serve_counting(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == _LINK_MODULE:
                tracer.link_serves += 1
            return original(*args, **kwargs)
        return wrapper

    def _push_counting(self, original):
        def wrapper(*args, **kwargs):
            self.pushes += 1
            return original(*args, **kwargs)
        return wrapper

    def _pop_counting(self, original):
        def wrapper(*args, **kwargs):
            self.pops += 1
            return original(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------- results
    def self_time_by_layer(self) -> Dict[str, float]:
        """Profiler self (``tottime``) seconds per package."""
        out: Dict[str, float] = {}
        stats = pstats.Stats(self._profile)
        for (path, _line, _func), row in stats.stats.items():
            layer = layer_of_file(path)
            out[layer] = out.get(layer, 0.0) + row[2]
        return out

    def span_totals(self) -> Dict[str, float]:
        """Seconds spent in each named span (nested spans count in both)."""
        out: Dict[str, float] = {}
        for _sid, _parent, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def spans_json(self) -> List[Dict[str, Any]]:
        return [
            {"id": sid, "parent": parent, "name": name,
             "start_s": round(start, 9), "end_s": round(end, 9)}
            for sid, parent, name, start, end in self.spans
        ]


def summarize(tracer: Tracer) -> Dict[str, Any]:
    """The JSON-able counts of one tracer (what a pool worker sends back)."""
    return {
        "events": dict(tracer.events),
        "poll_events": tracer.poll_events,
        "link_serves": tracer.link_serves,
        "pushes": tracer.pushes,
        "pops": tracer.pops,
        "systems": list(tracer.systems),
        "self_s": tracer.self_time_by_layer(),
        "span_s": tracer.span_totals(),
        "spans": tracer.spans_json(),
    }


def merge(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Add up :func:`summarize` outputs from several processes."""
    out: Dict[str, Any] = {
        "events": Counter(), "poll_events": 0, "link_serves": 0, "pushes": 0,
        "pops": 0, "systems": [], "self_s": Counter(), "span_s": Counter(),
        "spans": [],
    }
    for summary in summaries:
        for key in ("events", "self_s", "span_s"):
            out[key].update(summary[key])
        for key in ("poll_events", "link_serves", "pushes", "pops"):
            out[key] += summary[key]
        out["systems"].extend(summary["systems"])
        out["spans"].extend(summary["spans"])
    return out


def traced_execute(log_dir: str, request):
    """Pool-worker runner: ``execute_request`` under a fresh :class:`Tracer`.

    Returns the same metrics; the job's counts, self times and spans are
    appended as one JSON line to ``<log_dir>/trace-<pid>.jsonl``.
    """
    import json
    import os

    from repro.eval.parallel import execute_request

    key = request.cache_key()
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        metrics = execute_request(request)
    record = summarize(tracer)
    record["key"] = key
    record["execute_s"] = time.perf_counter() - start
    with open(os.path.join(log_dir, f"trace-{os.getpid()}.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return metrics


class _Span:
    """One timed interval; a span nested in a same-named span is merged
    into it, so a subclass method calling its base counts once."""

    __slots__ = ("tracer", "name", "sid", "parent", "start", "end", "merged")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack
        self.merged = bool(stack) and stack[-1][1] == self.name
        if not self.merged:
            self.sid = tracer._next_span
            tracer._next_span += 1
            self.parent = stack[-1][0] if stack else None
            stack.append((self.sid, self.name))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if not self.merged:
            self.tracer._stack.pop()
            self.tracer.spans.append(
                (self.sid, self.parent, self.name, self.start, self.end)
            )


def _event_source(frame) -> Tuple[str, Any]:
    """(layer, frame) of the code that asked for a queue entry."""
    own = globals()
    while frame is not None:
        if frame.f_globals is own:  # a wrapper of this tracer
            frame = frame.f_back
            continue
        module = frame.f_globals.get("__name__", "")
        if not module.startswith("repro.sim"):
            return layer_of_module(module), frame
        if module == "repro.sim.kernel" and frame.f_code.co_name not in _KERNEL_ENTRY:
            return "sim", frame
        frame = frame.f_back
    return "sim", None


def _is_poll(frame) -> bool:
    """A timeout issued by the pop slow-path wait loop while the line is
    not yet poppable (the consumer spin loop, one entry per quantum)."""
    if frame.f_code.co_name != "_pop_impl":
        return False
    local = frame.f_locals
    consumer = local.get("consumer")
    return (
        "stall_start" in local
        and consumer is not None
        and not consumer.current_line.poppable
    )


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(s for s in _subclasses(sub) if s not in out)
    return out
