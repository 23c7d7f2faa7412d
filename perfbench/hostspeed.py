"""Host-speed normalization for host-time metrics.

On a shared host the same pass can take twice as long from one minute to
the next: other tenants' load slows the CPU as a whole.  A fixed reference
loop, timed right before and right after each measured interval in the
process that did the work, tracks that slowdown.  Host-time metrics are
reported rescaled to the reference speed ``REF_NOMINAL_S``::

    normalized = measured × REF_NOMINAL_S / mean(reference before, after)

There are two reference loops, each shaped like the work it normalizes:
:func:`ref_work` is an interpreted event loop (simulation), and
:func:`ref_lookup` is key hashing plus unpickling (cache lookups).  Both
live in the benchmark, not in ``src/``, so a change to the program cannot
move them.  Raw host times are kept in the run record.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import pickle
import time
from typing import Callable

#: Iterations of the reference loop per probe (about 5 ms on the baseline
#: host).
REF_ITERS = 8000

#: Iterations of the lookup-shaped reference per probe (also about 5 ms).
LOOKUP_ITERS = 60

#: Time of either reference loop on the baseline 2-core host at a typical
#: speed; normalized times read as host times at that speed.
REF_NOMINAL_S = 0.005

_DOC = {f"k{i}": [i, str(i) * 3, {"a": i * 1.5}] for i in range(60)}
_BLOB = pickle.dumps(_DOC, protocol=4)


def ref_work(iters: int = REF_ITERS) -> int:
    """A fixed event-loop-shaped workload: heap of tuples, dict, arithmetic."""
    heap = [(i, i, i % 7) for i in range(64)]
    heapq.heapify(heap)
    counts = {}
    push, pop = heapq.heappush, heapq.heappop
    seq = 64
    for _ in range(iters):
        t, s, k = pop(heap)
        counts[k] = counts.get(k, 0) + 1
        push(heap, (t + (s * 7919) % 13 + 1, seq, (k * 31 + 5) % 7))
        seq += 1
    return seq


def ref_lookup(iters: int = LOOKUP_ITERS) -> int:
    """A fixed lookup-shaped workload: canonical JSON, SHA-256, unpickle."""
    size = 0
    for _ in range(iters):
        text = json.dumps(_DOC, sort_keys=True, separators=(",", ":"))
        size += len(hashlib.sha256(text.encode()).hexdigest())
        size += len(pickle.loads(_BLOB))
    return size


def probe() -> float:
    """Seconds one simulation-shaped reference loop takes right now."""
    start = time.perf_counter()
    ref_work()
    return time.perf_counter() - start


def probe_lookup() -> float:
    """Seconds one lookup-shaped reference loop takes right now."""
    start = time.perf_counter()
    ref_lookup()
    return time.perf_counter() - start


class HostClock:
    """Accumulates measured intervals, raw and normalized.

    Call :meth:`lap` right after each measured interval; it probes the host
    and rescales the interval by the mean of this probe and the previous.
    """

    def __init__(self, probe: Callable[[], float] = probe) -> None:
        self.probe = probe
        self.last = probe()
        self.raw = 0.0
        self.norm = 0.0

    def lap(self, seconds: float) -> float:
        """Account *seconds*; returns the factor that normalized them."""
        now = self.probe()
        factor = REF_NOMINAL_S / ((self.last + now) / 2.0)
        self.last = now
        self.raw += seconds
        self.norm += seconds * factor
        return factor
