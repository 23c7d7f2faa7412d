"""The content-addressed result cache: repeated sweep cells cost zero.

Every simulation in this repo is bit-wise deterministic — the same
:class:`~repro.eval.parallel.RunRequest` produces byte-identical
:class:`~repro.eval.metrics.RunMetrics` in any process on any run (the
contract the parallel executor is built on and ``tests/test_parallel.py``
pins).  That determinism upgrades result caching from a heuristic into a
*proof*: keyed by :meth:`RunRequest.cache_key` — a canonical, versioned
hash of everything a run depends on — a cache hit is not "probably the
same result", it **is** the result, byte for byte.

The cache stores the pinned-protocol pickle of the metrics object
(:data:`~repro.eval.parallel.CACHE_PICKLE_PROTOCOL`), so a hit returns
the exact bytes a fresh run would serialize to.  Storage is two-tier:

* an in-memory dict, always on — the fast path inside one daemon;
* an optional spill directory (``--cache-dir``), one file per key
  (content-addressed: ``<sha256>.pkl``), written atomically (tmp +
  rename) so a crashed process never leaves a truncated entry and a
  later process over the same directory warms from disk for free.  A
  spilled file that was damaged anyway (disk error, a hand edit) is
  quarantined on first read, never served.

Keys include :func:`~repro.eval.parallel.code_digest`, so a spill written
before an edit to the ``repro`` sources is never served after it.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Dict, Optional

from repro.eval.metrics import RunMetrics
from repro.eval.parallel import CACHE_PICKLE_PROTOCOL, RunRequest


def metrics_bytes(metrics: RunMetrics) -> bytes:
    """The canonical cached serialization of one run's metrics."""
    return pickle.dumps(metrics, protocol=CACHE_PICKLE_PROTOCOL)


class ResultCache:
    """Content-addressed ``cache_key -> pickled RunMetrics`` store."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self._memory: Dict[str, bytes] = {}
        self._dir: Optional[Path] = None
        #: Lifetime hit/miss/store counters.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if directory is not None:
            self._dir = Path(directory)
            self._dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ lookup
    def get_bytes(self, key: str) -> Optional[bytes]:
        """The cached pickle for *key*, or None; counts the hit/miss.

        A spilled entry is unpickled once before it is promoted to memory.
        One that does not load (a truncated or otherwise corrupt file) is
        renamed to ``<key>.pkl.corrupt`` and counts as a miss, so the cell
        is re-run and re-stored instead of served broken.
        """
        payload = self._memory.get(key)
        if payload is None and self._dir is not None:
            path = self._dir / f"{key}.pkl"
            if path.exists():
                payload = path.read_bytes()
                try:
                    pickle.loads(payload)
                except Exception:
                    os.replace(path, path.with_name(f"{key}.pkl.corrupt"))
                    payload = None
                else:
                    self._memory[key] = payload
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def get(self, key: str) -> Optional[RunMetrics]:
        """The cached metrics object for *key*, or None."""
        payload = self.get_bytes(key)
        return pickle.loads(payload) if payload is not None else None

    def lookup(self, request: RunRequest) -> Optional[RunMetrics]:
        """One-call convenience: key the request, then :meth:`get`."""
        return self.get(request.cache_key())

    def contains(self, key: str) -> bool:
        """Membership test that does not disturb the hit/miss counters."""
        if key in self._memory:
            return True
        return self._dir is not None and (self._dir / f"{key}.pkl").exists()

    # ------------------------------------------------------------------- store
    def put(self, key: str, metrics: RunMetrics) -> bytes:
        """Store *metrics* under *key*; returns the canonical bytes."""
        payload = metrics_bytes(metrics)
        self._memory[key] = payload
        self.stores += 1
        if self._dir is not None:
            path = self._dir / f"{key}.pkl"
            tmp = self._dir / f".{key}.{os.getpid()}.tmp"
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        return payload

    # ----------------------------------------------------------------- queries
    def __len__(self) -> int:
        if self._dir is not None:
            on_disk = {p.stem for p in self._dir.glob("*.pkl")}
            return len(on_disk | set(self._memory))
        return len(self._memory)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": round(self.hit_rate, 4),
        }
