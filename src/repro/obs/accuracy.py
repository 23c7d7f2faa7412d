"""Speculation-accuracy analysis: was pushing early worth it?

The paper's delay predictors trade wasted pushes (a stash that bounces off
a VALID line costs bus occupancy and SRD energy) against missed
opportunities (a consumer left waiting on an on-demand request).  This
module condenses one run's counters into the classic retrieval pair:

* **precision** — of the speculative pushes sent, how many landed
  (``spec_hits / spec_pushes``); 1 − precision is Figure 10a's speculative
  failure rate.
* **recall** — of the messages delivered, how many arrived speculatively
  (``spec_hits / messages_delivered``); the remainder needed a consumer
  request first (on-demand).

``wasted_push_bytes`` prices the misses in bus bytes: every failed stash
carried a full cacheline that was thrown away.  Multi-push bursts add a
second waste channel: a rolled-back claim whose push had already *landed*
must be invalidated with a real coherence traversal, so
``rollback_invalidation_bytes`` charges one extra cacheline per
invalidation on top of the failed-stash bytes (rolled-back misses are
already inside ``spec_failures``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.units import CACHELINE_BYTES
from repro.eval.metrics import RunMetrics
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class SpeculationAccuracy:
    """Push precision/recall and waste for one workload × setting run."""

    workload: str
    setting: str
    spec_pushes: int
    spec_hits: int
    messages_delivered: int
    wasted_push_bytes: int
    #: Multi-push burst counters; all zero on single-push runs.
    spec_rollbacks: int = 0
    rollback_invalidations: int = 0

    @property
    def precision(self) -> float:
        return self.spec_hits / self.spec_pushes if self.spec_pushes else 0.0

    @property
    def recall(self) -> float:
        if not self.messages_delivered:
            return 0.0
        return min(1.0, self.spec_hits / self.messages_delivered)

    @property
    def rollback_invalidation_bytes(self) -> int:
        """Extra bus bytes spent invalidating landed-then-rolled-back lines."""
        return self.rollback_invalidations * CACHELINE_BYTES

    def as_dict(self) -> Dict:
        out = {
            "workload": self.workload,
            "setting": self.setting,
            "spec_pushes": self.spec_pushes,
            "spec_hits": self.spec_hits,
            "messages_delivered": self.messages_delivered,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "wasted_push_bytes": self.wasted_push_bytes,
        }
        # Burst keys appear only when bursts actually rolled back, so
        # single-push reports (and their goldens) stay byte-identical.
        if self.spec_rollbacks or self.rollback_invalidations:
            out["spec_rollbacks"] = self.spec_rollbacks
            out["rollback_invalidations"] = self.rollback_invalidations
            out["rollback_invalidation_bytes"] = self.rollback_invalidation_bytes
        return out


def accuracy_from_metrics(metrics: RunMetrics) -> SpeculationAccuracy:
    """Derive the accuracy report from a finished run's counters.

    ``spec_hits`` and ``wasted_push_bytes`` are :class:`RunMetrics`'
    own definitions, so the report and the metrics never disagree.
    """
    return SpeculationAccuracy(
        workload=metrics.workload,
        setting=metrics.setting,
        spec_pushes=metrics.spec_pushes,
        spec_hits=metrics.spec_hits,
        messages_delivered=metrics.messages_delivered,
        wasted_push_bytes=metrics.wasted_push_bytes,
        spec_rollbacks=int(metrics.extra.get("spec_rollbacks", 0)),
        rollback_invalidations=int(
            metrics.extra.get("rollback_invalidations", 0)
        ),
    )


def stage_latency_summary(
    registry: MetricsRegistry, percentiles: Optional[List[float]] = None
) -> Dict[str, Dict[str, float]]:
    """Percentile table of every ``txn.stage.*`` histogram in *registry*.

    Keys are the lifecycle edge labels (``pushed->mapped``, …); values map
    ``count``/``mean``/``p<q>`` to cycles.  Deterministic: edges sorted,
    values derived from sim-time buckets only.
    """
    percentiles = percentiles or [50.0, 90.0, 99.0]
    summary: Dict[str, Dict[str, float]] = {}
    for name in registry.histogram_names():
        if not name.startswith("txn.stage."):
            continue
        hist = registry.histogram(name)
        edge = name[len("txn.stage."):]
        row: Dict[str, float] = {
            "count": float(hist.count),
            "mean": round(hist.mean, 6),
        }
        for q in percentiles:
            row[f"p{q:g}"] = hist.percentile(q)
        summary[edge] = row
    return summary
