#!/usr/bin/env python
"""The observability overhead gate (docs/OBSERVABILITY.md).

Times the quick matrix serially with observability off, with the disabled
stubs attached and fully on, and fails if the disabled stubs cost more
than 3% over the plain runs.  Simulator throughput is measured by
``perfbench/run.py`` (see perfbench/README.md), not here.

Usage::

    python tools/bench.py --obs-gate 3    # best of 3 rounds per leg
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.eval.runner import run_workload, setting_by_name  # noqa: E402

#: A 2-workload × 2-setting corner of the Figure 8 grid at a small scale,
#: sized for a CI smoke job.
QUICK_WORKLOADS = ("ping-pong", "incast")
QUICK_SETTINGS = ("vl", "tuned")
QUICK_SCALE = 0.05


def measure_obs_overhead(
    repeats: int = 3,
    scale: float = QUICK_SCALE,
    seed: int = 0xC0FFEE,
    threshold_pct: float = 3.0,
    clock=time.perf_counter,
) -> Dict:
    """Time the quick matrix under three legs, best-of-*repeats* each:

    * ``off``  — plain runs, no registry, no subscribers (every
      instrumentation site is behind a ``wants()``/``None`` guard).
    * ``null`` — a :class:`~repro.obs.metrics.NullMetricsRegistry`
      attached: the disabled-stub configuration.  Its overhead over
      ``off`` is what the <3% gate bounds — the price of *having* the
      observability layer while it is switched off.
    * ``on``   — full MetricsRegistry + collector subscribed (recorded
      for the docs, not gated: enabling observability may legitimately
      cost more).

    Each round runs the three legs back to back (off, null, on), so host
    drift over the measurement spreads across all legs instead of landing
    on whichever leg runs last; best-of-N then damps scheduling noise.
    """
    from repro.obs.collector import MetricsCollector
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry

    cells = [(w, setting_by_name(s)) for w in QUICK_WORKLOADS
             for s in QUICK_SETTINGS]

    def attach_null(system) -> None:
        system.metrics = NULL_METRICS

    def attach_full(system) -> None:
        registry = MetricsRegistry()
        system.metrics = registry
        MetricsCollector(system.hooks, registry)

    def timed(on_system) -> float:
        start = clock()
        for workload, setting in cells:
            run_workload(workload, setting, scale=scale, seed=seed,
                         on_system=on_system)
        return clock() - start

    # Untimed warmup pass: imports, registry resolution and allocator
    # warm-up otherwise land entirely on the first leg.
    for workload, setting in cells:
        run_workload(workload, setting, scale=scale, seed=seed)

    legs = {"off": None, "null": attach_null, "on": attach_full}
    best: Dict[str, float] = {}
    for _ in range(max(1, repeats)):
        for name, on_system in legs.items():
            wall = timed(on_system)
            best[name] = min(best.get(name, wall), wall)
    off, null, on = best["off"], best["null"], best["on"]
    overhead_null_pct = 100.0 * (null - off) / off if off else 0.0
    overhead_on_pct = 100.0 * (on - off) / off if off else 0.0
    return {
        "name": "obs-overhead-gate",
        "matrix": {
            "workloads": list(QUICK_WORKLOADS),
            "settings": list(QUICK_SETTINGS),
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
        },
        "off_s": round(off, 4),
        "null_s": round(null, 4),
        "on_s": round(on, 4),
        "overhead_disabled_pct": round(overhead_null_pct, 2),
        "overhead_enabled_pct": round(overhead_on_pct, 2),
        "threshold_pct": threshold_pct,
        "pass": overhead_null_pct < threshold_pct,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="observability overhead gate: fails if the disabled "
                    "instrumentation stubs cost more than 3%"
    )
    parser.add_argument("--obs-gate", type=int, required=True, metavar="N",
                        help="best-of-N rounds per leg")
    args = parser.parse_args(argv)

    result = measure_obs_overhead(repeats=args.obs_gate)
    print(json.dumps(result, indent=2, sort_keys=True))
    if not result["pass"]:
        print(
            f"FAIL: disabled-observability overhead "
            f"{result['overhead_disabled_pct']}% exceeds "
            f"{result['threshold_pct']}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
