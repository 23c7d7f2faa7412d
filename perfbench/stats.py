"""Small, dependency-free arithmetic the benchmark reports with.

Everything here is pure so the self-tests in ``perfbench/tests`` can pin
it without running a simulation.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: Geomean speedups over the Virtual-Link baseline reported by the paper
#: (Wu et al., ICPP 2022, Figure 8), keyed by this repo's setting names.
PAPER_GEOMEANS: Dict[str, float] = {"0delay": 1.45, "adapt": 1.25, "tuned": 1.33}

#: Percentile ladder the tail rule climbs, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples a reported tail percentile must leave beyond it.
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of *pct* among *n* samples.  Rounding first
    keeps 99.9% of 10000 at rank 9990, not 9991."""
    return min(n, max(1, math.ceil(round(pct / 100.0 * n, 9))))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def block_percentile(blocks: Sequence[Sequence[float]], pct: float) -> float:
    """Median over blocks of each block's *pct* percentile.

    Each block is timed against one host-speed probe, so a block caught
    in a change of host speed moves one value, not the tail of all.
    """
    return statistics.median(percentile(block, pct) for block in blocks)


def samples_beyond(n: int, pct: float) -> int:
    """How many of *n* samples lie strictly above the nearest-rank *pct*."""
    return n - _rank(n, pct)


def highest_tail(n: int) -> Optional[float]:
    """The highest ladder percentile leaving at least 10 samples beyond it.

    None when even the median leaves fewer than ten (n < 20): such a
    sample set supports no percentile claim at all.
    """
    best = None
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_geomeans(
    cycles: Dict[str, Dict[str, int]], baseline: str = "vl"
) -> Dict[str, float]:
    """Per setting, the geomean over programs of baseline ÷ setting cycles.

    *cycles* maps program → setting → exec cycles.  Only programs that ran
    both the baseline and the setting count toward that setting.
    """
    settings = sorted({s for row in cycles.values() for s in row} - {baseline})
    out: Dict[str, float] = {}
    for setting in settings:
        ratios = [
            row[baseline] / row[setting]
            for row in cycles.values()
            if baseline in row and setting in row
        ]
        if ratios:
            out[setting] = geomean(ratios)
    return out


def sim_err_pct(geomeans: Dict[str, float]) -> float:
    """Mean absolute % error of the paper's settings that were measured."""
    errors = [
        abs(geomeans[name] - paper) / paper * 100.0
        for name, paper in PAPER_GEOMEANS.items()
        if name in geomeans
    ]
    if not errors:
        raise ValueError("no paper setting among the measured geomeans")
    return sum(errors) / len(errors)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives:
    the run-to-run spread a metric's bound is checked against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


class OpCounter:
    """Counts attempted and failed operations; an op is a run or a lookup.

    An op fails when it raises, fails ``Workload.validate`` (which raises
    inside ``run_workload``) or fails a byte-identity check.  Failure
    descriptions are kept so the benchmark can print what went wrong.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def check(self, condition: bool, why: str) -> bool:
        """Count one op that passes iff *condition* holds."""
        if condition:
            self.ok()
        else:
            self.fail(why)
        return condition

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok_rate(self) -> float:
        return 1.0 - self.fail_rate if self.attempted else 0.0
