"""The interconnect scaling study: 8→64 cores × topology × device.

The paper's question at scale — does speculative push still win when the
network is a real NoC with distance and per-link contention? — becomes a
matrix sweep here: :func:`scaling_requests` builds one picklable
:class:`~repro.eval.parallel.RunRequest` per (core count, topology,
setting) cell over the ``scaling-halo`` workload (halo exchange sized to
the core count), and :func:`scaling_experiment` executes it through the
deterministic multiprocess executor, so ``--jobs N`` output is
byte-identical to serial.

Buffer provisioning scales with the machine: Table 1's 64 SRD entries are
4 per core at 16 cores, and :func:`scaling_config` keeps that per-core
ratio (``max(64, 4 × cores)``) so a 64-core halo (224 queues/endpoints)
fits without changing the 16-core default.  Exposed on the CLI as
``repro scale``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.parallel import RunRequest, run_requests
from repro.eval.report import format_table
from repro.eval.runner import setting_by_name

#: The sweep the acceptance run uses: 8→64 cores.
DEFAULT_CORES: Tuple[int, ...] = (8, 16, 32, 64)
DEFAULT_TOPOLOGIES: Tuple[str, ...] = ("single-bus", "mesh")
#: One setting per stock device: the VL baseline and the SPAMeR device
#: with the paper's tuned algorithm.
DEFAULT_SETTINGS: Tuple[str, ...] = ("vl", "tuned")
#: Keep the sweep tractable by default (64 cores × 40 iterations is the
#: full halo; a 0.1 scale runs 4 iterations per cell).
DEFAULT_SCALE = 0.1


def scaling_config(
    cores: int,
    topology: str = "mesh",
    num_srds: int = 1,
    base: Optional[SystemConfig] = None,
) -> SystemConfig:
    """A :class:`SystemConfig` for one scaling cell.

    SRD buffer pools grow with the core count at Table 1's per-core ratio
    (64 entries for 16 cores = 4/core), never shrinking below the paper's
    64 — so the 16-core cell is exactly the stock configuration and a
    64-core halo's 224 queues/endpoints fit its linkTab/specBuf.
    """
    if cores < 1:
        raise ConfigError(f"need at least one core, got {cores}")
    base = base or SystemConfig()
    entries = max(64, 4 * cores)
    return base.with_overrides(
        num_cores=cores,
        topology=topology,
        num_srds=num_srds,
        prodbuf_entries=entries,
        consbuf_entries=entries,
        linktab_entries=entries,
        specbuf_entries=entries,
    )


def scaling_requests(
    cores: Sequence[int] = DEFAULT_CORES,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    settings: Sequence[str] = DEFAULT_SETTINGS,
    scale: float = DEFAULT_SCALE,
    seed: int = 0xC0FFEE,
    num_srds: int = 1,
    verify: bool = False,
    base: Optional[SystemConfig] = None,
) -> List[RunRequest]:
    """The request matrix, in deterministic (cores, topology, setting)
    nesting order — the order rows appear in the report."""
    requests: List[RunRequest] = []
    for n in cores:
        for topology in topologies:
            config = scaling_config(n, topology, num_srds=num_srds, base=base)
            for name in settings:
                requests.append(
                    RunRequest.from_setting(
                        "scaling-halo",
                        setting_by_name(name),
                        scale=scale,
                        seed=seed,
                        config=config,
                        verify=verify,
                    )
                )
    return requests


@dataclass
class ScalingResult:
    """The executed matrix plus its rendering."""

    rows: List[Dict] = field(default_factory=list)

    def add(self, request: RunRequest, metrics) -> None:
        config = request.config
        extra = metrics.extra or {}
        self.rows.append(
            {
                "cores": config.num_cores,
                "topology": config.topology,
                "srds": config.num_srds,
                "setting": metrics.setting,
                "cycles": metrics.exec_cycles,
                "messages": metrics.messages_delivered,
                "bus_util": round(
                    metrics.bus_busy_cycles / metrics.exec_cycles, 6
                )
                if metrics.exec_cycles
                else 0.0,
                "net_util": extra.get("net_utilization", 0.0),
                "net_wait": extra.get("net_wait_cycles", 0),
            }
        )

    # -------------------------------------------------------------- speedups
    def _baseline_cycles(self, cores: int, topology: str) -> Optional[int]:
        for row in self.rows:
            if (
                row["cores"] == cores
                and row["topology"] == topology
                and row["setting"].startswith("VL")
            ):
                return row["cycles"]
        return None

    def speedup(self, row: Dict) -> Optional[float]:
        base = self._baseline_cycles(row["cores"], row["topology"])
        if base is None or not row["cycles"]:
            return None
        return base / row["cycles"]

    # ------------------------------------------------------------- rendering
    def render(self) -> str:
        """The deterministic report table, matrix order."""
        table_rows = []
        for row in self.rows:
            speedup = self.speedup(row)
            table_rows.append(
                [
                    row["cores"],
                    row["topology"],
                    row["srds"],
                    row["setting"],
                    row["cycles"],
                    f"{speedup:.2f}x" if speedup is not None else "-",
                    row["messages"],
                    f"{row['bus_util']:.3f}",
                    f"{row['net_util']:.3f}" if row["net_util"] else "-",
                    row["net_wait"] if row["net_wait"] else "-",
                ]
            )
        return format_table(
            [
                "cores", "topology", "srds", "setting", "cycles",
                "speedup", "messages", "bus util", "net util", "net wait",
            ],
            table_rows,
            title="Scaling study: halo exchange, cores x topology x device",
        )

    def to_json(self) -> str:
        """Machine-readable record (sorted keys, deterministic)."""
        doc = []
        for row in self.rows:
            entry = dict(row)
            speedup = self.speedup(row)
            entry["speedup"] = round(speedup, 6) if speedup is not None else None
            doc.append(entry)
        return json.dumps(doc, indent=2, sort_keys=True)


def scaling_experiment(
    cores: Sequence[int] = DEFAULT_CORES,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    settings: Sequence[str] = DEFAULT_SETTINGS,
    scale: float = DEFAULT_SCALE,
    seed: int = 0xC0FFEE,
    num_srds: int = 1,
    verify: bool = False,
    jobs: Optional[int] = None,
    base: Optional[SystemConfig] = None,
) -> ScalingResult:
    """Execute the scaling matrix; bit-identical across ``jobs`` values."""
    requests = scaling_requests(
        cores=cores,
        topologies=topologies,
        settings=settings,
        scale=scale,
        seed=seed,
        num_srds=num_srds,
        verify=verify,
        base=base,
    )
    outcomes = run_requests(requests, jobs=jobs)
    result = ScalingResult()
    for request, metrics in zip(requests, outcomes):
        result.add(request, metrics)
    return result
