"""Fold the run records in ``perfbench/out/`` into ``perfbench/baseline.json``.

Run the benchmark on several seeds per workload (and one traced run each),
then::

    python3 perfbench/baseline.py

For every workload and end-to-end metric the baseline keeps the median and
quartiles over the untraced runs; it keeps the traced run's per-layer
metrics as they are, and the shared header of the first record.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def fold(records):
    header = None
    workloads = {}
    for record in records:
        head = record["header"]
        header = header or {k: v for k, v in head.items()
                            if k not in ("seed", "workload", "trace", "sizes")}
        entry = workloads.setdefault(head["workload"], {
            "sizes": head["sizes"], "seeds": [], "digests": {}, "end_to_end": {},
        })
        if head["trace"]:
            entry["per_layer"] = {k: v["value"] for k, v in record["metrics"].items()}
            entry["traced_seed"] = head["seed"]
            continue
        entry["seeds"].append(head["seed"])
        entry["digests"][str(head["seed"])] = record["digest"]
        for name, metric in record["metrics"].items():
            values = entry["end_to_end"].setdefault(name, {"unit": metric["unit"], "values": []})
            values["values"].append(metric["value"])
    for entry in workloads.values():
        for metric in entry["end_to_end"].values():
            values = metric.pop("values")
            q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                          else (values[0],) * 3)
            metric.update(median=q2, q1=q1, q3=q3, n=len(values),
                          spread=quartile_spread(values) if len(values) > 1 else 0.0)
    return {"header": header, "workloads": workloads}


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted((HERE / "out").glob("*.json"))]
    if not records:
        print("no records under perfbench/out/", file=sys.stderr)
        return 1
    (HERE / "baseline.json").write_text(json.dumps(fold(records), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
