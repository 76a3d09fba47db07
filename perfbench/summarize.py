#!/usr/bin/env python3
"""Median and quartiles of each metric over saved benchmark runs.

    python3 perfbench/summarize.py [--trace 0|1] [--json OUT] [RESULT.json ...]

Without file arguments it reads every ``perfbench/out/result-*-trace<T>-seed*.json``.
Spread is (q3 - q1) / median, with quartiles from ``statistics.quantiles(n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(paths: list[Path]) -> dict:
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for path in paths:
        record = json.loads(path.read_text())
        for name, m in record["result"]["metrics"].items():
            values.setdefault(record["workload"], {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out: dict = {}
    for workload, metrics in sorted(values.items()):
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            out.setdefault(workload, {})[name] = {
                "runs": len(vals), "unit": units[name], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
            }
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, help="also write the summary here")
    p.add_argument("files", nargs="*", type=Path)
    args = p.parse_args(argv)
    paths = args.files or sorted(OUT.glob(f"result-*-trace{args.trace}-seed*.json"))
    if not paths:
        print("no result files", file=sys.stderr)
        return 1
    summary = summarize(paths)
    for workload, metrics in summary.items():
        print(workload)
        for name, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:48s} {s['median']:<12.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"spread {spread} {s['unit']} (n={s['runs']})")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
