"""Measure how steady the benchmark is: run workloads over sets of seeds.

    python3 perfbench/steadiness.py --sets 1-10,11-20 --seconds 25 --out perfbench/steadiness.json

For each set of seeds, runs ``perfbench/run.py`` once per (workload,
seed) untraced, and once per workload traced (on the set's first seed).
For every end-to-end metric it records the median over the set, the
quartile spread -- (Q3 - Q1) / median, as ``statistics.quantiles(values,
n=4)`` gives the quartiles -- next to the metric's bound, and the tracing
overhead (traced value over untraced median, minus 1).  Between
consecutive sets it records how far the median moved in the metric's
worse direction, and the platform the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.core import (  # noqa: E402
    E2E, ROOT, RUN_SECONDS, WORK, WORKLOADS, median, quartile_spread,
)


def parse_seeds(spec: str) -> List[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def measure_set(workloads: List[str], seeds: List[int], seconds: float) -> Dict[str, Any]:
    """Raw values of one seed set: per workload, every run's metrics."""
    out: Dict[str, Any] = {"seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        trace = WORK / "traces" / f"{workload}-seed{seeds[0]}.json"
        traced_e2e = json.loads(trace.read_text())["summary"]["end_to_end"]
        out["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "max_wall_s": round(max(r["wall_s"] for r in runs + [traced]), 2),
            "values": {name: [r["metrics"][name]["value"] for r in runs]
                       for name, _, _, _ in E2E},
            "traced": {name: traced_e2e[name] for name, _, _, _ in E2E},
        }
        print(f"measured {workload} seeds {seeds[0]}-{seeds[-1]}", flush=True)
    return out


def summarize(sets: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians, spreads and tracing overhead per set; median moves between sets."""
    spec = {name: (unit, better, bound) for name, unit, better, bound in E2E}
    doc: Dict[str, Any] = {"sets": [], "agreement": {}}
    for raw in sets:
        summary: Dict[str, Any] = {"seeds": f"{raw['seeds'][0]}-{raw['seeds'][-1]}",
                                   "workloads": {}}
        for workload, data in raw["workloads"].items():
            metrics = {}
            for name, values in data["values"].items():
                unit, _, bound = spec[name]
                med = median(values)
                spread = quartile_spread(values)
                metrics[name] = {
                    "unit": unit,
                    "median": med,
                    "spread": round(spread, 4),
                    "bound": bound,
                    "spread_over_bound": round(spread / bound, 3),
                    "tracing_overhead": round(data["traced"][name] / med - 1, 4),
                    "values": values,
                }
            summary["workloads"][workload] = {
                k: data[k] for k in ("all_correct", "failed", "attempted", "max_wall_s")
            } | {"metrics": metrics}
        doc["sets"].append(summary)
    for first, second in zip(doc["sets"], doc["sets"][1:]):
        key = f"{first['seeds']} vs {second['seeds']}"
        doc["agreement"][key] = {}
        for workload, entry in second["workloads"].items():
            moves = {}
            for name, m in entry["metrics"].items():
                _, better, bound = spec[name]
                before = first["workloads"][workload]["metrics"][name]["median"]
                change = m["median"] / before - 1
                worse = change if better == "lower" else -change
                moves[name] = {"worse_by": round(worse, 4), "within_bound": worse <= bound}
            doc["agreement"][key][workload] = moves
    return doc


def platform_block() -> Dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--sets", default="1-10,11-20", help="comma-separated seed ranges")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    sets = [measure_set(workloads, parse_seeds(s), args.seconds) for s in args.sets.split(",")]
    doc = {"schema": "perfbench-steadiness/1", "platform": platform_block(),
           "seconds": args.seconds} | summarize(sets)
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
