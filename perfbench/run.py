"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile-gallery --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all        # every workload once, seed 1, untraced

``--seconds`` defaults to ``run_seconds`` from ``BENCHMARK.json``.

With ``--trace 0`` the last line of standard output is one JSON object
carrying every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric, and the run's spans are written to
``.perfbench/traces/<workload>-seed<n>.json``.  The lines before it
name each metric with its unit and meaning.  The exit code is 1 when any
correctness oracle failed (the JSON then says ``"correct": false``) and 2
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.core import (  # noqa: E402 - the path above makes perfbench importable
    E2E,
    E2E_MEANING,
    PER_LAYER,
    ROOT,
    RUN_SECONDS,
    WORK,
    WORKLOADS,
    HermeticGuard,
    Recorder,
    Stopwatch,
    Tally,
    child_env,
    fmt_value,
    median,
    peak_rss_mb,
)

#: How many times setup runs in one run; ``setup_s`` is the median.
SETUP_REPS = 5
#: Fresh-interpreter pairs timed for ``startup.import_ms``.
IMPORT_PAIRS = 3


def workload_class(name: str) -> type:
    from perfbench.wl_compile import CompileGallery, CompileScale
    from perfbench.wl_execute import ExecuteGallery
    from perfbench.wl_serve import ServeGallery

    classes = {c.name: c for c in (CompileGallery, CompileScale, ExecuteGallery, ServeGallery)}
    return classes[name]


def import_ms() -> float:
    """``import repro.cli`` in a fresh interpreter, minus a bare start."""

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=str(ROOT), check=True)
        return time.perf_counter() - t0

    diffs = [
        (wall("import repro.cli") - wall("pass")) * 1000.0 for _ in range(IMPORT_PAIRS)
    ]
    return median(diffs)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Set up, measure and check one workload; returns the result object."""
    guard = HermeticGuard()
    rec, tally = Recorder(trace), Tally()
    work = WORK / f"run-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    wl = workload_class(workload)(seed, rec, tally, work)
    setup_s: List[float] = []
    try:
        for rep in range(SETUP_REPS):
            if rep:
                wl.teardown()
            wl.clock = Stopwatch()
            with rec.span("setup", calibrate=False, rep=rep):
                wl.setup()
            wl.clock.lap()
            setup_s.append(wl.clock.ms / 1000.0)
            wl.clock = None
        e2e, layers = wl.measure(seconds)
    finally:
        wl.teardown()
        shutil.rmtree(work, ignore_errors=True)
    e2e["setup_s"] = median(setup_s)
    wl.info["setup_s"] = [round(x, 4) for x in setup_s]
    e2e["peak_rss_mb"] = wl.peak_rss_mb() or peak_rss_mb()
    if trace:
        layers["startup.import_ms"] = import_ms()
    for problem in guard.problems():
        tally.fail(f"hermeticity: {problem}")

    unknown = sorted(set(layers) - {name for name, _, _ in PER_LAYER})
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    if trace:
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit, _, _ in E2E}
    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "end_to_end": e2e, "per_layer": layers, "info": wl.info,
               "attempted": tally.attempted, "failed": tally.failed,
               "failures": tally.reasons}
    if trace:
        rec.dump(WORK / "traces" / f"{workload}-seed{seed}.json", summary)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "_summary": summary,
    }


def describe(result: Dict[str, object], workload: str) -> List[str]:
    """Human-readable lines: every metric with its unit (and meaning)."""
    meaning = E2E_MEANING[workload]
    lines = [f"# workload {workload}"]
    for name, m in result["metrics"].items():  # type: ignore[union-attr]
        what = meaning.get(name) or (meaning["latency"] if name.startswith("latency") else "")
        lines.append(f"{name:36s} {fmt_value(m['value']):>12s} {m['unit']:6s} {what}")
    summary = result["_summary"]  # type: ignore[index]
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0  # type: ignore[operator]
    lines.append(f"{'fail_ratio':36s} {fmt_value(ratio):>12s} ratio  "
                 f"{result['failed']} failed of {result['attempted']} attempted")
    lines.append(f"# info {json.dumps(summary['info'], sort_keys=True, default=str)}")
    for reason in summary["failures"]:
        lines.append(f"# FAILED {reason}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOADS if args.all else (args.workload,)
    code = 0
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(describe(result, name)), flush=True)
        result.pop("_summary")
        if not result["correct"]:
            code = 1
        if not args.all:
            print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
