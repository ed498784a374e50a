"""Shared pieces of the benchmark: metric catalogue, statistics, spans,
failure tally and the hermeticity guard.

Nothing here imports ``repro``; the workload modules do.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for stores, profiles, daemon files and trace output.
#: Inside the checkout (the benchmark writes nowhere else) and ignored by git.
WORK = ROOT / ".perfbench"

#: The eight gallery programs, in the order ``repro.gallery`` lists them.
GALLERY_KEYS = (
    "fig2",
    "iir2d",
    "jacobi-pair",
    "separable-filter",
    "lattice-filter",
    "multirate-cascade",
    "time-marching",
    "anisotropic-sweep",
)

EXEC_BACKENDS = ("compiled", "numpy", "parallel")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# --------------------------------------------------------------------- #
# metric catalogue
# --------------------------------------------------------------------- #

#: ``BENCHMARK.json`` is the one source of workload and metric names,
#: units, directions and bounds.  A bound is the share of the parent
#: commit's value by which a metric may worsen, set above the largest
#: run-to-run quartile spread in ``steadiness.json``.
BENCHMARK: Dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in BENCHMARK["workloads"])
RUN_SECONDS: int = BENCHMARK["run_seconds"]
#: End-to-end metrics, reported by every workload with tracing off, as
#: ``(name, unit, better, bound)``.
E2E: Tuple[Tuple[str, str, str, float], ...] = tuple(
    (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
)
#: Per-layer metrics, reported with tracing on, as ``(name, unit, better)``.
#: A layer that a workload never calls reports 0 there.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
)

#: What each end-to-end slot times on each workload (also in README.md).
E2E_MEANING: Dict[str, Dict[str, str]] = {
    "compile-gallery": {
        "latency": "strict compile, cold state (Session.fuse_program)",
        "mode2_ms_p50": "resilient compile, cold state",
        "mode3_ms_p50": "strict compile, L1-warm state",
        "mode4_ms_p50": "strict compile, L2-warm state",
    },
    "compile-scale": {
        "latency": "strict graph fuse, cold state (Session.fuse)",
        "mode2_ms_p50": "resilient graph fuse (fuse_resilient), cold state",
        "mode3_ms_p50": "strict graph fuse, L1-warm state",
        "mode4_ms_p50": "strict graph fuse, L2-warm state",
    },
    "execute-gallery": {
        "latency": "kernel call on each program's fastest backend",
        "mode2_ms_p50": "Session.execute_fused(backend=auto)",
        "mode3_ms_p50": "compiled backend",
        "mode4_ms_p50": "numpy backend",
    },
    "serve-gallery": {
        "latency": "client round trip of POST /v1/compile",
        "mode2_ms_p50": "round trip of resilient requests",
        "mode3_ms_p50": "round trip of strict requests",
        "mode4_ms_p50": "round trip minus queueMs minus workerMs (admission and HTTP)",
    },
}

RUNG_LABELS = ("doall", "hyperplane", "legal-only", "partition", "none")
STAGE_KINDS = ("whole", "slab", "wavefront", "scalar")


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (inclusive interpolation)."""
    if len(values) < 2:
        raise ValueError("p90 needs at least two samples")
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def typical(per_input: Dict[str, List[float]]) -> float:
    """Geometric mean over inputs of each input's median.

    Steadier than one median over pooled samples: with inputs of distinct
    cost, a pooled median lands on the edge between two inputs' clusters
    and jumps between them from run to run.
    """
    return geomean([median(v) for v in per_input.values() if v])


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# timing and spans
# --------------------------------------------------------------------- #


#: Host speed.  The benchmark host alternates, every few seconds to
#: minutes, between CPU states whose speed differs by up to 1.8x for this
#: code (README.md, "Steadiness"), so whole runs can land in one state.
#: Every timed sample is therefore scaled by ``CAL_REFERENCE_MS / c``,
#: where ``c`` is the current duration of :func:`reference_work`, a fixed
#: pure-Python loop that slows down with the host as the program does.
#: The result is milliseconds at reference speed: the speed at which the
#: loop takes ``CAL_REFERENCE_MS``.
CAL_REFERENCE_MS = 0.4
#: Re-time the loop when the last timing is older than this (per thread).
CAL_EVERY_S = 0.05
#: Host speed is the median of this many recent loop timings.
CAL_WINDOW = 5
#: Loop timings in one fresh sample (:meth:`HostSpeed.sample`).
CAL_SAMPLE = 9


def reference_work() -> int:
    """The calibration loop: dict and tuple churn, like the compiler's own."""
    d: Dict[Tuple[int, int, int], int] = {}
    for i in range(700):
        key = (i, i % 7, -i)
        d[key] = d.get((i - 1, (i - 1) % 7, 1 - i), 0) + key[1]
    return len(d)


def _loop_ms() -> float:
    t0 = time.perf_counter()
    reference_work()
    return (time.perf_counter() - t0) * 1000.0


class HostSpeed:
    """Per-thread estimate of the host's current speed (see above)."""

    def __init__(self) -> None:
        self._local = threading.local()

    def scale(self) -> float:
        """``CAL_REFERENCE_MS`` over the loop's recent duration."""
        window: List[float] = self._local.__dict__.setdefault("window", [])
        now = time.perf_counter()
        if not window or now - self._local.__dict__.get("at", 0.0) > CAL_EVERY_S:
            window.append(_loop_ms())
            del window[:-CAL_WINDOW]
            self._local.at = time.perf_counter()
        return CAL_REFERENCE_MS / median(window)

    @staticmethod
    def sample() -> float:
        """Like :meth:`scale`, from ``CAL_SAMPLE`` fresh loop timings
        rather than a window that may be up to ``CAL_WINDOW`` timings old."""
        return CAL_REFERENCE_MS / median([_loop_ms() for _ in range(CAL_SAMPLE)])


class Stopwatch:
    """Reference-speed time of a block made of steps (such as a setup).

    The host speed is sampled when the watch starts and at each
    :meth:`lap`, between two steps.  Each step's wall time is scaled by
    the mean of the samples just before and just after it; the sampling
    itself is not counted.
    """

    def __init__(self) -> None:
        self.ms = 0.0
        self.raw_ms = 0.0
        self._scale = HostSpeed.sample()
        self._t = time.perf_counter()

    def lap(self) -> None:
        raw = (time.perf_counter() - self._t) * 1000.0
        scale = HostSpeed.sample()
        self.raw_ms += raw
        self.ms += raw * (self._scale + scale) / 2.0
        self._scale = scale
        self._t = time.perf_counter()


class Recorder:
    """Times calls into the program; with tracing on, also keeps spans.

    :meth:`span` reports reference-speed milliseconds (raw wall time
    scaled by :class:`HostSpeed`).  Spans live in memory (name, start,
    end, parent, raw and scaled ms) and are written out once, by
    :meth:`dump`, when the run ends.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.speed = HostSpeed()
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._t0 = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, calibrate: bool = True, **attrs: Any) -> Iterator[List[float]]:
        """Yield a list that receives the block's reference-speed ms and
        raw wall ms (the host speed is sampled before the block).

        With ``calibrate=False`` the host speed is not sampled and both
        entries are raw ms; the caller scales them itself.
        """
        out: List[float] = [0.0, 0.0]
        scale = self.speed.scale() if calibrate else 1.0
        if not self.trace:
            t = time.perf_counter()
            yield out
            out[1] = (time.perf_counter() - t) * 1000.0
            out[0] = out[1] * scale
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append({"id": sid, "parent": parent, "name": name, **attrs})
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield out
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            out[1] = (end - start) / 1e6
            out[0] = out[1] * scale
            rec = self.spans[sid]
            rec["startUs"] = (start - self._t0) / 1e3
            rec["endUs"] = (end - self._t0) / 1e3
            rec["scale"] = scale if calibrate else None
            rec["thread"] = threading.current_thread().name

    def dump(self, path: Path, summary: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"schema": "perfbench-trace/1", "summary": summary, "spans": self.spans}
        path.write_text(json.dumps(doc, indent=None, sort_keys=True))


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def check(self, problems: Sequence[str], what: str) -> bool:
        """Count one operation; it failed when ``problems`` is non-empty."""
        if problems:
            self.fail(f"{what}: {'; '.join(problems[:3])}")
            return False
        self.ok()
        return True


# --------------------------------------------------------------------- #
# hermeticity
# --------------------------------------------------------------------- #

_SKIP_DIRS = {
    ".git", ".perfbench", ".bench_build", "__pycache__", ".pytest_cache",
    ".hypothesis", ".mypy_cache", ".ruff_cache",
}


def repo_digest(root: Path = ROOT) -> Dict[str, str]:
    """Content digest of every repository file (caches and scratch excluded)."""
    out: Dict[str, str] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for name in filenames:
            if name.endswith(".pyc"):
                continue
            path = Path(dirpath) / name
            out[str(path.relative_to(root))] = hashlib.sha1(path.read_bytes()).hexdigest()
    return out


class HermeticGuard:
    """Snapshot the environment and the repository; :meth:`problems` diffs."""

    def __init__(self, root: Path = ROOT) -> None:
        self.root = root
        self.env = dict(os.environ)
        self.files = repo_digest(root)

    def problems(self) -> List[str]:
        out: List[str] = []
        env = dict(os.environ)
        changed = sorted(
            k for k in set(env) | set(self.env) if env.get(k) != self.env.get(k)
        )
        if changed:
            out.append(f"environment changed: {changed}")
        files = repo_digest(self.root)
        touched = sorted(
            k for k in set(files) | set(self.files) if files.get(k) != self.files.get(k)
        )
        if touched:
            out.append(f"repository files changed: {touched[:10]}")
        return out


def child_env() -> Dict[str, str]:
    """Environment for interpreters the benchmark starts: the program on
    ``PYTHONPATH`` and no ambient store (state goes through explicit paths)."""
    env = dict(os.environ)
    env.pop("REPRO_FUSE_STORE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def fmt_value(value: float) -> str:
    return f"{value:.6g}"
