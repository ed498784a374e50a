"""The interface every workload implements, plus small shared helpers."""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.core import Recorder, Stopwatch, Tally


class Workload:
    """One benchmark workload.

    :meth:`setup` builds every input, reference and warm state the timed
    region needs; the runner calls it several times (tearing down between
    calls) to time it.  :meth:`measure` runs the timed region for about
    ``seconds`` and returns ``(end_to_end, per_layer)`` metric values;
    ``setup_s`` and ``peak_rss_mb`` are filled in by the runner.  A setup
    that takes longer than a few tenths of a second calls :meth:`lap`
    between its steps, so that each step is scaled by the host speed
    around it.
    """

    name = "?"

    def __init__(self, seed: int, rec: Recorder, tally: Tally, work: Path) -> None:
        self.seed = seed
        self.rec = rec
        self.tally = tally
        self.work = work
        #: Sample counts and other context printed beside the metrics.
        self.info: Dict[str, Any] = {}
        #: The stopwatch timing the current setup, if any.
        self.clock: Optional[Stopwatch] = None

    def setup(self) -> None:
        raise NotImplementedError

    def lap(self) -> None:
        """Mark the end of one setup step (see :class:`Stopwatch`)."""
        if self.clock is not None:
            self.clock.lap()

    def measure(self, seconds: float) -> Tuple[Dict[str, float], Dict[str, float]]:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` started (default: nothing)."""

    def peak_rss_mb(self) -> float | None:
        """Peak memory of processes the workload runs outside this one."""
        return None

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def counter_values(names: List[str]) -> Dict[str, float]:
    """Current values of process-wide ``repro.obs`` counters."""
    from repro import obs

    reg = obs.default_registry()
    return {name: float(reg.counter(name).value) for name in names}


def counter_delta(before: Dict[str, float]) -> Dict[str, float]:
    after = counter_values(list(before))
    return {k: after[k] - before[k] for k in before}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
