"""The static cost model: problem shape -> estimated backend cost.

Every knob the execution layer used to hard-code lives here as a named,
documented constant: the default batch worker count (formerly
``SessionOptions.jobs = 4``) and the per-operation cost coefficients the
planner uses to rank backends before any measurement exists.

The coefficients are calibrated against BENCH_perf.json on the reference
machine, but the model is deliberately coarse: its only job is to be
*sane on a cold start* (never pick ``parallel jobs=2`` where band
submission overhead dominates; prefer whole-array numpy lowering when the
staged plan is vector-heavy).  As soon as one observed timing exists for
a ``(structural_hash, size bucket, fingerprint)`` key, the profile tier
(:mod:`repro.plan.profile`) overrides the model entirely -- measurements
beat estimates.

Nothing in this module reads the clock, the environment, or any mutable
global: a :class:`ShapeInfo` maps to the same cost table on every call,
which is what makes planner decisions reproducible (and testable).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.fused import FusedProgram
    from repro.vectors import IVec

__all__ = [
    "DEFAULT_BATCH_JOBS",
    "ShapeInfo",
    "shape_info",
    "CostEstimate",
    "estimate_costs",
    "job_candidates",
]

#: Worker-thread count for batch compilation when neither the call nor
#: the session picked one (the old ``SessionOptions.jobs = 4`` default).
DEFAULT_BATCH_JOBS = 4

# ------------------------------------------------------------------ #
# cost coefficients (seconds; calibrated against BENCH_perf.json)
# ------------------------------------------------------------------ #

#: Tree-walking interpreter: per statement *instance* (scalar visit).
C_SCALAR = 2.2e-6
#: Python dispatch of one numpy row-slice statement (compiled backend's
#: per-row kernel line, or one slab row in the staged lowering).
C_SLICE = 2.0e-6
#: Per element per statement streamed through a numpy vector op.
C_ELEM = 4.0e-9
#: Per whole-array statement op in the staged lowering.
C_WHOLE = 8.0e-6
#: Per-stage overhead of the staged lowering (stage setup + bounds).
C_STAGE = 15.0e-6
#: Submitting one row band to a pool and joining its barrier: the
#: ``parallel`` backend pays it per whole-array stage per job, on top of
#: the ``numpy`` kernel it shares.
C_SUBMIT = 30.0e-6
#: One-time kernel build/setup per backend invocation.
SETUP = {"interp": 0.0, "compiled": 40.0e-6, "numpy": 60.0e-6}


@dataclass(frozen=True)
class ShapeInfo:
    """Everything the cost model may look at for one execution.

    Captures the iteration-space size, the fused body's statement count,
    and the staged-lowering mix from :func:`repro.codegen.nplower.plan_lowering`
    (whole-array / slab / wavefront / scalar statement counts plus the
    dependence-bound slab height ``U``).  Deliberately *excludes* wall
    clock, load average and anything else non-reproducible.
    """

    n: int
    m: int
    statements: int
    dim: int
    is_doall: bool
    stages: int
    whole_array: int
    slab: int
    wavefront: int
    scalar: int
    slab_u: int

    @property
    def rows(self) -> int:
        return self.n + 1

    @property
    def cols(self) -> int:
        return self.m + 1

    @property
    def cells(self) -> int:
        """Iteration-space size |I| = (n+1)(m+1)."""
        return self.rows * self.cols

    @property
    def instances(self) -> int:
        """Statement instances the execution must produce."""
        return self.cells * self.statements

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "m": self.m,
            "statements": self.statements,
            "dim": self.dim,
            "isDoall": self.is_doall,
            "stages": self.stages,
            "wholeArray": self.whole_array,
            "slab": self.slab,
            "wavefront": self.wavefront,
            "scalar": self.scalar,
            "slabU": self.slab_u,
            "cells": self.cells,
        }


def shape_info(
    fp: "FusedProgram",
    n: int,
    m: int,
    *,
    schedule: Optional["IVec"] = None,
    is_doall: bool = True,
) -> ShapeInfo:
    """Build the model's input from a fused program and its space.

    Runs the (cheap, pure) staged-lowering planner to get the stage mix;
    the lowering plan depends only on the program and schedule, never on
    ``n``/``m``, so one fused program always yields the same mix.
    """
    from repro.codegen.nplower import plan_lowering

    plan = plan_lowering(fp, schedule=schedule)
    heights = [s.slab for s in plan.stages if s.kind == "slab"]
    return ShapeInfo(
        n=n,
        m=m,
        statements=len(plan.flat),
        dim=2,
        is_doall=is_doall,
        stages=len(plan.stages),
        whole_array=plan.count("whole-array"),
        slab=plan.count("slab"),
        wavefront=plan.count("wavefront"),
        scalar=plan.count("scalar"),
        slab_u=max(heights) if heights else 1,
    )


@dataclass(frozen=True)
class CostEstimate:
    """One candidate configuration with its modelled wall time."""

    backend: str
    jobs: int
    est_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {"backend": self.backend, "jobs": self.jobs, "estS": self.est_s}


def job_candidates(cpus: Optional[int] = None) -> Tuple[int, ...]:
    """The job counts the planner considers for the parallel backend.

    Deterministic for a given machine: {1, 2, min(4, cpus)} clipped to
    the cpu count.  ``cpus`` is injectable for tests.
    """
    count = cpus if cpus is not None else (os.cpu_count() or 1)
    cands = {1}
    if count >= 2:
        cands.add(2)
    if count >= 4:
        cands.add(min(4, count))
    return tuple(sorted(cands))


def _cost(shape: ShapeInfo, backend: str, jobs: int) -> float:
    if backend == "interp":
        return shape.instances * C_SCALAR
    if backend == "compiled":
        return (
            SETUP["compiled"]
            + shape.rows * shape.statements * C_SLICE
            + shape.instances * C_ELEM
        )
    if backend in ("numpy", "parallel"):
        vector = shape.whole_array + shape.slab + shape.wavefront
        slab_slices = (
            shape.slab * -(-shape.rows // max(1, shape.slab_u))
            if shape.slab
            else 0
        )
        wavefront_slices = (
            shape.wavefront * (shape.rows + shape.cols) if shape.wavefront else 0
        )
        bands = shape.whole_array * jobs * C_SUBMIT if backend == "parallel" else 0.0
        return (
            SETUP["numpy"]
            + shape.stages * C_STAGE
            + shape.whole_array * C_WHOLE
            + (slab_slices + wavefront_slices) * C_SLICE
            + vector * shape.cells * C_ELEM
            + shape.scalar * shape.cells * C_SCALAR
            + bands
        )
    raise KeyError(f"cost model knows no backend {backend!r}")


def estimate_costs(
    shape: ShapeInfo, *, cpus: Optional[int] = None
) -> List[CostEstimate]:
    """Every candidate (backend, jobs) with its modelled seconds.

    Ordered by the backend registry order (interp, compiled, numpy,
    parallel) then ascending jobs, so ties resolve the same way on every
    call -- callers pick ``min(..., key=lambda c: c.est_s)`` and rely on
    ``min``'s first-wins stability for determinism.
    """
    out = [
        CostEstimate("interp", 1, _cost(shape, "interp", 1)),
        CostEstimate("compiled", 1, _cost(shape, "compiled", 1)),
        CostEstimate("numpy", 1, _cost(shape, "numpy", 1)),
    ]
    for jobs in job_candidates(cpus):
        out.append(CostEstimate("parallel", jobs, _cost(shape, "parallel", jobs)))
    return out
