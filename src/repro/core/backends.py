"""The execution-backend registry.

Four interchangeable executors can run a fused program; this module gives
them one name table and one calling convention so every selection site --
``repro-fuse run --backend``, ``repro-fuse bench --backends``,
``SessionOptions.backend`` (and through it the serve workers and
``fuse_many``) -- resolves backends the same way:

========== =========================================================
``interp``   tree-walking interpreter (:func:`repro.codegen.interp.run_fused`,
             serial mode) -- the semantic ground truth
``compiled`` generated Python with per-row numpy slices
             (:func:`repro.codegen.pycompile.compile_fused`)
``numpy``    staged whole-array lowering
             (:func:`repro.codegen.nplower.compile_numpy`)
``parallel`` the ``numpy`` kernel with each whole-array stage's rows
             split into ``jobs`` bands on a thread pool
             (:func:`_run_banded`; numpy releases the GIL)
========== =========================================================

Every runner takes the same arguments and mutates/returns the given
:class:`~repro.codegen.interp.ArrayStore`; all are bit-identical to
``interp`` (enforced by the callers that verify, and by the test suite).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.fused import FusedProgram
    from repro.codegen.interp import ArrayStore
    from repro.vectors import IVec

__all__ = [
    "ExecutionBackend",
    "register",
    "get",
    "backend_names",
    "execute_fused",
]

#: Runner signature:
#: ``(fp, n, m, store, schedule, is_doall, jobs) -> store``.
Runner = Callable[..., "ArrayStore"]


@dataclass(frozen=True)
class ExecutionBackend:
    """One way to execute a fused program over an :class:`ArrayStore`."""

    name: str
    description: str
    runner: Runner


_REGISTRY: Dict[str, ExecutionBackend] = {}


def register(backend: ExecutionBackend) -> ExecutionBackend:
    """Add (or replace) a backend in the registry."""
    _REGISTRY[backend.name] = backend
    return backend


def get(name: str) -> ExecutionBackend:
    """Look a backend up by name; raises ``KeyError`` listing the options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {name!r}; known: {backend_names()}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def execute_fused(
    name: str,
    fp: "FusedProgram",
    n: int,
    m: int,
    *,
    store: "ArrayStore",
    schedule: Optional["IVec"] = None,
    is_doall: bool = True,
    jobs: Optional[int] = None,
) -> "ArrayStore":
    """Run ``fp`` over ``store`` (mutated in place) with the named backend.

    ``schedule``/``is_doall`` come from the fusion result (the hyperplane
    vector when the fusion is not DOALL); ``jobs`` only matters to the
    ``parallel`` backend.  ``name="auto"`` resolves through the
    execution planner (:mod:`repro.plan`): profile rows for this program
    and size when warm, the static cost model when cold.  Whatever is
    chosen is bit-identical to ``interp`` -- the planner picks *how* to
    run, never *what* is computed.
    """
    if name == "auto":
        from repro.plan import default_planner

        plan = default_planner().plan_execution(
            fp, n, m, schedule=schedule, is_doall=is_doall, jobs=jobs,
        )
        name, jobs = plan.backend, plan.jobs
    return get(name).runner(fp, n, m, store, schedule, is_doall, jobs)


# ------------------------------------------------------------------ #
# the built-in four
# ------------------------------------------------------------------ #


def _run_interp(
    fp: FusedProgram,
    n: int,
    m: int,
    store: ArrayStore,
    schedule: Optional[IVec],
    is_doall: bool,
    jobs: Optional[int],
) -> ArrayStore:
    from repro.codegen.interp import run_fused

    return run_fused(fp, n, m, store=store, mode="serial")


def _run_compiled(
    fp: FusedProgram,
    n: int,
    m: int,
    store: ArrayStore,
    schedule: Optional[IVec],
    is_doall: bool,
    jobs: Optional[int],
) -> ArrayStore:
    from repro.codegen.pycompile import compile_fused

    compile_fused(fp)(store, n, m)
    return store


def _run_numpy(
    fp: FusedProgram,
    n: int,
    m: int,
    store: ArrayStore,
    schedule: Optional[IVec],
    is_doall: bool,
    jobs: Optional[int],
) -> ArrayStore:
    from repro.codegen.nplower import compile_numpy

    compile_numpy(fp, schedule=schedule)(store, n, m)
    return store


class _Bands:
    """Band runner splitting rows ``[0, n]`` into up to ``jobs`` bands.

    The thread pool starts on the first split, so a kernel without a
    whole-array stage (or a one-row space, or ``jobs=1``) runs exactly
    the ``numpy`` kernel.  The calling thread runs the first band.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.count = 0
        self._pool: Optional[ThreadPoolExecutor] = None

    def __call__(self, fn: Callable[[int, int], None], n: int) -> None:
        parts = max(1, min(self.jobs, n + 1))
        self.count += parts
        if parts == 1:
            fn(0, n)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(parts - 1, thread_name_prefix="repro-band")
        edges = [k * (n + 1) // parts for k in range(parts + 1)]
        futures = [
            self._pool.submit(fn, lo, hi - 1) for lo, hi in zip(edges[1:], edges[2:])
        ]
        fn(0, edges[1] - 1)
        for f in futures:  # barrier: the next stage may read any row
            f.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


def _run_banded(
    fp: FusedProgram,
    n: int,
    m: int,
    store: ArrayStore,
    schedule: Optional[IVec],
    is_doall: bool,
    jobs: Optional[int],
) -> ArrayStore:
    from repro import obs
    from repro.codegen.nplower import compile_numpy

    workers = jobs if jobs is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ValueError("jobs must be >= 1")
    kernel = compile_numpy(fp, schedule=schedule)
    bands = _Bands(workers)
    obs.counter("exec.parallel.runs").inc()
    with obs.trace_span("exec.parallel.run", jobs=workers) as sp:
        try:
            kernel(store, n, m, bands)
        finally:
            bands.close()
        sp.set(bands=bands.count)
    return store


register(ExecutionBackend(
    "interp", "tree-walking interpreter (serial; ground truth)", _run_interp,
))
register(ExecutionBackend(
    "compiled", "generated Python, per-row numpy slices", _run_compiled,
))
register(ExecutionBackend(
    "numpy", "staged whole-array numpy lowering", _run_numpy,
))
register(ExecutionBackend(
    "parallel", "numpy lowering, whole-array rows split over threads", _run_banded,
))
