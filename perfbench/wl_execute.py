"""execute-gallery: run time of the generated code, per backend.

Setup compiles the eight gallery programs, builds their kernels, runs
the interpreter on each original program for the reference output and
fills the planner's profile.  The timed region only executes: each round
visits the programs in a seeded order and runs every backend, plus
``Session.execute_fused`` under ``backend="auto"``, on a fresh copy of
the program's seeded input arrays.  Every output is compared with the
reference, cell for cell.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from perfbench import inputs, oracles
from perfbench.core import EXEC_BACKENDS, STAGE_KINDS, geomean, median, p90, typical
from perfbench.workload import Workload

#: Worker count for the parallel backend (the benchmark host has 2 CPUs).
JOBS = 2
CALLS = EXEC_BACKENDS + ("auto",)
#: The parallel backend runs in every fourth round only: it never wins and
#: costs more than the other three calls together (anisotropic-sweep).
PARALLEL_EVERY = 4
#: plan_lowering's stage kinds, by the short names the metrics use.
KIND_NAMES = dict(zip(STAGE_KINDS, ("whole-array", "slab", "wavefront", "scalar")))


class Program:
    """One compiled gallery program and everything needed to run it."""

    def __init__(self, key: str, out: Any, base: Any, reference: Any) -> None:
        self.key = key
        self.fp = out.fused
        self.is_doall = out.fusion.is_doall
        self.schedule = None if self.is_doall else out.fusion.schedule
        self.base = base
        self.reference = reference


class ExecuteGallery(Workload):
    name = "execute-gallery"

    def setup(self) -> None:
        from repro.codegen import ArrayStore, compile_fused, compile_numpy, run_original
        from repro.core.backends import execute_fused
        from repro.core.session import Session, SessionCaches, SessionOptions

        n, small = inputs.EXEC_SIZE, inputs.ORACLE_SIZE
        store = self.fresh_dir("exec") / "store.db"
        self.session = Session(
            options=SessionOptions(backend="auto", store_path=str(store)),
            caches=SessionCaches.private(),
        )
        self.programs: List[Program] = []
        for key, src in inputs.gallery_sources():
            out = self.session.fuse_program(src)
            seed = inputs.array_seed(self.seed, key)
            base = ArrayStore.for_program(out.nest, n, n, seed=seed)
            prog = Program(key, out, base, run_original(out.nest, n, n, store=base.copy()))
            self.programs.append(prog)
            with self.session.activate():
                compile_fused(prog.fp)
                compile_numpy(prog.fp, schedule=prog.schedule)
                # every backend, once, at the oracle size
                sbase = ArrayStore.for_program(out.nest, small, small, seed=seed)
                sref = run_original(out.nest, small, small, store=sbase.copy())
                problems = oracles.artifact_problems(prog.fp, sref, sbase, small)
                for backend in EXEC_BACKENDS:
                    got = execute_fused(
                        backend, prog.fp, small, small, store=sbase.copy(),
                        schedule=prog.schedule, is_doall=prog.is_doall, jobs=JOBS,
                    )
                    problems += oracles.store_problems(sref, got, f"{backend} at {small}")
            self.tally.check(problems, f"{key} setup oracle")
            self.fill_profile(prog)
            self.lap()

    def fill_profile(self, prog: Program) -> None:
        """Call the auto path until the planner answers from its profile."""
        last = None
        for _ in range(8):
            plan = self.plan(prog)
            if plan.source == "profile" and plan.backend == last:
                return
            last = plan.backend if plan.source == "profile" else None
            self.session.execute_fused(
                prog.fp, inputs.EXEC_SIZE, inputs.EXEC_SIZE, store=prog.base.copy(),
                schedule=prog.schedule, is_doall=prog.is_doall,
            )

    def plan(self, prog: Program) -> Any:
        with self.session.activate():
            return self.session.planner.plan_execution(
                prog.fp, inputs.EXEC_SIZE, inputs.EXEC_SIZE,
                schedule=prog.schedule, is_doall=prog.is_doall,
                requested="auto", session_backend="auto",
            )

    def call(self, backend: str, prog: Program, store: Any) -> Any:
        from repro.core.backends import execute_fused

        n = inputs.EXEC_SIZE
        if backend == "auto":
            return self.session.execute_fused(
                prog.fp, n, n, store=store, schedule=prog.schedule, is_doall=prog.is_doall
            )
        return execute_fused(
            backend, prog.fp, n, n, store=store,
            schedule=prog.schedule, is_doall=prog.is_doall, jobs=JOBS,
        )

    def measure(self, seconds: float) -> Tuple[Dict[str, float], Dict[str, float]]:
        times: Dict[Tuple[str, str], List[float]] = {
            (p.key, b): [] for p in self.programs for b in CALLS
        }
        layer: Dict[str, Dict[str, List[float]]] = {}
        start = time.perf_counter()
        rnd = 0
        with self.session.activate():
            while rnd == 0 or time.perf_counter() - start < seconds:
                for prog in inputs.round_order(self.seed, rnd, self.programs):
                    for backend in CALLS:
                        if backend == "parallel" and rnd % PARALLEL_EVERY:
                            continue
                        store = prog.base.copy()
                        try:
                            with self.rec.span(f"exec.{backend}", input=prog.key) as ms:
                                got = self.call(backend, prog, store)
                        except Exception as exc:
                            self.tally.fail(f"{prog.key} {backend}: {type(exc).__name__}: {exc}")
                            continue
                        times[(prog.key, backend)].append(ms[0])
                        self.tally.check(
                            oracles.store_problems(prog.reference, got, backend),
                            f"{prog.key} {backend}",
                        )
                    if self.rec.trace:
                        self.layers(prog, layer)
                rnd += 1
        self.info = {"rounds": rnd, "size": inputs.EXEC_SIZE}
        return self.report(times, layer)

    def layers(self, prog: Program, layer: Dict[str, Dict[str, List[float]]]) -> None:
        """Planner decision and kernel builds (with an empty kernel cache)."""
        from repro.codegen import compile_fused, compile_numpy
        from repro.core.session import Session, SessionCaches

        with self.rec.span("plan.select", input=prog.key) as ms:
            self.plan(prog)
        layer.setdefault("plan.select_ms", {}).setdefault(prog.key, []).append(ms[0])
        with Session(caches=SessionCaches.private()).activate():
            with self.rec.span("kernel_build.compiled", input=prog.key) as ms:
                compile_fused(prog.fp)
            layer.setdefault("codegen.kernel_build_ms.compiled", {}).setdefault(
                prog.key, []).append(ms[0])
            with self.rec.span("kernel_build.numpy", input=prog.key) as ms:
                compile_numpy(prog.fp, schedule=prog.schedule)
            layer.setdefault("codegen.kernel_build_ms.numpy", {}).setdefault(
                prog.key, []).append(ms[0])

    def report(
        self,
        times: Dict[Tuple[str, str], List[float]],
        layer: Dict[str, Dict[str, List[float]]],
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        from repro.codegen import plan_lowering

        med = {k: median(v) for k, v in times.items() if v}
        keys = [p.key for p in self.programs]
        best = {k: min(EXEC_BACKENDS, key=lambda b: med[(k, b)]) for k in keys}
        best_samples = [x for k in keys for x in times[(k, best[k])]]

        def gm(backend: str) -> float:
            return typical({k: times[(k, backend)] for k in keys})

        e2e = {
            "latency_ms_p50": typical({k: times[(k, best[k])] for k in keys}),
            "latency_ms_p90": p90(best_samples),
            "mode2_ms_p50": gm("auto"),
            "mode3_ms_p50": gm("compiled"),
            "mode4_ms_p50": gm("numpy"),
        }
        per: Dict[str, float] = {name: typical(v) for name, v in layer.items()}
        for backend in EXEC_BACKENDS:
            prefix = "perf.exec_ms" if backend == "parallel" else "codegen.exec_ms"
            per[f"{prefix}.{backend}"] = gm(backend)
            for k in keys:
                per[f"{prefix}.{backend}.{k}"] = med[(k, backend)]
        per["plan.auto_over_best"] = geomean(
            [med[(k, "auto")] / med[(k, best[k])] for k in keys]
        )
        for short, kind in KIND_NAMES.items():
            per[f"codegen.numpy_stages.{short}"] = float(
                sum(plan_lowering(p.fp, schedule=p.schedule).count(kind) for p in self.programs)
            )
        self.info["best"] = best
        self.info["best_samples"] = len(best_samples)
        return e2e, per
