"""The execution planner: one place that decides *how* a fused program runs.

Before this module, "how" was scattered: ``SessionOptions`` hard-coded
``jobs=4``, ``repro-fuse run`` resolved ``--backend`` itself, and serve
stamped ``ServeConfig.backend`` onto requests.  The :class:`Planner`
unifies them behind one precedence rule:

    **explicit > session > profile > model**

An explicit per-call (or per-request) backend always wins -- an explicit
``"auto"`` included, which reaches the planner even on a session pinned
to a concrete backend.  A session configured with a concrete backend
wins next.  Only ``"auto"`` reaches the planner proper, which prefers
*measured* timings -- profile rows for this ``(structural_hash, size
bucket, env fingerprint)`` key, persisted in the L2 store's ``profiles``
table (:mod:`repro.plan.profile`) -- and falls back to the static cost
model (:mod:`repro.plan.model`) on a cold key.

Two invariants:

* **Bit-identity.**  The planner picks among backends that are already
  proven bit-identical to the interpreter; it chooses *how* to run,
  never *what* is computed.  Feedback is timing-only.
* **Determinism.**  A decision is a pure function of (shape, profile
  rows, fingerprint, cpu count).  The wall clock is read only *after*
  execution, to record feedback -- never inside ``plan_execution``.
  Ties break by backend registry order, then ascending jobs.

Every decision emits a ``plan.select`` trace span and ``plan.*``
counters, and is kept in a small ring visible through
``repro-fuse stats`` and the daemon's ``/statz``.  Feedback recording
respects :func:`repro.perf.memo.memoization_applicable` -- the same gate
as both cache tiers -- so probe runs, fault-injected runs and
``REPRO_FUSE_MEMO=0`` never pollute the profile.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

from repro import obs
from repro.plan.model import (
    CostEstimate,
    ShapeInfo,
    _cost,
    estimate_costs,
    shape_info,
)
from repro.plan.profile import ProfileRow, memory_profiles, size_bucket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.fused import FusedProgram
    from repro.resilience.budget import Budget
    from repro.vectors import IVec

__all__ = ["ExecutionPlan", "Planner", "default_planner", "plan_snapshot"]

#: Decision provenance values, strongest-precedence first.
PLAN_SOURCES = ("explicit", "session", "profile", "model")


@dataclass(frozen=True)
class ExecutionPlan:
    """One resolved execution decision: backend and jobs -- and why."""

    backend: str
    jobs: int
    source: str  # one of PLAN_SOURCES
    rationale: str
    skey: Optional[str] = None
    bucket: Optional[str] = None
    fingerprint: Optional[str] = None
    est_s: Optional[float] = None
    shape: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "jobs": self.jobs,
            "source": self.source,
            "rationale": self.rationale,
            "skey": self.skey,
            "bucket": self.bucket,
            "fingerprint": self.fingerprint,
            "estS": self.est_s,
        }

    def describe(self) -> str:
        est = f", est {self.est_s * 1e3:.3f} ms" if self.est_s is not None else ""
        return (
            f"{self.backend} jobs={self.jobs} [{self.source}{est}] "
            f"-- {self.rationale}"
        )


# a small process-wide ring of recent decisions for stats/statz surfacing
_RECENT: Deque[Dict[str, Any]] = deque(maxlen=8)
_RECENT_LOCK = threading.Lock()


def plan_snapshot() -> Dict[str, Any]:
    """Recent planner decisions (newest last) for stats documents."""
    with _RECENT_LOCK:
        return {"recent": list(_RECENT)}


def _note_decision(plan: ExecutionPlan) -> None:
    with _RECENT_LOCK:
        _RECENT.append(plan.to_dict())


class Planner:
    """Produces :class:`ExecutionPlan` objects and records feedback.

    ``store=None`` resolves the active L2 store at decision time (the
    session's store under ``Session.activate``, else the
    ``REPRO_FUSE_STORE`` default); with no store at all, profile rows
    live in the bounded in-process table so warmth still works.
    """

    def __init__(self, store: Optional[Any] = None) -> None:
        self.store = store

    # -------------------------------------------------------------- #
    # profile-tier plumbing
    # -------------------------------------------------------------- #

    def _profiles(self) -> Any:
        if self.store is not None and not getattr(self.store, "disabled", False):
            return self.store
        from repro.store import active_store

        store = active_store()
        if store is not None and not store.disabled:
            return store
        return memory_profiles()

    # -------------------------------------------------------------- #
    # planning
    # -------------------------------------------------------------- #

    def plan_execution(
        self,
        fp: "FusedProgram",
        n: int,
        m: int,
        *,
        schedule: Optional["IVec"] = None,
        is_doall: bool = True,
        requested: Optional[str] = None,
        session_backend: Optional[str] = None,
        jobs: Optional[int] = None,
        skey: Optional[str] = None,
    ) -> ExecutionPlan:
        """Resolve how to execute ``fp`` on an ``(n, m)`` space.

        ``requested`` is the per-call/per-request backend (strongest;
        ``"auto"`` there delegates to profile-then-model whatever the
        session says), ``session_backend`` the session default, used only
        when nothing was requested (``"auto"`` or absent delegates too).
        ``jobs`` constrains the parallel backend's worker count when
        given.  Pure function of its inputs plus the profile rows -- no
        clock reads.
        """
        from repro.core.backends import backend_names

        shape = shape_info(fp, n, m, schedule=schedule, is_doall=is_doall)
        bucket = size_bucket(n, m)
        if skey is None:
            skey = self._structural_key(fp)
        fingerprint = self._fingerprint()
        reg = obs.default_registry()

        with obs.trace_span(
            "plan.select", skey=skey, bucket=bucket, n=n, m=m
        ) as sp:
            if requested is not None and requested != "auto":
                plan = self._fixed_plan(
                    requested, "explicit", "per-call backend wins over the planner",
                    shape, jobs, skey, bucket, fingerprint,
                )
            elif requested is None and session_backend not in (None, "auto"):
                plan = self._fixed_plan(
                    session_backend, "session",
                    "session options pin the backend",
                    shape, jobs, skey, bucket, fingerprint,
                )
            else:
                plan = self._auto_plan(shape, jobs, skey, bucket, fingerprint)
            sp.set(
                backend=plan.backend,
                jobs=plan.jobs,
                source=plan.source,
                estMs=(
                    round(plan.est_s * 1e3, 6) if plan.est_s is not None else None
                ),
            )
        reg.counter("plan.selects").inc()
        reg.counter(f"plan.source.{plan.source}").inc()
        if plan.backend in backend_names():
            reg.counter(f"plan.backend.{plan.backend}").inc()
        _note_decision(plan)
        return plan

    def _fixed_plan(
        self,
        backend: str,
        source: str,
        rationale: str,
        shape: ShapeInfo,
        jobs: Optional[int],
        skey: Optional[str],
        bucket: str,
        fingerprint: Optional[str],
    ) -> ExecutionPlan:
        """A plan whose backend was dictated above the planner.

        Jobs are still planned: an explicit ``jobs`` wins, else the
        model's best worker count for this backend and shape.
        """
        chosen_jobs = jobs if jobs is not None else self._model_jobs(shape, backend)
        est = self._estimate(shape, backend, chosen_jobs)
        return ExecutionPlan(
            backend=backend,
            jobs=chosen_jobs,
            source=source,
            rationale=rationale,
            skey=skey,
            bucket=bucket,
            fingerprint=fingerprint,
            est_s=est,
            shape=shape.to_dict(),
        )

    def _auto_plan(
        self,
        shape: ShapeInfo,
        jobs: Optional[int],
        skey: Optional[str],
        bucket: str,
        fingerprint: Optional[str],
    ) -> ExecutionPlan:
        from repro.core.backends import backend_names

        names = backend_names()
        order = {name: k for k, name in enumerate(names)}

        rows: List[ProfileRow] = []
        if skey is not None and fingerprint is not None:
            rows = [
                r
                for r in self._profiles().profile_rows(skey, fingerprint, bucket)
                if r.backend in order
                and (jobs is None or r.backend != "parallel" or r.jobs == jobs)
            ]
        candidates = self._candidates(shape, jobs)
        model_best = min(candidates, key=lambda c: c.est_s)
        # measurements win -- but only once they have something to say
        # about the model's favourite: while the model-best config is
        # unprofiled AND every measured mean is worse than its estimate,
        # explore it instead of locking onto whichever backend happened
        # to run first.  Pure function of (rows, shape); no clock reads.
        if rows:
            best = min(rows, key=lambda r: (r.mean_s, order[r.backend], r.jobs))
            model_best_measured = any(
                r.backend == model_best.backend and r.jobs == model_best.jobs
                for r in rows
            )
            if not model_best_measured and best.mean_s > model_best.est_s:
                return ExecutionPlan(
                    backend=model_best.backend,
                    jobs=model_best.jobs,
                    source="model",
                    rationale=(
                        f"exploring unprofiled model favourite "
                        f"(est {model_best.est_s * 1e3:.3f} ms beats measured "
                        f"best {best.mean_s * 1e3:.3f} ms on {best.backend})"
                    ),
                    skey=skey,
                    bucket=bucket,
                    fingerprint=fingerprint,
                    est_s=model_best.est_s,
                    shape=shape.to_dict(),
                )
            est = self._estimate(shape, best.backend, best.jobs)
            return ExecutionPlan(
                backend=best.backend,
                jobs=best.jobs,
                source="profile",
                rationale=(
                    f"measured fastest of {len(rows)} profiled config(s): "
                    f"mean {best.mean_s * 1e3:.3f} ms over {best.runs} run(s)"
                ),
                skey=skey,
                bucket=bucket,
                fingerprint=fingerprint,
                est_s=est,
                shape=shape.to_dict(),
            )

        return ExecutionPlan(
            backend=model_best.backend,
            jobs=model_best.jobs,
            source="model",
            rationale=(
                f"cost model over {shape.cells} cells x {shape.statements} "
                f"stmt(s) (stage mix w{shape.whole_array}/s{shape.slab}"
                f"/f{shape.wavefront}/x{shape.scalar}, U={shape.slab_u}): "
                f"est {model_best.est_s * 1e3:.3f} ms"
            ),
            skey=skey,
            bucket=bucket,
            fingerprint=fingerprint,
            est_s=model_best.est_s,
            shape=shape.to_dict(),
        )

    def _candidates(
        self, shape: ShapeInfo, jobs: Optional[int]
    ) -> List[CostEstimate]:
        candidates = estimate_costs(shape)
        if jobs is not None:
            candidates = [
                c
                for c in candidates
                if c.backend != "parallel" or c.jobs == jobs
            ]
            if not any(c.backend == "parallel" for c in candidates):
                candidates.append(
                    CostEstimate("parallel", jobs, _cost(shape, "parallel", jobs))
                )
        return candidates

    def _model_jobs(self, shape: ShapeInfo, backend: str) -> int:
        """The model's worker count for a dictated backend (1 unless the
        backend actually fans out)."""
        if backend != "parallel":
            return 1
        best = min(
            (c for c in estimate_costs(shape) if c.backend == "parallel"),
            key=lambda c: c.est_s,
        )
        return best.jobs

    def _estimate(
        self, shape: ShapeInfo, backend: str, jobs: int
    ) -> Optional[float]:
        try:
            return _cost(shape, backend, jobs)
        except KeyError:
            return None  # custom registered backend the model cannot price

    # -------------------------------------------------------------- #
    # feedback
    # -------------------------------------------------------------- #

    def record(
        self,
        plan: ExecutionPlan,
        elapsed_s: float,
        *,
        budget: Optional["Budget"] = None,
    ) -> bool:
        """Feed one observed execution time back into the profile tier.

        Gated by :func:`repro.perf.memo.memoization_applicable` exactly
        like both cache tiers: work-limiting budgets (probes), active
        fault injectors and ``REPRO_FUSE_MEMO=0`` record nothing.
        """
        from repro.perf.memo import memoization_applicable

        reg = obs.default_registry()
        if plan.skey is None or plan.fingerprint is None or plan.bucket is None:
            reg.counter("plan.record_skipped").inc()
            return False
        if not memoization_applicable(budget):
            reg.counter("plan.record_skipped").inc()
            return False
        ok = bool(
            self._profiles().profile_record(
                plan.skey,
                plan.fingerprint,
                plan.bucket,
                plan.backend,
                plan.jobs,
                float(elapsed_s),
            )
        )
        reg.counter("plan.records" if ok else "plan.record_skipped").inc()
        return ok

    # -------------------------------------------------------------- #

    @staticmethod
    def _structural_key(fp: "FusedProgram") -> Optional[str]:
        from repro.perf.memo import structural_hash

        g = getattr(fp, "retimed_mldg", None)
        if g is None:
            return None
        try:
            return structural_hash(g)
        except Exception:  # pragma: no cover - defensive
            return None

    @staticmethod
    def _fingerprint() -> Optional[str]:
        try:
            from repro.store.fingerprint import current_fingerprint

            return current_fingerprint()
        except Exception:  # pragma: no cover - defensive
            return None


_DEFAULT = Planner()


def default_planner() -> Planner:
    """The shared planner used by module-level call sites (CLI, registry
    ``"auto"`` resolution); store resolution stays dynamic."""
    return _DEFAULT
