"""The execution planner (repro.plan): model, profiles, precedence.

The planner's two load-bearing invariants, tested head-on:

* **Determinism** -- a decision is a pure function of (shape, profile
  rows, fingerprint, cpu count).  The same inputs yield the same
  :class:`ExecutionPlan` even while the wall clock is jumping wildly,
  because ``plan_execution`` never reads it.
* **Bit-identity** -- ``"auto"`` picks *how* to run, never *what* is
  computed: the full runnable gallery under the planner matches the
  serial interpreter exactly, cold (model tier) and warm (profile tier).

Plus the precedence ladder (explicit > session > profile > model), the
exploration rule that keeps a cold profile from locking onto the first
backend measured, the memoization gate on feedback recording, and the
sqlite ``profiles`` table behind it all.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.codegen import apply_fusion
from repro.codegen.interp import ArrayStore, run_fused
from repro.core.backends import backend_names, execute_fused
from repro.core.session import Session, SessionCaches, SessionOptions
from repro.depend import extract_mldg
from repro.fusion import fuse
from repro.gallery.common import iir2d_code
from repro.gallery.extended import extended_kernels
from repro.gallery.paper import figure2_code
from repro.loopir import parse_program
from repro.perf.memo import clear_all_caches, structural_hash
from repro.plan import (
    DEFAULT_BATCH_JOBS,
    ExecutionPlan,
    MemoryProfiles,
    Planner,
    estimate_costs,
    job_candidates,
    memory_profiles,
    plan_snapshot,
    shape_info,
    size_bucket,
)
from repro.store import CompileStore, current_fingerprint, reset_open_stores


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """No ambient store, empty in-process profile table, per test."""
    monkeypatch.delenv("REPRO_FUSE_STORE", raising=False)
    monkeypatch.delenv("REPRO_FUSE_MEMO", raising=False)
    clear_all_caches()
    reset_open_stores()
    memory_profiles().clear()
    yield
    clear_all_caches()
    reset_open_stores()
    memory_profiles().clear()


def _fused(source: str):
    nest = parse_program(source)
    g = extract_mldg(nest)
    result = fuse(g)
    return nest, apply_fusion(nest, result.retiming, mldg=g), result


@pytest.fixture(scope="module")
def fig2():
    return _fused(figure2_code())


# ------------------------------------------------------------------ #
# size buckets
# ------------------------------------------------------------------ #


class TestSizeBucket:
    def test_reference_sizes(self):
        # 24x24 = 625 cells -> lg8; 256x256 = 66049 -> lg16
        assert size_bucket(24, 24) == "lg8"
        assert size_bucket(256, 256) == "lg16"

    def test_buckets_are_two_powers_wide(self):
        # nearby sizes share a bucket so measurements transfer...
        assert size_bucket(24, 24) == size_bucket(30, 30)
        # ...but scales never mix: crossover is a function of size
        assert size_bucket(24, 24) != size_bucket(256, 256)

    def test_degenerate_space(self):
        assert size_bucket(0, 0) == "lg0"

    def test_labels_are_even(self):
        for n in (0, 3, 7, 24, 100, 256, 1000):
            label = size_bucket(n, n)
            assert int(label[2:]) % 2 == 0


# ------------------------------------------------------------------ #
# the static cost model
# ------------------------------------------------------------------ #


class TestCostModel:
    def test_shape_info_is_stable(self, fig2):
        _, fp, result = fig2
        a = shape_info(fp, 24, 24, schedule=result.schedule,
                       is_doall=result.is_doall)
        b = shape_info(fp, 24, 24, schedule=result.schedule,
                       is_doall=result.is_doall)
        assert a == b
        assert a.cells == 625 and a.statements >= 1

    def test_estimates_are_deterministic(self, fig2):
        _, fp, result = fig2
        shape = shape_info(fp, 256, 256, schedule=result.schedule,
                           is_doall=result.is_doall)
        assert estimate_costs(shape, cpus=4) == estimate_costs(shape, cpus=4)

    def test_job_candidates_clip_to_cpu_count(self):
        assert job_candidates(1) == (1,)
        assert job_candidates(2) == (1, 2)
        assert job_candidates(3) == (1, 2)
        assert job_candidates(8) == (1, 2, 4)

    def test_small_space_never_models_parallel_fanout_as_best(self, fig2):
        # pool submission overhead must dominate at 24x24
        _, fp, result = fig2
        shape = shape_info(fp, 24, 24, schedule=result.schedule,
                           is_doall=result.is_doall)
        best = min(estimate_costs(shape, cpus=4), key=lambda c: c.est_s)
        assert not (best.backend == "parallel" and best.jobs > 1)

    def test_batch_default_preserved(self):
        # the old SessionOptions.jobs = 4 literal lives here now
        assert DEFAULT_BATCH_JOBS == 4


# ------------------------------------------------------------------ #
# profile tables: in-process fallback and the sqlite tier
# ------------------------------------------------------------------ #


class TestMemoryProfiles:
    def test_rows_aggregate(self):
        t = MemoryProfiles()
        assert t.profile_record("s", "f", "lg8", "compiled", 1, 0.004)
        assert t.profile_record("s", "f", "lg8", "compiled", 1, 0.002)
        (row,) = t.profile_rows("s", "f", "lg8")
        assert (row.backend, row.jobs, row.runs) == ("compiled", 1, 2)
        assert row.best_s == pytest.approx(0.002)
        assert row.mean_s == pytest.approx(0.003)

    def test_rows_sorted_and_keyed(self):
        t = MemoryProfiles()
        t.profile_record("s", "f", "lg8", "parallel", 2, 0.1)
        t.profile_record("s", "f", "lg8", "interp", 1, 0.2)
        assert [r.backend for r in t.profile_rows("s", "f", "lg8")] == [
            "interp", "parallel"]
        assert t.profile_rows("s", "f", "lg16") == []
        assert t.profile_rows("s", "other", "lg8") == []

    def test_bounded_eviction(self):
        t = MemoryProfiles(max_keys=2)
        for i in range(4):
            t.profile_record(f"s{i}", "f", "lg8", "interp", 1, 0.1)
        assert t.profile_rows("s0", "f", "lg8") == []  # oldest evicted
        assert len(t.profile_rows("s3", "f", "lg8")) == 1

    def test_clear(self):
        t = MemoryProfiles()
        t.profile_record("s", "f", "lg8", "interp", 1, 0.1)
        t.clear()
        assert len(t) == 0


class TestStoreProfiles:
    def test_roundtrip_aggregates(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"))
        assert store.profile_record("s", "f", "lg8", "numpy", 1, 0.004)
        assert store.profile_record("s", "f", "lg8", "numpy", 1, 0.002)
        assert store.profile_record("s", "f", "lg8", "parallel", 2, 0.030)
        rows = store.profile_rows("s", "f", "lg8")
        assert [(r.backend, r.jobs) for r in rows] == [
            ("numpy", 1), ("parallel", 2)]
        assert rows[0].runs == 2 and rows[0].best_s == pytest.approx(0.002)
        assert rows[0].mean_s == pytest.approx(0.003)

    def test_key_isolation(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"))
        store.profile_record("s", "f", "lg8", "numpy", 1, 0.004)
        assert store.profile_rows("s", "f", "lg16") == []
        assert store.profile_rows("s", "other-env", "lg8") == []
        assert store.profile_rows("other-prog", "f", "lg8") == []

    def test_rows_survive_reopen(self, tmp_path):
        path = str(tmp_path / "s.db")
        CompileStore(path).profile_record("s", "f", "lg8", "compiled", 1, 0.01)
        rows = CompileStore(path).profile_rows("s", "f", "lg8")
        assert [(r.backend, r.runs) for r in rows] == [("compiled", 1)]

    def test_stats_and_count_report_profiles(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"))
        store.profile_record("s", "f", "lg8", "numpy", 1, 0.004)
        store.profile_record("s", "f", "lg16", "numpy", 1, 0.1)
        assert store.profile_count() == 2
        assert store.stats().profile_rows == 2
        assert store.stats().to_dict()["profileRows"] == 2

    def test_clear_drops_profiles_too(self, tmp_path):
        store = CompileStore(str(tmp_path / "s.db"))
        store.put("k", "f", 1)
        store.profile_record("s", "f", "lg8", "numpy", 1, 0.004)
        store.clear()
        assert store.profile_count() == 0
        assert store.profile_rows("s", "f", "lg8") == []


# ------------------------------------------------------------------ #
# planner decisions
# ------------------------------------------------------------------ #


def _plan(fig2, n=256, m=256, **kw):
    _, fp, result = fig2
    return Planner().plan_execution(
        fp, n, m, schedule=result.schedule, is_doall=result.is_doall, **kw)


def _seed_profile(fig2, backend, jobs, elapsed_s, n=256, m=256):
    """Plant one observed timing for fig2's planning key."""
    _, fp, _ = fig2
    memory_profiles().profile_record(
        structural_hash(fp.retimed_mldg), current_fingerprint(),
        size_bucket(n, m), backend, jobs, elapsed_s)


class TestPlannerPrecedence:
    def test_explicit_wins(self, fig2):
        plan = _plan(fig2, requested="compiled", session_backend="numpy")
        assert (plan.backend, plan.source) == ("compiled", "explicit")

    def test_session_pin_wins_over_profile(self, fig2):
        _seed_profile(fig2, "numpy", 1, 1e-4)
        plan = _plan(fig2, session_backend="parallel")
        assert (plan.backend, plan.source) == ("parallel", "session")

    def test_requested_auto_delegates(self, fig2):
        plan = _plan(fig2, requested="auto")
        assert plan.source in ("profile", "model")

    def test_explicit_auto_beats_session_pin(self, fig2):
        # a per-call "auto" is explicit too, as a serve request's is: it
        # reaches the planner even on a session pinned to a backend
        plan = _plan(fig2, requested="auto", session_backend="interp")
        assert (plan.source, plan.backend) == ("model", _plan(fig2).backend)
        nest, fp, result = fig2
        Session(caches=SessionCaches.private()).execute_fused(  # backend="interp"
            fp, 12, 12, store=ArrayStore.for_program(nest, 12, 12, seed=11),
            backend="auto", schedule=result.schedule, is_doall=result.is_doall,
        )
        assert plan_snapshot()["recent"][-1]["source"] == "model"

    def test_cold_key_falls_back_to_model(self, fig2):
        plan = _plan(fig2)
        assert plan.source == "model"
        assert "cost model" in plan.rationale
        assert plan.backend in backend_names()
        assert plan.est_s is not None and plan.est_s > 0

    def test_explicit_jobs_respected(self, fig2):
        plan = _plan(fig2, requested="parallel", jobs=3)
        assert plan.jobs == 3

    def test_non_parallel_backend_plans_one_job(self, fig2):
        plan = _plan(fig2, requested="numpy")
        assert plan.jobs == 1


class TestPlannerProfileTier:
    def test_measured_winner_is_picked(self, fig2):
        # the model favourite is measured, so measurements rule outright
        model = _plan(fig2)
        _seed_profile(fig2, model.backend, model.jobs, 0.5)
        _seed_profile(fig2, "compiled", 1, 1e-5)
        plan = _plan(fig2)
        assert (plan.backend, plan.source) == ("compiled", "profile")
        assert "measured fastest" in plan.rationale

    def test_exploration_beats_first_mover_lock_in(self, fig2):
        # only a slow backend is measured and the model favourite is
        # still unprofiled: explore the favourite instead of locking on
        model = _plan(fig2)
        _seed_profile(fig2, "interp", 1, 1.0)  # far above any estimate
        plan = _plan(fig2)
        assert plan.source == "model"
        assert plan.backend == model.backend
        assert plan.rationale.startswith("exploring unprofiled")

    def test_measured_best_beating_estimate_ends_exploration(self, fig2):
        model = _plan(fig2)
        _seed_profile(fig2, "compiled", 1, model.est_s / 10.0)
        plan = _plan(fig2)
        assert (plan.backend, plan.source) == ("compiled", "profile")

    def test_profile_rows_are_bucket_local(self, fig2):
        _seed_profile(fig2, "compiled", 1, 1e-5, n=256, m=256)
        # 24x24 lives in lg8, so the lg16 row must not steer it
        assert _plan(fig2, n=24, m=24).source == "model"
        assert _plan(fig2, n=256, m=256).source == "profile"

    def test_jobs_constraint_filters_parallel_rows(self, fig2):
        _seed_profile(fig2, "parallel", 4, 1e-6)
        plan = _plan(fig2, jobs=2)
        assert not (plan.backend == "parallel" and plan.jobs == 4)


class TestPlannerDeterminism:
    def test_same_inputs_same_plan(self, fig2):
        assert _plan(fig2) == _plan(fig2)

    def test_warm_plans_repeat(self, fig2):
        _seed_profile(fig2, "compiled", 1, 1e-5)
        assert _plan(fig2) == _plan(fig2)

    def test_no_wall_clock_leakage(self, fig2, monkeypatch):
        # decisions stay identical while the clock jumps by hours
        # between (and during) calls -- the planner never reads it
        import time as _time

        real = _time.perf_counter
        state = {"skew": 0.0}

        def jumpy():
            state["skew"] += 3600.0
            return real() + state["skew"]

        monkeypatch.setattr(_time, "perf_counter", jumpy)
        monkeypatch.setattr(_time, "time", lambda: jumpy())
        _seed_profile(fig2, "compiled", 1, 1e-5)
        assert _plan(fig2) == _plan(fig2)

    def test_decision_ignores_row_insertion_order(self, fig2):
        _, fp, result = fig2
        skey = structural_hash(fp.retimed_mldg)
        fingerprint = current_fingerprint()
        forward = MemoryProfiles()
        backward = MemoryProfiles()
        rows = [("numpy", 1, 0.004), ("compiled", 1, 0.002),
                ("parallel", 2, 0.010)]
        for b, j, s in rows:
            forward.profile_record(skey, fingerprint, "lg16", b, j, s)
        for b, j, s in reversed(rows):
            backward.profile_record(skey, fingerprint, "lg16", b, j, s)
        plans = []
        for table in (forward, backward):
            planner = Planner()
            planner._profiles = lambda t=table: t
            plans.append(planner.plan_execution(
                fp, 256, 256, schedule=result.schedule,
                is_doall=result.is_doall))
        assert plans[0] == plans[1]
        assert plans[0].backend == "compiled"


class TestPlannerObservability:
    def test_counters_and_snapshot(self, fig2):
        reg = obs.default_registry()
        before = reg.counter("plan.selects").value
        plan = _plan(fig2)
        assert reg.counter("plan.selects").value == before + 1
        assert reg.counter(f"plan.source.{plan.source}").value >= 1
        assert reg.counter(f"plan.backend.{plan.backend}").value >= 1
        recent = plan_snapshot()["recent"]
        assert recent and recent[-1] == plan.to_dict()

    def test_select_emits_trace_span(self, fig2):
        _, fp, result = fig2
        with obs.tracing() as tracer:
            Planner().plan_execution(
                fp, 24, 24, schedule=result.schedule,
                is_doall=result.is_doall)
        (span,) = [s for s in tracer.spans() if s.name == "plan.select"]
        assert span.attributes["bucket"] == "lg8"
        assert span.attributes["backend"] in backend_names()
        assert span.attributes["source"] in ("profile", "model")

    def test_plan_to_dict_is_json_shaped(self, fig2):
        d = _plan(fig2).to_dict()
        assert set(d) == {"backend", "jobs", "source", "rationale",
                          "skey", "bucket", "fingerprint", "estS"}


# ------------------------------------------------------------------ #
# feedback recording and its gate
# ------------------------------------------------------------------ #


class TestRecordGate:
    def test_record_feeds_the_profile_tier(self, fig2):
        plan = _plan(fig2)
        assert Planner().record(plan, 0.004) is True
        warm = _plan(fig2)
        assert warm.source == "profile"
        assert (warm.backend, warm.jobs) == (plan.backend, plan.jobs)

    def test_memo_kill_switch_blocks_recording(self, fig2, monkeypatch):
        plan = _plan(fig2)
        monkeypatch.setenv("REPRO_FUSE_MEMO", "0")
        assert Planner().record(plan, 0.004) is False
        monkeypatch.delenv("REPRO_FUSE_MEMO")
        assert _plan(fig2).source == "model"  # nothing was written

    def test_work_limiting_budget_blocks_recording(self, fig2):
        from repro.resilience import Budget

        plan = _plan(fig2)
        probe = Budget(max_nodes=1)
        assert Planner().record(plan, 0.004, budget=probe) is False
        assert _plan(fig2).source == "model"

    def test_active_fault_injection_blocks_recording(self, fig2):
        from repro.resilience.faults import EdgeWeightCorruption, inject

        plan = _plan(fig2)
        with inject(EdgeWeightCorruption(), seed=3):
            assert Planner().record(plan, 0.004) is False
        assert _plan(fig2).source == "model"

    def test_keyless_plan_is_not_recorded(self, fig2):
        plan = ExecutionPlan(backend="interp", jobs=1, source="model",
                             rationale="x")
        assert Planner().record(plan, 0.004) is False


# ------------------------------------------------------------------ #
# bit-identity: auto vs the interpreter, across the gallery
# ------------------------------------------------------------------ #


def _gallery():
    sources = {"fig2": figure2_code(), "iir2d": iir2d_code()}
    for k in extended_kernels():
        sources[k.key] = k.code
    return [(key, *_fused(src)) for key, src in sorted(sources.items())]


_GALLERY = _gallery()
_SIZES = [(5, 7), (17, 23)]


class TestAutoBitIdentity:
    @pytest.mark.parametrize("key,nest,fp,result", _GALLERY,
                             ids=[w[0] for w in _GALLERY])
    @pytest.mark.parametrize("n,m", _SIZES, ids=[f"{n}x{m}" for n, m in _SIZES])
    def test_cold_auto_matches_interp(self, key, nest, fp, result, n, m):
        ref = ArrayStore.for_program(nest, n, m, seed=11)
        run_fused(fp, n, m, store=ref, mode="serial")
        got = ArrayStore.for_program(nest, n, m, seed=11)
        execute_fused("auto", fp, n, m, store=got,
                      schedule=result.schedule, is_doall=result.is_doall)
        assert ref.equal(got), f"auto diverged from interp on {key}"

    @pytest.mark.parametrize("key,nest,fp,result", _GALLERY,
                             ids=[w[0] for w in _GALLERY])
    def test_warm_auto_matches_every_static_backend(self, key, nest, fp,
                                                    result):
        n, m = 17, 23
        ref = ArrayStore.for_program(nest, n, m, seed=11)
        run_fused(fp, n, m, store=ref, mode="serial")
        skey = structural_hash(fp.retimed_mldg)
        for backend in backend_names():
            got = ArrayStore.for_program(nest, n, m, seed=11)
            execute_fused(backend, fp, n, m, store=got,
                          schedule=result.schedule,
                          is_doall=result.is_doall, jobs=2)
            assert ref.equal(got), f"{backend} diverged on {key}"
            # warm the profile tier toward this backend, then re-check auto
            memory_profiles().profile_record(
                skey, current_fingerprint(), size_bucket(n, m),
                backend, 2 if backend == "parallel" else 1, 1e-6)
            auto = ArrayStore.for_program(nest, n, m, seed=11)
            execute_fused("auto", fp, n, m, store=auto,
                          schedule=result.schedule, is_doall=result.is_doall)
            assert ref.equal(auto), (
                f"auto diverged on {key} warmed toward {backend}")


# ------------------------------------------------------------------ #
# session integration: execute_fused through the planner + L2 profiles
# ------------------------------------------------------------------ #


class TestSessionIntegration:
    def _session(self, path, backend="auto"):
        return Session(
            options=SessionOptions(backend=backend, store_path=str(path)),
            caches=SessionCaches.private(),
        )

    def test_auto_session_executes_and_persists_profiles(self, tmp_path):
        session = self._session(tmp_path / "plan.db")
        out = session.fuse_program(figure2_code())
        n = m = 12
        ref = ArrayStore.for_program(out.nest, n, m, seed=11)
        run_fused(out.fused, n, m, store=ref, mode="serial")
        got = ArrayStore.for_program(out.nest, n, m, seed=11)
        session.execute_fused(out.fused, n, m, store=got,
                              schedule=out.fusion.schedule,
                              is_doall=out.fusion.is_doall)
        assert ref.equal(got)
        assert session.caches.store.profile_count() >= 1
        session.caches.store.close()

    def test_cold_then_warm_reuses_the_measurement(self, tmp_path):
        session = self._session(tmp_path / "plan.db")
        out = session.fuse_program(figure2_code())
        reg = obs.default_registry()
        for _ in range(2):
            got = ArrayStore.for_program(out.nest, 12, 12, seed=11)
            session.execute_fused(out.fused, 12, 12, store=got,
                                  schedule=out.fusion.schedule,
                                  is_doall=out.fusion.is_doall)
        # second decision had a row to read: the profile tier was hit
        assert reg.counter("store.profile_hits").value >= 1
        assert reg.counter("plan.records").value >= 2
        session.caches.store.close()

    def test_explicit_backend_skips_planner_choice(self, tmp_path):
        session = self._session(tmp_path / "plan.db")
        out = session.fuse_program(figure2_code())
        reg = obs.default_registry()
        before = reg.counter("plan.source.explicit").value
        got = ArrayStore.for_program(out.nest, 12, 12, seed=11)
        session.execute_fused(out.fused, 12, 12, store=got,
                              backend="compiled",
                              schedule=out.fusion.schedule,
                              is_doall=out.fusion.is_doall)
        assert reg.counter("plan.source.explicit").value == before + 1
        session.caches.store.close()

    def test_pinned_session_backend_reports_session_source(self, tmp_path):
        session = self._session(tmp_path / "plan.db", backend="interp")
        out = session.fuse_program(figure2_code())
        reg = obs.default_registry()
        before = reg.counter("plan.source.session").value
        got = ArrayStore.for_program(out.nest, 12, 12, seed=11)
        session.execute_fused(out.fused, 12, 12, store=got,
                              schedule=out.fusion.schedule,
                              is_doall=out.fusion.is_doall)
        assert reg.counter("plan.source.session").value == before + 1
        session.caches.store.close()
