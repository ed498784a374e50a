"""Each compile decides legality once and analyses each program once.

* The LLOFRA outcome (Theorem 2.3) is kept on the MLDG: ``check_legal``,
  ``zero_weight_cycle`` and ``legal_fusion_retiming`` share one exact
  solve, every mutator clears it, and the memo bypasses (work-limiting
  budgets, fault injectors, ``REPRO_FUSE_MEMO=0``) solve every time.
* The strict pipeline computes the model findings, the dependence table,
  the analysis report and the LLOFRA solve once per compile: validate's
  findings feed lint, and lint's products feed extract, prune and
  legality.
* A DOALL result's row schedule has the graph's dimension, so 3-D
  results are usable and their L2 rows verify.
* The ladder's execution gate reuses the certificate's retimed graph.
"""

from __future__ import annotations

import sys
from typing import Callable, List

import pytest

from repro import obs
from repro.analysis.engine import analyze_nest
from repro.core.session import Session, SessionCaches, SessionOptions
from repro.depend.extract import dependence_table
from repro.fusion import fuse, legal_fusion_retiming
from repro.fusion.errors import IllegalMLDGError
from repro.gallery import figure2_mldg, figure14_mldg
from repro.gallery.common import iir2d_code
from repro.gallery.extended import extended_kernels
from repro.gallery.paper import figure2_code
from repro.graph.legality import check_legal, llofra_system, zero_weight_cycle
from repro.graph.mldg import MLDG
from repro.graph.random_gen import random_legal_mldg
from repro.loopir.validate import model_findings
from repro.perf.memo import clear_all_caches
from repro.resilience import Budget, BudgetExceededError, fuse_resilient
from repro.resilience.faults import EdgeWeightCorruption, inject
from repro.retiming import Retiming
from repro.store import reset_open_stores
from repro.vectors import IVec
from repro.verify.dataflow import verify_retimed_execution


@pytest.fixture(autouse=True)
def _memo_on(monkeypatch):
    """These tests pin the memoizing path; the bypasses are set per test."""
    monkeypatch.delenv("REPRO_FUSE_MEMO", raising=False)
    monkeypatch.delenv("REPRO_FUSE_STORE", raising=False)
    clear_all_caches()
    reset_open_stores()
    yield
    clear_all_caches()
    reset_open_stores()


def _count_calls(monkeypatch, func: Callable) -> List[int]:
    """Count calls to ``func`` through every ``repro`` module that binds it."""
    calls: List[int] = []

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name.startswith("repro") and getattr(mod, func.__name__, None) is func:
            monkeypatch.setattr(mod, func.__name__, counted)
    return calls


def _illegal_mldg() -> MLDG:
    """A -> B -> A with cycle weight (0, -1): a negative cycle."""
    g = MLDG(dim=2)
    g.add_dependence("A", "B", IVec(0, 1))
    g.add_dependence("B", "A", IVec(0, -2))
    return g


def _gallery_sources():
    out = [("fig2", figure2_code()), ("iir2d", iir2d_code())]
    out += [(k.key, k.code) for k in extended_kernels()]
    return out


# ---------------------------------------------------------------------- #
# graph layer: the per-graph LLOFRA outcome
# ---------------------------------------------------------------------- #


class TestOneSolvePerGraph:
    def test_every_reader_shares_one_solve(self, monkeypatch):
        solves = _count_calls(monkeypatch, llofra_system)
        g = figure14_mldg()
        assert check_legal(g).legal
        assert zero_weight_cycle(g) is not None
        r = legal_fusion_retiming(g)
        assert legal_fusion_retiming(g, check=False) == r
        assert check_legal(g).legal
        assert len(solves) == 1

    def test_kept_outcome_equals_a_fresh_solve(self):
        for seed in range(5):
            g = random_legal_mldg(12, seed=seed)
            first = legal_fusion_retiming(g)
            assert g._llofra is not None
            assert legal_fusion_retiming(g) == first
            assert legal_fusion_retiming(g.copy()) == first

    def test_deadline_only_budget_reads_the_kept_outcome(self, monkeypatch):
        g = figure2_mldg()
        check_legal(g)
        solves = _count_calls(monkeypatch, llofra_system)
        legal_fusion_retiming(g, budget=Budget(deadline_ms=60_000.0))
        assert solves == []


def _add_new_node(g: MLDG) -> None:
    g.add_node("Z")


def _add_negative_cycle(g: MLDG) -> None:
    g.add_dependence("D", "A", IVec(0, -10))


def _remove_edge(g: MLDG) -> None:
    e = next(iter(g.edges()))
    g.remove_edge(e.src, e.dst)


def _remove_one_vector(g: MLDG) -> None:
    e = next(e for e in g.edges() if len(e.vectors) > 1)
    g.remove_dependence(e.src, e.dst, max(e.vectors))


class TestMutatorsClearTheOutcome:
    @pytest.mark.parametrize(
        "mutate",
        [_add_new_node, _add_negative_cycle, _remove_edge, _remove_one_vector],
        ids=["add_node", "add_dependence", "remove_edge", "remove_dependence"],
    )
    def test_mutator_clears(self, mutate, monkeypatch):
        g = figure2_mldg()
        check_legal(g)
        assert g._llofra is not None
        mutate(g)
        assert g._llofra is None
        solves = _count_calls(monkeypatch, llofra_system)
        fresh = MLDG(dim=g.dim)
        for n in g.nodes:
            fresh.add_node(n)
        for e in g.edges():
            fresh.add_dependence(e.src, e.dst, *e.vectors)
        assert check_legal(g) == check_legal(fresh)
        assert len(solves) == 2

    def test_re_adding_a_node_keeps_the_outcome(self):
        g = figure2_mldg()
        check_legal(g)
        g.add_node("A")
        assert g._llofra is not None

    def test_derived_graphs_start_empty(self):
        g = figure2_mldg()
        r = legal_fusion_retiming(g)
        assert g._llofra is not None
        assert g.copy()._llofra is None
        assert g.retimed(r.as_dict())._llofra is None
        assert g.restricted_to(["A", "B"])._llofra is None


class TestBypassesSolveEveryTime:
    def test_work_limiting_budget_still_trips_after_check_legal(self):
        g = figure2_mldg()
        assert check_legal(g).legal
        with pytest.raises(BudgetExceededError):
            legal_fusion_retiming(g, budget=Budget(max_relaxation_rounds=0))
        # and a failed budgeted solve leaves the kept outcome intact
        assert legal_fusion_retiming(g) == legal_fusion_retiming(g.copy())

    def test_fault_injection_solves_again(self, monkeypatch):
        g = figure2_mldg()
        check_legal(g)
        solves = _count_calls(monkeypatch, llofra_system)
        with inject(EdgeWeightCorruption(), seed=3):
            check_legal(g)
            legal_fusion_retiming(g, check=False)
        assert len(solves) == 2

    def test_memo_off_solves_every_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSE_MEMO", "0")
        solves = _count_calls(monkeypatch, llofra_system)
        g = figure2_mldg()
        check_legal(g)
        check_legal(g)
        legal_fusion_retiming(g, check=False)
        assert len(solves) == 3
        assert g._llofra is None


class TestIllegalGraphRepeats:
    def _error(self, call):
        with pytest.raises(IllegalMLDGError) as info:
            call()
        exc = info.value
        return exc.violations, [d.to_dict() for d in exc.diagnostics], str(exc)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: legal_fusion_retiming(g),
            lambda g: legal_fusion_retiming(g, check=False),
            lambda g: fuse(g),
            lambda g: fuse_resilient(g),
        ],
        ids=["llofra", "llofra-unchecked", "fuse", "fuse_resilient"],
    )
    def test_same_violations_and_diagnostics(self, call, monkeypatch):
        g = _illegal_mldg()
        solves = _count_calls(monkeypatch, llofra_system)
        first = self._error(lambda: call(g))
        again = self._error(lambda: call(g))
        cold = self._error(lambda: call(_illegal_mldg()))
        assert first == again == cold
        assert first[0]  # violations are reported
        assert len(solves) == 2  # g once, the fresh graph once

    def test_report_carries_the_certificate(self):
        g = _illegal_mldg()
        first, again = check_legal(g), check_legal(g)
        assert not first.legal
        assert first == again
        assert set(first.findings[0].cycle) == {"A", "B"}
        with pytest.raises(ValueError, match="not legal"):
            zero_weight_cycle(g)


# ---------------------------------------------------------------------- #
# pipeline layer: one analysis per compile
# ---------------------------------------------------------------------- #


_SOURCES = _gallery_sources()


@pytest.mark.parametrize(
    "name,source", _SOURCES, ids=[name for name, _ in _SOURCES]
)
def test_cold_strict_compile_analyses_once(name, source, monkeypatch):
    counts = {
        "llofra": _count_calls(monkeypatch, llofra_system),
        "dependence_table": _count_calls(monkeypatch, dependence_table),
        "analyze_nest": _count_calls(monkeypatch, analyze_nest),
        "model_findings": _count_calls(monkeypatch, model_findings),
    }
    session = Session(caches=SessionCaches.private())
    result = session.fuse_program(source)
    assert result.fusion.verification.ok_for_legal_fusion
    assert {k: len(v) for k, v in counts.items()} == {
        "llofra": 1,
        "dependence_table": 1,
        "analyze_nest": 1,
        "model_findings": 1,
    }


def test_analysis_counters_fire_once_per_compile():
    with obs.use_registry() as reg:
        result = Session(caches=SessionCaches.private()).fuse_program(
            figure2_code()
        )
    verdicts = sum(
        value
        for key, value in reg.to_dict()["counters"].items()
        if key.startswith("analysis.verdict.")
    )
    assert verdicts == len(dependence_table(result.nest, check=False))


def test_lint_products_ride_on_the_pipeline_result():
    result = Session(caches=SessionCaches.private()).fuse_program(figure2_code())
    assert result.mldg == figure2_mldg()
    assert result.mldg._llofra is not None


# ---------------------------------------------------------------------- #
# satellites: DOALL schedule dimension, retimed graph reuse
# ---------------------------------------------------------------------- #


class TestDoallScheduleDimension:
    def test_fuse_and_ladder_schedules_match_the_graph(self):
        g = random_legal_mldg(5, dim=3, seed=0)
        res = fuse(g)
        assert res.is_doall
        assert res.schedule == IVec(1, 0, 0)
        for d in res.retimed.all_vectors():
            res.schedule.dot(d)  # raised on a dimension mismatch before
        ladder = fuse_resilient(g)
        assert ladder.schedule == IVec(1, 0, 0)

    def test_second_session_gets_a_clean_l2_hit(self, tmp_path):
        path = str(tmp_path / "s.db")
        g = random_legal_mldg(5, dim=3, seed=0)

        def session() -> Session:
            return Session(
                options=SessionOptions(store_path=path),
                caches=SessionCaches.private(),
            )

        with session().activate():
            cold = fuse(g)
        warm_session = session()
        with obs.use_registry() as reg, warm_session.activate():
            before = warm_session.caches.store.stats()
            warm = fuse(g)
            after = warm_session.caches.store.stats()
            verify_fail = reg.counter("store.verify_fail").value
        assert warm.schedule == cold.schedule == IVec(1, 0, 0)
        assert warm.retiming == cold.retiming
        assert after.hits == before.hits + 1
        assert after.puts == before.puts  # no re-solve, no re-write
        assert verify_fail == 0


class TestExecutionGateReusesRetimedGraph:
    def test_given_retimed_graph_is_not_rebuilt(self, monkeypatch):
        g = figure2_mldg()
        r = fuse(g).retiming
        gr = r.apply(g)
        applies = _count_apply(monkeypatch)
        assert verify_retimed_execution(g, r, (4, 4), mode="doall", retimed=gr)
        assert applies == []

    def test_ladder_applies_each_retiming_once(self, monkeypatch):
        applies = _count_apply(monkeypatch)
        res = fuse_resilient(figure2_mldg())
        assert res.report.final_rung is res.rung
        assert len(applies) == 1  # the certificate's; the gate reuses it


def _count_apply(monkeypatch) -> List[int]:
    calls: List[int] = []
    original = Retiming.apply

    def counted(self, g):
        calls.append(1)
        return original(self, g)

    monkeypatch.setattr(Retiming, "apply", counted)
    return calls

