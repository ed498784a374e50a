"""Tests for the dimension-agnostic dataflow executor.

This is the end-to-end verification channel for the n-D generalisations:
the order-free reference semantics versus concrete (randomised) schedules.
"""

import random
import sys
import threading

import pytest

from repro.fusion import (
    NoParallelRetimingError,
    cyclic_parallel_retiming,
    fuse,
    legal_fusion_retiming,
    multidim_hyperplane_fusion,
    multidim_parallel_retiming,
)
from repro.gallery import figure2_mldg, figure8_mldg, figure14_mldg
from repro.graph import MLDG, mldg_from_table, random_legal_mldg
from repro.retiming import Retiming
from repro.vectors import IVec
from repro.verify import (
    DataflowSemantics,
    ExecutionDeadlock,
    OrderViolation,
    execute_retimed,
    reference_values,
    verify_retimed_execution,
)


def _random_3d(seed: int, nodes: int = 5) -> MLDG:
    rng = random.Random(seed)
    g = MLDG(dim=3)
    names = [f"L{k}" for k in range(nodes)]
    for n in names:
        g.add_node(n)
    for a in range(nodes):
        for b in range(nodes):
            if a == b or rng.random() > 0.4:
                continue
            lo = 0 if a < b else 1
            vecs = [
                IVec(rng.randint(lo, 2), rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 2))
            ]
            g.add_dependence(names[a], names[b], *vecs)
    return g


class TestSemantics:
    def test_inputs_deterministic(self):
        sem1 = DataflowSemantics(figure2_mldg(), (4, 4), seed=3)
        sem2 = DataflowSemantics(figure2_mldg(), (4, 4), seed=3)
        assert sem1.input_value("A", (2, 2)) == sem2.input_value("A", (2, 2))

    def test_inputs_vary_with_seed_and_instance(self):
        sem = DataflowSemantics(figure2_mldg(), (4, 4), seed=3)
        other = DataflowSemantics(figure2_mldg(), (4, 4), seed=4)
        assert sem.input_value("A", (2, 2)) != other.input_value("A", (2, 2))
        assert sem.input_value("A", (2, 2)) != sem.input_value("A", (2, 3))

    def test_bounds_dimension_checked(self):
        with pytest.raises(ValueError):
            DataflowSemantics(figure2_mldg(), (4, 4, 4))

    def test_reference_rejects_deadlock(self):
        """Figure 14's zero-weight cycle is an instance-level deadlock."""
        sem = DataflowSemantics(figure14_mldg(), (3, 8))
        with pytest.raises(ValueError, match="deadlock|cycle"):
            reference_values(sem)

    def test_reference_size_guard(self):
        sem = DataflowSemantics(figure2_mldg(), (500, 500))
        with pytest.raises(ValueError, match="too large"):
            reference_values(sem, max_instances=1000)

    def test_inputs_are_hashed_into_unit_interval(self):
        sem = DataflowSemantics(figure2_mldg(), (4, 4), seed=3)
        values = [sem.input_value(n, x) for n in "ABCD" for x in sem.iteration_box()]
        assert all(-1.0 <= v < 1.0 for v in values)
        assert len(set(values)) == len(values)


class TestDeadlockSignal:
    def test_reference_deadlock_is_typed(self):
        sem = DataflowSemantics(figure14_mldg(), (4, 4))
        with pytest.raises(ExecutionDeadlock):
            reference_values(sem)

    def test_zero_self_loop_is_a_deadlock(self):
        g = mldg_from_table({("A", "A"): [(0, 0)]}, nodes=["A"])
        with pytest.raises(ExecutionDeadlock, match="cycle"):
            reference_values(DataflowSemantics(g, (2, 2)))

    def test_missing_body_order_is_typed(self):
        """A zero-weight cycle whose reads all leave the box has a reference,
        but retimed to zero vectors it leaves no fused body order."""
        g = mldg_from_table(
            {("A", "B"): [(0, 5)], ("B", "A"): [(0, -5)]}, nodes=["A", "B"]
        )
        sem = DataflowSemantics(g, (3, 3))
        assert len(reference_values(sem)) == 32
        r = Retiming({"B": IVec(0, 5)}, dim=2)
        with pytest.raises(ExecutionDeadlock, match="no fused body order"):
            execute_retimed(sem, r)


class TestExplicitStack:
    """The reference evaluates with its own stack and never touches the
    process-wide recursion limit."""

    @staticmethod
    def _forbid_recursion_limit(monkeypatch):
        def refuse(limit):
            raise AssertionError("reference_values changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)

    def test_long_chain_leaves_recursion_limit_alone(self, monkeypatch):
        before = sys.getrecursionlimit()
        self._forbid_recursion_limit(monkeypatch)
        g = mldg_from_table({("A", "A"): [(0, 1)]}, nodes=["A"])
        values = reference_values(DataflowSemantics(g, (0, 3000)))
        assert len(values) == 3001
        assert sys.getrecursionlimit() == before

    def test_backward_chain_deeper_than_the_default_limit(self, monkeypatch):
        """Each instance reads the *next* one, so evaluating (0, 0) first
        needs a 3000-deep dependency chain; values follow the recurrence."""
        self._forbid_recursion_limit(monkeypatch)
        g = mldg_from_table({("A", "A"): [(0, -1)]}, nodes=["A"])
        sem = DataflowSemantics(g, (0, 3000), seed=5)
        values = reference_values(sem)
        expected = sem.input_value("A", (0, 3000)) + 0.5 * sem.input_value("A", (0, 3001))
        for j in range(3000, -1, -1):
            assert values[("A", (0, j))] == expected
            expected = sem.input_value("A", (0, j - 1)) + 0.5 * expected

    def test_concurrent_references_keep_the_limit(self):
        before = sys.getrecursionlimit()
        chain = mldg_from_table({("A", "A"): [(0, -1)]}, nodes=["A"])
        errors = []

        def work(length):
            try:
                reference_values(DataflowSemantics(chain, (0, length)))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(n,)) for n in (40, 700) * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        assert sys.getrecursionlimit() == before


class TestTwoDimensional:
    def test_figure2_serial_and_doall(self):
        g = figure2_mldg()
        r = cyclic_parallel_retiming(g)
        assert verify_retimed_execution(g, r, (5, 5), mode="serial")
        assert verify_retimed_execution(g, r, (5, 5), mode="doall", order_seed=11)

    def test_figure2_llofra_serial_only(self):
        """LLOFRA fusion is serial: lexicographic order works, randomised
        rows trip the order check."""
        g = figure2_mldg()
        r = legal_fusion_retiming(g)
        assert verify_retimed_execution(g, r, (5, 5), mode="serial")
        sem = DataflowSemantics(g, (5, 5))
        with pytest.raises(OrderViolation):
            execute_retimed(sem, r, mode="doall", order_seed=3)

    def test_figure8_acyclic(self):
        g = figure8_mldg()
        r = fuse(g).retiming
        assert verify_retimed_execution(g, r, (6, 6), mode="doall")

    def test_hyperplane_mode_2d(self):
        g = figure2_mldg()
        res = fuse(g, strategy="hyperplane")
        assert verify_retimed_execution(
            g, res.retiming, (5, 5), mode="hyperplane", schedule=res.schedule
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_2d_graphs(self, seed):
        g = random_legal_mldg(5, seed=seed)
        res = fuse(g)
        mode = "doall" if res.is_doall else "hyperplane"
        assert verify_retimed_execution(
            g, res.retiming, (5, 5), mode=mode,
            schedule=res.schedule if mode == "hyperplane" else None,
            seed=seed,
        )


class TestThreeDimensional:
    @pytest.mark.parametrize("seed", range(6))
    def test_multidim_doall_execution(self, seed):
        g = _random_3d(seed)
        try:
            r = multidim_parallel_retiming(g)
        except NoParallelRetimingError:
            return
        assert verify_retimed_execution(g, r, (3, 3, 3), mode="doall", seed=seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_multidim_hyperplane_execution(self, seed):
        g = _random_3d(seed + 50)
        r, s = multidim_hyperplane_fusion(g)
        assert verify_retimed_execution(
            g, r, (3, 3, 3), mode="hyperplane", schedule=s, seed=seed
        )

    def test_known_3d_example(self):
        g = mldg_from_table(
            {
                ("A", "B"): [(0, -2, 1)],
                ("B", "C"): [(0, 1, -4), (0, 1, 2)],
                ("C", "A"): [(1, 0, 0)],
            },
            nodes=["A", "B", "C"],
            dim=3,
        )
        r = multidim_parallel_retiming(g)
        assert verify_retimed_execution(g, r, (4, 4, 4), mode="doall")


class TestOrderViolationDetection:
    def test_serial_with_backward_vector_fails(self):
        """A retiming leaving a lexicographically negative vector cannot be
        executed serially -- and the executor notices."""
        g = mldg_from_table({("A", "B"): [(0, -2)]}, nodes=["A", "B"])
        sem = DataflowSemantics(g, (4, 4))
        with pytest.raises(OrderViolation):
            execute_retimed(sem, Retiming.zero(dim=2), mode="serial")

    def test_bad_mode(self):
        sem = DataflowSemantics(figure2_mldg(), (3, 3))
        with pytest.raises(ValueError):
            execute_retimed(sem, Retiming.zero(dim=2), mode="zigzag")

    def test_hyperplane_needs_schedule(self):
        sem = DataflowSemantics(figure2_mldg(), (3, 3))
        with pytest.raises(ValueError, match="schedule"):
            execute_retimed(sem, Retiming.zero(dim=2), mode="hyperplane")
