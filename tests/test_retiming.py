"""Unit tests for the Retiming object and its invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gallery import figure2_mldg
from repro.gallery.paper import (
    figure2_expected_alg4_retiming,
    figure2_expected_llofra_retiming,
)
from repro.fusion import fuse, legal_fusion_retiming
from repro.graph import cycle_weight, enumerate_cycles, mldg_from_table, random_legal_mldg
from repro.retiming import (
    Retiming,
    cycle_weights_preserved,
    edges_all_nonnegative,
    is_doall_after_fusion,
    verify_retiming,
)
from repro.vectors import IVec


class TestRetimingObject:
    def test_missing_nodes_default_zero(self):
        r = Retiming({"C": IVec(-1, 0)}, dim=2)
        assert r["C"] == IVec(-1, 0)
        assert r["anything"] == IVec(0, 0)

    def test_coerces_tuples(self):
        r = Retiming({"A": (1, 2)}, dim=2)  # type: ignore[dict-item]
        assert r["A"] == IVec(1, 2)

    def test_dimension_enforced(self):
        with pytest.raises(ValueError):
            Retiming({"A": IVec(1, 2, 3)}, dim=2)

    def test_zero_retiming_is_identity(self):
        g = figure2_mldg()
        assert Retiming.zero(dim=2).apply(g) == g

    def test_equality_ignores_explicit_zeros(self):
        assert Retiming({"A": IVec(0, 0)}, dim=2) == Retiming({}, dim=2)

    def test_hash_consistent_with_eq(self):
        a = Retiming({"A": IVec(0, 0), "B": IVec(1, 1)}, dim=2)
        b = Retiming({"B": IVec(1, 1)}, dim=2)
        assert a == b and hash(a) == hash(b)

    def test_compose_is_pointwise_sum(self):
        r1 = Retiming({"A": IVec(1, 0)}, dim=2)
        r2 = Retiming({"A": IVec(0, -2), "B": IVec(1, 1)}, dim=2)
        r = r1.compose(r2)
        assert r["A"] == IVec(1, -2)
        assert r["B"] == IVec(1, 1)

    def test_compose_matches_sequential_application(self):
        g = figure2_mldg()
        r1 = Retiming({"C": IVec(0, -2)}, dim=2)
        r2 = Retiming({"D": IVec(-1, 0)}, dim=2)
        assert r2.apply(r1.apply(g)) == r1.compose(r2).apply(g)

    def test_from_components(self):
        r = Retiming.from_components({"A": -1}, {"A": 2, "B": 3})
        assert r["A"] == IVec(-1, 2)
        assert r["B"] == IVec(0, 3)

    def test_describe(self):
        r = Retiming({"A": IVec(0, -2)}, dim=2)
        assert "r(A)=(0, -2)" in r.describe()

    def test_normalized_covers_all_nodes(self):
        g = figure2_mldg()
        r = Retiming({"C": IVec(-1, 0)}, dim=2).normalized(g)
        assert set(r.nodes()) == set(g.nodes)


class TestRetimedWeights:
    def test_figure6_edge_weights(self):
        """Applying Figure 6's retiming must produce Figure 6's edge weights."""
        gr = figure2_expected_llofra_retiming().apply(figure2_mldg())
        assert gr.delta("A", "B") == IVec(1, 1)
        assert gr.delta("B", "C") == IVec(0, 0)
        assert gr.delta("C", "D") == IVec(0, 0)
        assert gr.delta("A", "C") == IVec(0, 3)
        assert gr.delta("D", "A") == IVec(2, -2)
        assert gr.delta("C", "C") == IVec(1, 0)

    def test_figure12_edge_weights(self):
        """Applying Figure 12's retiming must produce Figure 12's weights."""
        gr = figure2_expected_alg4_retiming().apply(figure2_mldg())
        assert gr.delta("A", "B") == IVec(1, 1)
        assert gr.delta("B", "C") == IVec(1, -2)
        assert gr.delta("C", "D") == IVec(0, 0)
        assert gr.delta("A", "C") == IVec(1, 1)
        assert gr.delta("D", "A") == IVec(1, 0)
        assert gr.delta("C", "C") == IVec(1, 0)

    def test_section23_worked_example(self):
        """Section 2.3: edge e5 (D->A) becomes (1,0) and D_Lr(D,A)={(1,0)}."""
        r = Retiming(
            {"A": IVec(0, 0), "B": IVec(0, 0), "C": IVec(-1, 0), "D": IVec(-1, -1)},
            dim=2,
        )
        gr = r.apply(figure2_mldg())
        assert gr.D("D", "A") == frozenset({IVec(1, 0)})


class TestInvariants:
    def test_cycle_weights_invariant_for_paper_retimings(self):
        g = figure2_mldg()
        for r in (figure2_expected_llofra_retiming(), figure2_expected_alg4_retiming()):
            assert cycle_weights_preserved(g, r, r.apply(g))

    def test_cycle_weights_section23(self):
        """delta_Lr(c1) = (3,-1) and delta_Lr(c2) = (2,1), unchanged."""
        from repro.graph import cycle_weight

        g = figure2_mldg()
        gr = figure2_expected_alg4_retiming().apply(g)
        assert cycle_weight(gr, ["A", "B", "C", "D"]) == IVec(3, -1)
        assert cycle_weight(gr, ["A", "C", "D"]) == IVec(2, 1)

    def test_edges_all_nonnegative(self):
        gr = figure2_expected_llofra_retiming().apply(figure2_mldg())
        assert edges_all_nonnegative(gr)
        assert not edges_all_nonnegative(figure2_mldg())

    def test_doall_detection(self):
        g = figure2_mldg()
        assert not is_doall_after_fusion(g)
        gr = figure2_expected_alg4_retiming().apply(g)
        assert is_doall_after_fusion(gr)
        # LLOFRA alone does not give DOALL (Figure 7's serialised rows)
        gl = figure2_expected_llofra_retiming().apply(g)
        assert not is_doall_after_fusion(gl)

    def test_verify_retiming_full_report(self):
        g = figure2_mldg()
        v = verify_retiming(g, figure2_expected_alg4_retiming())
        assert v.ok_for_legal_fusion and v.ok_for_parallel_fusion
        assert v.problems == []

    def test_verify_retiming_flags_bad(self):
        g = mldg_from_table({("A", "B"): [(0, 0)]}, nodes=["A", "B"])
        bad = Retiming({"B": IVec(0, 5)}, dim=2)  # drives A->B to (0,-5)
        v = verify_retiming(g, bad)
        assert not v.fusion_legal
        assert any("delta" in p for p in v.problems)


def _tail_and_cycle():
    """A -> B feeds the cycle B -> C -> B; A -> B lies on no cycle."""
    g = mldg_from_table(
        {("A", "B"): [(0, 1), (1, 0)], ("B", "C"): [(0, 2)], ("C", "B"): [(1, -1)]},
        nodes=["A", "B", "C"],
    )
    r = Retiming({"B": IVec(0, 1), "C": IVec(-1, 0)}, dim=2)
    return g, r, r.apply(g)


def _every_cycle_weight_equal(g, gr):
    return all(
        cycle_weight(g, c) == cycle_weight(gr, c) for c in enumerate_cycles(g, limit=None)
    )


class TestExactCertificate:
    """``cycle_weights_preserved`` certifies the artifact's own edges."""

    def test_accepts_the_applied_graph(self):
        g, r, gr = _tail_and_cycle()
        assert cycle_weights_preserved(g, r, gr)

    def test_rejects_altered_vector_off_every_cycle(self):
        g, r, gr = _tail_and_cycle()
        bad = gr.copy()
        v = min(bad.D("A", "B"))
        bad.remove_dependence("A", "B", v)
        bad.add_dependence("A", "B", v + IVec(0, 1))
        # every cycle weight still matches: a cycle check cannot see this
        assert _every_cycle_weight_equal(g, bad)
        assert not cycle_weights_preserved(g, r, bad)

    def test_rejects_dropped_edge(self):
        g, r, gr = _tail_and_cycle()
        bad = gr.copy()
        bad.remove_edge("A", "B")
        assert not cycle_weights_preserved(g, r, bad)

    def test_rejects_extra_vector(self):
        g, r, gr = _tail_and_cycle()
        bad = gr.copy()
        bad.add_dependence("B", "C", max(bad.D("B", "C")) + IVec(1, 0))
        assert not cycle_weights_preserved(g, r, bad)

    def test_rejects_reordered_nodes(self):
        g, r, gr = _tail_and_cycle()
        bad = r.apply(mldg_from_table(
            {("A", "B"): [(0, 1), (1, 0)], ("B", "C"): [(0, 2)], ("C", "B"): [(1, -1)]},
            nodes=["A", "C", "B"],
        ))
        assert bad != gr
        assert not cycle_weights_preserved(g, r, bad)

    def test_fuse_applies_the_retiming_once(self):
        res = fuse(figure2_mldg())
        assert res.retimed is res.verification.retimed

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_full_cycle_enumeration(self, seed, n):
        g = random_legal_mldg(n, seed=seed)
        for r in (legal_fusion_retiming(g), fuse(g).retiming):
            gr = r.apply(g)
            assert cycle_weights_preserved(g, r, gr) == _every_cycle_weight_equal(g, gr)
            assert cycle_weights_preserved(g, r, gr)
