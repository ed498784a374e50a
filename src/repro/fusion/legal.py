"""Algorithm 2: the Legal Loop Fusion Retiming Algorithm (LLOFRA).

Theorem 3.2: for any legal 2LDG there is a retiming ``r`` with every retimed
edge weight ``delta_Lr(e) >= (0, 0)``, after which loop fusion is legal
(Theorem 3.1).  The retiming solves the difference-constraint system

.. math::  r(v_j) - r(v_i) \\le \\delta_L(e) \\qquad \\forall e : v_i \\to v_j

on the Section-2.4 constraint graph (the paper's Figure 5 for the running
example) using the lexicographic Bellman-Ford of Algorithm 1.  The system is
feasible because every cycle of a legal MLDG has weight lexicographically
greater than ``(0, 0)``.

Complexity: ``O(|V| * |E|)`` vector operations -- one Bellman-Ford run.
That run is :func:`repro.graph.legality.llofra_outcome`, the same solve
that decides :func:`~repro.graph.legality.check_legal`; its outcome stays
on the graph, so deciding legality and then retiming solves once.
"""

from __future__ import annotations

from typing import Optional

from repro.constraints.constraint_graph import ConstraintGraph
from repro.fusion.errors import IllegalMLDGError
from repro.graph.legality import check_legal, llofra_outcome, llofra_system
from repro.graph.mldg import MLDG
from repro.resilience.budget import Budget
from repro.retiming import Retiming

__all__ = ["legal_fusion_retiming", "llofra", "llofra_constraint_graph"]


def llofra_constraint_graph(g: MLDG) -> ConstraintGraph:
    """The LLOFRA constraint graph (Figure 5 shape), for inspection."""
    return llofra_system(g).constraint_graph()


def legal_fusion_retiming(
    g: MLDG, *, check: bool = True, budget: Optional[Budget] = None
) -> Retiming:
    """Algorithm 2: a retiming making loop fusion legal.

    Parameters
    ----------
    g:
        The MLDG to retime.
    check:
        When true (default), validate structural legality first and raise
        :class:`~repro.fusion.errors.IllegalMLDGError` with diagnostics
        instead of surfacing a bare infeasible-system error.
    budget:
        Optional :class:`~repro.resilience.budget.Budget` bounding the
        Bellman-Ford solve; exhaustion raises
        :class:`~repro.resilience.budget.BudgetExceededError`.  A
        work-limiting budget never reads the graph's kept outcome, so it
        always measures a real solve.

    Returns the retiming whose values are the shortest-path distances from
    ``v_0`` -- exactly the function the paper reports in Figure 6
    (``r(C) = (0,-2)``, ``r(D) = (0,-3)`` for the running example).
    """
    if check:
        report = check_legal(g)
        if not report.legal:
            from repro.lint.engine import diagnostics_from_legality

            raise IllegalMLDGError(
                report.violations, diagnostics=diagnostics_from_legality(report)
            )
    outcome = llofra_outcome(g, budget=budget)
    if outcome.solution is None:
        # unreachable for structurally legal graphs (Theorem 3.2); reachable
        # when check=False on an illegal graph
        raise IllegalMLDGError(
            [f"LLOFRA system infeasible; negative cycle {list(outcome.cycle or ())}"]
        )
    return Retiming(outcome.solution, dim=g.dim)


#: Paper-style alias.
llofra = legal_fusion_retiming
